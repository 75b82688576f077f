"""Live process migration: pages and threads move, pointers do not.

The tentpole claim (paper §1–§2): a process's protection state *is*
its guarded pointers, which name places in the single global address
space — so after migrating a process to another node, every pointer it
held works bit-for-bit unchanged.  These tests pin that down, plus the
bookkeeping around it: the forwarding map, pinning, the backing store,
and the refusals (sub-page segments, tid collisions, bad nodes).
"""

import pytest

from repro.core.word import TaggedWord
from repro.machine.chip import RunReason
from repro.machine.network import MeshShape
from repro.machine.thread import ThreadState
from repro.persist import MigrationError, MigrationService, state_digest
from repro.runtime.process import Process, ProcessManager
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

#: Small pages so a test segment is page-sized (sub-page segments
#: refuse to migrate — the granularity mismatch of §4.3).
PAGE = 256

#: Spin (the migration window), then read the data segment and halt.
CLIENT = """
entry:
    movi r3, 400
spin:
    subi r3, r3, 1
    bne r3, spin
    ld r5, r1, 0
    addi r6, r5, 1
    st r6, r1, 8
    halt
"""


def make_machine(nodes=2):
    return Simulation.mesh(MeshShape(nodes, 1, 1), page_bytes=PAGE,
                           arena_order=24)


def make_process(sim, node=0, source=CLIENT, data_value=41):
    kernel = sim.kernels[node]
    manager = ProcessManager(kernel)
    process = manager.create(source)
    data = kernel.allocate_segment(PAGE, eager=True)
    kernel.chip.memory.store_word(kernel.chip.page_table.walk(data.segment_base),
                                  TaggedWord.integer(data_value))
    process.segments.append(data)
    thread = process.start(regs={1: data.word})
    return process, thread, data


class TestZeroFixups:
    def test_pointer_bits_survive_migration(self, tmp_path):
        sim = make_machine()
        process, thread, data = make_process(sim)
        sim.run(max_cycles=50)
        before = thread.regs.read(1)
        MigrationService(sim.machine).migrate(process, destination=1)
        after = thread.regs.read(1)
        assert (before.value, before.tag) == (after.value, after.tag)

    def test_process_completes_on_the_new_node(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        sim.run(max_cycles=50)
        report = MigrationService(sim.machine).migrate(process, destination=1)
        result = sim.run()
        assert result.reason is RunReason.HALTED, thread.fault
        assert thread.scheduler.chip is sim.chips[1]
        assert thread.regs.read(5).value == 41   # read through migrated ptr
        assert thread.regs.read(6).value == 42   # and wrote next to it
        assert report.threads_moved == 1
        assert report.pages_shipped >= 1
        assert process.kernel is sim.kernels[1]

    def test_migrated_words_live_on_the_destination(self):
        sim = make_machine()
        process, thread, data = make_process(sim, data_value=77)
        MigrationService(sim.machine).migrate(process, destination=1)
        page = data.segment_base // PAGE
        assert not sim.chips[0].page_table.is_mapped(page)
        assert sim.chips[1].page_table.is_mapped(page)
        physical = sim.chips[1].page_table.walk(data.segment_base)
        assert sim.chips[1].memory.load_word(physical).value == 77
        assert sim.machine.home_of(data.segment_base) == 1

    def test_segment_records_follow_the_process(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        base = data.segment_base
        assert base in sim.kernels[0].segments
        MigrationService(sim.machine).migrate(process, destination=1)
        assert base not in sim.kernels[0].segments
        assert base in sim.kernels[1].segments

    def test_migration_is_counted(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        MigrationService(sim.machine).migrate(process, destination=1)
        counters = sim.chips[0].counters.snapshot()
        assert counters["migrate.processes"] == 1
        assert counters["migrate.threads"] == 1
        assert counters["migrate.pages"] >= 1


class TestWorkingSetDiscovery:
    def test_register_pointers_are_discovered(self):
        sim = make_machine()
        kernel = sim.kernels[0]
        process, thread, data = make_process(sim)
        extra = kernel.allocate_segment(PAGE)
        thread.regs.write(9, extra.word)
        bases = MigrationService(sim.machine).reachable_segments(process)
        assert extra.segment_base in bases
        assert data.segment_base in bases
        assert process.entry.segment_base in bases

    def test_untagged_words_are_not_pointers(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        other = sim.kernels[0].allocate_segment(PAGE)
        # plant the *integer* bits of the pointer: no tag, no discovery
        thread.regs.write(9, TaggedWord(other.word.value, tag=False))
        bases = MigrationService(sim.machine).reachable_segments(process)
        assert other.segment_base not in bases


class TestPinning:
    def test_pinned_segment_stays_home(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        sim.run(max_cycles=50)
        report = MigrationService(sim.machine).migrate(process, destination=1,
                                              pin=(data,))
        assert data.segment_base in sim.kernels[0].segments
        assert data.segment_base not in report.segments_moved
        assert sim.machine.home_of(data.segment_base) == 0
        # the pinned segment still answers — remotely — and the client
        # finishes with the same result
        result = sim.run()
        assert result.reason is RunReason.HALTED, thread.fault
        assert thread.regs.read(5).value == 41


class TestBackingStore:
    def test_swapped_pages_move_store_to_store(self):
        sim = make_machine()
        src_swap = SwapManager(sim.kernels[0])
        dst_swap = SwapManager(sim.kernels[1])
        process, thread, data = make_process(sim)
        page = data.segment_base // PAGE
        assert src_swap.swap_out(page)
        report = MigrationService(sim.machine).migrate(process, destination=1)
        assert report.swapped_shipped == 1
        assert page not in src_swap._store
        assert page in dst_swap._store
        # the page is still swapped out; the thread faults it in on the
        # destination node and reads the planted value
        result = sim.run()
        assert result.reason is RunReason.HALTED, thread.fault
        assert thread.regs.read(5).value == 41
        assert dst_swap.stats.swap_ins == 1

    def test_swapped_pages_materialise_without_a_destination_store(self):
        sim = make_machine()
        src_swap = SwapManager(sim.kernels[0])
        process, thread, data = make_process(sim)
        page = data.segment_base // PAGE
        assert src_swap.swap_out(page)
        MigrationService(sim.machine).migrate(process, destination=1)
        assert sim.chips[1].page_table.is_mapped(page)
        result = sim.run()
        assert result.reason is RunReason.HALTED, thread.fault
        assert thread.regs.read(5).value == 41


class TestRefusals:
    def test_sub_page_segments_refuse_to_migrate(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        small = sim.kernels[0].allocate_segment(PAGE // 4)
        process.segments.append(small)
        with pytest.raises(MigrationError, match="smaller than a page"):
            MigrationService(sim.machine).migrate(process, destination=1)

    def test_same_node_is_refused(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        with pytest.raises(MigrationError, match="already on that node"):
            MigrationService(sim.machine).migrate(process, destination=0)

    def test_unknown_node_is_refused(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        with pytest.raises(MigrationError, match="no node"):
            MigrationService(sim.machine).migrate(process, destination=5)

    def test_tid_collision_is_refused_before_any_move(self):
        sim = make_machine()
        process, thread, data = make_process(sim)
        sim.spawn(sim.load("halt", node=1), node=1)  # same tid on the target
        base = data.segment_base
        with pytest.raises(MigrationError, match="tid"):
            MigrationService(sim.machine).migrate(process, destination=1)
        # nothing moved: segments and mapping are untouched
        assert base in sim.kernels[0].segments
        assert sim.chips[0].page_table.is_mapped(base // PAGE)

    def test_threadless_process_is_pure_data_motion(self):
        sim = make_machine()
        kernel = sim.kernels[0]
        data = kernel.allocate_segment(PAGE, eager=True)
        entry = kernel.load_program(CLIENT)
        process = Process(kernel=kernel, domain=9, entry=entry,
                          segments=[data])
        report = MigrationService(sim.machine).migrate(process, destination=1)
        assert report.threads_moved == 0
        assert report.pages_shipped >= 1


class TestMigrationPersists:
    def test_forwarding_map_survives_a_snapshot(self, tmp_path):
        sim = make_machine()
        process, thread, data = make_process(sim)
        sim.run(max_cycles=50)
        MigrationService(sim.machine).migrate(process, destination=1)
        path = sim.save(tmp_path / "migrated.snap")
        restored = Simulation.restore(path)
        assert state_digest(restored.capture_state()) == \
            state_digest(sim.capture_state())
        assert restored.machine.home_of(data.segment_base) == 1
        result = restored.run()
        assert result.reason is RunReason.HALTED
        migrated = [t for t in restored.chips[1].all_threads()
                    if t.tid == thread.tid]
        assert migrated and migrated[0].state is ThreadState.HALTED
        assert migrated[0].regs.read(5).value == 41
