"""End-to-end wiring: every subsystem's events come out of real runs.

Each test drives a real workload with a trace session attached and
asserts the expected event names (and histogram feeds) appear — the
per-site contract between the machine and ``docs/OBSERVABILITY.md``.
"""

import pytest

from repro.core.word import TaggedWord
from repro.machine.chip import ChipConfig, MAPChip, RunReason
from repro.machine.isa import BUNDLE_BYTES
from repro.machine.network import MeshShape
from repro.machine.thread import ThreadState
from repro.obs import EVENT_NAMES, TraceSession
from repro.persist import MigrationService
from repro.runtime.kernel import Kernel
from repro.runtime.process import ProcessManager
from repro.runtime.subsystem import ProtectedSubsystem
from repro.runtime.swap import SwapManager
from repro.sim.api import Simulation

LOAD_LOOP = """
    movi r2, 8
loop:
    ld r3, r1, 0
    subi r2, r2, 1
    bne r2, loop
    halt
"""


def names(events):
    return {e.name for e in events}


class TestIssueStream:
    def test_bundle_switch_spawn_and_halt(self):
        sim = Simulation()
        sim.spawn("movi r1, 1\nhalt")
        with sim.trace() as session:
            result = sim.run()
        assert result.reason is RunReason.HALTED
        assert {"bundle", "thread.switch", "thread.halt"} <= \
            names(session.events)
        # spawn happened before the session attached; the always-on
        # flight recorder caught it
        assert "thread.spawn" in names(sim.chip.obs.flight.events())

    def test_every_emitted_name_is_in_the_taxonomy(self):
        sim = Simulation()
        data = sim.allocate(4096)
        sim.spawn(LOAD_LOOP, regs={1: data.word})
        with sim.trace() as session:
            sim.run()
        assert names(session.events) <= set(EVENT_NAMES)

    def test_bundle_events_carry_disassembly(self):
        sim = Simulation()
        sim.spawn("movi r9, 42\nhalt")
        with sim.trace() as session:
            sim.run()
        texts = [e.args["text"] for e in session.events
                 if e.name == "bundle"]
        assert "movi r9, 42" in texts

    def test_one_bundle_event_per_issued_bundle_before_its_effects(self):
        # two callers cross an enter-privileged gateway, come back and
        # die on an unregistered trap; every bundle that issued (the
        # faulting trap too) emits exactly one ``bundle`` event, in
        # issue order, ahead of its own enter.call / fault.raise
        sim = Simulation()
        gate = ProtectedSubsystem.install(
            sim.kernel, "entry:\n  movi r11, 99\n  jmp r15", privileged=True)
        caller = sim.load("""
            getip r15, ret
            jmp r1
        ret:
            mov r5, r11
            trap 77
            halt
        """)
        threads = [sim.spawn(caller, regs={1: gate.enter.word},
                             stack_bytes=0) for _ in range(2)]
        with sim.trace() as session:
            sim.run()
        assert all(t.state is ThreadState.FAULTED for t in threads)
        assert sim.kernel.stats.traps == 2
        c, g = caller.address, gate.enter.address
        path = [c, c + BUNDLE_BYTES, g, g + BUNDLE_BYTES,
                c + 2 * BUNDLE_BYTES, c + 3 * BUNDLE_BYTES]
        events = session.events
        for t in threads:
            mine = [e for e in events if e.tid == t.tid
                    and e.name in ("bundle", "enter.call", "fault.raise")]
            issued = [e for e in mine if e.name == "bundle"]
            assert [e.args["address"] for e in issued] == path
            # the committed bundles plus the trap, which issued and
            # committed nothing
            assert len(issued) == t.stats.bundles + 1
            # each effect follows its own bundle's event, same cycle
            for i, e in enumerate(mine):
                if e.name != "bundle":
                    assert mine[i - 1].name == "bundle"
                    assert mine[i - 1].cycle == e.cycle
            assert [e.name for e in mine].count("enter.call") == 1
            assert mine[-1].name == "fault.raise"
            assert mine[-1].args["site"] == "trap"
            assert mine[-2].args["text"].startswith("trap 77")
        bundle_cycles = [e.cycle for e in events if e.name == "bundle"]
        assert bundle_cycles == sorted(bundle_cycles)


class TestMemoryHierarchy:
    def test_cache_and_tlb_misses_trace_as_spans(self):
        sim = Simulation()
        data = sim.allocate(4096)
        sim.spawn(LOAD_LOOP, regs={1: data.word})
        with sim.trace() as session:
            sim.run()
        fills = [e for e in session.events if e.name == "cache.miss_fill"]
        walks = [e for e in session.events if e.name == "tlb.miss_walk"]
        assert fills and walks
        assert all(e.dur > 0 for e in fills)
        assert all(e.dur == sim.chip.tlb.walk_cycles for e in walks)

    def test_load_to_use_histogram_feeds_without_tracing(self):
        sim = Simulation()
        data = sim.allocate(4096)
        sim.spawn(LOAD_LOOP, regs={1: data.word})
        sim.run()  # no session attached
        hist = sim.chip.obs.load_to_use
        assert hist.count >= 8
        assert hist.max >= sim.chip.cache.hit_cycles


class TestFaults:
    def test_raise_and_dispatch_reach_the_flight_recorder(self):
        chip = MAPChip(ChipConfig(memory_bytes=1024 * 1024))
        kernel = Kernel(chip)
        entry = kernel.load_program("movi r1, 3\nld r2, r1, 0\nhalt")
        kernel.spawn(entry, stack_bytes=0)
        kernel.run()
        events = {e.name: e for e in chip.obs.flight.events()}
        assert "fault.raise" in events
        assert "fault.dispatch" in events
        assert events["fault.dispatch"].args["outcome"] in (
            "resumed", "blocked", "killed", "halted")

    def test_demand_fault_counts_toward_residency(self):
        sim = Simulation()
        data = sim.allocate(4096)  # lazy: first touch demand-faults
        sim.spawn("ld r3, r1, 0\nhalt", regs={1: data.word})
        sim.run()
        assert sim.chip.obs.fault_residency.count >= 1


class TestEnterCrossings:
    def test_call_and_return_with_round_trip_histogram(self):
        kernel = Kernel(MAPChip(ChipConfig(memory_bytes=2 * 1024 * 1024)))
        gateway = ProtectedSubsystem.install(kernel, "entry:\n  jmp r15",
                                             privileged=True)
        caller = kernel.load_program("""
            getip r15, ret
            jmp r1
        ret:
            halt
        """)
        kernel.spawn(caller, regs={1: gateway.enter.word}, stack_bytes=0)
        with TraceSession([kernel.chip.obs]) as session:
            kernel.run()
        calls = [e for e in session.events if e.name == "enter.call"]
        returns = [e for e in session.events if e.name == "enter.return"]
        assert len(calls) == 1 and calls[0].args["priv"] is True
        assert len(returns) == 1 and returns[0].dur >= 1
        assert kernel.chip.obs.enter_roundtrip.count == 1


class TestSwap:
    def test_out_and_in_events(self):
        sim = Simulation()
        swap = SwapManager(sim.kernel, swap_cycles=10)
        data = sim.allocate(4096, eager=True)
        page = sim.chip.page_table.page_of(data.segment_base)
        assert swap.swap_out(page)
        sim.spawn("ld r3, r1, 0\nhalt", regs={1: data.word})
        sim.run()
        flight_names = names(sim.chip.obs.flight.events())
        assert {"swap.out", "swap.in"} <= flight_names


class TestMesh:
    def test_remote_access_hops_and_latency(self):
        sim = Simulation.mesh(MeshShape(2, 1, 1), memory_bytes=1024 * 1024,
                              arena_order=24)
        remote = sim.allocate(4096, node=1, eager=True)
        with sim.trace() as session:
            sim.chips[0].access_memory(remote.segment_base, write=False,
                                       now=sim.chips[0].now)
            # the load travels at the window barrier; drain it while
            # the session is still recording
            sim.advance_idle(sim.machine.window)
        hops = [e for e in session.events if e.name == "router.hop"]
        assert len(hops) == 2  # request + reply
        assert {e.args["src"] for e in hops} == {0, 1}
        assert sim.chips[0].obs.remote_latency.count == 1
        assert sim.chips[0].obs.remote_latency.max > 0

    def test_per_node_hubs_have_distinct_node_ids(self):
        sim = Simulation.mesh(MeshShape(2, 1, 1), memory_bytes=1024 * 1024,
                              arena_order=24)
        assert [chip.obs.node for chip in sim.chips] == [0, 1]


class TestMigration:
    def test_begin_ship_resume(self):
        page = 256
        sim = Simulation.mesh(MeshShape(2, 1, 1), page_bytes=page,
                              arena_order=24)
        kernel = sim.kernels[0]
        process = ProcessManager(kernel).create("""
        entry:
            movi r3, 200
        spin:
            subi r3, r3, 1
            bne r3, spin
            ld r5, r1, 0
            addi r6, r5, 1
            st r6, r1, 8
            halt
        """)
        data = kernel.allocate_segment(page, eager=True)
        process.segments.append(data)
        process.start(regs={1: data.word})
        sim.run(max_cycles=50)
        with sim.trace() as session:
            report = MigrationService(sim.machine).migrate(process,
                                                           destination=1)
        migrated = {e.name: e for e in session.events}
        assert {"migrate.begin", "migrate.ship", "migrate.resume"} <= \
            set(migrated)
        assert migrated["migrate.ship"].dur == \
            report.arrival_cycle - report.departed_cycle
        assert migrated["migrate.resume"].args["threads"] == 1


class TestCounterIntegration:
    def test_snapshot_carries_histograms_and_flight(self):
        sim = Simulation()
        data = sim.allocate(4096)
        sim.spawn(LOAD_LOOP, regs={1: data.word})
        sim.run()
        snapshot = sim.snapshot()
        assert snapshot["hist.load_to_use.count"] >= 8
        assert snapshot["hist.load_to_use.p50"] >= 0
        assert snapshot["flight.recorded"] >= 1
        assert snapshot["flight.dropped"] == 0
