"""Tests for the multicomputer: one address space, many nodes."""

import pytest

from repro.core.exceptions import PageFault, PermissionFault
from repro.core.permissions import Permission
from repro.core.word import TaggedWord
from repro.machine.multicomputer import Partition, node_bits_for
from repro.machine.network import MeshShape
from repro.machine.thread import ThreadState
from repro.sim.api import Simulation


def small_machine(nodes=(2, 1, 1)):
    return Simulation.mesh(MeshShape(*nodes), memory_bytes=2 * 1024 * 1024,
                           arena_order=24)


class TestPartition:
    def test_node_bits(self):
        assert node_bits_for(1) == 0
        assert node_bits_for(2) == 1
        assert node_bits_for(8) == 3
        assert node_bits_for(5) == 3

    def test_homes_are_disjoint(self):
        p = Partition(node_bits=2)
        assert p.home_of(p.base_of(0)) == 0
        assert p.home_of(p.base_of(3)) == 3
        assert p.home_of(p.base_of(1) - 1) == 0

    def test_span(self):
        p = Partition(node_bits=3)
        assert p.span() == 1 << 51


class TestSegmentsAcrossNodes:
    def test_arenas_live_in_their_partitions(self):
        sim = small_machine()
        a = sim.allocate(4096, node=0)
        b = sim.allocate(4096, node=1)
        assert sim.partition.home_of(a.segment_base) == 0
        assert sim.partition.home_of(b.segment_base) == 1

    def test_local_program_runs(self):
        sim = small_machine()
        entry = sim.load("movi r1, 5\nhalt", node=0)
        t = sim.spawn(entry, node=0, stack_bytes=0)
        result = sim.run()
        assert result.reason == "halted"
        assert t.regs.read(1).value == 5


class TestRemoteAccess:
    def test_pointer_works_across_nodes(self):
        # node 1 writes through a pointer whose segment lives on node 0
        sim = small_machine()
        shared = sim.allocate(4096, node=0, eager=True)
        entry = sim.load("""
            movi r2, 123
            st r2, r1, 0
            ld r3, r1, 0
            halt
        """, node=1)
        t = sim.spawn(entry, node=1, regs={1: shared.word}, stack_bytes=0)
        result = sim.run()
        assert result.reason == "halted"
        assert t.regs.read(3).value == 123
        # the data really landed in node 0's memory
        physical = sim.chips[0].page_table.walk(shared.segment_base)
        assert sim.chips[0].memory.load_word(physical).value == 123

    def test_remote_loads_cost_network_latency(self):
        sim = small_machine()
        local = sim.allocate(4096, node=1, eager=True)
        remote = sim.allocate(4096, node=0, eager=True)
        src = """
            ld r2, r1, 0
            halt
        """
        t_local = sim.spawn(sim.load(src, node=1), node=1,
                            regs={1: local.word}, stack_bytes=0)
        t_remote = sim.spawn(sim.load(src, node=1), node=1,
                             regs={1: remote.word}, stack_bytes=0)
        sim.run()
        assert t_remote.stats.stall_cycles > t_local.stats.stall_cycles
        assert sim.network.stats.messages >= 2  # request + reply

    def test_protection_checked_at_issue_even_for_remote(self):
        # a read-only remote pointer refuses stores on the *issuing*
        # node — no protection state exists at the home node at all
        sim = small_machine()
        shared = sim.allocate(4096, node=0, perm=Permission.READ_ONLY,
                              eager=True)
        entry = sim.load("""
            movi r2, 9
            st r2, r1, 0
            halt
        """, node=1)
        t = sim.spawn(entry, node=1, regs={1: shared.word}, stack_bytes=0)
        sim.run()
        assert t.state is ThreadState.FAULTED
        assert isinstance(t.fault.cause, PermissionFault)
        assert sim.network.stats.messages == 0  # rejected before injection

    def test_remote_demand_paging(self):
        # lazy segment on node 0 touched first from node 1: the fault is
        # serviced by the home node's kernel
        sim = small_machine()
        lazy = sim.allocate(64 * 1024, node=0)  # not eager
        entry = sim.load("""
            movi r2, 7
            st r2, r1, 0
            ld r3, r1, 0
            halt
        """, node=1)
        t = sim.spawn(entry, node=1, regs={1: lazy.word}, stack_bytes=0)
        result = sim.run()
        assert result.reason == "halted"
        assert t.regs.read(3).value == 7
        assert sim.kernels[0].stats.demand_pages >= 1

    def test_tagged_pointer_travels_between_nodes(self):
        # store a pointer into remote memory; reload it; it's still a
        # pointer (tags are part of every node's memory)
        sim = small_machine()
        mailbox = sim.allocate(4096, node=0, eager=True)
        secret = sim.allocate(4096, node=0, eager=True)
        entry = sim.load("""
            st r2, r1, 0      ; publish a pointer into node 0's mailbox
            ld r3, r1, 0      ; read it back over the mesh
            isptr r4, r3
            halt
        """, node=1)
        t = sim.spawn(entry, node=1, regs={1: mailbox.word, 2: secret.word},
                      stack_bytes=0)
        result = sim.run()
        assert result.reason == "halted"
        assert t.regs.read(4).value == 1


class TestLockstep:
    def test_threads_on_all_nodes_progress(self):
        sim = Simulation.mesh(MeshShape(2, 2, 1), memory_bytes=1024 * 1024,
                              arena_order=20)
        threads = []
        for node in range(4):
            entry = sim.load(f"""
                movi r1, {node + 10}
                halt
            """, node=node)
            threads.append(sim.spawn(entry, node=node, stack_bytes=0))
        result = sim.run()
        assert result.reason == "halted"
        for node, t in enumerate(threads):
            assert t.regs.read(1).value == node + 10

    def test_cross_node_producer_consumer(self):
        sim = small_machine()
        flag = sim.allocate(4096, node=0, eager=True)
        producer = sim.load("""
            movi r2, 10
        delay:
            beq r2, go
            subi r2, r2, 1
            br delay
        go:
            movi r3, 77
            st r3, r1, 0
            halt
        """, node=0)
        consumer = sim.load("""
        wait:
            ld r3, r1, 0
            beq r3, wait
            halt
        """, node=1)
        sim.spawn(producer, node=0, regs={1: flag.word}, stack_bytes=0)
        t = sim.spawn(consumer, node=1, regs={1: flag.word}, stack_bytes=0)
        result = sim.run(max_cycles=100_000)
        assert result.reason == "halted"
        assert t.regs.read(3).value == 77


class TestBarrierFailurePaths:
    """The barrier's rare branches: a remote load or posted store to a
    segment freed on its home node, and a runtime physical store whose
    decode-cache flush reaches the other node at the next barrier."""

    @pytest.mark.parametrize("site, program", [
        ("remote-load", "ld r3, r1, 0\nhalt"),
        ("remote-store", "st r2, r1, 0\nhalt"),
        ("flush", None),
    ])
    def test_barrier_path(self, site, program):
        sim = small_machine()
        data = sim.allocate(4096, node=0, eager=True)
        if program is None:
            sim.chips[1].fetch(sim.load("movi r1, 1\nhalt", node=1))
            sim.chips[0].store_runtime_word(
                sim.chips[0].page_table.walk(data.segment_base),
                TaggedWord.integer(7))
            assert sim.chips[1]._decode_cache  # not before the barrier
            sim.advance_idle(sim.machine.window)
            assert not sim.chips[1]._decode_cache
            return
        sim.kernels[0].free_segment(data)
        t = sim.spawn(program, node=1, regs={1: data.word}, stack_bytes=0)
        sim.run()
        (record,) = sim.chips[1].fault_log
        assert isinstance(record.cause, PageFault)
        assert record.opcode_name == site
        assert sim.counters_of(1).get("fault.PageFault") == 1
        # a load faults its thread; a posted store's thread moved on
        loaded = site == "remote-load"
        assert t.fault is (record if loaded else None)
        assert t.state is (ThreadState.FAULTED if loaded
                           else ThreadState.HALTED)
