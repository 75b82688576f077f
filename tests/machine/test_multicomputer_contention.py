"""Multicomputer under load: interface contention and mixed traffic."""

import pytest

from repro.machine.network import MeshShape
from repro.sim.api import Simulation


def machine(x=2, y=1, z=1):
    return Simulation.mesh(MeshShape(x, y, z), memory_bytes=2 * 1024 * 1024,
                           arena_order=22)


class TestInterfaceContention:
    def test_many_remote_loads_serialise_at_the_port(self):
        sim = machine()
        remote = sim.allocate(4096, node=1, eager=True)
        # four threads on node 0 all loading from node 1
        threads = []
        for i in range(4):
            entry = sim.load("""
                ld r2, r1, 0
                ld r3, r1, 8
                halt
            """, node=0)
            threads.append(sim.spawn(entry, node=0, regs={1: remote.word},
                                     cluster=0, stack_bytes=0))
        result = sim.run(max_cycles=100_000)
        assert result.reason == "halted"
        assert sim.network.stats.port_wait_cycles > 0  # injections queued
        stalls = sorted(t.stats.stall_cycles for t in threads)
        assert stalls[-1] > stalls[0]  # later requesters waited longer

    def test_local_work_unaffected_by_remote_storm(self):
        sim = machine()
        remote = sim.allocate(4096, node=1, eager=True)
        local = sim.allocate(4096, node=0, eager=True)
        noisy = sim.load("""
            movi r4, 20
        loop:
            beq r4, done
            ld r2, r1, 0
            subi r4, r4, 1
            br loop
        done:
            halt
        """, node=0)
        quiet = sim.load("""
            movi r4, 20
        loop:
            beq r4, done
            ld r2, r1, 0
            subi r4, r4, 1
            br loop
        done:
            halt
        """, node=0)
        sim.spawn(noisy, node=0, regs={1: remote.word}, cluster=0,
                  stack_bytes=0)
        t_local = sim.spawn(quiet, node=0, regs={1: local.word}, cluster=1,
                            stack_bytes=0)
        result = sim.run(max_cycles=200_000)
        assert result.reason == "halted"
        # the local thread's loads hit its own cache: tiny stall total
        assert t_local.stats.stall_cycles < 60


class TestMixedTraffic:
    def test_all_pairs_exchange(self):
        sim = machine(x=2, y=2)
        mailboxes = [sim.allocate(4096, node=n, eager=True) for n in range(4)]
        threads = []
        for n in range(4):
            target = (n + 1) % 4
            entry = sim.load(f"""
                movi r2, {100 + n}
                st r2, r1, 0      ; write into my neighbour's mailbox
                halt
            """, node=n)
            threads.append(sim.spawn(
                entry, node=n, regs={1: mailboxes[target].word},
                stack_bytes=0))
        result = sim.run(max_cycles=100_000)
        assert result.reason == "halted"
        for n in range(4):
            sender = (n - 1) % 4
            paddr = sim.chips[n].page_table.walk(mailboxes[n].segment_base)
            assert sim.chips[n].memory.load_word(paddr).value == 100 + sender

    def test_hop_accounting_matches_topology(self):
        sim = machine(x=4)
        far = sim.allocate(4096, node=3, eager=True)
        entry = sim.load("ld r2, r1, 0\nhalt", node=0)
        sim.spawn(entry, node=0, regs={1: far.word}, stack_bytes=0)
        sim.run(max_cycles=100_000)
        assert sim.network.stats.messages == 2
        assert sim.network.stats.mean_hops == 3.0
