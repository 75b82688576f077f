"""Whole-machine images: every image format, and the one way back.

:mod:`repro.persist.state` knows how to freeze one node's pieces; this
module assembles them into the payloads the container format
(:mod:`repro.persist.snapshot`) carries:

* ``chip`` — a lone :class:`~repro.machine.chip.MAPChip` with no kernel
  (the fuzzer's bare-chip scenarios and their crash dumps);
* ``simulation`` — a one-node :class:`~repro.sim.api.Simulation` (chip
  + kernel + optional swap manager);
* ``multicomputer`` — every node of a mesh simulation, plus the mesh's
  timing state, the window state and the migration forwarding map.

:func:`restore_machine` rebuilds any of the three as a
:class:`~repro.sim.api.Simulation` — the one front door — and
:func:`load_machine` does the same from a file; ``Simulation.save`` and
``Simulation.restore`` are the facade's spelling of the pair.

Loading builds a *fresh* machine from the snapshot's recorded
architectural configuration and restores state into it.  Keyword
overrides on load may change the simulator speed knobs
(``decode_cache``, ``data_fast_path``, ``superblock``) — they
alter zero cycles, which the determinism tests prove by running the
same image to identical digests with each knob flipped both ways.
Architectural overrides are rejected by the restore path.

What does **not** come back by itself: trap handlers, custom fault
handlers and jump auditors are code, not state — re-register them
after load.  The demand-paging fault handler and (when the snapshot
recorded a swap manager) the LRU evictor are machine structure, so the
load path does re-wire those.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.persist.snapshot import SnapshotError, read_snapshot
from repro.persist.state import (capture_chip, capture_kernel, capture_swap,
                                 restore_chip_state, restore_kernel_state,
                                 restore_swap_state)

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.chip import MAPChip
    from repro.machine.multicomputer import Multicomputer
    from repro.runtime.kernel import Kernel
    from repro.sim.api import Simulation


# -- one node (chip + kernel + optional swap) ---------------------------

def capture_node(kernel: "Kernel") -> dict:
    return {
        "chip": capture_chip(kernel.chip),
        "kernel": capture_kernel(kernel),
        "swap": capture_swap(kernel.swap) if kernel.swap is not None else None,
    }


def restore_node(kernel: "Kernel", state: dict) -> None:
    restore_chip_state(kernel.chip, state["chip"])
    restore_kernel_state(kernel, state["kernel"])
    if state["swap"] is not None:
        swap = kernel.swap
        if swap is None:
            from repro.runtime.swap import SwapManager

            swap = SwapManager(kernel)  # wires the evicting fault handler
        restore_swap_state(swap, state["swap"])


# -- image kinds ---------------------------------------------------------

def capture_bare_chip(chip: "MAPChip") -> dict:
    """A kernel-less chip (the fuzzer's bare-chip scenarios) as a
    ``chip`` image."""
    return {"kind": "chip", "chip": capture_chip(chip)}


def capture_simulation(sim: "Simulation") -> dict:
    return {"kind": "simulation", "node": capture_node(sim.kernel)}


def capture_multicomputer(machine: "Multicomputer") -> dict:
    return {
        "kind": "multicomputer",
        "shape": {"x": machine.shape.x, "y": machine.shape.y,
                  "z": machine.shape.z},
        "hop_cycles": machine.network.hop_cycles,
        "interface_cycles": machine.network.interface_cycles,
        "arena_order": machine.arena_order,
        "network": machine.network.capture_state(),
        "page_homes": sorted(machine._page_homes.items()),
        # the window engine's machine half: barrier position, per-node
        # sequence counters and any traffic still queued mid-window
        # (per-node mirror/exported/pending state rides in each chip)
        "windows": {"next_barrier": machine._next_barrier,
                    "seq": list(machine._seq),
                    "outbox": [list(box) for box in machine._outbox]},
        "nodes": [capture_node(kernel) for kernel in machine.kernels],
    }


def restore_multicomputer_state(machine: "Multicomputer",
                                state: dict) -> None:
    shape = state["shape"]
    if (shape["x"], shape["y"], shape["z"]) != (
            machine.shape.x, machine.shape.y, machine.shape.z):
        raise SnapshotError("snapshot mesh shape differs from machine's")
    if len(state["nodes"]) != len(machine.kernels):
        raise SnapshotError("snapshot node count differs from machine's")
    machine.network.restore_state(state["network"])
    machine._page_homes = {int(p): int(n) for p, n in state["page_homes"]}
    for kernel, node_state in zip(machine.kernels, state["nodes"]):
        restore_node(kernel, node_state)
    windows = state["windows"]
    machine._next_barrier = int(windows["next_barrier"])
    machine._seq = [int(s) for s in windows["seq"]]
    machine._outbox = [[list(m) for m in box] for box in windows["outbox"]]


# -- rebuilding a machine ---------------------------------------------------

def restore_machine(payload: dict, **overrides) -> "Simulation":
    """A fresh :class:`~repro.sim.api.Simulation` holding whatever the
    image holds: a ``chip`` image restores into the chip of a one-node
    simulation whose kernel is empty, a ``simulation`` image into a
    one-node simulation, a ``multicomputer`` image into a mesh one."""
    from repro.machine.chip import ChipConfig
    from repro.machine.network import MeshShape
    from repro.sim.api import Simulation

    def config(chip_state: dict) -> ChipConfig:
        base = ChipConfig(**chip_state["config"])
        return replace(base, **overrides) if overrides else base

    kind = payload.get("kind")
    if kind == "chip":
        sim = Simulation(config(payload["chip"]))
        restore_chip_state(sim.chip, payload["chip"])
    elif kind == "simulation":
        sim = Simulation(config(payload["node"]["chip"]))
        restore_node(sim.kernel, payload["node"])
    elif kind == "multicomputer":
        shape = payload["shape"]
        sim = Simulation.mesh(
            MeshShape(shape["x"], shape["y"], shape["z"]),
            config(payload["nodes"][0]["chip"]),
            hop_cycles=payload["hop_cycles"],
            interface_cycles=payload["interface_cycles"],
            arena_order=payload["arena_order"])
        restore_multicomputer_state(sim.machine, payload)
    else:
        raise SnapshotError(f"cannot load a machine from a {kind!r} snapshot")
    return sim


def load_machine(path: str | Path, **overrides) -> "Simulation":
    """:func:`restore_machine` over a snapshot file."""
    return restore_machine(read_snapshot(path), **overrides)
