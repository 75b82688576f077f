"""Delta snapshots: O(dirty pages) checkpoints over one base image.

A full snapshot serialises every word in use; for a long-running
machine that is almost all of DRAM, every time.  A
:class:`DeltaCheckpointer` writes the full image **once** and then, at
each checkpoint, only

* the physical pages written since the previous checkpoint, and
* the machine's non-memory state (registers, page table, TLB, cache
  timing, kernel bookkeeping — all small and cheap to re-serialise).

Dirty pages are tracked where every write already funnels:
:meth:`~repro.mem.tagged_memory.TaggedMemory.store_word` marks the
written physical page, so CPU stores, kernel loads, GC sweeps, swap
traffic and remote mesh stores are all caught by construction.  The
checkpointer additionally piggybacks on the page table's
push-invalidation hooks — the same hooks that keep the decoded-bundle
cache and TLB coherent — conservatively re-marking an unmapped page's
frame, so translation churn (swap-out, revocation, segment free) can
never leave a frame's bytes unrecorded even if a future memory path
wrote below :meth:`store_word`.

Each delta records the base image's digest and its parent delta's
digest, forming a hash chain: :func:`load_chain` refuses to apply a
delta out of order, against the wrong base, or over a gap.  Restoring
replays the chain in memory — base words, then each delta's pages in
sequence — and hands the final payload to the ordinary restore path,
so a delta-restored machine is indistinguishable from a full-snapshot
restore (the round-trip tests assert digest equality).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.persist.image import capture_simulation, restore_machine
from repro.persist.replay import state_digest
from repro.persist.snapshot import (SnapshotError, read_snapshot,
                                    write_snapshot)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.api import Simulation

BASE_NAME = "base.snap"
DELTA_PATTERN = "delta-{:04d}.snap"


class DeltaChainError(SnapshotError):
    """A delta does not follow from the base/parent it was applied to."""


class DeltaCheckpointer:
    """Incremental checkpoints of a single-node simulation.

    ::

        ckpt = DeltaCheckpointer(sim, "checkpoints/")   # writes base.snap
        ...run...
        ckpt.checkpoint()                               # delta-0001.snap
        ...run...
        ckpt.checkpoint()                               # delta-0002.snap

        sim2 = load_chain("checkpoints/")               # state at delta 2
    """

    def __init__(self, sim: "Simulation", directory: str | Path):
        self.sim = sim
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        chip = sim.chip
        self._page_bytes = chip.config.page_bytes
        self._words_per_page = self._page_bytes // 8
        chip.memory.enable_dirty_tracking(self._page_bytes)
        chip.page_table.add_invalidation_hook(self._on_unmap)
        chip.memory.drain_dirty_pages()  # the base image covers history
        base_payload = capture_simulation(sim)
        self.base_path = write_snapshot(base_payload, self.directory / BASE_NAME)
        self.base_digest = state_digest(base_payload)
        self._parent_digest = self.base_digest
        self.sequence = 0
        # Shadow of the translations as of the last checkpoint: the
        # unmap hook fires *after* the page table forgets the frame, so
        # this is how the hook still knows which physical page backed
        # the revoked virtual page.  (Pages mapped since the last
        # checkpoint aren't in the shadow, but their frames were
        # necessarily written through store_word — which marked them.)
        self._shadow = dict(chip.page_table._map)

    def _on_unmap(self, virtual_page: int) -> None:
        """Conservatively re-mark the unmapped page's backing frame:
        revocation and swap-out must never let a frame's bytes slip
        between two checkpoints even if some future memory path mutated
        them below :meth:`store_word`."""
        frame = self._shadow.pop(virtual_page, None)
        if frame is not None:
            memory = self.sim.chip.memory
            if memory._dirty_pages is not None:
                memory._dirty_pages.add(frame // self._page_bytes)

    def checkpoint(self) -> Path:
        """Write one delta: the pages dirtied since the last checkpoint
        plus the machine's complete non-memory state."""
        chip = self.sim.chip
        payload = capture_simulation(self.sim)
        payload["node"]["chip"]["memory"] = []  # pages carry the words
        dirty = sorted(chip.memory.drain_dirty_pages())
        self.sequence += 1
        delta = {
            "kind": "delta",
            "sequence": self.sequence,
            "base": self.base_digest,
            "parent": self._parent_digest,
            "page_bytes": self._page_bytes,
            "pages": [[page, [[v, t] for v, t in
                              chip.memory.page_words(page, self._page_bytes)]]
                      for page in dirty],
            "machine": payload,
        }
        path = write_snapshot(
            delta, self.directory / DELTA_PATTERN.format(self.sequence))
        self._parent_digest = state_digest(delta)
        self._shadow = dict(chip.page_table._map)
        return path


def chain_paths(directory: str | Path) -> tuple[Path, list[Path]]:
    """The base image and the ordered delta files in a checkpoint
    directory."""
    directory = Path(directory)
    base = directory / BASE_NAME
    if not base.exists():
        raise DeltaChainError(f"no {BASE_NAME} in {directory}")
    deltas = sorted(directory.glob("delta-*.snap"))
    return base, deltas


def load_chain(directory: str | Path, upto: int | None = None,
               **overrides) -> "Simulation":
    """Rebuild the simulation at the chain's tip (or at delta ``upto``).

    Every link is verified: each delta must name the base image's
    digest and its immediate parent's digest, and sequence numbers must
    be dense from 1.
    """
    base_path, delta_paths = chain_paths(directory)
    base = read_snapshot(base_path)
    if base.get("kind") != "simulation":
        raise DeltaChainError(
            f"base image is a {base.get('kind')!r} snapshot")
    base_digest = state_digest(base)
    # sparse physical image: word index -> [value, tag]
    memory = {int(i): [v, t] for i, v, t in base["node"]["chip"]["memory"]}
    payload = base
    parent = base_digest
    expected = 1
    for path in delta_paths:
        if upto is not None and expected > upto:
            break
        delta = read_snapshot(path)
        if delta.get("kind") != "delta":
            raise DeltaChainError(f"{path.name} is not a delta snapshot")
        if delta["sequence"] != expected:
            raise DeltaChainError(
                f"{path.name} is delta {delta['sequence']}, expected "
                f"{expected} (missing or reordered link)")
        if delta["base"] != base_digest:
            raise DeltaChainError(
                f"{path.name} belongs to a different base image")
        if delta["parent"] != parent:
            raise DeltaChainError(
                f"{path.name} does not follow the previous link "
                f"(hash chain broken)")
        words_per_page = delta["page_bytes"] // 8
        for page, words in delta["pages"]:
            first = int(page) * words_per_page
            for offset, (value, tag) in enumerate(words):
                index = first + offset
                if value or tag:
                    memory[index] = [int(value), bool(tag)]
                else:
                    memory.pop(index, None)
        payload = delta["machine"]
        parent = state_digest(delta)
        expected += 1
    if upto is not None and expected <= upto:
        raise DeltaChainError(
            f"chain ends at delta {expected - 1}, requested {upto}")
    payload["node"]["chip"]["memory"] = [
        [index, value, tag] for index, (value, tag) in sorted(memory.items())]
    return restore_machine(payload, **overrides)
