"""The single global page table.

Because protection lives in guarded pointers, *translation* is the page
table's only job, and one table serves every process on the node (§2,
§5.1): there is nothing per-process to swap on a context switch.

Unmapping a page is the architectural hook for revocation and
relocation (§4.3): every subsequent access through any pointer into the
page raises :class:`~repro.core.exceptions.PageFault`, and system
software repairs or rejects the access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.exceptions import PageFault
from repro.mem.physical import FrameAllocator


@dataclass(frozen=True, slots=True)
class Translation:
    """A virtual→physical page mapping."""

    virtual_page: int
    physical_address: int


class PageTable:
    """Maps virtual page numbers to physical frame addresses.

    No permission bits and no address-space identifier: both are made
    unnecessary by guarded pointers.  The table is software-walked; the
    TLB caches recent translations.
    """

    def __init__(self, page_bytes: int, frames: FrameAllocator | None = None):
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a power of two")
        if frames is not None and frames.page_bytes != page_bytes:
            raise ValueError("frame allocator page size differs from page table's")
        self.page_bytes = page_bytes
        self._frames = frames
        self._map: dict[int, int] = {}
        #: generation counter bumped on every unmap, letting TLBs detect
        #: staleness cheaply (see :class:`repro.mem.tlb.TLB`).
        self.generation = 0
        #: push-style invalidation: each hook is called with the virtual
        #: page number on every unmap.  Structures that cache anything
        #: derived from a translation — the chip's decoded-bundle cache
        #: above all — register here so revocation-by-unmap (§4.3)
        #: reaches them synchronously, not at the next generation check.
        self._invalidation_hooks: list[Callable[[int], None]] = []

    # -- geometry ------------------------------------------------------

    def page_of(self, vaddr: int) -> int:
        return vaddr // self.page_bytes

    def page_offset(self, vaddr: int) -> int:
        return vaddr % self.page_bytes

    # -- mapping management (privileged software only) -----------------

    def map(self, virtual_page: int, physical_address: int | None = None) -> Translation:
        """Install a translation.  With no explicit frame, one is taken
        from the frame allocator (demand allocation)."""
        if virtual_page in self._map:
            raise ValueError(f"virtual page {virtual_page:#x} already mapped")
        if physical_address is None:
            if self._frames is None:
                raise ValueError("no frame allocator attached")
            physical_address = self._frames.allocate()
        if physical_address % self.page_bytes:
            raise ValueError(f"frame not page-aligned: {physical_address:#x}")
        self._map[virtual_page] = physical_address
        return Translation(virtual_page, physical_address)

    def unmap(self, virtual_page: int, release_frame: bool = True) -> None:
        """Remove a translation — the revocation primitive of §4.3."""
        try:
            frame = self._map.pop(virtual_page)
        except KeyError:
            raise ValueError(f"virtual page {virtual_page:#x} is not mapped") from None
        self.generation += 1
        for hook in self._invalidation_hooks:
            hook(virtual_page)
        if release_frame and self._frames is not None:
            self._frames.release(frame)

    def add_invalidation_hook(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(virtual_page)`` on every subsequent unmap."""
        self._invalidation_hooks.append(hook)

    def is_mapped(self, virtual_page: int) -> bool:
        return virtual_page in self._map

    # -- the walk --------------------------------------------------------

    def walk(self, vaddr: int) -> int:
        """Translate a virtual byte address to a physical byte address,
        raising :class:`PageFault` when the page is unmapped."""
        page = self.page_of(vaddr)
        try:
            frame = self._map[page]
        except KeyError:
            raise PageFault(vaddr) from None
        return frame + self.page_offset(vaddr)

    # -- persistence (repro.persist) -----------------------------------

    def capture_state(self) -> dict:
        """Every translation plus the staleness generation."""
        return {"map": sorted(self._map.items()),
                "generation": self.generation}

    def restore_state(self, state: dict) -> None:
        """Replace all translations **without** firing invalidation
        hooks: restore happens into a machine whose derived caches
        (TLB, decode cache, translation memos) are reset by their own
        restore paths, so pushing invalidations here would double-count
        and clobber freshly restored TLB contents."""
        self._map = {int(page): int(frame) for page, frame in state["map"]}
        self.generation = int(state["generation"])

    def ensure_mapped(self, vaddr: int, length: int) -> list[Translation]:
        """Demand-map every page overlapping ``[vaddr, vaddr+length)``;
        returns the translations that were newly installed."""
        installed = []
        first = self.page_of(vaddr)
        last = self.page_of(vaddr + max(length, 1) - 1)
        for page in range(first, last + 1):
            if page not in self._map:
                installed.append(self.map(page))
        return installed
