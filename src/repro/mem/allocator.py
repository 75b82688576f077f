"""Buddy allocator for the virtual address space (§4.2).

Guarded-pointer segments must be a power of two bytes long and aligned
on their length, so the virtual address space is carved with a buddy
system: splits produce aligned power-of-two blocks, and frees coalesce
adjacent buddies back into larger blocks, countering external
fragmentation — exactly the remedy §4.2 prescribes.

The allocator tracks the statistics experiment E7 reports: requested
vs. granted bytes (internal fragmentation) and the largest allocatable
block vs. total free bytes (external fragmentation).
"""

from __future__ import annotations

from dataclasses import dataclass


class OutOfVirtualSpace(Exception):
    """No free block large enough for the request."""


def round_up_log2(nbytes: int) -> int:
    """Smallest k with 2**k >= nbytes (and >= 1 byte)."""
    if nbytes <= 0:
        raise ValueError("allocation size must be positive")
    return max(nbytes - 1, 0).bit_length()


@dataclass(frozen=True, slots=True)
class Block:
    """An allocated virtual block: ``2**order`` bytes at ``base``."""

    base: int
    order: int

    @property
    def size(self) -> int:
        return 1 << self.order

    @property
    def limit(self) -> int:
        return self.base + self.size


class BuddyAllocator:
    """Classic binary buddy allocator over ``[base, base + 2**order)``.

    ``min_order`` bounds the smallest block handed out (default 0 — a
    single byte, which the architecture permits).
    """

    def __init__(self, base: int, order: int, min_order: int = 0):
        if base % (1 << order):
            raise ValueError("arena base must be aligned on its size")
        if not 0 <= min_order <= order:
            raise ValueError("min_order out of range")
        self.base = base
        self.order = order
        self.min_order = min_order
        # free lists per order; the arena starts as one maximal block
        self._free: dict[int, set[int]] = {k: set() for k in range(min_order, order + 1)}
        self._free[order].add(base)
        self._allocated: dict[int, int] = {}  # base -> order
        # E7 accounting
        self.requested_bytes = 0
        self.granted_bytes = 0

    # -- queries ---------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return 1 << self.order

    @property
    def free_bytes(self) -> int:
        return sum((1 << k) * len(s) for k, s in self._free.items())

    def largest_free_order(self) -> int | None:
        """Order of the largest free block, or None when full."""
        for k in range(self.order, self.min_order - 1, -1):
            if self._free[k]:
                return k
        return None

    def external_fragmentation(self) -> float:
        """1 − (largest free block / total free bytes).

        0 when all free space is one block; approaches 1 when free
        space is shattered into many small blocks.
        """
        free = self.free_bytes
        if free == 0:
            return 0.0
        largest = self.largest_free_order()
        return 1.0 - (1 << largest) / free

    def internal_fragmentation(self) -> float:
        """Fraction of granted bytes wasted by power-of-two rounding."""
        if self.granted_bytes == 0:
            return 0.0
        return 1.0 - self.requested_bytes / self.granted_bytes

    # -- allocation --------------------------------------------------------

    def allocate(self, nbytes: int) -> Block:
        """Allocate the smallest aligned power-of-two block covering
        ``nbytes`` bytes."""
        want = max(round_up_log2(nbytes), self.min_order)
        if want > self.order:
            raise OutOfVirtualSpace(
                f"request of 2**{want} bytes exceeds arena of 2**{self.order}"
            )
        # find the smallest free order that can satisfy the request
        k = want
        while k <= self.order and not self._free[k]:
            k += 1
        if k > self.order:
            raise OutOfVirtualSpace(
                f"no free block of 2**{want} bytes (external fragmentation: "
                f"{self.external_fragmentation():.2%})"
            )
        base = min(self._free[k])
        self._free[k].remove(base)
        # split down to the wanted order, freeing the upper buddies
        while k > want:
            k -= 1
            self._free[k].add(base + (1 << k))
        self._allocated[base] = want
        self.requested_bytes += nbytes
        self.granted_bytes += 1 << want
        return Block(base, want)

    def free(self, block: Block) -> None:
        """Release a block, coalescing with free buddies as far as
        possible."""
        order = self._allocated.pop(block.base, None)
        if order is None or order != block.order:
            raise ValueError(f"block not allocated: {block}")
        base, k = block.base, block.order
        while k < self.order:
            buddy = base ^ (1 << k)
            if buddy not in self._free[k]:
                break
            self._free[k].remove(buddy)
            base = min(base, buddy)
            k += 1
        self._free[k].add(base)

    # -- persistence (repro.persist) -----------------------------------

    def capture_state(self) -> dict:
        """Free lists, live blocks and the E7 accounting.  Free bases
        are sorted: ``allocate`` picks ``min()`` of a free list, so sets
        restore order-independently."""
        return {
            "base": self.base,
            "order": self.order,
            "min_order": self.min_order,
            "free": {str(k): sorted(s) for k, s in self._free.items() if s},
            "allocated": sorted(self._allocated.items()),
            "requested_bytes": self.requested_bytes,
            "granted_bytes": self.granted_bytes,
        }

    def restore_state(self, state: dict) -> None:
        if (state["base"], state["order"], state["min_order"]) != (
                self.base, self.order, self.min_order):
            raise ValueError("snapshot arena geometry differs from allocator's")
        self._free = {k: set() for k in range(self.min_order, self.order + 1)}
        for order, bases in state["free"].items():
            self._free[int(order)] = set(bases)
        self._allocated = {int(b): int(o) for b, o in state["allocated"]}
        self.requested_bytes = int(state["requested_bytes"])
        self.granted_bytes = int(state["granted_bytes"])
