"""The Allocation Table (Section 4.2, "Tracking").

Keeps every allocation the program makes — heap blocks, stack blocks, and
static allocations (globals, recorded at load time) — in a red/black tree
keyed by block address, with the block length as the value.  The table
answers the queries page movement needs:

* which allocation contains address X (guard diagnostics, escape
  resolution);
* which allocations overlap a byte range (the kernel's source-page query
  during move negotiation).

Allocation updates are applied eagerly ("the Allocation Map changes
slowly"); escapes are batched separately in
:class:`~repro.runtime.escape_map.AllocationToEscapeMap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.rbtree import RedBlackTree


class AllocationError(ReproError):
    """Overlapping, zero-sized, or unknown-address table operations."""


@dataclass
class Allocation:
    """One tracked block of physical memory."""

    address: int
    size: int
    kind: str = "heap"  # 'heap' | 'stack' | 'global' | 'code'
    live: bool = True

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        return self.address <= address and address + size <= self.end

    def overlaps(self, lo: int, hi: int) -> bool:
        """Does [address, end) intersect [lo, hi)?"""
        return self.address < hi and lo < self.end

    def __repr__(self) -> str:
        return (
            f"<Allocation {self.kind} [{self.address:#x}, {self.end:#x}) "
            f"size={self.size}>"
        )


class AllocationTable:
    """Address-keyed red/black tree of every live allocation."""

    def __init__(self) -> None:
        self._tree = RedBlackTree()
        #: Statistics for the feasibility figures.
        self.total_allocs = 0
        self.total_frees = 0
        self.peak_count = 0

    def __len__(self) -> int:
        return len(self._tree)

    def __iter__(self) -> Iterator[Allocation]:
        for _, allocation in self._tree.items():
            yield allocation

    # -- updates ---------------------------------------------------------------

    def add(self, address: int, size: int, kind: str = "heap") -> Allocation:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        overlapping = self.overlapping(address, address + size)
        if overlapping:
            raise AllocationError(
                f"new allocation [{address:#x}, {address + size:#x}) overlaps "
                f"{overlapping[0]!r}"
            )
        allocation = Allocation(address, size, kind)
        self._tree.insert(address, allocation)
        self.total_allocs += 1
        self.peak_count = max(self.peak_count, len(self._tree))
        return allocation

    def remove(self, address: int) -> Allocation:
        allocation = self._tree.pop(address)
        if allocation is None:
            raise AllocationError(f"no allocation at {address:#x}")
        allocation.live = False
        self.total_frees += 1
        return allocation

    def remove_if_present(self, address: int) -> Optional[Allocation]:
        allocation = self._tree.pop(address)
        if allocation is not None:
            allocation.live = False
            self.total_frees += 1
        return allocation

    def rebase(self, allocation: Allocation, new_address: int) -> None:
        """Move an allocation's key after page movement relocates it."""
        removed = self._tree.pop(allocation.address)
        if removed is not allocation:
            if removed is not None:
                self._tree.insert(removed.address, removed)
            raise AllocationError(
                f"allocation at {allocation.address:#x} is not in the table"
            )
        allocation.address = new_address
        self._tree.insert(new_address, allocation)

    # -- queries ------------------------------------------------------------------

    def at(self, address: int) -> Optional[Allocation]:
        """Allocation starting exactly at ``address``."""
        return self._tree.get(address)

    def find_containing(self, address: int, size: int = 1) -> Optional[Allocation]:
        """The allocation containing [address, address+size), if any."""
        found = self._tree.floor_item(address)
        if found is None:
            return None
        allocation: Allocation = found[1]
        if allocation.contains(address, size):
            return allocation
        return None

    def overlapping(self, lo: int, hi: int) -> List[Allocation]:
        """All allocations intersecting [lo, hi), ascending by address.

        The floor predecessor must be checked too: it may start before
        ``lo`` but reach into the range.  A floor keyed exactly at ``lo`` is
        also the range scan's first item, so only a floor strictly below
        ``lo`` is taken from the floor query; every key in ``[lo, hi)``
        overlaps the range because sizes are positive.  So the query is
        O(log n + k) for k results, with no deduplication pass.
        """
        result: List[Allocation] = []
        found = self._tree.floor_item(lo)
        if found is not None and found[0] < lo and found[1].overlaps(lo, hi):
            result.append(found[1])
        result.extend(
            allocation for _, allocation in self._tree.items_in_range(lo, hi)
        )
        return result

    def live_bytes(self) -> int:
        return sum(a.size for a in self)

    def check_invariants(self) -> None:
        self._tree.check_invariants()
        previous_end = None
        for allocation in self:
            if previous_end is not None and allocation.address < previous_end:
                raise AssertionError(
                    f"allocations overlap at {allocation.address:#x}"
                )
            previous_end = allocation.end
