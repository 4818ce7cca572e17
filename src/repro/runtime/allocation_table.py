"""The Allocation Table (Section 4.2, "Tracking").

Keeps every allocation the program makes — heap blocks, stack blocks, and
static allocations (globals, recorded at load time) — keyed by block
address.  The paper's table is a C++ red/black tree; here it is two
parallel lists sorted by address, searched with :mod:`bisect`, which in
Python answers the same queries faster at every size the workloads
reach.  The modeled cost of an update is a constant per event and
``Runtime.TABLE_ENTRY_BYTES`` still models the tree node, so the host
structure does not show in any modeled figure.  The table answers the
queries page movement needs:

* which allocation contains address X (guard diagnostics, escape
  resolution);
* which allocations overlap a byte range (the kernel's source-page query
  during move negotiation).

Allocation updates are applied eagerly ("the Allocation Map changes
slowly"); escapes are batched separately in
:class:`~repro.runtime.escape_map.AllocationToEscapeMap`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ReproError


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
    """Every live allocation, ascending by address.

    ``_keys[i]`` is ``_allocations[i].address``; the separate key list is
    what :mod:`bisect` searches.
    """

    def __init__(self) -> None:
        self._keys: List[int] = []
        self._allocations: List[Allocation] = []
        #: Statistics for the feasibility figures.
        self.total_allocs = 0
        self.total_frees = 0
        self.peak_count = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Allocation]:
        return iter(self._allocations)

    def _index(self, address: int) -> int:
        """Index of the allocation keyed exactly at ``address``, or -1."""
        index = bisect_left(self._keys, address)
        if index < len(self._keys) and self._keys[index] == address:
            return index
        return -1

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
        index = bisect_left(self._keys, address)
        self._keys.insert(index, address)
        self._allocations.insert(index, allocation)
        self.total_allocs += 1
        self.peak_count = max(self.peak_count, len(self._keys))
        return allocation

    def remove(self, address: int) -> Allocation:
        allocation = self.remove_if_present(address)
        if allocation is None:
            raise AllocationError(f"no allocation at {address:#x}")
        return allocation

    def remove_if_present(self, address: int) -> Optional[Allocation]:
        index = self._index(address)
        if index < 0:
            return None
        del self._keys[index]
        allocation = self._allocations.pop(index)
        allocation.live = False
        self.total_frees += 1
        return allocation

    def rebase(self, allocation: Allocation, new_address: int) -> None:
        """Move an allocation's key after page movement relocates it.

        Rebasing onto a key another allocation holds raises and leaves the
        table unchanged: callers that rebase several allocations by one
        delta order them so each target key is vacated first.
        """
        index = self._index(allocation.address)
        if index < 0 or self._allocations[index] is not allocation:
            raise AllocationError(
                f"allocation at {allocation.address:#x} is not in the table"
            )
        occupant = self.at(new_address)
        if occupant is allocation:
            return
        if occupant is not None:
            raise AllocationError(
                f"cannot rebase {allocation!r} onto {new_address:#x}: "
                f"{occupant!r} is there"
            )
        del self._keys[index]
        del self._allocations[index]
        allocation.address = new_address
        index = bisect_left(self._keys, new_address)
        self._keys.insert(index, new_address)
        self._allocations.insert(index, allocation)

    # -- queries ------------------------------------------------------------------

    def at(self, address: int) -> Optional[Allocation]:
        """Allocation starting exactly at ``address``."""
        index = self._index(address)
        return self._allocations[index] if index >= 0 else None

    def find_containing(self, address: int, size: int = 1) -> Optional[Allocation]:
        """The allocation containing [address, address+size), if any."""
        index = bisect_right(self._keys, address) - 1
        if index < 0:
            return None
        allocation = self._allocations[index]
        return allocation if allocation.contains(address, size) else None

    def overlapping(self, lo: int, hi: int) -> List[Allocation]:
        """All allocations intersecting [lo, hi), ascending by address.

        Every key in ``[lo, hi)`` overlaps the range because sizes are
        positive, so the answer is one slice of the list, extended by one
        entry when the predecessor keyed below ``lo`` reaches into the
        range.
        """
        start = bisect_left(self._keys, lo)
        stop = bisect_left(self._keys, hi, start)
        if start and self._allocations[start - 1].overlaps(lo, hi):
            start -= 1
        return self._allocations[start:stop]

    def live_bytes(self) -> int:
        return sum(a.size for a in self._allocations)

    def check_invariants(self) -> None:
        """Keys strictly ascending, each key its allocation's address, and
        no two allocations overlapping; raises AssertionError otherwise."""
        if len(self._keys) != len(self._allocations):
            raise AssertionError(
                f"{len(self._keys)} keys for {len(self._allocations)} allocations"
            )
        previous: Optional[Allocation] = None
        for key, allocation in zip(self._keys, self._allocations):
            if key != allocation.address:
                raise AssertionError(f"stale key {key:#x} for {allocation!r}")
            if previous is not None:
                if key <= previous.address:
                    raise AssertionError(f"keys out of order at {key:#x}")
                if key < previous.end:
                    raise AssertionError(
                        f"allocations overlap at {key:#x}: {previous!r}, "
                        f"{allocation!r}"
                    )
            previous = allocation
