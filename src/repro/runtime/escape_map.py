"""The Allocation-to-Escape Map (Section 4.2).

For every allocation, the set of memory locations that currently hold a
pointer into it ("escapes").  The paper implements the per-allocation set
as a C++ ``unordered_set`` and *batches* escape updates, because the
escape map changes much faster than the allocation map and stale entries
are cheap to skip at patch time; both choices are reproduced here.

An escape record is just the address of the 8-byte cell that received a
pointer store.  Resolution — figuring out *which* allocation the stored
pointer targets — is deferred to :meth:`flush`, which reads the cell's
current value through the machine (the runtime passes
:meth:`~repro.kernel.physmem.PhysicalMemory.read_u64`, one bounds-checked
slice of the backing buffer) and resolves it with one bisect over the
Allocation Table, dropping records that no longer hold a pointer into any
tracked allocation (that is how "destroyed" escapes age out).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.runtime.allocation_table import Allocation, AllocationTable

#: Reads the 8-byte little-endian value at a physical address.
PointerReader = Callable[[int], int]


@dataclass
class EscapeStats:
    """Lifetime counters for the escape pipeline (record/resolve/drop)."""

    recorded: int = 0
    resolved: int = 0
    stale_dropped: int = 0
    flushes: int = 0
    #: Escape *locations* shifted because the cells holding them moved
    #: (Figure-5/ablation accounting for :meth:`rewrite_range`).
    rewritten: int = 0

    def to_dict(self) -> dict:
        """Uniform telemetry schema (``repro.telemetry.metrics``)."""
        return dataclasses.asdict(self)


class AllocationToEscapeMap:
    def __init__(self, batch_limit: int = 4096) -> None:
        #: allocation base address -> set of escape locations.
        self._escapes: Dict[int, Set[int]] = {}
        #: Sum of the sets' sizes, kept current by every mutator so the
        #: Figure 6 footprint costs O(1) per allocation and flush.
        self._entries = 0
        #: pending (unresolved) escape locations.
        self._pending: List[int] = []
        self.batch_limit = batch_limit
        self.stats = EscapeStats()

    # -- recording -------------------------------------------------------------

    def record(self, location: int) -> bool:
        """A pointer was just stored at ``location``.  O(1): batched.
        Returns whether the batch is now full (time to flush)."""
        self._pending.append(location)
        self.stats.recorded += 1
        return len(self._pending) >= self.batch_limit

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- resolution --------------------------------------------------------------

    def flush(self, table: AllocationTable, read_pointer: PointerReader) -> int:
        """Resolve all pending escape records against the current
        allocation table.  Returns the number resolved."""
        if not self._pending:
            return 0
        self.stats.flushes += 1
        resolved = 0
        pending, self._pending = self._pending, []
        find = table.find_containing
        for location in pending:
            allocation = find(read_pointer(location))
            if allocation is None:
                self.stats.stale_dropped += 1
                continue
            locations = self._escapes.setdefault(allocation.address, set())
            if location not in locations:
                locations.add(location)
                self._entries += 1
            resolved += 1
        self.stats.resolved += resolved
        return resolved

    # -- queries ---------------------------------------------------------------------

    def escapes_of(self, allocation: Allocation) -> Set[int]:
        """Locations recorded as holding pointers into ``allocation``.

        May contain stale entries (overwritten cells); the patcher
        re-validates each location's current value before patching.
        """
        return set(self._escapes.get(allocation.address, ()))

    def escape_count(self, allocation: Allocation) -> int:
        return len(self._escapes.get(allocation.address, ()))

    def histogram(self) -> Dict[int, int]:
        """escapes-per-allocation -> number of allocations (Figure 5)."""
        counts: Dict[int, int] = {}
        for locations in self._escapes.values():
            n = len(locations)
            counts[n] = counts.get(n, 0) + 1
        return counts

    def tracked_allocations(self) -> int:
        return len(self._escapes)

    def resolved_items(self) -> List[Tuple[int, Set[int]]]:
        """Snapshot of the resolved map: (allocation base, escape
        locations) pairs.  For invariant checkers and debugging."""
        return [(base, set(locs)) for base, locs in self._escapes.items()]

    def pending_locations(self) -> List[int]:
        """Snapshot of the unresolved (batched) escape locations."""
        return list(self._pending)

    def memory_footprint_bytes(self) -> int:
        """Approximate footprint of the tracking structures (Figure 6):
        one 8-byte cell pointer per escape plus per-set overhead, plus the
        pending buffer."""
        per_entry = 16  # hash set entry: pointer + bucket overhead
        per_set = 64  # set header
        return (
            len(self._pending) * 8
            + per_set * len(self._escapes)
            + per_entry * self._entries
        )

    # -- maintenance --------------------------------------------------------------------

    def rekey(self, old_address: int, new_address: int) -> None:
        """Follow an allocation that was rebased by page movement."""
        self.rekey_all(((old_address, new_address),))

    def rekey_all(self, moves: Iterable[Tuple[int, int]]) -> None:
        """Batched :meth:`rekey` for a group move.  All old keys are
        detached before any new key is installed, so a move whose
        destination base equals another allocation's not-yet-rekeyed base
        cannot merge the two escape sets."""
        detached: List[Tuple[int, Optional[Set[int]]]] = [
            (new_address, self._escapes.pop(old_address, None))
            for old_address, new_address in moves
        ]
        for new_address, locations in detached:
            if locations is not None:
                existing = self._escapes.setdefault(new_address, set())
                # Sets merging on one key may share locations.
                before = len(existing) + len(locations)
                existing.update(locations)
                self._entries += len(existing) - before

    def drop_allocation(self, address: int) -> int:
        """Forget the allocation at ``address``; returns how many escape
        locations it had."""
        locations = self._escapes.pop(address, None)
        if locations is None:
            return 0
        self._entries -= len(locations)
        return len(locations)

    def discard(self, address: int, location: int) -> None:
        """Forget one resolved record of the allocation at ``address``."""
        locations = self._escapes.get(address)
        if locations is not None and location in locations:
            locations.remove(location)
            self._entries -= 1

    def copy(self) -> "AllocationToEscapeMap":
        """An independent map holding the same resolved and pending
        records, with fresh stats."""
        twin = AllocationToEscapeMap(batch_limit=self.batch_limit)
        twin._escapes = {base: set(locs) for base, locs in self._escapes.items()}
        twin._entries = self._entries
        twin._pending = list(self._pending)
        return twin

    def locations_in_range(self, lo: int, hi: int) -> List[int]:
        """Every recorded location (resolved or pending) in ``[lo, hi)``,
        deduplicated and ascending — what :meth:`rewrite_range` over the
        same window would touch.  Read-only; the transactional move path
        captures this *before* rewriting so rollback can reverse exactly
        these locations (a window-based inverse would also drag along
        stale cells that already sat in the destination window)."""
        found = {
            loc
            for locations in self._escapes.values()
            for loc in locations
            if lo <= loc < hi
        }
        found.update(loc for loc in self._pending if lo <= loc < hi)
        return sorted(found)

    def rewrite_locations(self, moves: Iterable[Tuple[int, int]]) -> int:
        """Rewrite exactly the given ``(old, new)`` recorded locations —
        the precise inverse :meth:`rewrite_range` needs for rollback.
        Returns the number of occurrences rewritten."""
        mapping = dict(moves)
        if not mapping:
            return 0
        rewritten = 0
        for address, locations in list(self._escapes.items()):
            if not locations & mapping.keys():
                continue
            updated = set()
            for loc in locations:
                target = mapping.get(loc, loc)
                if target != loc:
                    rewritten += 1
                updated.add(target)
            self._entries += len(updated) - len(locations)
            self._escapes[address] = updated
        for i, loc in enumerate(self._pending):
            target = mapping.get(loc, loc)
            if target != loc:
                self._pending[i] = target
                rewritten += 1
        self.stats.rewritten += rewritten
        return rewritten

    def rewrite_range(self, lo: int, hi: int, delta: int) -> int:
        """When the cells *holding* escapes themselves move (they lived in a
        moved page), their recorded locations must shift too.  Rewrites
        every recorded and pending location in [lo, hi) by ``delta``;
        returns the number rewritten."""
        rewritten = 0
        for address, locations in list(self._escapes.items()):
            updated = set()
            for loc in locations:
                if lo <= loc < hi:
                    updated.add(loc + delta)
                    rewritten += 1
                else:
                    updated.add(loc)
            self._entries += len(updated) - len(locations)
            self._escapes[address] = updated
        for i, loc in enumerate(self._pending):
            if lo <= loc < hi:
                self._pending[i] = loc + delta
                rewritten += 1
        self.stats.rewritten += rewritten
        return rewritten
