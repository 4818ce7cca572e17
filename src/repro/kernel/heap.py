"""A first-fit heap allocator (the libc malloc stand-in).

The interpreter services the program's ``malloc``/``calloc``/``free``
calls through one of these, carved out of the process's heap region.
First-fit over an address-ordered free list with split on allocation and
coalesce on free — the behaviour (fragmentation, reuse of freed blocks)
matters because allocation addresses feed the Allocation Table and the
escape map, and reuse exercises their delete paths.

Alignment is 16 bytes, like glibc.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError


class HeapError(ReproError):
    pass


ALIGNMENT = 16


@dataclass
class _FreeBlock:
    address: int
    size: int


_address_of = attrgetter("address")


class HeapAllocator:
    def __init__(self, base: int, size: int) -> None:
        if base % ALIGNMENT:
            raise HeapError(f"heap base must be {ALIGNMENT}-byte aligned")
        self.base = base
        self.size = size
        self._free: List[_FreeBlock] = [_FreeBlock(base, size)]
        self._allocated: Dict[int, int] = {}  # address -> size
        self.total_allocs = 0
        self.total_frees = 0
        self.peak_bytes = 0
        self.live_bytes = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the address.  Raises
        :class:`HeapError` when the heap is exhausted (the kernel can then
        grow the heap region and retry)."""
        if size <= 0:
            size = 1
        needed = (size + ALIGNMENT - 1) & -ALIGNMENT
        for i, block in enumerate(self._free):
            if block.address >= (1 << 62):
                # Non-canonical (swapped-out) space: the bytes are on disk;
                # never hand them out until the kernel swaps them back in.
                continue
            if block.size >= needed:
                address = block.address
                if block.size == needed:
                    self._free.pop(i)
                else:
                    block.address += needed
                    block.size -= needed
                self._allocated[address] = needed
                self.total_allocs += 1
                self.live_bytes += needed
                self.peak_bytes = max(self.peak_bytes, self.live_bytes)
                return address
        raise HeapError(
            f"heap exhausted: need {needed} bytes, "
            f"largest free block is "
            f"{max((b.size for b in self._free), default=0)}"
        )

    def free(self, address: int) -> int:
        """Release a block; returns its size.  Freeing an unknown address
        raises (heap corruption in a real allocator)."""
        size = self._allocated.pop(address, None)
        if size is None:
            raise HeapError(f"free of unallocated address {address:#x}")
        self.total_frees += 1
        self.live_bytes -= size
        self._insert_free(address, size)
        return size

    def size_of(self, address: int) -> Optional[int]:
        return self._allocated.get(address)

    def _insert_free(self, address: int, size: int) -> None:
        # Keep the free list address-ordered (every mutator does, and
        # rebase_range re-sorts) and coalesce neighbours.
        index = bisect_left(self._free, address, key=_address_of)
        self._free.insert(index, _FreeBlock(address, size))
        # Coalesce with successor first, then predecessor.
        if index + 1 < len(self._free):
            current, nxt = self._free[index], self._free[index + 1]
            if current.address + current.size == nxt.address:
                current.size += nxt.size
                self._free.pop(index + 1)
        if index > 0:
            prev, current = self._free[index - 1], self._free[index]
            if prev.address + prev.size == current.address:
                prev.size += current.size
                self._free.pop(index)

    def rebase_range(self, lo: int, hi: int, delta: int) -> int:
        """Follow a CARAT page move: every managed address in [lo, hi)
        shifts by ``delta``.

        In the real system the allocator's metadata lives inside process
        memory, so its internal pointers are escapes the runtime patches;
        our metadata lives on the Python side, so the kernel notifies us
        explicitly.  Free blocks straddling a boundary are split; the heap
        may become discontiguous, which is fine — the allocator manages an
        address set, not a contiguous arena.  Returns blocks rebased.
        """
        rebased = 0
        moved: Dict[int, int] = {}
        for address in [a for a in self._allocated if lo <= a < hi]:
            moved[address + delta] = self._allocated.pop(address)
            rebased += 1
        self._allocated.update(moved)
        new_free: List[_FreeBlock] = []
        for block in self._free:
            start, end = block.address, block.address + block.size
            inside_lo, inside_hi = max(start, lo), min(end, hi)
            if inside_lo >= inside_hi:
                new_free.append(block)
                continue
            rebased += 1
            if start < inside_lo:
                new_free.append(_FreeBlock(start, inside_lo - start))
            new_free.append(
                _FreeBlock(inside_lo + delta, inside_hi - inside_lo)
            )
            if inside_hi < end:
                new_free.append(_FreeBlock(inside_hi, end - inside_hi))
        new_free.sort(key=_address_of)
        # Coalesce adjacent blocks after the shuffle.
        coalesced: List[_FreeBlock] = []
        for block in new_free:
            if coalesced and coalesced[-1].address + coalesced[-1].size == block.address:
                coalesced[-1].size += block.size
            else:
                coalesced.append(block)
        self._free = coalesced
        return rebased

    # -- transactional state capture ---------------------------------------------

    def snapshot_state(self):
        """Opaque copy of the allocator's complete metadata, for the
        transactional move path: a failed move restores it verbatim with
        :meth:`restore_state`.  A snapshot/restore pair is used instead
        of an inverse ``rebase_range`` because the inverse window could
        also catch blocks that legitimately lived in the destination
        range before the move."""
        return (
            [(block.address, block.size) for block in self._free],
            dict(self._allocated),
            self.total_allocs,
            self.total_frees,
            self.live_bytes,
            self.peak_bytes,
        )

    def restore_state(self, state) -> None:
        """Reinstall a :meth:`snapshot_state` capture (rollback path)."""
        free, allocated, allocs, frees, live, peak = state
        self._free = [_FreeBlock(address, size) for address, size in free]
        self._allocated = dict(allocated)
        self.total_allocs = allocs
        self.total_frees = frees
        self.live_bytes = live
        self.peak_bytes = peak

    # -- introspection ----------------------------------------------------------

    def free_blocks(self) -> List[Tuple[int, int]]:
        """Snapshot of the free list as (address, size) pairs, ascending."""
        return [(block.address, block.size) for block in self._free]

    def check_invariants(self) -> None:
        # Note: after rebase_range the heap may manage addresses outside
        # [base, end), so containment is deliberately not asserted.
        previous_end = None
        for block in self._free:
            assert block.size > 0, "empty free block"
            if previous_end is not None:
                assert block.address > previous_end, (
                    "free list out of order or uncoalesced"
                )
            previous_end = block.address + block.size
        for address, size in self._allocated.items():
            for block in self._free:
                overlap = (
                    address < block.address + block.size
                    and block.address < address + size
                )
                assert not overlap, "allocated block overlaps free block"
