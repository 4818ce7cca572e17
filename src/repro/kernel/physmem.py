"""Physical memory and the page frame allocator.

A flat byte-addressable physical memory (an anonymous ``mmap``) with
typed accessors — the 8-byte ones, which the escape flush and the patcher
use, slice the mapping directly — plus a bitmap frame allocator (one
``bytearray`` byte per frame) handing out 4 KB frames: the kernel
substrate both execution models sit on.  In the CARAT model the program
addresses this memory directly; in the traditional model the MMU
translates first.
"""

from __future__ import annotations

import mmap
from typing import List, Optional, Tuple

from repro.errors import OutOfMemoryError, ReproError

PAGE_SIZE = 4096
_MASK64 = (1 << 64) - 1

#: Tier names for a fast/slow split of physical memory (the policy
#: engine's tiered-placement substrate).  ``None`` means "untiered".
TIER_FAST = "fast"
TIER_SLOW = "slow"


class PhysicalMemoryError(ReproError):
    pass


class PhysicalMemory:
    """Byte-addressable physical memory with little-endian typed access.

    ``fast_size`` optionally splits the memory into two tiers: addresses
    below the boundary are the *fast* (near/DRAM) tier, addresses at or
    above it are the *slow* (far/capacity) tier.  The split is purely an
    accounting boundary — one flat bytearray backs both tiers — but the
    interpreter charges tier-dependent access cycles and the policy
    engine's tiering balancer migrates pages across the boundary.
    """

    def __init__(self, size: int, fast_size: Optional[int] = None) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise PhysicalMemoryError(
                f"physical memory size must be a positive multiple of "
                f"{PAGE_SIZE}, got {size}"
            )
        if fast_size is not None and (
            fast_size <= 0 or fast_size % PAGE_SIZE or fast_size >= size
        ):
            raise PhysicalMemoryError(
                f"fast tier size must be a page-aligned positive size "
                f"smaller than memory ({size}), got {fast_size}"
            )
        self.size = size
        #: Byte address where the slow tier starts; ``None`` = untiered.
        self.fast_size = fast_size
        # Anonymous mmap instead of ``bytearray(size)``: the OS hands out
        # demand-zeroed pages lazily, so booting a kernel costs microseconds
        # instead of a full memset of the whole physical address space —
        # which dominated short runs and multi-tenant boot (one memory per
        # kernel).  Slicing semantics are identical for every consumer
        # (slice reads decode the same, exact-length slice writes, whole-
        # buffer ``bytes()`` snapshots).
        self._data = mmap.mmap(-1, size)
        #: Counters for bandwidth-style accounting.
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def tiered(self) -> bool:
        return self.fast_size is not None

    def tier_of(self, address: int) -> Optional[str]:
        """Which tier serves ``address``; ``None`` when untiered."""
        if self.fast_size is None:
            return None
        return TIER_FAST if address < self.fast_size else TIER_SLOW

    # -- bounds -----------------------------------------------------------------

    def _check(self, address: int, length: int) -> None:
        if address < 0 or address + length > self.size:
            raise PhysicalMemoryError(
                f"physical access [{address:#x}, {address + length:#x}) out "
                f"of range (memory is {self.size:#x} bytes)"
            )

    # -- raw bytes ---------------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        self._check(address, length)
        self.bytes_read += length
        return bytes(self._data[address : address + length])

    def write_bytes(self, address: int, data: bytes) -> None:
        self._check(address, len(data))
        self.bytes_written += len(data)
        self._data[address : address + len(data)] = data

    def fill(self, address: int, length: int, value: int = 0) -> None:
        self._check(address, length)
        self._data[address : address + length] = bytes([value]) * length
        self.bytes_written += length

    def copy(self, src: int, dst: int, length: int) -> None:
        self._check(src, length)
        self._check(dst, length)
        self._data[dst : dst + length] = self._data[src : src + length]
        self.bytes_read += length
        self.bytes_written += length

    # -- typed accessors ------------------------------------------------------------

    def read_uint(self, address: int, size: int) -> int:
        raw = self.read_bytes(address, size)
        return int.from_bytes(raw, "little", signed=False)

    def write_uint(self, address: int, value: int, size: int) -> None:
        mask = (1 << (size * 8)) - 1
        self.write_bytes(address, (value & mask).to_bytes(size, "little"))

    def read_int(self, address: int, size: int) -> int:
        raw = self.read_bytes(address, size)
        return int.from_bytes(raw, "little", signed=True)

    # The 8-byte accessors (the escape flush's and the patcher's) slice
    # the buffer directly, with read_bytes/write_bytes's check and counts.
    def read_u64(self, address: int) -> int:
        if address < 0 or address + 8 > self.size:
            self._check(address, 8)
        self.bytes_read += 8
        return int.from_bytes(self._data[address : address + 8], "little")

    def write_u64(self, address: int, value: int) -> None:
        data = (value & _MASK64).to_bytes(8, "little")
        if address < 0 or address + 8 > self.size:
            self._check(address, 8)
        self.bytes_written += 8
        self._data[address : address + 8] = data



class FrameAllocator:
    """Bitmap allocator over the physical frames.

    The bitmap is a ``bytearray`` holding one byte per frame, 1 when
    free: run searches, counts and run scans are ``bytearray.find`` and
    ``count`` calls at C speed, not a Python loop over frames.

    ``reserve_low`` frames at the bottom are never handed out (the kernel
    image / firmware hole, and it keeps address 0 unmapped so null pointer
    dereferences fault in both models).

    ``fast_frames`` optionally splits the frame space into a fast tier
    (frames below the boundary) and a slow tier (the rest), mirroring
    :class:`PhysicalMemory`'s ``fast_size``.  ``alloc(..., tier=...)``
    then constrains the search to one pool; tier-less allocations keep
    the historical next-fit behaviour over the whole space.
    """

    def __init__(
        self,
        memory_size: int,
        reserve_low: int = 16,
        fast_frames: Optional[int] = None,
    ) -> None:
        if memory_size % PAGE_SIZE:
            raise PhysicalMemoryError("memory size must be page aligned")
        self.total_frames = memory_size // PAGE_SIZE
        if fast_frames is not None and not (
            reserve_low < fast_frames < self.total_frames
        ):
            raise PhysicalMemoryError(
                f"fast tier must span (reserve_low, total_frames), got "
                f"{fast_frames} of {self.total_frames}"
            )
        reserved = min(reserve_low, self.total_frames)
        self._free = bytearray(reserved) + b"\x01" * (self.total_frames - reserved)
        self.reserved_low = reserve_low
        self.fast_frames = fast_frames
        self.allocated_frames = 0
        self._cursor = reserve_low  # next-fit search position

    @property
    def free_frames(self) -> int:
        return self._free.count(1)

    @property
    def usable_frames(self) -> int:
        """Frames the allocator can ever hand out."""
        return self.total_frames - min(self.reserved_low, self.total_frames)

    def occupancy(self) -> float:
        """Fraction of usable frames currently allocated."""
        usable = self.usable_frames
        return self.allocated_frames / usable if usable else 0.0

    def frame_is_free(self, frame: int) -> bool:
        return self._free[frame] == 1

    # -- tiers ------------------------------------------------------------------

    @property
    def tiered(self) -> bool:
        return self.fast_frames is not None

    def tier_of_frame(self, frame: int) -> Optional[str]:
        if self.fast_frames is None:
            return None
        return TIER_FAST if frame < self.fast_frames else TIER_SLOW

    def tier_bounds(self, tier: Optional[str]) -> Tuple[int, int]:
        """Frame range [lo, hi) the allocator searches for ``tier``."""
        if tier is None:
            return self.reserved_low, self.total_frames
        if self.fast_frames is None:
            raise PhysicalMemoryError("allocator is not tiered")
        if tier == TIER_FAST:
            return self.reserved_low, self.fast_frames
        if tier == TIER_SLOW:
            return self.fast_frames, self.total_frames
        raise PhysicalMemoryError(f"unknown tier {tier!r}")

    def free_frames_in(self, tier: Optional[str]) -> int:
        lo, hi = self.tier_bounds(tier)
        return self._free.count(1, lo, hi)

    # -- allocation -------------------------------------------------------------

    def alloc(self, count: int = 1, tier: Optional[str] = None) -> int:
        """Allocate ``count`` physically contiguous frames; returns the
        first frame number.  ``tier`` constrains the search to one pool
        of a tiered allocator (first fit within the pool)."""
        if count <= 0:
            raise PhysicalMemoryError("frame count must be positive")
        if tier is not None:
            lo, hi = self.tier_bounds(tier)
            start = self._find_run(lo, count, limit=hi)
        else:
            start = self._find_run(self._cursor, count)
            if start is None:
                start = self._find_run(self.reserved_low, count)
        if start is None:
            raise OutOfMemoryError(
                f"cannot allocate {count} contiguous frame(s)"
                + (f" in the {tier} tier" if tier else "")
                + f"; {self.free_frames_in(tier)} free"
            )
        self._free[start : start + count] = bytes(count)
        self.allocated_frames += count
        if tier is None:
            self._cursor = start + count
        return start

    def alloc_address(self, count: int = 1, tier: Optional[str] = None) -> int:
        """Allocate frames and return the base *byte* address."""
        return self.alloc(count, tier=tier) * PAGE_SIZE

    def alloc_at(self, frame: int, count: int = 1) -> bool:
        """Claim a specific frame run if (and only if) it is entirely free.

        Used by stack expansion, which strongly prefers frames physically
        adjacent below the existing stack.
        """
        if frame < self.reserved_low or frame + count > self.total_frames:
            return False
        if self._free.find(0, frame, frame + count) >= 0:
            return False
        self._free[frame : frame + count] = b"\x00" * count
        self.allocated_frames += count
        return True

    def _find_run(
        self, begin: int, count: int, limit: Optional[int] = None
    ) -> Optional[int]:
        end = self.total_frames if limit is None else min(limit, self.total_frames)
        start = self._free.find(b"\x01" * count, begin, end)
        return None if start < 0 else start

    def free(self, frame: int, count: int = 1) -> None:
        """Release a frame run, all or nothing: the first bad frame (out
        of range, or already free) raises before any frame changes."""
        if count <= 0:
            return
        end = frame + count
        if frame < 0:
            raise PhysicalMemoryError(f"frame {frame} out of range")
        already = self._free.find(1, frame, end)
        if already >= 0:
            raise PhysicalMemoryError(f"double free of frame {already}")
        if end > self.total_frames:
            bad = max(frame, self.total_frames)
            raise PhysicalMemoryError(f"frame {bad} out of range")
        self._free[frame:end] = b"\x01" * count
        self.allocated_frames -= count

    def free_address(self, address: int, count: int = 1) -> None:
        if address % PAGE_SIZE:
            raise PhysicalMemoryError("address must be page aligned")
        self.free(address // PAGE_SIZE, count)

    # -- occupancy / fragmentation introspection --------------------------------
    #
    # The compaction daemon reads these; they are also the substrate of
    # ``repro.policy.fragmentation``'s external-fragmentation index.

    def free_runs(self, tier: Optional[str] = None) -> List[Tuple[int, int]]:
        """Maximal runs of free frames as (start_frame, length), ascending.

        Reserved-low frames are never free, so they never appear.  With
        ``tier`` set, runs are clipped to that tier's frame range.
        """
        lo, hi = self.tier_bounds(tier)
        free = self._free
        runs: List[Tuple[int, int]] = []
        start = free.find(1, lo, hi)
        while start >= 0:
            end = free.find(0, start, hi)
            if end < 0:
                end = hi
            runs.append((start, end - start))
            start = free.find(1, end, hi)
        return runs

    def largest_free_run(self, tier: Optional[str] = None) -> int:
        """Length of the largest contiguous free frame run (0 if none)."""
        return max((length for _, length in self.free_runs(tier)), default=0)
