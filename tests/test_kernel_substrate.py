"""Kernel substrate: physical memory, frames, heap, page table, TLB, MMU."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.kernel.heap import HeapAllocator, HeapError
from repro.kernel.mmu import MMU, PageFault
from repro.kernel.pagetable import (
    PAGE_SIZE,
    PTE_EXEC,
    PTE_PRESENT,
    PTE_WRITE,
    PageTable,
    split_vpn,
)
from repro.kernel.physmem import FrameAllocator, PhysicalMemory, PhysicalMemoryError
from repro.kernel.tlb import TLB, intel_l1_dtlb, intel_stlb

MB = 1024 * 1024


class TestPhysicalMemory:
    def test_typed_roundtrips(self):
        m = PhysicalMemory(MB)
        m.write_u64(0x100, 0xDEADBEEF)
        assert m.read_u64(0x100) == 0xDEADBEEF
        m.write_int(0x200, -42, 8)
        assert m.read_int(0x200, 8) == -42
        m.write_f64(0x300, 3.25)
        assert m.read_f64(0x300) == 3.25
        m.write_uint(0x400, 0x1FF, 1)
        assert m.read_uint(0x400, 1) == 0xFF  # truncated to a byte

    def test_bounds_checked(self):
        m = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(PhysicalMemoryError):
            m.read_bytes(PAGE_SIZE - 4, 8)
        with pytest.raises(PhysicalMemoryError):
            m.write_bytes(-1, b"x")

    def test_u64_accessors_match_the_byte_path(self):
        # read_u64/write_u64 slice the buffer directly: the same value,
        # the same 8-byte accounting and the same out-of-range error as
        # the read_bytes/write_bytes path they bypass.
        m = PhysicalMemory(PAGE_SIZE)
        for address, value in [(0, 1), (0x18, -1), (PAGE_SIZE - 8, 1 << 70 | 5)]:
            written, read = m.bytes_written, m.bytes_read
            m.write_u64(address, value)
            assert m.bytes_written == written + 8
            assert m.read_bytes(address, 8) == (value % (1 << 64)).to_bytes(8, "little")
            assert m.read_u64(address) == value % (1 << 64)
            assert m.read_u64(address) == m.read_uint(address, 8)
            assert m.bytes_read == read + 8 * 4
        for address in (-1, PAGE_SIZE - 7, PAGE_SIZE, 1 << 62):
            with pytest.raises(PhysicalMemoryError) as byte_path:
                m.read_bytes(address, 8)
            read, written = m.bytes_read, m.bytes_written
            with pytest.raises(PhysicalMemoryError) as direct:
                m.read_u64(address)
            assert str(direct.value) == str(byte_path.value)
            with pytest.raises(PhysicalMemoryError) as direct:
                m.write_u64(address, 7)
            assert str(direct.value) == str(byte_path.value)
            assert (m.bytes_read, m.bytes_written) == (read, written)

    def test_copy_and_fill(self):
        m = PhysicalMemory(MB)
        m.write_bytes(0x100, b"hello")
        m.copy(0x100, 0x2000, 5)
        assert m.read_bytes(0x2000, 5) == b"hello"
        m.fill(0x2000, 5, 0)
        assert m.read_bytes(0x2000, 5) == b"\0" * 5

    def test_cstring(self):
        m = PhysicalMemory(MB)
        m.write_bytes(0x10, b"abc\0def")
        assert m.read_cstring(0x10) == b"abc"

    def test_invalid_size(self):
        with pytest.raises(PhysicalMemoryError):
            PhysicalMemory(100)


class TestFrameAllocator:
    def test_alloc_free(self):
        fa = FrameAllocator(MB, reserve_low=4)
        f1 = fa.alloc()
        f2 = fa.alloc()
        assert f1 != f2
        assert f1 >= 4
        fa.free(f1)
        with pytest.raises(PhysicalMemoryError):
            fa.free(f1)  # double free

    def test_failed_free_changes_nothing(self):
        fa = FrameAllocator(32 * PAGE_SIZE, reserve_low=4)
        start = fa.alloc(4)
        with pytest.raises(PhysicalMemoryError, match="double free of frame 8"):
            fa.free(start, 6)
        assert fa.allocated_frames == 4
        assert fa.allocated_frames + fa.free_frames == fa.usable_frames
        assert not any(fa.frame_is_free(start + i) for i in range(4))

    def test_contiguous_runs(self):
        fa = FrameAllocator(MB, reserve_low=0)
        start = fa.alloc(16)
        for i in range(16):
            assert not fa.frame_is_free(start + i)
        fa.free(start, 16)
        assert fa.free_frames == MB // PAGE_SIZE

    def test_exhaustion(self):
        fa = FrameAllocator(16 * PAGE_SIZE, reserve_low=0)
        fa.alloc(16)
        with pytest.raises(OutOfMemoryError):
            fa.alloc(1)

    def test_wraps_cursor(self):
        fa = FrameAllocator(8 * PAGE_SIZE, reserve_low=0)
        a = fa.alloc(6)
        fa.free(a, 6)
        b = fa.alloc(6)  # must find the freed run again
        assert b == a

    def test_alloc_address(self):
        fa = FrameAllocator(MB, reserve_low=1)
        address = fa.alloc_address(2)
        assert address % PAGE_SIZE == 0


class TestHeap:
    def test_malloc_free_reuse(self):
        h = HeapAllocator(0x10000, 0x10000)
        a = h.malloc(100)
        b = h.malloc(100)
        assert a != b
        h.free(a)
        c = h.malloc(50)
        assert c == a  # first fit reuses the hole

    def test_alignment(self):
        h = HeapAllocator(0x10000, 0x10000)
        for size in (1, 7, 17, 100):
            assert h.malloc(size) % 16 == 0

    def test_free_unknown_raises(self):
        h = HeapAllocator(0x10000, 0x1000)
        with pytest.raises(HeapError):
            h.free(0x10008)

    def test_exhaustion(self):
        h = HeapAllocator(0x10000, 256)
        h.malloc(200)
        with pytest.raises(HeapError):
            h.malloc(200)

    def test_coalescing(self):
        h = HeapAllocator(0x10000, 0x1000)
        a = h.malloc(256)
        b = h.malloc(256)
        c = h.malloc(256)
        h.free(a)
        h.free(c)
        h.free(b)  # middle free must merge all three
        h.check_invariants()
        big = h.malloc(0x1000 - 16)
        assert big == 0x10000

    def test_stats(self):
        h = HeapAllocator(0x10000, 0x1000)
        a = h.malloc(100)
        assert h.live_bytes > 0
        peak = h.peak_bytes
        h.free(a)
        assert h.live_bytes == 0
        assert h.peak_bytes == peak

    def test_rebase_range(self):
        h = HeapAllocator(0x10000, 0x3000)
        a = h.malloc(64)
        assert 0x10000 <= a < 0x11000
        h.rebase_range(0x10000, 0x11000, 0x40000)
        # The allocated block follows the move; freeing at the new address
        # works, at the old it does not.
        with pytest.raises(HeapError):
            h.free(a)
        h.free(a + 0x40000)
        h.check_invariants()

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_property_no_overlap(self, sizes):
        h = HeapAllocator(0x10000, 0x40000)
        live = {}
        for i, size in enumerate(sizes):
            address = h.malloc(size)
            for other, osize in live.items():
                assert address + size <= other or other + osize <= address
            live[address] = size
            if i % 3 == 2:
                victim = next(iter(live))
                h.free(victim)
                del live[victim]
            h.check_invariants()


class TestPageTable:
    def test_split_vpn(self):
        vpn = (1 << 27) | (2 << 18) | (3 << 9) | 4
        assert split_vpn(vpn) == (1, 2, 3, 4)

    def test_map_walk_unmap(self):
        pt = PageTable()
        pt.map(0x1234, 0x99)
        pte, levels = pt.walk(0x1234)
        assert pte is not None
        assert pte.pfn == 0x99
        assert levels == 4
        assert pt.mapped_pages == 1
        pt.unmap(0x1234)
        pte, _ = pt.walk(0x1234)
        assert pte is None

    def test_double_map_rejected(self):
        from repro.errors import KernelError

        pt = PageTable()
        pt.map(1, 2)
        with pytest.raises(KernelError):
            pt.map(1, 3)

    def test_walk_depth_short_circuits(self):
        pt = PageTable()
        pt.map(0, 1)
        _, levels = pt.walk(1 << 27)  # different PML4 slot entirely
        assert levels == 1

    def test_remap(self):
        pt = PageTable()
        pt.map(7, 100)
        old, pte = pt.remap(7, 200)
        assert old == 100
        assert pt.lookup(7).pfn == 200

    def test_protect(self):
        pt = PageTable()
        pt.map(7, 100, PTE_PRESENT | PTE_WRITE)
        pt.protect(7, PTE_PRESENT)  # read-only now
        assert not pt.lookup(7).writable

    def test_entries_iteration(self):
        pt = PageTable()
        for vpn in (5, 1, 9):
            pt.map(vpn, vpn * 10)
        assert [v for v, _ in pt.entries()] == [1, 5, 9]


class TestTLB:
    def test_hit_miss(self):
        from repro.kernel.pagetable import PTE

        tlb = TLB(entries=8, ways=2)
        assert tlb.lookup(5) is None
        tlb.insert(5, PTE(50))
        assert tlb.lookup(5).pfn == 50
        assert tlb.stats.lookups == 2
        assert tlb.stats.hits == 1

    def test_lru_eviction(self):
        from repro.kernel.pagetable import PTE

        tlb = TLB(entries=2, ways=2)  # one set, two ways
        tlb.insert(0, PTE(0))
        tlb.insert(2, PTE(2))
        tlb.lookup(0)  # 0 becomes MRU
        tlb.insert(4, PTE(4))  # evicts 2 (LRU)
        assert tlb.lookup(0) is not None
        assert tlb.lookup(2) is None

    def test_capacity_thrash(self):
        from repro.kernel.pagetable import PTE

        tlb = intel_l1_dtlb()
        for vpn in range(1000):
            tlb.insert(vpn, PTE(vpn))
        assert tlb.occupancy() <= tlb.capacity

    def test_invalidate(self):
        from repro.kernel.pagetable import PTE

        tlb = TLB(entries=8, ways=2)
        tlb.insert(3, PTE(3))
        assert tlb.invalidate(3)
        assert not tlb.invalidate(3)
        tlb.insert(4, PTE(4))
        tlb.insert(5, PTE(5))
        assert tlb.invalidate_range(4, 6) == 2


class TestMMU:
    def _mmu(self):
        pt = PageTable()
        return MMU(pt), pt

    def test_translation_and_caching(self):
        mmu, pt = self._mmu()
        pt.map(0x10, 0x99)
        paddr, cycles = mmu.translate((0x10 << 12) | 0x123)
        assert paddr == (0x99 << 12) | 0x123
        assert cycles >= mmu.costs.pagewalk  # first access walks
        _, cycles2 = mmu.translate((0x10 << 12) | 0x456)
        assert cycles2 == 0  # DTLB hit is free
        assert mmu.stats.dtlb_misses == 1
        assert mmu.stats.pagewalks == 1

    def test_fault_on_unmapped(self):
        mmu, _ = self._mmu()
        with pytest.raises(PageFault) as info:
            mmu.translate(0x5000)
        assert not info.value.present

    def test_fault_on_protection(self):
        mmu, pt = self._mmu()
        pt.map(1, 2, PTE_PRESENT)  # read-only
        mmu.translate(1 << 12, "read")
        with pytest.raises(PageFault) as info:
            mmu.translate(1 << 12, "write")
        assert info.value.present

    def test_stlb_catches_dtlb_evictions(self):
        mmu, pt = self._mmu()
        # Touch more pages than the 64-entry DTLB holds but fewer than the
        # STLB: second sweep must hit the STLB, not walk.
        for vpn in range(128):
            pt.map(vpn, vpn + 1000)
        for vpn in range(128):
            mmu.translate(vpn << 12)
        walks_after_first_sweep = mmu.stats.pagewalks
        for vpn in range(128):
            mmu.translate(vpn << 12)
        assert mmu.stats.pagewalks == walks_after_first_sweep

    def test_dirty_bit_set_on_write(self):
        from repro.kernel.pagetable import PTE_DIRTY

        mmu, pt = self._mmu()
        pt.map(3, 4)
        mmu.translate(3 << 12, "write")
        assert pt.lookup(3).flags & PTE_DIRTY

    def test_invalidate_forces_rewalk(self):
        mmu, pt = self._mmu()
        pt.map(7, 8)
        mmu.translate(7 << 12)
        mmu.invalidate_page(7)
        mmu.translate(7 << 12)
        assert mmu.stats.pagewalks == 2

    def test_mru_hit_is_what_compiled_paging_accesses_inline(self):
        # Trace-compiled paging loads and stores (codegen._paging) serve a
        # DTLB hit on its set's most recent entry without calling
        # MMU.translate: they bump the counters below and never touch the
        # TLB lists.  That is exact only while such a hit through
        # translate leaves every set as it was and counts just this.
        mmu, pt = self._mmu()
        for vpn in range(80):
            pt.map(vpn, vpn + 100)
        # 16 DTLB sets of 4 ways: 0/16/32 share set 0, 1/17/33/49/65 set 1.
        pattern = [0, 0, 0, 16, 16, 0, 32, 0, 16, 16, 1, 17, 1, 33, 49, 65, 1, 0] * 3
        mru = reordered = 0
        for vpn in pattern:
            ways = mmu.dtlb.sets[vpn % mmu.dtlb.num_sets]
            before = (
                mmu.dtlb.entries(), mmu.stlb.entries(), asdict(mmu.stlb.stats),
                asdict(mmu.dtlb.stats), asdict(mmu.stats),
            )
            is_mru = bool(ways) and ways[-1][0] == vpn
            hit = any(v == vpn for v, _ in ways)
            paddr, cycles = mmu.translate((vpn << 12) | 8, "read")
            assert paddr == ((vpn + 100) << 12) | 8
            if not is_mru:
                reordered += hit and mmu.dtlb.entries() != before[0]
                continue
            mru += 1
            dtlb, mmu_stats = dict(before[3]), dict(before[4])
            dtlb["lookups"] += 1
            dtlb["hits"] += 1
            mmu_stats["accesses"] += 1
            mmu_stats["translation_cycles"] += mmu.costs.tlb_hit
            assert cycles == mmu.costs.tlb_hit
            assert (
                mmu.dtlb.entries(), mmu.stlb.entries(), asdict(mmu.stlb.stats),
                asdict(mmu.dtlb.stats), asdict(mmu.stats),
            ) == (*before[:3], dtlb, mmu_stats)
        assert mru > 10 and reordered > 0  # both kinds of hit
        assert mmu.dtlb.stats.evictions > 0

    def test_mpki_metric(self):
        mmu, pt = self._mmu()
        pt.map(1, 1)
        mmu.translate(1 << 12)
        assert mmu.stats.dtlb_mpki(1000) == 1.0
