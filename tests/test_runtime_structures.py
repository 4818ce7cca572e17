"""Allocation Table, escape map, regions, guard mechanisms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtectionFault
from repro.runtime import (
    Allocation,
    AllocationTable,
    AllocationToEscapeMap,
    BinarySearchGuard,
    IfTreeGuard,
    MPXGuard,
    PERM_READ,
    PERM_RW,
    PERM_RWX,
    Region,
    RegionSet,
    make_guard,
)
from repro.runtime.allocation_table import AllocationError


class TestAllocationTable:
    def test_add_and_query(self):
        t = AllocationTable()
        a = t.add(0x1000, 64)
        assert len(t) == 1
        assert t.at(0x1000) is a
        assert t.find_containing(0x1000) is a
        assert t.find_containing(0x103F) is a
        assert t.find_containing(0x1040) is None

    def test_overlap_rejected(self):
        t = AllocationTable()
        t.add(0x1000, 64)
        with pytest.raises(AllocationError):
            t.add(0x1020, 8)
        with pytest.raises(AllocationError):
            t.add(0x0FF8, 16)

    def test_zero_size_rejected(self):
        t = AllocationTable()
        with pytest.raises(AllocationError):
            t.add(0x1000, 0)

    def test_remove(self):
        t = AllocationTable()
        t.add(0x1000, 64)
        removed = t.remove(0x1000)
        assert not removed.live
        assert len(t) == 0
        with pytest.raises(AllocationError):
            t.remove(0x1000)
        assert t.remove_if_present(0x1000) is None

    def test_overlapping_range_query(self):
        t = AllocationTable()
        a = t.add(0x1000, 0x100)
        b = t.add(0x2000, 0x100)
        c = t.add(0x2F80, 0x100)  # straddles 0x3000
        found = t.overlapping(0x2000, 0x3000)
        assert found == [b, c]
        # Predecessor reaching in from below:
        found = t.overlapping(0x1080, 0x1100)
        assert found == [a]
        # An allocation starting exactly at lo is the floor too; it is
        # reported once.
        found = t.overlapping(0x2000, 0x2100)
        assert len(found) == 1 and found[0] is b

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=24),  # gap before the block
                st.integers(min_value=1, max_value=48),  # block size
            ),
            max_size=30,
        ),
        st.data(),
    )
    @settings(max_examples=100)
    def test_overlapping_matches_brute_force(self, blocks, data):
        t = AllocationTable()
        end = 0
        for gap, size in blocks:
            t.add(end + gap, size)
            end += gap + size
        starts = [a.address for a in t]
        lo = data.draw(
            st.sampled_from(starts) | st.integers(0, end + 8)
            if starts
            else st.integers(0, end + 8),
            label="lo",
        )
        hi = lo + data.draw(st.integers(0, 64), label="length")
        expected = [a for a in t if a.overlaps(lo, hi)]
        found = t.overlapping(lo, hi)
        assert len(found) == len(expected)
        assert all(f is e for f, e in zip(found, expected))

    def test_rebase(self):
        t = AllocationTable()
        a = t.add(0x1000, 64)
        t.rebase(a, 0x9000)
        assert t.at(0x9000) is a
        assert t.at(0x1000) is None
        assert a.address == 0x9000
        t.check_invariants()

    def test_stats(self):
        t = AllocationTable()
        t.add(0x1000, 8)
        t.add(0x2000, 8)
        t.remove(0x1000)
        assert t.total_allocs == 2
        assert t.total_frees == 1
        assert t.peak_count == 2
        assert t.live_bytes() == 8

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_find_containing_matches_scan(self, blocks):
        t = AllocationTable()
        placed = []
        for slot, size in blocks:
            address = slot * 16
            try:
                placed.append(t.add(address, size))
            except AllocationError:
                pass
        for probe in range(0, 101 * 16, 7):
            expected = next(
                (a for a in placed if a.contains(probe)), None
            )
            assert t.find_containing(probe) is expected


class TestEscapeMap:
    def _memory(self, contents):
        return lambda address: contents.get(address, 0)

    def test_record_and_flush(self):
        t = AllocationTable()
        a = t.add(0x1000, 64)
        m = AllocationToEscapeMap()
        m.record(0x5000)  # cell 0x5000 holds a pointer to 0x1010
        memory = self._memory({0x5000: 0x1010})
        assert m.pending_count == 1
        resolved = m.flush(t, memory)
        assert resolved == 1
        assert m.escapes_of(a) == {0x5000}
        assert m.pending_count == 0

    def test_stale_records_dropped(self):
        t = AllocationTable()
        t.add(0x1000, 64)
        m = AllocationToEscapeMap()
        m.record(0x5000)
        memory = self._memory({0x5000: 0xDEAD0000})  # points nowhere tracked
        assert m.flush(t, memory) == 0
        assert m.stats.stale_dropped == 1

    def test_batching_threshold(self):
        m = AllocationToEscapeMap(batch_limit=3)
        m.record(1)
        m.record(2)
        assert not m.needs_flush()
        m.record(3)
        assert m.needs_flush()

    def test_histogram(self):
        t = AllocationTable()
        a = t.add(0x1000, 64)
        b = t.add(0x2000, 64)
        m = AllocationToEscapeMap()
        contents = {0x5000: 0x1000, 0x5008: 0x1008, 0x5010: 0x2000}
        for cell in contents:
            m.record(cell)
        m.flush(t, self._memory(contents))
        hist = m.histogram()
        assert hist == {2: 1, 1: 1}

    def test_rekey_follows_move(self):
        t = AllocationTable()
        a = t.add(0x1000, 64)
        m = AllocationToEscapeMap()
        m.record(0x5000)
        m.flush(t, self._memory({0x5000: 0x1000}))
        t.rebase(a, 0x8000)
        m.rekey(0x1000, 0x8000)
        assert m.escapes_of(a) == {0x5000}

    def test_rewrite_range(self):
        t = AllocationTable()
        a = t.add(0x1000, 64)
        m = AllocationToEscapeMap()
        m.record(0x1020)  # escape cell inside the soon-to-move range
        m.flush(t, self._memory({0x1020: 0x1000}))
        rewritten = m.rewrite_range(0x1000, 0x2000, 0x7000)
        assert rewritten == 1
        assert m.escapes_of(a) == {0x8020}
        # The counter feeds the stats report (and the bench harness).
        assert m.stats.rewritten == 1
        m.rewrite_range(0x8000, 0x9000, -0x1000)
        assert m.stats.rewritten == 2

    def test_memory_footprint_grows_with_escapes(self):
        t = AllocationTable()
        t.add(0x1000, 4096)
        m = AllocationToEscapeMap()
        baseline = m.memory_footprint_bytes()
        contents = {0x5000 + 8 * i: 0x1000 + i for i in range(100)}
        for cell in contents:
            m.record(cell)
        m.flush(t, self._memory(contents))
        assert m.memory_footprint_bytes() > baseline
        # One 64-byte set header plus 16 bytes per resolved escape, and 8
        # bytes per pending record.
        m.record(0x9000)
        assert m.memory_footprint_bytes() == 64 + 16 * 100 + 8


class TestRegions:
    def test_add_sorted_and_find(self):
        rs = RegionSet()
        rs.add(Region(0x2000, 0x1000))
        rs.add(Region(0x0000, 0x1000))
        assert [r.base for r in rs] == [0x0000, 0x2000]
        assert rs.find(0x2800).base == 0x2000
        assert rs.find(0x1800) is None

    def test_overlap_rejected(self):
        rs = RegionSet([Region(0x1000, 0x1000)])
        with pytest.raises(ValueError):
            rs.add(Region(0x1800, 0x1000))

    def test_check_permissions(self):
        rs = RegionSet([Region(0x1000, 0x1000, PERM_READ)])
        assert rs.check(0x1000, 8, "read")
        assert not rs.check(0x1000, 8, "write")
        assert not rs.check(0x1FFC, 8, "read")  # spans the end

    def test_version_ticks(self):
        rs = RegionSet()
        v0 = rs.version
        rs.add(Region(0, 0x1000))
        assert rs.version > v0

    def test_remove_range_splits(self):
        rs = RegionSet([Region(0x0000, 0x3000, PERM_RW)])
        rs.remove_range(0x1000, 0x2000)
        assert len(rs) == 2
        assert rs.find(0x0800) is not None
        assert rs.find(0x1800) is None
        assert rs.find(0x2800) is not None

    def test_coalesce(self):
        rs = RegionSet([Region(0x0000, 0x1000, PERM_RW), Region(0x1000, 0x1000, PERM_RW)])
        merged = rs.coalesce()
        assert merged == 1
        assert len(rs) == 1
        assert rs.regions[0].length == 0x2000

    # Regression: replace_all used to install the list verbatim, skipping
    # the overlap/length validation that add() performs.
    def test_replace_all_rejects_overlap(self):
        rs = RegionSet([Region(0x0000, 0x1000)])
        before = rs.regions
        v0 = rs.version
        with pytest.raises(ValueError):
            rs.replace_all([Region(0x1000, 0x1000), Region(0x1800, 0x1000)])
        # Failed replacement leaves the set (and version) untouched.
        assert rs.regions == before
        assert rs.version == v0

    def test_replace_all_rejects_nonpositive_length(self):
        rs = RegionSet()
        with pytest.raises(ValueError):
            rs.replace_all([Region(0x1000, 0)])

    def test_replace_all_sorts_valid_input(self):
        rs = RegionSet()
        rs.replace_all([Region(0x2000, 0x1000), Region(0x0000, 0x1000)])
        assert [r.base for r in rs] == [0x0000, 0x2000]

    def test_coalesce_respects_perms(self):
        rs = RegionSet(
            [Region(0x0000, 0x1000, PERM_RW), Region(0x1000, 0x1000, PERM_RWX)]
        )
        assert rs.coalesce() == 0
        assert len(rs) == 2

    def test_set_range_perms(self):
        rs = RegionSet([Region(0x0000, 0x3000, PERM_RWX)])
        rs.set_range_perms(0x1000, 0x2000, PERM_READ)
        assert len(rs) == 3
        assert rs.find(0x1800).perms == PERM_READ
        assert rs.find(0x0800).perms == PERM_RWX

    def test_set_range_perms_requires_coverage(self):
        rs = RegionSet([Region(0x0000, 0x1000, PERM_RW)])
        with pytest.raises(ValueError):
            rs.set_range_perms(0x0800, 0x1800, PERM_READ)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=10,
        ),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50)
    def test_remove_range_never_leaves_overlap(self, spans, rm_start, rm_len):
        rs = RegionSet()
        for start, length in spans:
            try:
                rs.add(Region(start * 0x1000, length * 0x1000))
            except ValueError:
                pass
        rs.remove_range(rm_start * 0x1000, (rm_start + rm_len) * 0x1000)
        regions = rs.regions
        for i in range(1, len(regions)):
            assert regions[i - 1].end <= regions[i].base
        for r in regions:
            assert not (rm_start * 0x1000 <= r.base < (rm_start + rm_len) * 0x1000)


class TestGuardMechanisms:
    def _regions(self, n):
        return RegionSet(
            [Region(i * 0x10000, 0x8000, PERM_RW) for i in range(n)]
        )

    @pytest.mark.parametrize("name", ["mpx", "binary_search", "if_tree"])
    def test_allows_valid_access(self, name):
        rs = self._regions(4)
        guard = make_guard(name)
        outcome = guard.check(rs, 0x10010, 8, "read")
        assert outcome.allowed
        assert outcome.cycles >= 1

    @pytest.mark.parametrize("name", ["mpx", "binary_search", "if_tree"])
    def test_rejects_hole(self, name):
        rs = self._regions(4)
        guard = make_guard(name)
        outcome = guard.check(rs, 0x9000, 8, "read")  # inside the gap
        assert not outcome.allowed

    def test_mpx_single_cycle_on_repeat(self):
        rs = self._regions(4)
        guard = MPXGuard()
        first = guard.check(rs, 0x10010, 8, "read")
        second = guard.check(rs, 0x10020, 8, "read")
        assert second.cycles == 1
        assert second.cycles <= first.cycles

    def test_mpx_invalidated_by_region_change(self):
        rs = self._regions(2)
        guard = MPXGuard()
        guard.check(rs, 0x10, 8, "read")
        rs.add(Region(0x90000, 0x1000))
        outcome = guard.check(rs, 0x10, 8, "read")
        assert outcome.cycles > 1  # bound register reloaded

    def test_binary_search_cost_grows_with_regions(self):
        small = BinarySearchGuard().check(self._regions(2), 0x10, 8, "read")
        large = BinarySearchGuard().check(self._regions(1024), 0x10, 8, "read")
        assert large.cycles > small.cycles

    def test_if_tree_strided_cheaper_than_random(self):
        rs = self._regions(64)
        strided = IfTreeGuard(stride_hint=True)
        random = IfTreeGuard(stride_hint=False)
        s = strided.check(rs, 0x10, 8, "read")
        # Random guard alternating between far regions defeats prediction.
        random.check(rs, 0x10, 8, "read")
        r = random.check(rs, 0x3F0000, 8, "read")
        assert s.cycles < r.cycles

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            make_guard("quantum")
