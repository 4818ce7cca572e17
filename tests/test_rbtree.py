"""The Allocation Table as an ordered map keyed by block address.

The paper keeps the table in a red/black tree; these are the ordered-map
cases that tree was tested on (exact lookup, floor, range, deletion,
ordered iteration), run against :class:`AllocationTable`, which answers
the same queries from sorted lists.  The random operation-sequence test
is in ``test_allocation_table.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.allocation_table import AllocationError, AllocationTable


def keys_of(allocations):
    return [a.address for a in allocations]


def table_with(keys, size=1):
    table = AllocationTable()
    for key in keys:
        table.add(key, size)
    return table


class TestBasics:
    def test_empty(self):
        t = AllocationTable()
        assert len(t) == 0
        assert not t
        assert t.at(1) is None
        assert t.find_containing(1) is None
        assert t.overlapping(0, 1 << 20) == []
        assert t.remove_if_present(5) is None
        with pytest.raises(AllocationError):
            t.remove(5)
        assert t.live_bytes() == 0
        t.check_invariants()

    def test_insert_and_get(self):
        t = AllocationTable()
        five = t.add(5, 1, "heap")
        three = t.add(3, 1, "stack")
        t.add(8, 1, "global")
        assert t.at(5) is five
        assert t.at(3) is three
        assert t.at(8).kind == "global"
        assert t.at(9) is None
        assert len(t) == 3

    def test_replace_value(self):
        t = AllocationTable()
        first = t.add(1, 4)
        with pytest.raises(AllocationError):
            t.add(1, 8)
        assert len(t) == 1
        assert t.at(1) is first and first.size == 4
        second = t.add(10, 4)
        with pytest.raises(AllocationError):
            t.rebase(second, 1)
        assert t.at(1) is first and t.at(10) is second
        t.check_invariants()

    def test_ordered_iteration(self):
        t = AllocationTable()
        for k in (5, 1, 9, 3, 7):
            t.add(k * 10, k)
        assert keys_of(t) == [10, 30, 50, 70, 90]
        assert [(a.address, a.size) for a in t][0] == (10, 1)

    def test_floor_ceiling(self):
        t = table_with((10, 20, 30), size=5)
        assert t.find_containing(22).address == 20
        assert t.find_containing(20).address == 20
        assert t.find_containing(24).address == 20
        # The floor entry exists but ends before the probe.
        assert t.find_containing(25) is None
        assert t.find_containing(5) is None
        assert t.find_containing(34).address == 30
        assert t.find_containing(35) is None
        # With a size, the whole span must sit inside one allocation.
        assert t.find_containing(20, 5).address == 20
        assert t.find_containing(21, 5) is None

    def test_range_iteration(self):
        t = table_with(range(0, 100, 10))
        assert keys_of(t.overlapping(25, 65)) == [30, 40, 50, 60]
        assert keys_of(t.overlapping(0, 10)) == [0]
        assert t.overlapping(200, 300) == []
        # A predecessor that reaches into the range is part of the answer.
        wide = table_with(range(0, 100, 10), size=10)
        assert keys_of(wide.overlapping(25, 65)) == [20, 30, 40, 50, 60]
        assert keys_of(wide.overlapping(30, 30)) == []

    def test_delete(self):
        t = table_with(range(20))
        removed = t.remove(10)
        assert removed.address == 10 and not removed.live
        assert t.at(10) is None
        assert len(t) == 19
        with pytest.raises(AllocationError):
            t.remove(10)
        assert (t.total_allocs, t.total_frees, t.peak_count) == (20, 1, 20)
        t.check_invariants()

    def test_pop(self):
        t = AllocationTable()
        added = t.add(1, 8, "heap")
        popped = t.remove_if_present(1)
        assert popped is added and not popped.live
        assert t.remove_if_present(1) is None
        assert t.total_frees == 1


class TestProperties:
    @given(st.lists(st.integers(min_value=-(10**9), max_value=10**9)))
    @settings(max_examples=60)
    def test_matches_dict_semantics(self, keys):
        t = AllocationTable()
        reference = {}
        for k in keys:
            if k in reference:
                with pytest.raises(AllocationError):
                    t.add(k, 1)
                continue
            reference[k] = t.add(k, 1)
        assert len(t) == len(reference)
        assert keys_of(t) == sorted(reference)
        for k in keys:
            assert t.at(k) is reference[k]
        assert t.peak_count == len(reference)
        t.check_invariants()

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1),
        st.lists(st.integers(min_value=0, max_value=200)),
    )
    @settings(max_examples=60)
    def test_insert_delete_interleaved(self, inserts, deletes):
        t = AllocationTable()
        reference = set()
        for k in inserts:
            if k not in reference:
                t.add(k, 1)
                reference.add(k)
        for k in deletes:
            assert (t.remove_if_present(k) is not None) == (k in reference)
            reference.discard(k)
            t.check_invariants()
        assert keys_of(t) == sorted(reference)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=1100),
    )
    @settings(max_examples=60)
    def test_floor_ceiling_consistency(self, keys, size, probe):
        unique = sorted(set(keys))
        t = AllocationTable()
        ends = {}
        for k, following in zip(unique, unique[1:] + [None]):
            length = size if following is None else min(size, following - k)
            t.add(k, length)
            ends[k] = k + length
        floor = max((k for k in unique if k <= probe), default=None)
        expected = floor if floor is not None and probe < ends[floor] else None
        found = t.find_containing(probe)
        assert (found.address if found else None) == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60)
    def test_range_query_matches_filter(self, keys, size, a, b):
        lo, hi = min(a, b), max(a, b)
        unique = sorted(set(keys))
        t = AllocationTable()
        ends = {}
        for k, following in zip(unique, unique[1:] + [None]):
            length = size if following is None else min(size, following - k)
            t.add(k, length)
            ends[k] = k + length
        got = keys_of(t.overlapping(lo, hi))
        expected = [k for k in unique if k < hi and lo < ends[k]]
        assert got == expected
