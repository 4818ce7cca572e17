"""Allocation Table: random operation sequences against a brute-force oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.allocation_table import AllocationError, AllocationTable

#: Small address space and sizes, so adds collide and rebases land on
#: occupied keys often.
SPACE = 256

addresses = st.integers(min_value=0, max_value=SPACE)
picks = st.integers(min_value=0, max_value=63)
#: An operation's address: any address, the key of the n-th allocation in
#: the table, or the old address of the n-th removed one (see ``resolve``).
spots = st.one_of(
    st.tuples(st.just("address"), addresses),
    st.tuples(st.just("key"), picks),
    st.tuples(st.just("freed"), picks),
)
adds = st.tuples(st.just("add"), spots, st.integers(min_value=0, max_value=40))
#: Adds weighted up, so the table fills enough for collisions to matter.
operations = st.one_of(
    adds,
    adds,
    adds,
    st.tuples(st.just("remove"), spots),
    st.tuples(st.just("remove_if_present"), spots),
    st.tuples(st.just("rebase"), picks, spots),
    st.tuples(st.just("rebase_freed"), picks, spots),
)


def resolve(oracle, freed, spot):
    kind, value = spot
    if kind == "key" and oracle:
        return sorted(oracle)[value % len(oracle)]
    if kind == "freed" and freed:
        return freed[value % len(freed)].address
    return value


def expected_containing(oracle, address, size):
    return next(
        (a for base, (length, a) in oracle.items()
         if base <= address and address + size <= base + length),
        None,
    )


def expected_overlapping(oracle, lo, hi):
    return [
        a for base, (length, a) in sorted(oracle.items())
        if base < hi and lo < base + length
    ]


def assert_matches(table, oracle, peak, allocs, frees):
    table.check_invariants()
    ordered = sorted(oracle.items())
    assert [(a.address, a.size) for a in table] == [
        (base, length) for base, (length, _) in ordered
    ]
    assert all(a is entry[1] for a, (_, entry) in zip(table, ordered))
    assert len(table) == len(oracle)
    assert table.peak_count == peak
    assert (table.total_allocs, table.total_frees) == (allocs, frees)
    assert table.live_bytes() == sum(length for length, _ in oracle.values())


class TestProperties:
    @given(st.lists(operations, min_size=10, max_size=60), st.data())
    @settings(max_examples=150, deadline=None)
    def test_operations_match_oracle(self, steps, data):
        table = AllocationTable()
        oracle = {}  # base -> (size, Allocation)
        freed = []
        peak = allocs = frees = 0
        for step in steps:
            op = step[0]
            if op == "add":
                _, spot, size = step
                address = resolve(oracle, freed, spot)
                if size > 0 and not expected_overlapping(
                    oracle, address, address + size
                ):
                    allocation = table.add(address, size)
                    oracle[address] = (size, allocation)
                    allocs += 1
                    peak = max(peak, len(oracle))
                else:
                    with pytest.raises(AllocationError):
                        table.add(address, size)
            elif op == "remove":
                address = resolve(oracle, freed, step[1])
                if address in oracle:
                    removed = table.remove(address)
                    assert removed is oracle.pop(address)[1] and not removed.live
                    freed.append(removed)
                    frees += 1
                else:
                    with pytest.raises(AllocationError):
                        table.remove(address)
            elif op == "remove_if_present":
                address = resolve(oracle, freed, step[1])
                removed = table.remove_if_present(address)
                if address in oracle:
                    assert removed is oracle.pop(address)[1] and not removed.live
                    freed.append(removed)
                    frees += 1
                else:
                    assert removed is None
            elif op == "rebase":
                _, pick, spot = step
                if not oracle:
                    continue
                base = sorted(oracle)[pick % len(oracle)]
                target = resolve(oracle, freed, spot)
                size, allocation = oracle[base]
                others = {b: e for b, e in oracle.items() if b != base}
                if target in others:
                    with pytest.raises(AllocationError):
                        table.rebase(allocation, target)
                    assert allocation.address == base
                elif not expected_overlapping(others, target, target + size):
                    table.rebase(allocation, target)
                    oracle[target] = oracle.pop(base)
                    assert allocation.address == target
            else:  # rebase_freed: an allocation no longer in the table
                _, pick, spot = step
                if not freed:
                    continue
                allocation = freed[pick % len(freed)]
                target = resolve(oracle, freed, spot)
                address = allocation.address
                with pytest.raises(AllocationError):
                    table.rebase(allocation, target)
                assert allocation.address == address
            assert_matches(table, oracle, peak, allocs, frees)

            address = data.draw(addresses, label="probe")
            size = data.draw(st.integers(min_value=1, max_value=16), label="size")
            span = data.draw(st.integers(min_value=0, max_value=48), label="span")
            assert table.at(address) is oracle.get(address, (0, None))[1]
            assert table.find_containing(address, size) is expected_containing(
                oracle, address, size
            )
            found = table.overlapping(address, address + span)
            expected = expected_overlapping(oracle, address, address + span)
            assert len(found) == len(expected)
            assert all(f is e for f, e in zip(found, expected))

        for address in range(SPACE + 48):
            assert table.find_containing(address) is expected_containing(
                oracle, address, 1
            )
