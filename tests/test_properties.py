"""Cross-cutting property tests.

* differential execution: randomly generated Mini-C arithmetic must
  compute exactly what a reference Python evaluator (with 64-bit wrap
  semantics) computes — this exercises lexer, parser, sema, lowering,
  every generic optimization, and the interpreter in one shot;
* CARAT transparency: for random list/array programs, the instrumented
  binary must produce the baseline's output with zero guard faults;
* region-set operations vs a page-permission reference model;
* the frame allocator's bitmap vs a list-of-bools scan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.kernel.physmem import PAGE_SIZE, FrameAllocator, PhysicalMemoryError
from tests.support import run_carat, run_carat_baseline
from repro.runtime.regions import (
    PERM_READ,
    PERM_RW,
    PERM_RWX,
    PERM_WRITE,
    Region,
    RegionSet,
)
from repro.sanitizer import region_geometry_problems

I64_MASK = (1 << 64) - 1


def wrap64(value: int) -> int:
    value &= I64_MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


# --- random expression trees -------------------------------------------------

_BINOPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def expr_trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.integers(min_value=-(2**31), max_value=2**31))
    op = draw(st.sampled_from(_BINOPS))
    lhs = draw(expr_trees(depth=depth + 1))
    rhs = draw(expr_trees(depth=depth + 1))
    return (op, lhs, rhs)


def render(tree) -> str:
    if isinstance(tree, int):
        return f"({tree})" if tree < 0 else str(tree)
    op, lhs, rhs = tree
    return f"({render(lhs)} {op} {render(rhs)})"


def evaluate(tree) -> int:
    if isinstance(tree, int):
        return wrap64(tree)
    op, lhs, rhs = tree
    a, b = evaluate(lhs), evaluate(rhs)
    if op == "+":
        return wrap64(a + b)
    if op == "-":
        return wrap64(a - b)
    if op == "*":
        return wrap64(a * b)
    if op == "&":
        return wrap64(a & b)
    if op == "|":
        return wrap64(a | b)
    if op == "^":
        return wrap64(a ^ b)
    raise AssertionError(op)


class TestDifferentialExecution:
    @given(expr_trees())
    @settings(max_examples=25, deadline=None)
    def test_expression_semantics(self, tree):
        source = f"void main() {{ print_long({render(tree)}); }}"
        result = run_carat_baseline(source, name="prop")
        assert result.output == [str(evaluate(tree))]

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=20)
    )
    @settings(max_examples=20, deadline=None)
    def test_array_sum_matches(self, values):
        writes = "\n".join(
            f"  a[{i}] = {v};" for i, v in enumerate(values)
        )
        source = f"""
        void main() {{
          long *a = (long*)malloc(sizeof(long) * {len(values)});
          {writes}
          long s = 0;
          long i;
          for (i = 0; i < {len(values)}; i++) {{ s += a[i]; }}
          print_long(s);
          free((char*)a);
        }}
        """
        result = run_carat_baseline(source, name="prop")
        assert result.output == [str(sum(values))]

    @given(
        st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=15)
    )
    @settings(max_examples=15, deadline=None)
    def test_carat_is_transparent(self, values):
        """The full CARAT treatment never changes program behaviour."""
        pushes = "\n".join(
            f"""
            node = (struct N*)malloc(sizeof(struct N));
            node->v = {v}; node->next = head; head = node;
            """
            for v in values
        )
        source = f"""
        struct N {{ long v; struct N *next; }};
        struct N *head;
        struct N *node;
        void main() {{
          {pushes}
          long s = 0;
          struct N *p = head;
          while (p != null) {{ s += p->v; p = p->next; }}
          print_long(s);
        }}
        """
        base = run_carat_baseline(source, name="prop")
        carat = run_carat(source, name="prop")
        assert base.output == carat.output == [str(sum(values))]
        assert carat.process.runtime.stats.guard_faults == 0


class TestRegionSetModel:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "coalesce"]),
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=25,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_page_permission_model(self, operations):
        """Model: a dict page -> covered?  The region set must agree after
        any sequence of adds / range removals / coalesces."""
        rs = RegionSet()
        model = set()
        page = 0x1000
        for op, start, length in operations:
            lo, hi = start * page, (start + length) * page
            if op == "add":
                if any(p in model for p in range(start, start + length)):
                    with pytest.raises(ValueError):
                        rs.add(Region(lo, hi - lo, PERM_RW))
                    continue
                rs.add(Region(lo, hi - lo, PERM_RW))
                model.update(range(start, start + length))
            elif op == "remove":
                rs.remove_range(lo, hi)
                model.difference_update(range(start, start + length))
            else:
                rs.coalesce()  # never changes coverage
        for p in range(0, 40):
            covered = rs.check(p * page, page, "read")
            assert covered == (p in model), f"page {p}"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_coalesce_preserves_checks(self, spans):
        rs = RegionSet()
        for start, length in spans:
            try:
                rs.add(Region(start * 0x1000, length * 0x1000, PERM_RW))
            except ValueError:
                pass
        before = [rs.check(p * 0x1000, 8, "write") for p in range(30)]
        rs.coalesce()
        after = [rs.check(p * 0x1000, 8, "write") for p in range(30)]
        assert before == after


class TestRegionSetInvariants:
    """Sorted/disjoint geometry plus a unit-granular permission oracle,
    under arbitrary sequences of every mutating operation (including the
    once-unvalidated ``replace_all``)."""

    UNIT = 0x100

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["add", "remove", "replace_all", "remove_range",
                     "set_range_perms", "coalesce"]
                ),
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=1, max_value=6),
                st.sampled_from([PERM_READ, PERM_RW, PERM_RWX]),
            ),
            max_size=30,
        ),
        st.lists(st.integers(min_value=-1, max_value=26 * 0x100), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_geometry_and_find_oracle(self, operations, probes):
        rs = RegionSet()
        oracle = {}  # unit index -> perms
        for op, start, length, perms in operations:
            lo, hi = start * self.UNIT, (start + length) * self.UNIT
            units = range(start, start + length)
            if op == "add":
                if any(u in oracle for u in units):
                    with pytest.raises(ValueError):
                        rs.add(Region(lo, hi - lo, perms))
                else:
                    rs.add(Region(lo, hi - lo, perms))
                    oracle.update({u: perms for u in units})
            elif op == "remove":
                victim = next((r for r in rs.regions if r.base == lo), None)
                if victim is None:
                    with pytest.raises(KeyError):
                        rs.remove(lo)
                else:
                    rs.remove(lo)
                    for u in range(victim.base // self.UNIT,
                                   victim.end // self.UNIT):
                        oracle.pop(u, None)
            elif op == "replace_all":
                # Rebuild from the oracle plus one candidate region; the
                # candidate overlaps iff any of its units are taken.
                replacement = [
                    Region(s * self.UNIT, (e - s) * self.UNIT, oracle[s])
                    for s, e in _runs(oracle)
                ] + [Region(lo, hi - lo, perms)]
                if any(u in oracle for u in units):
                    before = rs.regions
                    with pytest.raises(ValueError):
                        rs.replace_all(replacement)
                    assert rs.regions == before  # failed install: no change
                else:
                    rs.replace_all(replacement)
                    oracle.update({u: perms for u in units})
            elif op == "remove_range":
                rs.remove_range(lo, hi)
                for u in units:
                    oracle.pop(u, None)
            elif op == "set_range_perms":
                if all(u in oracle for u in units):
                    rs.set_range_perms(lo, hi, perms)
                    oracle.update({u: perms for u in units})
                else:
                    with pytest.raises(ValueError):
                        rs.set_range_perms(lo, hi, perms)
            else:
                rs.coalesce()

            # Invariant: sorted, disjoint, positive lengths — the same
            # predicate the sanitizer's region-geometry rule enforces.
            assert region_geometry_problems(rs.regions) == []

        # find() agrees with a linear scan, for probes in and around the
        # occupied range (including the -1 miss).
        for probe in probes + [r.base for r in rs.regions]:
            linear = next(
                (r for r in rs.regions if r.base <= probe < r.end), None
            )
            assert rs.find(probe) is linear
        # And the oracle agrees unit-by-unit on coverage + write perms.
        for u in range(0, 27):
            address = u * self.UNIT
            expect = oracle.get(u)
            assert rs.check(address, 8, "read") == (
                expect is not None and bool(expect & PERM_READ)
            )
            assert rs.check(address, 8, "write") == (
                expect is not None and bool(expect & PERM_WRITE)
            )


def _runs(oracle):
    """Group the oracle's unit indices into maximal adjacent runs with
    identical perms -> (start, end) pairs."""
    runs = []
    for u in sorted(oracle):
        if runs and runs[-1][1] == u and oracle[runs[-1][0]] == oracle[u]:
            runs[-1][1] = u + 1
        else:
            runs.append([u, u + 1])
    return [(s, e) for s, e in runs]


class TestGlobalInitializerRoundtrip:
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_global_scalars_survive_loading(self, values):
        decls = "\n".join(f"long g{i} = {v};" for i, v in enumerate(values))
        prints = "\n".join(f"  print_long(g{i});" for i in range(len(values)))
        source = f"{decls}\nvoid main() {{\n{prints}\n}}"
        result = run_carat_baseline(source, name="prop")
        assert result.output == [str(v) for v in values]


class _BoolFrames:
    """The frame allocator's contract as a list of bools, scanned frame by
    frame: first fit within a tier, next fit from a cursor untiered."""

    def __init__(self, total, reserve, fast):
        self.free = [f >= reserve for f in range(total)]
        self.reserve, self.fast, self.cursor = reserve, fast, reserve

    def bounds(self, tier):
        total = len(self.free)
        return {
            None: (self.reserve, total),
            "fast": (self.reserve, self.fast),
            "slow": (self.fast, total),
        }[tier]

    def find(self, begin, count, end):
        for start in range(begin, end - count + 1):
            if all(self.free[start : start + count]):
                return start
        return None

    def alloc(self, count, tier):
        if tier is None:
            start = self.find(self.cursor, count, len(self.free))
            if start is None:
                start = self.find(self.reserve, count, len(self.free))
        else:
            lo, hi = self.bounds(tier)
            start = self.find(lo, count, hi)
        if start is not None:
            self.free[start : start + count] = [False] * count
            if tier is None:
                self.cursor = start + count
        return start

    def runs(self, tier):
        lo, hi = self.bounds(tier)
        runs, start = [], None
        for frame in range(lo, hi + 1):
            if frame < hi and self.free[frame]:
                start = frame if start is None else start
            elif start is not None:
                runs.append((start, frame - start))
                start = None
        return runs


class TestFrameAllocatorModel:
    """Every query of the bitmap allocator equals a list-of-bools scan,
    after any sequence of tiered and untiered ``alloc``, ``alloc_at``
    and ``free`` (double frees included)."""

    @given(
        st.booleans(),
        st.lists(
            st.tuples(
                st.sampled_from(["alloc", "alloc_fast", "alloc_slow",
                                 "alloc_at", "free"]),
                st.integers(min_value=0, max_value=47),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_list_of_bools(self, tiered, operations):
        total, reserve, fast = 48, 4, 20
        frames = FrameAllocator(
            total * PAGE_SIZE, reserve_low=reserve,
            fast_frames=fast if tiered else None,
        )
        model = _BoolFrames(total, reserve, fast)
        for op, frame, count in operations:
            if op.startswith("alloc_") and op != "alloc_at" and not tiered:
                op = "alloc"
            if op == "alloc_at":
                expect = (
                    reserve <= frame and frame + count <= total
                    and all(model.free[frame : frame + count])
                )
                assert frames.alloc_at(frame, count) == expect
                if expect:
                    model.free[frame : frame + count] = [False] * count
            elif op == "free":
                span = model.free[frame : frame + count]
                if frame + count <= total and not any(span):
                    frames.free(frame, count)
                    model.free[frame : frame + count] = [True] * count
                else:
                    # A failed release changes nothing.
                    with pytest.raises(PhysicalMemoryError):
                        frames.free(frame, count)
            else:
                tier = {"alloc": None, "alloc_fast": "fast",
                        "alloc_slow": "slow"}[op]
                expect = model.alloc(count, tier)
                if expect is None:
                    with pytest.raises(OutOfMemoryError):
                        frames.alloc(count, tier=tier)
                else:
                    assert frames.alloc(count, tier=tier) == expect
            for tier in ([None, "fast", "slow"] if tiered else [None]):
                runs = model.runs(tier)
                assert frames.free_runs(tier) == runs
                assert frames.largest_free_run(tier) == max(
                    (length for _, length in runs), default=0
                )
                assert frames.free_frames_in(tier) == sum(
                    length for _, length in runs
                )
            assert frames.free_frames == model.free.count(True)
            assert frames.allocated_frames + frames.free_frames == total - reserve
            assert [frames.frame_is_free(f) for f in range(total)] == model.free
            assert all(type(frames.frame_is_free(f)) is bool for f in range(total))
