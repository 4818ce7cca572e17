"""Alias analyses, points-to, available values, LICM's writer query."""

import pytest

from repro.analysis.alias import (
    AliasResult,
    BasicAliasAnalysis,
    ChainedAliasAnalysis,
    PointsToAliasAnalysis,
    TypeBasedAliasAnalysis,
    underlying_object,
)
from repro.analysis.dataflow import AvailableValues
from repro.analysis.loops import LoopInfo
from repro.ir import (
    Function,
    FunctionType,
    IRBuilder,
    Module,
)
from repro.ir.types import F64, I8, I64, ptr
from repro.transform.licm import writers_in_loop
from tests.conftest import build_count_loop

NO = AliasResult.NO_ALIAS
MAY = AliasResult.MAY_ALIAS
MUST = AliasResult.MUST_ALIAS


@pytest.fixture
def fn(module):
    f = Function(
        "aa", FunctionType(I64, [ptr(I64), ptr(I64)]), module, ["p", "q"]
    )
    f.add_block("entry")
    return f


class TestBasicAA:
    def test_identical_values_must_alias(self, fn):
        aa = BasicAliasAnalysis()
        assert aa.alias(fn.args[0], fn.args[0]) is MUST

    def test_distinct_allocas_no_alias(self, fn):
        b = IRBuilder(fn.entry)
        a1 = b.alloca(I64)
        a2 = b.alloca(I64)
        assert BasicAliasAnalysis().alias(a1, a2) is NO

    def test_arguments_may_alias(self, fn):
        assert BasicAliasAnalysis().alias(fn.args[0], fn.args[1]) is MAY

    def test_gep_same_base_same_offset(self, fn):
        b = IRBuilder(fn.entry)
        g1 = b.gep(fn.args[0], [b.i64(2)])
        g2 = b.gep(fn.args[0], [b.i64(2)])
        assert BasicAliasAnalysis().alias(g1, g2) is MUST

    def test_gep_same_base_disjoint_offsets(self, fn):
        b = IRBuilder(fn.entry)
        g1 = b.gep(fn.args[0], [b.i64(0)])
        g2 = b.gep(fn.args[0], [b.i64(1)])
        assert BasicAliasAnalysis().alias(g1, g2) is NO

    def test_private_alloca_vs_argument(self, fn):
        b = IRBuilder(fn.entry)
        local = b.alloca(I64)
        b.store(b.i64(1), local)  # store through, not of — no escape
        assert BasicAliasAnalysis().alias(local, fn.args[0]) is NO

    def test_escaped_alloca_vs_argument(self, fn, module):
        b = IRBuilder(fn.entry)
        local = b.alloca(I64)
        slot = b.alloca(ptr(I64))
        b.store(local, slot)  # address escapes
        assert BasicAliasAnalysis().alias(local, fn.args[0]) is MAY

    def test_underlying_object_strips_geps_and_casts(self, fn):
        b = IRBuilder(fn.entry)
        g = b.gep(fn.args[0], [b.i64(3)])
        c = b.bitcast(g, ptr(I8))
        assert underlying_object(c) is fn.args[0]


class TestTBAA:
    def test_distinct_scalar_types(self, module):
        f = Function("t", FunctionType(I64, [ptr(I64), ptr(F64)]), module)
        assert TypeBasedAliasAnalysis().alias(f.args[0], f.args[1]) is NO

    def test_char_pointer_aliases_everything(self, module):
        f = Function("t2", FunctionType(I64, [ptr(I64), ptr(I8)]), module)
        assert TypeBasedAliasAnalysis().alias(f.args[0], f.args[1]) is MAY

    def test_same_type_may_alias(self, module):
        f = Function("t3", FunctionType(I64, [ptr(I64), ptr(I64)]), module)
        assert TypeBasedAliasAnalysis().alias(f.args[0], f.args[1]) is MAY


class TestSteensgaard:
    def test_separate_allocations(self, module):
        malloc = Function("malloc", FunctionType(ptr(I8), [I64]), module)
        f = Function("s", FunctionType(I64, []), module)
        b = IRBuilder(f.add_block("entry"))
        m1 = b.call(malloc, [b.i64(8)])
        m2 = b.call(malloc, [b.i64(8)])
        b.ret(b.i64(0))
        aa = PointsToAliasAnalysis(f)
        # Distinct malloc results: may_alias must not merge them.
        assert aa.alias(m1, m2) in (NO, MAY)  # sound either way
        assert aa.alias(m1, m1) is MUST

    def test_store_load_flow(self, module):
        f = Function("s2", FunctionType(I64, [ptr(I64)]), module, ["p"])
        b = IRBuilder(f.add_block("entry"))
        slot = b.alloca(ptr(I64))
        b.store(f.args[0], slot)
        loaded = b.load(slot)
        b.ret(b.i64(0))
        aa = PointsToAliasAnalysis(f)
        # loaded points where p points — they must be allowed to alias.
        assert aa.alias(loaded, f.args[0]) is not NO


class TestChained:
    def test_first_definite_answer_wins(self, module):
        f = Function("c", FunctionType(I64, [ptr(I64), ptr(F64)]), module)
        f.add_block("entry")
        chain = ChainedAliasAnalysis.standard(f)
        # BasicAA says MAY for two args; TBAA then refines to NO.
        assert chain.alias(f.args[0], f.args[1]) is NO

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            ChainedAliasAnalysis([])


class TestAvailableValues:
    def test_intersection_at_join(self, module):
        fn = Function("av", FunctionType(I64, [I64]), module, ["x"])
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("slt", fn.args[0], b.i64(0))
        b.cond_br(cond, left, right)
        b.position_at_end(left)
        b.br(join)
        b.position_at_end(right)
        b.br(join)
        b.position_at_end(join)
        b.ret(fn.args[0])

        # "generate" the token only on the left path.
        def generates(inst):
            return ["tok"] if inst.parent is left else []

        problem = AvailableValues(fn, generates, lambda inst: False)
        facts = problem.solve()
        assert "tok" in facts[left].out_set
        assert "tok" not in facts[join].in_set  # not on every path

    def test_generated_on_both_paths_is_available(self, module):
        fn = Function("av2", FunctionType(I64, [I64]), module, ["x"])
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp("slt", fn.args[0], b.i64(0))
        b.cond_br(cond, left, right)
        for blk in (left, right):
            b.position_at_end(blk)
            b.br(join)
        b.position_at_end(join)
        b.ret(fn.args[0])

        problem = AvailableValues(
            fn, lambda i: ["tok"] if i.parent in (left, right) else [], lambda i: False
        )
        facts = problem.solve()
        assert "tok" in facts[join].in_set


class TestPDG:
    """The writer query LICM asks in place of the paper's PD analysis."""

    def test_writers_in_loop(self, module):
        fn, parts = build_count_loop(module)
        b = IRBuilder(parts["body"])
        b.position_before(parts["i_next"])
        b.store(parts["v"], parts["p"])
        li = LoopInfo.compute(fn)
        aa = ChainedAliasAnalysis.standard(fn)
        writers = writers_in_loop(aa, li.loops[0], parts["p"], 8)
        assert len(writers) == 1
