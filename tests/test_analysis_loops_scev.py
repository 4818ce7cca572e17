"""Natural loops, preheaders, scalar evolution, trip counts."""

import pytest

from repro.analysis.loops import LoopInfo
from repro.analysis.scev import (
    SCEVAddRec,
    SCEVConstant,
    SCEVExpander,
    SCEVUnknown,
    ScalarEvolution,
)
from repro.ir import (
    Function,
    FunctionType,
    IRBuilder,
    Module,
    verify_function,
)
from repro.ir.types import I64, VOID, ptr
from tests.conftest import build_count_loop


class TestLoopDetection:
    def test_single_loop(self, module):
        fn, parts = build_count_loop(module)
        li = LoopInfo.compute(fn)
        assert len(li.loops) == 1
        loop = li.loops[0]
        assert loop.header is parts["loop"]
        assert parts["body"] in loop.blocks
        assert parts["exit"] not in loop.blocks
        assert loop.latches == [parts["body"]]
        assert loop.depth == 1

    def test_loop_queries(self, module):
        fn, parts = build_count_loop(module)
        li = LoopInfo.compute(fn)
        loop = li.loops[0]
        assert li.loop_for(parts["body"]) is loop
        assert li.loop_for(parts["exit"]) is None
        assert loop.depth == 1
        assert loop.exits() == [parts["exit"]]
        assert loop.exiting_blocks() == [parts["loop"]]

    def test_nested_loops(self, module):
        fn = Function("nest", FunctionType(VOID, [I64]), module, ["n"])
        entry = fn.add_block("entry")
        outer = fn.add_block("outer")
        inner = fn.add_block("inner")
        inner_latch = fn.add_block("inner.latch")
        outer_latch = fn.add_block("outer.latch")
        done = fn.add_block("done")
        b = IRBuilder(entry)
        b.br(outer)
        b.position_at_end(outer)
        i = b.phi(I64, "i")
        ci = b.icmp("slt", i, fn.args[0])
        b.cond_br(ci, inner, done)
        b.position_at_end(inner)
        j = b.phi(I64, "j")
        cj = b.icmp("slt", j, fn.args[0])
        b.cond_br(cj, inner_latch, outer_latch)
        b.position_at_end(inner_latch)
        j2 = b.add(j, b.i64(1))
        b.br(inner)
        b.position_at_end(outer_latch)
        i2 = b.add(i, b.i64(1))
        b.br(outer)
        b.position_at_end(done)
        b.ret()
        i.add_incoming(b.i64(0), entry)
        i.add_incoming(i2, outer_latch)
        j.add_incoming(b.i64(0), outer)
        j.add_incoming(j2, inner_latch)
        verify_function(fn)

        li = LoopInfo.compute(fn)
        assert len(li.loops) == 2
        inner_loop = li.loop_for(inner_latch)
        outer_loop = li.loop_for(outer_latch)
        assert inner_loop is not outer_loop
        assert inner_loop.parent is outer_loop
        assert inner_loop.depth == 2
        assert li.loop_for(inner) is inner_loop

    def test_preheader_detection_and_creation(self, module):
        fn, parts = build_count_loop(module)
        li = LoopInfo.compute(fn)
        loop = li.loops[0]
        # entry is a valid preheader already (single outside pred, single succ).
        assert loop.preheader() is parts["entry"]
        pre = li.ensure_preheader(loop)
        assert pre is parts["entry"]

    def test_preheader_created_when_missing(self, module):
        # Two outside predecessors of the header force a new preheader.
        fn = Function("p", FunctionType(VOID, [I64]), module, ["n"])
        a = fn.add_block("a")
        c = fn.add_block("c")
        header = fn.add_block("header")
        body = fn.add_block("body")
        out = fn.add_block("out")
        b = IRBuilder(a)
        cond = b.icmp("slt", fn.args[0], b.i64(0))
        b.cond_br(cond, c, header)
        b.position_at_end(c)
        b.br(header)
        b.position_at_end(header)
        i = b.phi(I64, "i")
        hc = b.icmp("slt", i, fn.args[0])
        b.cond_br(hc, body, out)
        b.position_at_end(body)
        i2 = b.add(i, b.i64(1))
        b.br(header)
        b.position_at_end(out)
        b.ret()
        i.add_incoming(b.i64(0), a)
        i.add_incoming(b.i64(5), c)
        i.add_incoming(i2, body)
        verify_function(fn)

        li = LoopInfo.compute(fn)
        loop = li.loops[0]
        assert loop.preheader() is None
        pre = li.ensure_preheader(loop)
        assert pre is not None
        verify_function(fn)
        assert loop.preheader() is pre
        # Header phi now has exactly two incoming: preheader + latch.
        assert len(i.incoming) == 2


class TestScalarEvolution:
    def test_induction_variable(self, module):
        fn, parts = build_count_loop(module)
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        scev = se.analyze(parts["i"])
        assert isinstance(scev, SCEVAddRec)
        assert scev.start == SCEVConstant(0)
        assert scev.step == SCEVConstant(1)

    def test_gep_address_evolution(self, module):
        fn, parts = build_count_loop(module)
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        scev = se.analyze(parts["p"])
        assert isinstance(scev, SCEVAddRec)
        assert scev.step == SCEVConstant(8)
        assert scev.start == SCEVUnknown(fn.args[0])

    def test_derived_expression(self, module):
        fn, parts = build_count_loop(module)
        b = IRBuilder(parts["body"])
        b.position_before(parts["i_next"])
        scaled = b.mul(parts["i"], b.i64(4))
        shifted = b.add(scaled, b.i64(100))
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        scev = se.analyze(shifted)
        assert isinstance(scev, SCEVAddRec)
        assert scev.start == SCEVConstant(100)
        assert scev.step == SCEVConstant(4)

    def test_symbolic_trip_count(self, module):
        fn, parts = build_count_loop(module)
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        trip = se.trip_count(li.loops[0])
        assert trip is not None
        assert trip.predicate == "slt"
        assert trip.step == 1
        assert trip.constant_trip_count() is None  # bound is %n
        sym = se.symbolic_trip_count(trip)
        assert sym is not None

    def test_constant_trip_count(self, module):
        from repro.ir.values import ConstantInt

        fn, parts = build_count_loop(module, name="c10", bound=ConstantInt(I64, 10))
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        trip = se.trip_count(li.loops[0])
        assert trip is not None
        assert trip.constant_trip_count() == 10

    def test_affine_range(self, module):
        from repro.ir.values import ConstantInt

        fn, parts = build_count_loop(module, name="c8", bound=ConstantInt(I64, 8))
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        affine = se.affine_range(parts["p"], li.loops[0])
        assert affine is not None
        start, step, n = affine
        assert step == 8
        assert n == SCEVConstant(8)

    def test_non_affine_returns_none(self, module):
        # i * i is not an add recurrence.
        fn, parts = build_count_loop(module)
        b = IRBuilder(parts["body"])
        b.position_before(parts["i_next"])
        sq = b.mul(parts["i"], parts["i"])
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        scev = se.analyze(sq)
        assert not isinstance(scev, SCEVAddRec)

    def test_expander(self, module):
        from repro.ir.values import ConstantInt

        fn, parts = build_count_loop(module)
        li = LoopInfo.compute(fn)
        se = ScalarEvolution(fn, li)
        scev = se.analyze(parts["p"])
        assert isinstance(scev, SCEVAddRec)
        b = IRBuilder(parts["entry"])
        b.position_before(parts["entry"].terminator)
        value = SCEVExpander(b).expand(scev.start)
        assert value.type == I64
        verify_function(fn)
