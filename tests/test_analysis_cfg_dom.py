"""CFG orderings, dominators, dominance frontiers."""

import pytest

from repro.analysis.cfg import (
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_post_order,
)
from repro.analysis.dominators import DominatorTree
from repro.ir import Function, FunctionType, IRBuilder, Module, verify_function
from repro.ir.types import I64
from tests.conftest import build_count_loop


def diamond(module, name="diamond"):
    """entry -> (left|right) -> join -> ret"""
    fn = Function(name, FunctionType(I64, [I64]), module, ["x"])
    entry = fn.add_block("entry")
    left = fn.add_block("left")
    right = fn.add_block("right")
    join = fn.add_block("join")
    b = IRBuilder(entry)
    cond = b.icmp("slt", fn.args[0], b.i64(0))
    b.cond_br(cond, left, right)
    b.position_at_end(left)
    lv = b.add(fn.args[0], b.i64(1))
    b.br(join)
    b.position_at_end(right)
    rv = b.add(fn.args[0], b.i64(2))
    b.br(join)
    b.position_at_end(join)
    phi = b.phi(I64, "merged")
    phi.add_incoming(lv, left)
    phi.add_incoming(rv, right)
    b.ret(phi)
    return fn, entry, left, right, join


class TestOrderings:
    def test_rpo_starts_at_entry(self, module):
        fn, parts = build_count_loop(module)
        order = reverse_post_order(fn)
        assert order[0] is parts["entry"]
        assert set(order) == set(fn.blocks)

    def test_rpo_visits_before_successors_except_backedges(self, module):
        fn, _, left, right, join = diamond(module)
        order = reverse_post_order(fn)
        assert order.index(join) > order.index(left)
        assert order.index(join) > order.index(right)

    def test_unreachable_excluded(self, module):
        fn, parts = build_count_loop(module)
        orphan = fn.add_block("orphan")
        IRBuilder(orphan).ret(IRBuilder(orphan).i64(0))
        assert orphan not in reachable_blocks(fn)

    def test_remove_unreachable(self, module):
        fn, parts = build_count_loop(module)
        orphan = fn.add_block("orphan")
        b = IRBuilder(orphan)
        b.br(parts["loop"])  # adds a bogus predecessor to the loop header
        parts["i"].add_incoming(b.i64(99), orphan)
        removed = remove_unreachable_blocks(fn)
        assert removed == 1
        verify_function(fn)  # phi entry for orphan must be gone too


class TestDominators:
    def test_diamond(self, module):
        fn, entry, left, right, join = diamond(module)
        dt = DominatorTree.compute(fn)
        assert dt.dominates(entry, join)
        assert dt.dominates(entry, left)
        assert not dt.dominates(left, join)
        assert dt.idom(join) is entry
        assert dt.idom(left) is entry
        assert dt.dominates(join, join)

    def test_loop(self, module):
        fn, parts = build_count_loop(module)
        dt = DominatorTree.compute(fn)
        assert dt.idom(parts["loop"]) is parts["entry"]
        assert dt.idom(parts["body"]) is parts["loop"]
        assert dt.idom(parts["exit"]) is parts["loop"]
        assert dt.dominates(parts["loop"], parts["body"])
        assert not dt.dominates(parts["body"], parts["loop"])

    def test_frontiers_diamond(self, module):
        fn, entry, left, right, join = diamond(module)
        df = DominatorTree.compute(fn).dominance_frontier()
        assert set(df[left]) == {join}
        assert set(df[right]) == {join}
        assert set(df[entry]) == set()

    def test_frontier_loop_header(self, module):
        fn, parts = build_count_loop(module)
        df = DominatorTree.compute(fn).dominance_frontier()
        # The body's frontier is the loop header (back edge target).
        assert parts["loop"] in df[parts["body"]]

    def test_children_preorder(self, module):
        fn, entry, left, right, join = diamond(module)
        dt = DominatorTree.compute(fn)
        assert set(dt.children(entry)) == {left, right, join}
