"""Generic transforms: mem2reg, simplify, DCE, LICM, pass manager."""

import pytest

from repro.analysis.loops import LoopInfo
from repro.ir import (
    ConstantInt,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    parse_module,
    print_function,
    verify_function,
    verify_module,
)
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst, StoreInst
from repro.ir.types import I64, VOID, ptr
from repro.machine.session import CaratSession, RunConfig
from repro.transform.dce import eliminate_dead_code, run_on_function as dce_fn
from repro.transform.licm import hoist_loop_invariants
from repro.transform.mem2reg import is_promotable, promote_memory_to_registers
from repro.transform.pass_manager import PassManager, optimize_module
from repro.transform.simplify import (
    fold_icmp,
    fold_int_binop,
    run_on_function as simplify_fn,
)
from repro.ir.types import I8


class TestMem2Reg:
    def _straightline(self, module):
        fn = Function("f", FunctionType(I64, [I64]), module, ["x"])
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I64, name="slot")
        b.store(fn.args[0], slot)
        v1 = b.load(slot)
        add = b.add(v1, b.i64(1))
        b.store(add, slot)
        v2 = b.load(slot)
        b.ret(v2)
        return fn, slot

    def test_straightline_promotion(self, module):
        fn, slot = self._straightline(module)
        assert is_promotable(slot)
        promoted = promote_memory_to_registers(fn)
        assert promoted == 1
        verify_function(fn)
        assert not any(isinstance(i, (AllocaInst, LoadInst, StoreInst)) for i in fn.instructions())

    def test_diamond_inserts_phi(self, module):
        fn = Function("g", FunctionType(I64, [I64]), module, ["x"])
        entry = fn.add_block("entry")
        left = fn.add_block("left")
        right = fn.add_block("right")
        join = fn.add_block("join")
        b = IRBuilder(entry)
        slot = b.alloca(I64)
        cond = b.icmp("slt", fn.args[0], b.i64(0))
        b.cond_br(cond, left, right)
        b.position_at_end(left)
        b.store(b.i64(1), slot)
        b.br(join)
        b.position_at_end(right)
        b.store(b.i64(2), slot)
        b.br(join)
        b.position_at_end(join)
        v = b.load(slot)
        b.ret(v)
        assert promote_memory_to_registers(fn) == 1
        verify_function(fn)
        phis = join.phis()
        assert len(phis) == 1
        values = sorted(v.value for v, _ in phis[0].incoming)
        assert values == [1, 2]

    def test_escaped_alloca_not_promoted(self, module):
        ext = Function("use", FunctionType(VOID, [ptr(I64)]), module)
        fn = Function("h", FunctionType(VOID, []), module)
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I64)
        b.call(ext, [slot])
        b.ret()
        assert not is_promotable(slot)
        assert promote_memory_to_registers(fn) == 0

    def test_aggregate_alloca_not_promoted(self, module):
        from repro.ir.types import ArrayType

        fn = Function("k", FunctionType(VOID, []), module)
        b = IRBuilder(fn.add_block("entry"))
        arr = b.alloca(ArrayType(I64, 4))
        b.ret()
        assert not is_promotable(arr)

    def test_loop_counter_becomes_phi(self, module):
        # while (i < n) i++ lowered with a slot, then promoted.
        fn = Function("m", FunctionType(I64, [I64]), module, ["n"])
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        out = fn.add_block("out")
        b = IRBuilder(entry)
        slot = b.alloca(I64)
        b.store(b.i64(0), slot)
        b.br(header)
        b.position_at_end(header)
        i = b.load(slot)
        cond = b.icmp("slt", i, fn.args[0])
        b.cond_br(cond, body, out)
        b.position_at_end(body)
        i2 = b.load(slot)
        b.store(b.add(i2, b.i64(1)), slot)
        b.br(header)
        b.position_at_end(out)
        final = b.load(slot)
        b.ret(final)
        assert promote_memory_to_registers(fn) == 1
        verify_function(fn)
        assert len(header.phis()) == 1


class TestSimplify:
    def test_fold_int_binop(self):
        assert fold_int_binop("add", I64, 2, 3) == 5
        assert fold_int_binop("sdiv", I64, 7, -2) == -3  # trunc toward zero
        assert fold_int_binop("srem", I64, 7, -2) == 1
        assert fold_int_binop("sdiv", I64, 1, 0) is None
        assert fold_int_binop("shl", I8, 1, 9) is None
        assert fold_int_binop("add", I8, 127, 1) == -128  # wraps

    def test_fold_icmp(self):
        assert fold_icmp("slt", -1, 1, 64)
        assert not fold_icmp("ult", -1, 1, 64)  # -1 is huge unsigned
        assert fold_icmp("eq", 5, 5, 64)

    def test_constant_folding_in_function(self, module):
        fn = Function("cf", FunctionType(I64, []), module)
        b = IRBuilder(fn.add_block("entry"))
        x = b.add(b.i64(2), b.i64(3))
        y = b.mul(x, b.i64(4))
        b.ret(y)
        simplify_fn(fn)
        verify_function(fn)
        term = fn.entry.terminator
        assert isinstance(term.return_value, ConstantInt)
        assert term.return_value.value == 20

    def test_identities(self, module):
        fn = Function("ids", FunctionType(I64, [I64]), module, ["x"])
        b = IRBuilder(fn.add_block("entry"))
        x = fn.args[0]
        a = b.add(x, b.i64(0))
        c = b.mul(a, b.i64(1))
        d = b.sub(c, c)
        b.ret(d)
        simplify_fn(fn)
        dce_fn(fn)
        term = fn.entry.terminator
        assert isinstance(term.return_value, ConstantInt)
        assert term.return_value.value == 0

    def test_zext_icmp_peephole(self, module):
        fn = Function("pe", FunctionType(I64, [I64]), module, ["x"])
        entry = fn.add_block("entry")
        t = fn.add_block("t")
        f = fn.add_block("f")
        b = IRBuilder(entry)
        flag = b.icmp("slt", fn.args[0], b.i64(10))
        wide = b.zext(flag, I64)
        again = b.icmp("ne", wide, b.i64(0))
        b.cond_br(again, t, f)
        b.position_at_end(t)
        b.ret(b.i64(1))
        b.position_at_end(f)
        b.ret(b.i64(0))
        simplify_fn(fn)
        dce_fn(fn)
        term = entry.terminator
        assert term.condition is flag  # chain collapsed

    def test_constant_branch_folding(self, module):
        fn = Function("cb", FunctionType(I64, []), module)
        entry = fn.add_block("entry")
        t = fn.add_block("t")
        f = fn.add_block("f")
        b = IRBuilder(entry)
        b.cond_br(b.true(), t, f)
        b.position_at_end(t)
        b.ret(b.i64(1))
        b.position_at_end(f)
        b.ret(b.i64(0))
        simplify_fn(fn)
        dce_fn(fn)
        verify_function(fn)
        assert len(fn.blocks) == 2  # dead arm removed
        assert not entry.terminator.is_conditional


class TestDCE:
    def test_dead_chain_removed(self, module):
        fn = Function("d", FunctionType(I64, [I64]), module, ["x"])
        b = IRBuilder(fn.add_block("entry"))
        a = b.add(fn.args[0], b.i64(1))
        c = b.mul(a, b.i64(2))  # dead chain
        b.ret(fn.args[0])
        removed = eliminate_dead_code(fn)
        assert removed == 2
        assert len(fn.entry.instructions) == 1

    def test_store_not_removed(self, module):
        fn = Function("d2", FunctionType(VOID, [ptr(I64)]), module, ["p"])
        b = IRBuilder(fn.add_block("entry"))
        b.store(b.i64(1), fn.args[0])
        b.ret()
        assert eliminate_dead_code(fn) == 0

    def test_unused_load_removed(self, module):
        fn = Function("d3", FunctionType(VOID, [ptr(I64)]), module, ["p"])
        b = IRBuilder(fn.add_block("entry"))
        b.load(fn.args[0])
        b.ret()
        assert eliminate_dead_code(fn) == 1


class TestLICM:
    def test_invariant_computation_hoisted(self, module):
        fn = Function("l", FunctionType(I64, [I64, I64]), module, ["n", "k"])
        entry = fn.add_block("entry")
        header = fn.add_block("header")
        body = fn.add_block("body")
        out = fn.add_block("out")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        i = b.phi(I64, "i")
        acc = b.phi(I64, "acc")
        cond = b.icmp("slt", i, fn.args[0])
        b.cond_br(cond, body, out)
        b.position_at_end(body)
        invariant = b.mul(fn.args[1], b.i64(7))  # loop-invariant
        acc2 = b.add(acc, invariant)
        i2 = b.add(i, b.i64(1))
        b.br(header)
        b.position_at_end(out)
        b.ret(acc)
        i.add_incoming(b.i64(0), entry)
        i.add_incoming(i2, body)
        acc.add_incoming(b.i64(0), entry)
        acc.add_incoming(acc2, body)
        verify_function(fn)

        hoisted = hoist_loop_invariants(fn)
        assert hoisted >= 1
        verify_function(fn)
        li = LoopInfo.compute(fn)
        assert not li.loops[0].contains(invariant.parent)

    def test_variant_not_hoisted(self, module):
        from tests.conftest import build_count_loop

        fn, parts = build_count_loop(module)
        hoist_loop_invariants(fn)
        verify_function(fn)
        li = LoopInfo.compute(fn)
        # The gep depends on %i: must stay in the loop.
        assert li.loop_for(parts["p"].parent) is not None

    # Each emitter writes one instruction into the loop after the load of
    # *%q; the flag says whether the load may still be hoisted past it.
    _CLOBBERS = {
        "private-alloca-store": (lambda b, fn, slot: b.store(b.i64(1), slot), True),
        "malloc": (
            lambda b, fn, slot: b.call(
                fn.parent.get_function("malloc"), [b.i64(8)]
            ),
            True,
        ),
        "aliasing-store": (
            lambda b, fn, slot: b.store(b.i64(1), b.gep(fn.args[0], [fn.args[2]])),
            False,
        ),
        "free": (
            lambda b, fn, slot: b.call(
                fn.parent.get_function("free"), [b.bitcast(fn.args[0], ptr(I8))]
            ),
            False,
        ),
    }

    @pytest.mark.parametrize("clobber", sorted(_CLOBBERS))
    def test_invariant_load_hoisting(self, module, clobber):
        emit, hoists = self._CLOBBERS[clobber]
        Function("malloc", FunctionType(ptr(I8), [I64]), module)
        Function("free", FunctionType(VOID, [ptr(I8)]), module)
        fn = Function(
            "ld", FunctionType(I64, [ptr(I64), I64, I64]), module, ["q", "n", "k"]
        )
        b = IRBuilder(fn.add_block("entry"))
        slot = b.alloca(I64)
        loaded = []

        def body(b):
            loaded.append(b.load(fn.args[0]))
            emit(b, fn, slot)

        _counted_loop(fn, b, fn.args[1], body, "l")
        b.ret(b.i64(0))
        verify_function(fn)

        hoist_loop_invariants(fn)
        verify_function(fn)
        in_loop = LoopInfo.compute(fn).loop_for(loaded[0].parent) is not None
        assert in_loop is not hoists

    def test_points_to_solved_once_per_function(self, module, monkeypatch):
        from repro.analysis.points_to import SteensgaardSolver

        solves = []
        solve = SteensgaardSolver.solve

        def counting_solve(self):
            solves.append(self)
            solve(self)

        monkeypatch.setattr(SteensgaardSolver, "solve", counting_solve)
        fn = Function("two", FunctionType(I64, [I64, I64]), module, ["n", "k"])
        b = IRBuilder(fn.add_block("entry"))
        products = []

        def body(b):
            products.append(b.mul(fn.args[1], b.i64(7)))

        _counted_loop(fn, b, fn.args[0], body, "a")
        _counted_loop(fn, b, fn.args[0], body, "b")
        b.ret(b.i64(0))

        # The first round hoists both products; the second finds nothing.
        assert hoist_loop_invariants(fn) == 2
        li = LoopInfo.compute(fn)
        assert all(li.loop_for(p.parent) is None for p in products)
        assert len(solves) == 1

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="SteensgaardSolver gives each pointer argument its own "
        "pointee, so LICM hoists *a past *b = i when a and b alias",
    )
    @pytest.mark.parametrize("engine", ["reference", "fast", "trace"])
    def test_load_not_hoisted_past_store_through_aliasing_argument(self, engine):
        # f(x, x, 4): every iteration stores i through b and reads it
        # back through a, so s = 0 + 1 + 2 + 3.  The miscompile reads *a
        # once before the loop and prints 4 * 100.
        source = """
        long f(long *a, long *b, long n) {
          long s = 0;
          long i;
          for (i = 0; i < n; i++) {
            *b = i;
            s += *a;
          }
          return s;
        }
        void main() {
          long *x = (long*)malloc(8);
          *x = 100;
          print_long(f(x, x, 4));
          free((char*)x);
        }
        """
        config = RunConfig(engine=engine, trace_threshold=2)
        assert CaratSession(config).run(source).output == ["6"]


def _counted_loop(fn, b, n, emit_body, tag):
    """Emit ``for (i = 0; i < n; i++) { emit_body(b) }`` at ``b`` and leave
    ``b`` at the end of the loop's exit block."""
    before = b.block
    header = fn.add_block(f"header.{tag}")
    body = fn.add_block(f"body.{tag}")
    out = fn.add_block(f"out.{tag}")
    b.br(header)
    b.position_at_end(header)
    i = b.phi(I64, f"i.{tag}")
    b.cond_br(b.icmp("slt", i, n), body, out)
    b.position_at_end(body)
    emit_body(b)
    i_next = b.add(i, b.i64(1))
    b.br(header)
    i.add_incoming(b.i64(0), before)
    i.add_incoming(i_next, body)
    b.position_at_end(out)


class TestPassManager:
    def test_pipeline_reports_counts(self):
        from repro.frontend import compile_source
        from tests.conftest import SUM_SOURCE

        m = compile_source(SUM_SOURCE)
        stats = optimize_module(m, verify=True)
        assert stats["mem2reg"] > 0
        verify_module(m)

    def test_custom_pass_order(self, module):
        calls = []
        pm = PassManager()
        pm.add("a", lambda m: calls.append("a") or 0)
        pm.add("b", lambda m: calls.append("b") or 0)
        pm.run(module)
        assert calls == ["a", "b"]

    def test_verify_failure_names_pass(self, module):
        def bad_pass(m):
            fn = Function("broken", FunctionType(I64, []), module)
            fn.add_block("entry")  # unterminated
            b = IRBuilder(fn.entry)
            b.add(b.i64(1), b.i64(2))
            return 1

        pm = PassManager(verify_after_each=True)
        pm.add("bad", bad_pass)
        with pytest.raises(Exception, match="bad"):
            pm.run(module)
