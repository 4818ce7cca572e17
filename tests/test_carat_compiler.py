"""The CARAT compiler: guard injection, the three optimizations,
tracking injection, restrictions, signing, and the pipeline."""

import pytest

from repro.carat import (
    CompileOptions,
    compile_baseline,
    compile_carat,
    find_violations,
    inject_guards,
    inject_tracking,
    is_guard_call,
    is_tracking_call,
    max_stack_footprint,
    optimize_guards,
    sign_module,
    verify_signature,
)
from repro.carat.intrinsics import (
    CALL_OVERHEAD_BYTES,
    GUARD_CALL,
    GUARD_LOAD,
    GUARD_RANGE,
    GUARD_STORE,
    TRACK_ALLOC,
    TRACK_ESCAPE,
    TRACK_FREE,
)
from repro.errors import RestrictionError, SigningError
from repro.frontend import compile_source
from repro.ir import (
    Function,
    FunctionType,
    IRBuilder,
    Module,
    verify_module,
)
from repro.ir.instructions import CallInst
from repro.ir.printer import print_module
from repro.ir.types import I64, VOID, ptr
from repro.workloads import get_workload, workload_names
from tests.conftest import LINKED_LIST_SOURCE, SUM_SOURCE, build_count_loop


def guard_calls(module, name=None):
    out = []
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if is_guard_call(inst):
                if name is None or inst.callee_name == name:
                    out.append(inst)
    return out


class TestGuardInjection:
    def test_every_access_guarded(self, module):
        fn, parts = build_count_loop(module)
        table = inject_guards(module)
        verify_module(module)
        # One load in the loop -> one load guard; no stores or calls.
        assert table.total == 1
        assert len(guard_calls(module, GUARD_LOAD)) == 1

    def test_guard_precedes_access(self, module):
        fn, parts = build_count_loop(module)
        inject_guards(module)
        body = parts["body"]
        opcodes = [i.opcode for i in body.instructions]
        load_index = next(
            i for i, inst in enumerate(body.instructions) if inst.opcode == "load"
        )
        guard = body.instructions[load_index - 1]
        assert is_guard_call(guard)
        assert guard.args[0] is parts["p"]

    def test_call_guard_frame_size(self, module):
        callee = Function("callee", FunctionType(VOID, []), module)
        cb = IRBuilder(callee.add_block("entry"))
        cb.alloca(I64)  # 8 bytes
        cb.ret()
        caller = Function("caller", FunctionType(VOID, []), module)
        b = IRBuilder(caller.add_block("entry"))
        b.call(callee, [])
        b.ret()
        assert max_stack_footprint(callee) == CALL_OVERHEAD_BYTES + 8
        inject_guards(module)
        guards = guard_calls(module, GUARD_CALL)
        # One for the call in caller and one inside callee? callee makes no
        # calls; only the caller's call is guarded.
        assert len(guards) == 1
        assert guards[0].args[0].value == CALL_OVERHEAD_BYTES + 8

    def test_store_guard(self):
        module = compile_source(
            "void main() { long *p = (long*)malloc(8); *p = 1; free((char*)p); }"
        )
        table = inject_guards(module)
        kinds = sorted(r.kind for r in table.records.values())
        assert "store" in kinds
        assert "call" in kinds

    def test_intrinsics_not_guarded(self):
        module = compile_source(SUM_SOURCE)
        inject_tracking(module)
        table = inject_guards(module)
        for record in table.records.values():
            assert record.kind in ("load", "store", "call")
        # No guard may target a carat.* call.
        for fn in module.defined_functions():
            insts = list(fn.instructions())
            for i, inst in enumerate(insts):
                if is_guard_call(inst) and inst.callee_name == GUARD_CALL:
                    target = insts[i + 1]
                    assert isinstance(target, CallInst)
                    assert not (target.callee_name or "").startswith("carat.")


class TestGuardOptimizations:
    def _compiled(self, source, carat_opts=True):
        module = compile_source(source)
        from repro.transform.pass_manager import optimize_module

        optimize_module(module)
        table = inject_guards(module)
        total = table.total
        if carat_opts:
            stats = optimize_guards(module, table)
        else:
            from repro.carat.guard_opt import GuardOptStats

            stats = GuardOptStats(total=total, untouched=total)
        verify_module(module)
        return module, table, stats

    def test_opt2_merges_affine_loop_guard(self):
        src = """
        void main() {
          long *a = (long*)malloc(8 * 100);
          long i;
          for (i = 0; i < 100; i++) { a[i] = i; }
          free((char*)a);
        }
        """
        module, table, stats = self._compiled(src)
        assert stats.merged >= 1
        assert len(guard_calls(module, GUARD_RANGE)) >= 1
        # The in-loop store guard is gone.
        assert len(guard_calls(module, GUARD_STORE)) == 0

    def test_opt1_hoists_invariant_guard(self):
        src = """
        long g;
        void main() {
          long i;
          for (i = 0; i < 50; i++) { g = g + i; }
          print_long(g);
        }
        """
        module, table, stats = self._compiled(src)
        # @g is stored in the loop, so LICM cannot touch the load — but
        # the guard *addresses* are loop-invariant, so both the load and
        # store guards hoist to the preheader.
        assert stats.hoisted >= 1

    def test_opt3_removes_redundant_same_address(self):
        src = """
        void main() {
          long *p = (long*)malloc(8);
          *p = 1;
          *p = 2;
          *p = 3;
          free((char*)p);
        }
        """
        module, table, stats = self._compiled(src)
        assert stats.eliminated >= 2  # later identical store guards

    def test_opt3_call_guard_coverage(self):
        src = """
        long f(long x) { return x + 1; }
        void main() {
          long a = f(1);
          long b = f(a);
          print_long(a + b);
        }
        """
        module, table, stats = self._compiled(src)
        # Second (and later) call guards with frames <= the first are gone.
        call_guards = guard_calls(module, GUARD_CALL)
        by_fn = {}
        for g in call_guards:
            by_fn.setdefault(g.function.name, []).append(g)
        assert len(by_fn.get("main", [])) <= 2

    def test_fates_partition_total(self):
        module, table, stats = self._compiled(LINKED_LIST_SOURCE)
        assert (
            stats.untouched + stats.hoisted + stats.merged + stats.eliminated
            == stats.total
        )
        assert stats.remaining == stats.total - stats.eliminated
        row = stats.as_table1_row()
        assert abs(
            row["untouched"] + row["opt1_hoist"] + row["opt2_scev"]
            + row["opt3_redundancy"] - 1.0
        ) < 1e-9

    def test_without_carat_opts_all_untouched(self):
        module, table, stats = self._compiled(SUM_SOURCE, carat_opts=False)
        assert stats.untouched == stats.total


class TestTracking:
    def test_malloc_and_free_instrumented(self):
        module = compile_source(SUM_SOURCE)
        stats = inject_tracking(module)
        assert stats.alloc_callbacks == 1
        assert stats.free_callbacks == 1
        verify_module(module)

    def test_alloc_callback_follows_malloc(self):
        module = compile_source(
            "void main() { long *p = (long*)malloc(24); free((char*)p); }"
        )
        inject_tracking(module)
        main = module.get_function("main")
        insts = list(main.instructions())
        malloc_index = next(
            i for i, inst in enumerate(insts)
            if isinstance(inst, CallInst) and inst.callee_name == "malloc"
        )
        after = insts[malloc_index + 1]
        assert is_tracking_call(after)
        assert after.callee_name == TRACK_ALLOC
        assert after.args[0] is insts[malloc_index]

    def test_pointer_stores_get_escape_callbacks(self):
        module = compile_source(LINKED_LIST_SOURCE)
        stats = inject_tracking(module)
        # node->next = head, head = node, p = head, p = p->next ... at
        # least 3 distinct pointer stores before mem2reg.
        assert stats.escape_callbacks >= 3
        verify_module(module)

    def test_non_pointer_stores_not_escapes(self):
        module = compile_source(
            "void main() { long x; x = 5; print_long(x); }"
        )
        stats = inject_tracking(module)
        assert stats.escape_callbacks == 0

    def test_calloc_size_computed(self):
        module = compile_source(
            """
            void main() {
              long *p = (long*)calloc(10, 8);
              free((char*)p);
            }
            """
        )
        stats = inject_tracking(module)
        assert stats.alloc_callbacks == 1
        verify_module(module)


class TestRestrictionsIR:
    def test_clean_module(self):
        module = compile_source(SUM_SOURCE)
        assert find_violations(module) == []

    def test_constant_inttoptr_flagged(self, module):
        fn = Function("bad", FunctionType(VOID, []), module)
        b = IRBuilder(fn.add_block("entry"))
        p = b.inttoptr(b.i64(0xDEAD), ptr(I64))
        b.load(p)
        b.ret()
        violations = find_violations(module)
        assert any("fabricated" in v for v in violations)

    def test_pipeline_rejects_violation(self, module):
        fn = Function("main", FunctionType(VOID, []), module)
        b = IRBuilder(fn.add_block("entry"))
        p = b.inttoptr(b.i64(0x1000), ptr(I64))
        b.load(p)
        b.ret()
        with pytest.raises(RestrictionError):
            compile_carat(module)


class TestSigning:
    def test_sign_and_verify(self):
        module = compile_source(SUM_SOURCE)
        sig = sign_module(module, {"k": "v"})
        assert verify_signature(module, sig, {"k": "v"})

    def test_tampered_module_fails(self):
        module = compile_source(SUM_SOURCE)
        sig = sign_module(module)
        # Tamper: add a global after signing.
        from repro.ir import GlobalVariable, ConstantInt

        module.add_global(GlobalVariable("evil", I64, ConstantInt(I64, 666)))
        assert not verify_signature(module, sig)

    def test_tampered_metadata_fails(self):
        module = compile_source(SUM_SOURCE)
        sig = sign_module(module, {"guards": 10})
        assert not verify_signature(module, sig, {"guards": 0})

    def test_untrusted_toolchain_rejected(self):
        module = compile_source(SUM_SOURCE)
        sig = sign_module(module)
        assert not verify_signature(
            module, sig, trusted_toolchains={"someone-else"}
        )

    def test_unknown_toolchain_raises(self):
        from repro.carat.signing import Signature

        module = compile_source(SUM_SOURCE)
        with pytest.raises(SigningError):
            verify_signature(module, Signature("ghost-toolchain", "00"))


class TestPipeline:
    def test_full_compile(self):
        binary = compile_carat(SUM_SOURCE, module_name="sum")
        assert binary.is_signed
        assert binary.guard_stats.total > 0
        assert binary.tracking_stats.total > 0
        verify_module(binary.module)

    def test_baseline_has_no_instrumentation(self):
        binary = compile_baseline(SUM_SOURCE)
        assert binary.guard_table.total == 0
        assert binary.tracking_stats.total == 0
        for fn in binary.module.defined_functions():
            for inst in fn.instructions():
                assert not is_guard_call(inst)
                assert not is_tracking_call(inst)

    def test_options_control_stages(self):
        binary = compile_carat(
            SUM_SOURCE,
            CompileOptions(guards=True, carat_guard_opts=False, tracking=False),
        )
        assert binary.guard_stats.untouched == binary.guard_stats.total
        assert binary.tracking_stats.total == 0

    def test_metadata_reflects_stats(self):
        binary = compile_carat(SUM_SOURCE)
        assert binary.metadata["guards_total"] == binary.guard_table.total
        assert binary.metadata["module"] == binary.module.name

    @pytest.mark.parametrize("pipeline", [compile_carat, compile_baseline])
    def test_same_source_compiles_to_same_module(self, pipeline):
        # Blocks hash by identity; iterating a set of them would tie phi
        # placement, hoisting order and the guard optimizer's loop walks
        # to object addresses, so two compiles in one process could
        # print (and sign) different modules.
        for name in workload_names():
            workload = get_workload(name, "tiny")
            if workload.suite == "service":
                continue  # the paper's programs only
            first = pipeline(workload.source)
            second = pipeline(workload.source)
            assert print_module(first.module) == print_module(second.module), name
            assert first.signature.digest == second.signature.digest, name
