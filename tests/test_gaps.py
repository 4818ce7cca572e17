"""Coverage for paths the main suites do not reach."""

import pytest

from repro.errors import KernelError
from repro.ir import (
    ConstantInt,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    parse_module,
    print_module,
)
from repro.ir.types import F64, I8, I64, VOID, ptr
from tests.support import run_carat_baseline


def run_ir(text: str):
    """Parse IR text, run it baseline-on-physical, return output."""
    from repro.carat import compile_baseline

    module = parse_module(text)
    return run_carat_baseline(compile_baseline(module)).output


class TestInterpreterOpcodes:
    def test_unsigned_ops(self):
        out = run_ir(
            """
declare void @print_long(i64)
define void @main() {
entry:
  %a = udiv i64 -1, 4611686018427387904
  %b = urem i64 -1, 10
  call void @print_long(i64 %a)
  call void @print_long(i64 %b)
  ret void
}
"""
        )
        assert out == [str((2**64 - 1) // 2**62), str((2**64 - 1) % 10)]

    def test_shifts(self):
        out = run_ir(
            """
declare void @print_long(i64)
define void @main() {
entry:
  %a = ashr i64 -16, 2
  %b = lshr i64 -16, 60
  %c = shl i64 3, 4
  call void @print_long(i64 %a)
  call void @print_long(i64 %b)
  call void @print_long(i64 %c)
  ret void
}
"""
        )
        assert out == ["-4", str((2**64 - 16) >> 60), "48"]

    def test_select_and_fcmp(self):
        out = run_ir(
            """
declare void @print_long(i64)
define void @main() {
entry:
  %c = fcmp oge f64 2.5, 2.5
  %v = select i1 %c, i64 111, i64 222
  call void @print_long(i64 %v)
  ret void
}
"""
        )
        assert out == ["111"]

    def test_frem_and_fdiv_by_zero(self):
        out = run_ir(
            """
declare void @print_double(f64)
define void @main() {
entry:
  %a = frem f64 7.5, 2.0
  call void @print_double(f64 %a)
  ret void
}
"""
        )
        assert out == ["1.5"]

    def test_trunc_zext_roundtrip(self):
        out = run_ir(
            """
declare void @print_long(i64)
define void @main() {
entry:
  %t = trunc i64 456 to i8
  %z = zext i8 %t to i64
  %s = sext i8 %t to i64
  call void @print_long(i64 %z)
  call void @print_long(i64 %s)
  ret void
}
"""
        )
        # 456 mod 256 = 200, which is negative as a signed byte (-56).
        assert out == ["200", "-56"]


class TestPrinterCorners:
    def test_select_roundtrip(self):
        text = """
define i64 @f(i64 %x) {
entry:
  %c = icmp sgt i64 %x, 0
  %v = select i1 %c, i64 %x, i64 0
  ret i64 %v
}
"""
        module = parse_module(text)
        assert print_module(parse_module(print_module(module))) == print_module(module)

    def test_struct_global_roundtrip(self):
        from repro.ir import ConstantStruct, GlobalVariable
        from repro.ir.types import StructType

        module = Module("structs")
        st = StructType([I64, F64], name="pair")
        module.add_struct_type(st)
        module.add_global(
            GlobalVariable(
                "p",
                st,
                ConstantStruct(st, [ConstantInt(I64, 1), __import__("repro.ir.values", fromlist=["ConstantFloat"]).ConstantFloat(F64, 2.0)]),
            )
        )
        text = print_module(module)
        parsed = parse_module(text)
        assert print_module(parsed) == text


class TestPDGCorners:
    """Corners of LICM's writer query, the paper's PD-analysis question."""

    def test_private_alloca_store_does_not_clobber(self, module):
        from repro.analysis.alias import ChainedAliasAnalysis
        from repro.transform.licm import may_write_to

        fn = Function("f", FunctionType(I64, [ptr(I64)]), module, ["p"])
        b = IRBuilder(fn.add_block("entry"))
        through_p = b.store(b.i64(1), fn.args[0])
        other = b.alloca(I64)
        private = b.store(b.i64(2), other)
        b.ret(b.load(fn.args[0]))
        aa = ChainedAliasAnalysis.standard(fn)
        # The store through %p may write *%p; the private alloca store
        # provably does not.
        assert may_write_to(aa, through_p, fn.args[0], 8)
        assert not may_write_to(aa, private, fn.args[0], 8)

    def test_opaque_call_does_not_clobber_private_alloca(self, module):
        from repro.analysis.alias import ChainedAliasAnalysis
        from repro.transform.licm import may_write_to

        opaque = Function("opaque", FunctionType(VOID, [ptr(I64)]), module)
        fn = Function("k", FunctionType(I64, [ptr(I64)]), module, ["p"])
        b = IRBuilder(fn.add_block("entry"))
        private = b.alloca(I64)
        b.store(b.i64(2), private)
        call = b.call(opaque, [fn.args[0]])
        b.ret(b.load(private))
        aa = ChainedAliasAnalysis.standard(fn)
        assert not may_write_to(aa, call, private, 8)
        assert may_write_to(aa, call, fn.args[0], 8)

    def test_malloc_does_not_clobber(self, module):
        from repro.analysis.alias import ChainedAliasAnalysis
        from repro.transform.licm import may_write_to

        malloc = Function("malloc", FunctionType(ptr(I8), [I64]), module)
        fn = Function("g", FunctionType(I64, [ptr(I64)]), module, ["p"])
        b = IRBuilder(fn.add_block("entry"))
        call = b.call(malloc, [b.i64(8)])
        load = b.load(fn.args[0])
        b.ret(load)
        aa = ChainedAliasAnalysis.standard(fn)
        assert not may_write_to(aa, call, fn.args[0], 8)

    def test_free_clobbers(self, module):
        from repro.analysis.alias import ChainedAliasAnalysis
        from repro.transform.licm import may_write_to

        free = Function("free", FunctionType(VOID, [ptr(I8)]), module)
        fn = Function("h", FunctionType(VOID, [ptr(I8)]), module, ["p"])
        b = IRBuilder(fn.add_block("entry"))
        call = b.call(free, [fn.args[0]])
        b.ret()
        aa = ChainedAliasAnalysis.standard(fn)
        assert may_write_to(aa, call, fn.args[0], 8)


class TestKernelErrorPaths:
    def test_move_unmapped_traditional_page(self):
        from repro.carat import compile_baseline
        from repro.kernel import Kernel
        from tests.conftest import SUM_SOURCE

        kernel = Kernel()
        process = kernel.load_traditional(compile_baseline(SUM_SOURCE))
        with pytest.raises(KernelError):
            kernel.move_page_traditional(process, 0xDEAD0000)

    def test_carat_ops_on_traditional_process(self):
        from repro.carat import compile_baseline
        from repro.kernel import Kernel
        from tests.conftest import SUM_SOURCE

        kernel = Kernel()
        process = kernel.load_traditional(compile_baseline(SUM_SOURCE))
        with pytest.raises(KernelError):
            kernel.request_page_move(process, 0x1000)
        with pytest.raises(KernelError):
            kernel.request_protection_change(process, 0, 4096, 0)
        with pytest.raises(KernelError):
            kernel.expand_stack(process, 4096)

    def test_traditional_ops_on_carat_process(self):
        from repro.carat import compile_carat
        from repro.kernel import Kernel
        from repro.kernel.mmu import PageFault
        from tests.conftest import SUM_SOURCE

        kernel = Kernel()
        process = kernel.load_carat(compile_carat(SUM_SOURCE))
        with pytest.raises(KernelError):
            kernel.handle_page_fault(process, PageFault(0x1000, "read", False))
        with pytest.raises(KernelError):
            kernel.move_page_traditional(process, 0x1000)

    def test_double_swap_out_rejected(self):
        from repro.carat import compile_carat
        from repro.kernel import Kernel
        from repro.kernel.swap import SwapManager
        from repro.machine.interp import Interpreter
        from tests.conftest import LINKED_LIST_SOURCE

        kernel = Kernel()
        process = kernel.load_carat(compile_carat(LINKED_LIST_SOURCE))
        interp = Interpreter(process, kernel)
        interp.start("main")
        interp.run_steps(800)
        process.runtime.flush_escapes()
        victim = next(a for a in process.runtime.table if a.kind == "heap")
        swap = SwapManager(kernel)
        page = victim.address & ~4095
        swap.swap_out(process, page)
        with pytest.raises(KernelError):
            swap.swap_out(process, page)


class TestGuardRangeHoisting:
    def test_range_guard_hoists_out_of_outer_loop(self):
        """An inner loop's merged range guard whose bounds are invariant in
        the outer loop should climb to the outer preheader (Opt1 applied
        to Opt2's product)."""
        from repro.carat import CompileOptions, compile_carat
        from repro.carat.intrinsics import GUARD_RANGE

        source = """
        long grid[32];
        void main() {
          long r;
          long c;
          long s = 0;
          for (r = 0; r < 8; r++) {
            for (c = 0; c < 32; c++) {
              s = s + grid[c];
            }
          }
          print_long(s);
        }
        """
        binary = compile_carat(
            source, CompileOptions(tracking=False), module_name="nest"
        )
        from tests.support import run_carat

        run = run_carat(binary)
        # The range guard must execute far fewer times than the 8 outer
        # iterations x 1 would if trapped in the outer loop body — ideally
        # exactly once (hoisted to the outermost preheader).
        range_guards = [
            inst
            for fn in binary.module.defined_functions()
            for inst in fn.instructions()
            if getattr(inst, "callee_name", None) == GUARD_RANGE
        ]
        assert range_guards, "inner loop guard must have merged"
        assert run.process.runtime.stats.guards_executed <= 12
