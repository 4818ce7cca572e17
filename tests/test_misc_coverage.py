"""Smaller contracts not covered elsewhere: the MMU notifier hub, builder
positioning, module containers, and error surfaces."""

import pytest

from repro.errors import IRError
from repro.ir import (
    ConstantInt,
    Function,
    FunctionType,
    GlobalVariable,
    IRBuilder,
    Module,
)
from repro.ir.types import I64, VOID, ptr
from repro.kernel.mmu_notifier import EventKind, MMUNotifier, NotifierEvent


class TestMMUNotifier:
    def test_counts_and_events(self):
        hub = MMUNotifier(keep_events=True)
        hub.page_alloc(1, 0x10)
        hub.page_alloc(1, 0x11)
        hub.pte_change(1, 0x10)
        hub.invalidate_range(1, 0x10, 0x20)
        hub.page_swap(1, 0x11)
        assert hub.page_allocs == 2
        assert hub.page_moves == 1
        assert hub.counts[EventKind.INVALIDATE_RANGE] == 1
        assert hub.counts[EventKind.PAGE_SWAP] == 1
        assert len(hub.events) == 5

    def test_events_not_kept_by_default(self):
        hub = MMUNotifier()
        hub.page_alloc(1, 0x10)
        assert hub.events == []
        assert hub.page_allocs == 1

    def test_subscribers_called(self):
        hub = MMUNotifier()
        seen = []
        hub.subscribe(seen.append)
        hub.pte_change(7, 0x42, detail="test")
        assert len(seen) == 1
        assert seen[0].pid == 7
        assert seen[0].detail == "test"

    def test_rates(self):
        hub = MMUNotifier()
        for _ in range(10):
            hub.page_alloc(1, 0)
        hub.pte_change(1, 0)
        rates = hub.rates(2.0)
        assert rates["alloc_rate"] == 5.0
        assert rates["move_rate"] == 0.5
        assert hub.rates(0)["alloc_rate"] == 0.0


class TestBuilderPositioning:
    def test_position_before_inserts_before(self, module):
        fn = Function("f", FunctionType(I64, [I64]), module, ["x"])
        block = fn.add_block("entry")
        b = IRBuilder(block)
        first = b.add(fn.args[0], b.i64(1))
        ret = b.ret(first)
        b.position_before(ret)
        second = b.mul(fn.args[0], b.i64(2))
        assert block.instructions.index(second) < block.instructions.index(ret)

    def test_builder_without_block_errors(self):
        with pytest.raises(IRError):
            IRBuilder().block

    def test_unique_names(self, module):
        fn = Function("h", FunctionType(VOID, [I64]), module, ["x"])
        b = IRBuilder(fn.add_block("entry"))
        names = {b.add(fn.args[0], b.i64(i)).name for i in range(10)}
        assert len(names) == 10


class TestModuleContainers:
    def test_duplicate_global_rejected(self, module):
        module.add_global(GlobalVariable("g", I64, ConstantInt(I64, 1)))
        with pytest.raises(IRError):
            module.add_global(GlobalVariable("g", I64, ConstantInt(I64, 2)))

    def test_global_function_name_collision(self, module):
        Function("name", FunctionType(VOID, []), module)
        with pytest.raises(IRError):
            module.add_global(GlobalVariable("name", I64))

    def test_get_or_declare_type_conflict(self, module):
        module.get_or_declare("f", FunctionType(I64, [I64]))
        with pytest.raises(Exception):
            module.get_or_declare("f", FunctionType(VOID, [I64]))

    def test_defined_vs_declared(self, module):
        declared = Function("d", FunctionType(VOID, []), module)
        defined = Function("e", FunctionType(VOID, []), module)
        b = IRBuilder(defined.add_block("entry"))
        b.ret()
        assert declared.is_declaration
        assert not defined.is_declaration
        assert module.defined_functions() == [defined]

    def test_missing_lookups(self, module):
        with pytest.raises(IRError):
            module.get_function("ghost")
        with pytest.raises(IRError):
            module.get_global("ghost")


class TestRunSummaryHarness:
    def test_summary_captures_the_needed_slice(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
        from harness import RunSummary

        from tests.support import run_carat
        from tests.conftest import SUM_SOURCE

        result = run_carat(SUM_SOURCE, name="sum")
        summary = RunSummary(result)
        assert summary.cycles == result.cycles
        assert summary.output == result.output
        assert summary.guards_executed > 0
        assert summary.peak_tracking_bytes > 0
        assert summary.heap_peak_bytes > 0
        # Summaries must not retain the kernel (that is their point).
        assert not hasattr(summary, "process")
        assert not hasattr(summary, "kernel")
