"""The cross-layer memory-state sanitizer.

Two halves:

* **clean runs** — real programs under both execution models, with the
  sanitizer attached at every hook point, must report zero violations
  (the invariants actually hold through moves, faults, and frees);
* **fault injection meta-tests** — each :class:`FaultInjector` method
  breaks one invariant the way a real bug would, and the checker must
  flag it with the matching rule.  A sanitizer that passes clean runs
  but misses injected faults is measuring nothing.
"""

import pytest

from tests.support import run_carat, run_traditional
from repro.machine.session import CaratSession, RunConfig
from repro.runtime.escape_map import AllocationToEscapeMap
from repro.runtime.allocation_table import AllocationTable
from repro.sanitizer import (
    FaultInjector,
    InvariantChecker,
    Sanitizer,
    SanitizerError,
    ShadowedEscapeMap,
    install_escape_shadow,
)
from repro.workloads import get_workload, workload_names
from tests.conftest import LINKED_LIST_SOURCE, SUM_SOURCE


@pytest.fixture
def checker():
    return InvariantChecker()


@pytest.fixture
def carat_run():
    """A finished CARAT run with live escapes (linked list), sanitized."""
    result = run_carat(LINKED_LIST_SOURCE, sanitize=True)
    assert result.exit_code == 0
    return result


@pytest.fixture
def traditional_run():
    result = run_traditional(LINKED_LIST_SOURCE, sanitize=True)
    assert result.exit_code == 0
    return result


class TestCleanRuns:
    def test_carat_run_is_clean(self, carat_run):
        sanitizer = carat_run.sanitizer
        assert sanitizer.ok
        assert sanitizer.checks_run >= 2  # at least load + end-of-run
        assert sanitizer.report.violations == []
        assert carat_run.output == ["780"]

    def test_traditional_run_is_clean(self, traditional_run):
        sanitizer = traditional_run.sanitizer
        assert sanitizer.ok
        assert sanitizer.checks_run >= 2
        assert traditional_run.output == ["780"]

    def test_tick_checkpoints_fire(self):
        result = run_carat(
            SUM_SOURCE,
            sanitize=True,
            setup=lambda interp: interp.set_tick_interval(50),
        )
        assert result.exit_code == 0
        assert result.sanitizer.ok
        # load + many safepoint ticks + end-of-run.
        assert result.sanitizer.checks_run > 3

    def test_every_n_ticks_thins_checkpoints(self):
        dense = run_carat(
            SUM_SOURCE,
            sanitizer=Sanitizer(every_n_ticks=1),
            setup=lambda interp: interp.set_tick_interval(50),
        )
        sparse = run_carat(
            SUM_SOURCE,
            sanitizer=Sanitizer(every_n_ticks=8),
            setup=lambda interp: interp.set_tick_interval(50),
        )
        assert sparse.sanitizer.checks_run < dense.sanitizer.checks_run

    def test_rule_set_is_complete(self, checker):
        names = checker.rule_names()
        for expected in [
            "region-geometry",
            "allocation-table",
            "allocation-coverage",
            "escape-map",
            "escape-shadow",
            "register-coverage",
            "tlb",
            "frame-ownership",
            "heap",
        ]:
            assert expected in names


class TestFaultInjection:
    """Every fault class named by the issue must be flagged."""

    def test_overlapping_regions_detected(self, carat_run, checker):
        kernel, process = carat_run.kernel, carat_run.process
        assert checker.check_kernel(kernel).ok
        FaultInjector(kernel).overlap_regions(process)
        report = checker.check_kernel(kernel)
        assert not report.ok
        assert report.by_rule("region-geometry")

    def test_dropped_escape_detected(self, carat_run, checker):
        kernel, process = carat_run.kernel, carat_run.process
        assert checker.check_kernel(kernel).ok
        FaultInjector(kernel).drop_escape(process)
        report = checker.check_kernel(kernel)
        assert not report.ok
        assert report.by_rule("escape-shadow")

    def test_stale_table_key_detected(self, carat_run, checker):
        """An allocation's address changed without ``rebase``: the table
        still files it under the old key.  The last allocation is moved, so
        nothing overlaps and only the key check can see it."""
        kernel, process = carat_run.kernel, carat_run.process
        assert checker.check_kernel(kernel).ok
        allocation = list(process.runtime.table)[-1]
        allocation.address += 8
        report = checker.check_kernel(kernel)
        assert report.by_rule("allocation-table")

    def test_overlapping_allocations_detected(self, carat_run, checker):
        """One allocation grown over its successor in the table."""
        kernel, process = carat_run.kernel, carat_run.process
        assert checker.check_kernel(kernel).ok
        first, second = list(process.runtime.table)[:2]
        first.size = second.address - first.address + 8
        report = checker.check_kernel(kernel)
        assert report.by_rule("allocation-table")

    def test_skipped_register_patch_detected(self, carat_run, checker):
        kernel, process = carat_run.kernel, carat_run.process
        snapshot = FaultInjector(kernel).skip_register_patch(process)
        # The kernel-side state is consistent (the move itself was legal)...
        assert checker.check_kernel(kernel).ok
        # ...but the unpatched register aims into the moved-away range.
        report = checker.check_kernel(kernel, register_snapshots=[snapshot])
        assert not report.ok
        assert report.by_rule("register-coverage")

    def test_patched_register_passes(self, carat_run, checker):
        """Control: the same move WITH the snapshot passed is clean."""
        kernel, process = carat_run.kernel, carat_run.process
        from repro.kernel.pagetable import PAGE_SIZE
        from repro.runtime.patching import RegisterSnapshot

        allocation = next(
            a for a in process.runtime.table if a.kind == "heap"
        )
        interior = allocation.address + allocation.size // 2
        snapshot = RegisterSnapshot(0, {"rax": interior}, {"rax"})
        page = allocation.address & ~(PAGE_SIZE - 1)
        kernel.request_page_move(
            process, page, 1, register_snapshots=[snapshot]
        )
        assert snapshot.slots["rax"] == allocation.address + allocation.size // 2
        report = checker.check_kernel(kernel, register_snapshots=[snapshot])
        assert report.ok

    def test_stale_tlb_detected(self, traditional_run, checker):
        kernel, process = traditional_run.kernel, traditional_run.process
        assert checker.check_kernel(kernel).ok
        FaultInjector(kernel).stale_tlb(process)
        report = checker.check_kernel(kernel)
        assert not report.ok
        assert report.by_rule("tlb")

    def test_leaked_frame_detected(self, carat_run, checker):
        kernel = carat_run.kernel
        assert checker.check_kernel(kernel).ok
        frame = FaultInjector(kernel).leak_frame()
        report = checker.check_kernel(kernel)
        assert not report.ok
        violations = report.by_rule("frame-ownership")
        assert any(v.subject == frame for v in violations)

    def test_hooks_raise_at_next_checkpoint(self, carat_run):
        """With raise_on_violation (the default), corruption surfaces as
        a SanitizerError at the next checkpoint — not as silent state."""
        kernel, process = carat_run.kernel, carat_run.process
        FaultInjector(kernel).overlap_regions(process)
        with pytest.raises(SanitizerError) as excinfo:
            carat_run.sanitizer.check_now(kernel)
        assert excinfo.value.report.by_rule("region-geometry")

    def test_injection_log(self, carat_run):
        injector = FaultInjector(carat_run.kernel)
        injector.overlap_regions(carat_run.process)
        injector.leak_frame()
        assert len(injector.injected) == 2
        assert "overlap-regions" in injector.injected[0]
        assert "leak-frame" in injector.injected[1]


class TestShadowEscapeMap:
    def test_transparent_proxy(self):
        primary = AllocationToEscapeMap()
        proxy = ShadowedEscapeMap(primary)
        table = AllocationTable()
        allocation = table.add(0x1000, 64)
        values = {0x5000: 0x1010}
        proxy.record(0x5000)
        assert proxy.pending_count == 1
        proxy.flush(table, lambda a: values.get(a, 0))
        assert proxy.escapes_of(allocation) == {0x5000}
        assert proxy.stats.recorded == 1
        assert proxy.divergences() == []

    def test_mutations_tracked_through_proxy(self):
        primary = AllocationToEscapeMap()
        proxy = ShadowedEscapeMap(primary)
        table = AllocationTable()
        allocation = table.add(0x1000, 64)
        proxy.record(0x5000)
        proxy.flush(table, lambda a: 0x1010)
        proxy.rekey(0x1000, 0x2000)
        proxy.rewrite_range(0x5000, 0x6000, 0x100)
        proxy.drop_allocation(0x2000)
        assert proxy.divergences() == []

    def test_out_of_band_corruption_diverges(self):
        primary = AllocationToEscapeMap()
        proxy = ShadowedEscapeMap(primary)
        table = AllocationTable()
        table.add(0x1000, 64)
        proxy.record(0x5000)
        proxy.flush(table, lambda a: 0x1010)
        primary._escapes[0x1000].discard(0x5000)  # bypass the proxy
        problems = proxy.divergences()
        assert problems and "lost" in problems[0]

    def test_install_is_idempotent(self, carat_run):
        runtime = carat_run.process.runtime
        proxy = runtime.escapes
        assert isinstance(proxy, ShadowedEscapeMap)
        assert install_escape_shadow(runtime) is proxy
        assert runtime.patcher.escapes is proxy


class TestSuiteAudit:
    """The whole registered suite, at tiny scale, under both execution
    models with a non-raising checker that audits every 10 000
    instructions: every run must exit 0 with zero violations."""

    @pytest.mark.parametrize("mode", ["carat", "traditional"])
    @pytest.mark.parametrize("name", workload_names())
    def test_workload_audits_clean(self, name, mode):
        workload = get_workload(name, "tiny")
        sanitizer = Sanitizer(raise_on_violation=False)
        setup = None
        if mode == "carat":
            setup = lambda interp: interp.set_tick_interval(10_000)
        session = CaratSession(
            RunConfig(mode=mode, name=workload.name),
            sanitizer=sanitizer,
            setup=setup,
        )
        result = session.run(workload.source)
        assert result.exit_code == 0
        assert sanitizer.checks_run > 0
        assert sanitizer.ok, [v.describe() for v in sanitizer.report.violations]


class TestSanitizeCli:
    def test_run_with_sanitize_flag(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "prog.c"
        source.write_text(SUM_SOURCE)
        code = main(["run", str(source), "--sanitize"])
        captured = capsys.readouterr()
        assert code == 0
        assert "2016" in captured.out
        assert "sanitizer" in captured.err
