"""Targeted tests for the trace tier (:mod:`repro.machine.tracejit`).

The differential suite (``test_fastexec_differential``,
``test_fault_campaign``, ``test_multiproc``) proves the trace engine is
observably the reference engine; this file tests the tier's own
machinery — promotion thresholds, side exits, recording aborts and the
blacklist, guard respecialization on region-generation bumps, the new
counters, and per-interpreter isolation of compiled traces.
"""

import pytest

from repro.carat.pipeline import CompileOptions, compile_carat
from repro.kernel import PAGE_SIZE, Kernel
from tests.support import run_carat
from repro.machine import tracejit
from repro.machine.session import CaratSession, RunConfig
from repro.telemetry.metrics import run_snapshot
from repro.workloads import get_workload, workload_names

#: A nested hot loop over heap memory — the bread-and-butter promotion
#: case: the inner loop's back-edge target gets hot and its body (loads,
#: arithmetic, compare, branch) compiles into one superblock.  The
#: permuted index ``(i * 7) % 64`` defeats the static affine-range
#: merge (guard_opt Opt2), so the load guard stays inside the loop and
#: exercises per-site specialization; the permutation sums the same
#: elements, keeping the expected output easy to state.
HOT_SOURCE = """
void main() {
  long *a = (long*)malloc(64 * 8);
  long i;
  long r;
  long acc;
  acc = 0;
  for (i = 0; i < 64; i++) { a[i] = i * 3; }
  for (r = 0; r < 30; r++) {
    for (i = 0; i < 64; i++) { acc = acc + a[(i * 7) % 64]; }
  }
  print_long(acc);
  free(a);
}
"""
HOT_OUTPUT = [str(3 * (63 * 64 // 2) * 30)]

#: A loop whose uncommon arm (every 10th iteration) is off-trace: the
#: superblock records the common arm, so one side exit per multiple of
#: ten re-enters the block tier mid-loop.
BRANCHY_SOURCE = """
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 400; i++) {
    if (i % 10 == 0) { acc = acc + 100; } else { acc = acc + 1; }
  }
  print_long(acc);
}
"""
BRANCHY_OUTPUT = [str(40 * 100 + 360)]

#: A hot loop whose body calls a defined function: the superblock spans
#: the call — the block tier's call op pushes the real frame and the
#: callee's body inlines right behind it on the trace.
CALLY_SOURCE = """
long helper(long x) { return x + 1; }
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 100; i++) { acc = helper(acc); }
  print_long(acc);
}
"""
CALLY_OUTPUT = ["100"]

#: Deep recursion in the loop body: recording hits the inline depth cap
#: on every attempt, so no trace compiles and the anchors blacklist.
RECURSIVE_SOURCE = """
long down(long n) {
  long r;
  if (n <= 0) { return 0; }
  r = down(n - 1);
  return r + 1;
}
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 50; i++) { acc = acc + down(40); }
  print_long(acc);
}
"""
RECURSIVE_OUTPUT = ["2000"]


def _run(source, engine="trace", threshold=2, max_blocks=24, **kwargs):
    def setup(interpreter):
        if hasattr(interpreter, "set_trace_tuning"):
            interpreter.set_trace_tuning(
                threshold=threshold, max_blocks=max_blocks
            )

    return run_carat(source, setup=setup, engine=engine, **kwargs)


# ---------------------------------------------------------------------------
# Promotion
# ---------------------------------------------------------------------------


class TestPromotion:
    def test_hot_loop_promotes_and_elides(self):
        result = _run(HOT_SOURCE)
        assert result.output == HOT_OUTPUT
        assert result.exit_code == 0
        assert result.stats.traces_compiled > 0
        # Specialized per-site guard checks served on the fast path.
        assert result.stats.guard_checks_elided > 0
        # Every compiled trace with specialized guards respecializes its
        # cells at least once (gen starts at -1, the first execution
        # resolves it against the live region map).
        assert result.stats.trace_respecializations > 0

    def test_trace_output_matches_reference(self):
        reference = run_carat(HOT_SOURCE, engine="reference")
        trace = _run(HOT_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions

    def test_cold_threshold_never_promotes(self):
        result = _run(HOT_SOURCE, threshold=10**9)
        assert result.output == HOT_OUTPUT
        assert result.stats.traces_compiled == 0
        assert result.stats.trace_exits == 0
        assert result.stats.guard_checks_elided == 0

    def test_fast_engine_keeps_trace_counters_zero(self):
        result = _run(HOT_SOURCE, engine="fast")
        assert result.output == HOT_OUTPUT
        assert result.stats.traces_compiled == 0
        assert result.stats.trace_exits == 0
        assert result.stats.trace_respecializations == 0
        assert result.stats.guard_checks_elided == 0

    def test_max_blocks_caps_recording(self):
        # A one-block loop still fits in a one-block superblock; the cap
        # only rejects longer chains, so output and parity are unchanged.
        capped = _run(BRANCHY_SOURCE, max_blocks=1)
        roomy = _run(BRANCHY_SOURCE, max_blocks=24)
        assert capped.output == BRANCHY_OUTPUT
        assert roomy.output == BRANCHY_OUTPUT
        assert capped.stats.cycles == roomy.stats.cycles


# ---------------------------------------------------------------------------
# Side exits
# ---------------------------------------------------------------------------


class TestSideExits:
    def test_uncommon_arm_side_exits(self):
        result = _run(BRANCHY_SOURCE)
        assert result.output == BRANCHY_OUTPUT
        assert result.stats.traces_compiled > 0
        # ~40 of 400 iterations take the off-trace arm.
        assert result.stats.trace_exits > 0

    def test_side_exits_preserve_semantics(self):
        reference = run_carat(BRANCHY_SOURCE, engine="reference")
        trace = _run(BRANCHY_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles

    def test_hot_exit_path_compiles_linear_side_trace(self):
        # The uncommon arm runs 40 times — far past the threshold — so
        # its block promotes *via side exits* (the dispatch loop never
        # notifies for exit landings) and the recording finishes as a
        # linear side trace when it re-reaches the already-traced loop
        # header: at least the loop trace plus one side trace compile.
        result = _run(BRANCHY_SOURCE)
        assert result.output == BRANCHY_OUTPUT
        assert result.stats.traces_compiled >= 2


# ---------------------------------------------------------------------------
# Recording aborts and the blacklist
# ---------------------------------------------------------------------------


class TestAbortsAndBlacklist:
    def test_deep_recursion_aborts_and_blacklists(self):
        result = _run(RECURSIVE_SOURCE)
        assert result.output == RECURSIVE_OUTPUT
        # Every recording attempt blows the inline depth cap: no trace
        # ever compiles and after repeated aborts the anchors stop being
        # recorded.
        assert result.stats.traces_compiled == 0
        assert len(result.interpreter._trace_blacklist) > 0

    def test_trace_compiler_bug_propagates(self, monkeypatch):
        # Only a chain the compiler cannot linearize is a reject (None);
        # an exception from the compiler must fail the run, not quietly
        # switch the trace tier off.
        def broken(*args, **kwargs):
            raise RuntimeError("trace compiler bug")

        monkeypatch.setattr(tracejit, "_build_trace", broken)
        session = CaratSession(RunConfig(engine="trace", trace_threshold=2))
        with pytest.raises(RuntimeError, match="trace compiler bug"):
            session.run(HOT_SOURCE)

    def test_recursion_keeps_parity(self):
        reference = run_carat(RECURSIVE_SOURCE, engine="reference")
        trace = _run(RECURSIVE_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions


# ---------------------------------------------------------------------------
# Frame-spanning traces (call inlining)
# ---------------------------------------------------------------------------


class TestCallInlining:
    def test_call_in_loop_traces_through_the_frame(self):
        result = _run(CALLY_SOURCE)
        assert result.output == CALLY_OUTPUT
        assert result.stats.traces_compiled > 0
        assert len(result.interpreter._trace_blacklist) == 0

    def test_inlined_call_keeps_parity(self):
        reference = run_carat(CALLY_SOURCE, engine="reference")
        trace = _run(CALLY_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions
        assert trace.stats.calls == reference.stats.calls


# ---------------------------------------------------------------------------
# Respecialization on region-generation bumps
# ---------------------------------------------------------------------------


class TestRespecialization:
    def _moving_run(self, engine, move):
        kernel = Kernel()
        moved = []

        def setup(interpreter):
            interpreter.set_tick_interval(200)
            if hasattr(interpreter, "set_trace_tuning"):
                interpreter.set_trace_tuning(threshold=2)
            if not move:
                return

            def hook(interp):
                if moved or interp.stats.instructions < 2_000:
                    return
                moved.append(True)
                process = interp.process
                victim = process.runtime.worst_case_allocation()
                snaps = interp.register_snapshots()
                kernel.request_page_move(
                    process,
                    victim.address & ~(PAGE_SIZE - 1),
                    register_snapshots=snaps,
                )
                interp.apply_snapshots(snaps)

            interpreter.tick_hook = hook

        return run_carat(HOT_SOURCE, kernel=kernel, setup=setup, engine=engine)

    def test_mid_run_move_respecializes(self):
        still = self._moving_run("trace", move=False)
        moved = self._moving_run("trace", move=True)
        assert still.output == HOT_OUTPUT
        assert moved.output == HOT_OUTPUT
        assert moved.stats.traces_compiled > 0
        # The generation bump forces the live trace's guard cells back
        # through the generic path, which re-bakes them — strictly more
        # respecializations than the undisturbed run.
        assert (
            moved.stats.trace_respecializations
            > still.stats.trace_respecializations
        )

    def test_mid_run_move_keeps_parity(self):
        reference = self._moving_run("reference", move=True)
        trace = self._moving_run("trace", move=True)
        assert trace.output == reference.output
        assert trace.exit_code == reference.exit_code
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions
        assert bytes(trace.kernel.memory._data) == bytes(
            reference.kernel.memory._data
        )


# ---------------------------------------------------------------------------
# Tuning validation
# ---------------------------------------------------------------------------


class TestTuningValidation:
    def test_interpreter_rejects_bad_tuning(self):
        result = _run(HOT_SOURCE)
        interp = result.interpreter
        with pytest.raises(ValueError):
            interp.set_trace_tuning(threshold=0)
        with pytest.raises(ValueError):
            interp.set_trace_tuning(max_blocks=0)

    @pytest.mark.parametrize(
        "field", ["trace_threshold", "trace_max_blocks"]
    )
    def test_config_rejects_bad_tuning(self, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: 0})


# ---------------------------------------------------------------------------
# Counters in the telemetry snapshot
# ---------------------------------------------------------------------------


class TestCountersSurface:
    def test_run_snapshot_carries_trace_counters(self):
        result = _run(HOT_SOURCE)
        document = run_snapshot(result)
        interp = document["interp"]
        assert interp["traces_compiled"] == result.stats.traces_compiled > 0
        assert interp["trace_exits"] == result.stats.trace_exits
        assert (
            interp["trace_respecializations"]
            == result.stats.trace_respecializations
        )
        assert (
            interp["guard_checks_elided"]
            == result.stats.guard_checks_elided
            > 0
        )

    def test_to_dict_carries_trace_counters(self):
        result = _run(HOT_SOURCE)
        stats = result.stats.to_dict()
        for key in (
            "traces_compiled",
            "trace_exits",
            "trace_respecializations",
            "guard_checks_elided",
        ):
            assert key in stats


# ---------------------------------------------------------------------------
# Per-interpreter isolation (shared trace-code cache, private closures)
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_trace_code_cached_but_counted_per_run(self):
        binary = compile_carat(
            HOT_SOURCE, CompileOptions(), module_name="hot"
        )
        first = _run(binary)
        second = _run(binary)
        # The second run reuses the module's compiled trace sources but
        # still instantiates and counts its own traces — stats never
        # leak between interpreters.
        assert first.stats.traces_compiled > 0
        assert second.stats.traces_compiled == first.stats.traces_compiled
        assert first.output == second.output == HOT_OUTPUT
        key_count = len(first.interpreter._code.trace_codes)
        assert len(second.interpreter._code.trace_codes) == key_count

    def _count_compiles(self, monkeypatch):
        """A fresh, empty code library plus a log of trace ``compile``
        calls."""
        calls = []

        def counting(source, filename, mode):
            calls.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(tracejit, "_LIBRARY", {})
        monkeypatch.setattr(tracejit, "compile", counting, raising=False)
        return calls

    def test_second_session_compiles_no_trace(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        first = _run(HOT_SOURCE)
        compiled = len(calls)
        second = _run(HOT_SOURCE)
        # A fresh session compiles its source into a new module, so its
        # trace *instances* are new — but every trace text is already in
        # the library.
        assert compiled == len(tracejit._LIBRARY) > 0
        assert len(calls) == compiled
        assert first.output == second.output == HOT_OUTPUT
        assert first.stats.to_dict() == second.stats.to_dict()

    def test_shared_code_binds_each_instance(self, monkeypatch):
        # Two programs differing only in constants have identical trace
        # text: the second reuses the first's code object, yet each run
        # computes with its own constants, slots and guard cells.
        calls = self._count_compiles(monkeypatch)
        three = _run(HOT_SOURCE)
        compiled = len(calls)
        five = _run(HOT_SOURCE.replace("i * 3", "i * 5"))
        assert compiled > 0 and len(calls) == compiled
        assert three.output == HOT_OUTPUT
        assert five.output == [str(5 * (63 * 64 // 2) * 30)]
        assert five.stats.traces_compiled == three.stats.traces_compiled
        assert five.stats.guard_checks_elided > 0

    def test_workloads_fold_into_a_compact_library(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        traces = 0
        for name in workload_names():
            source = get_workload(name, "tiny").source
            for mode in ("carat", "traditional"):
                config = RunConfig(mode=mode, engine="trace", name=name)
                traces += CaratSession(config).run(source).stats.traces_compiled
        entries = len(tracejit._LIBRARY)
        size = sum(map(len, tracejit._LIBRARY.values()))
        print(f"library: {traces} traces, {entries} entries, {size} bytes")
        assert entries == len(calls)
        # Measured: 386 traces fold into 311 entries of 1 398 644 bytes.
        # Text bearing a per-module slot id would make nearly every
        # trace its own entry.
        assert entries * 10 <= traces * 9
        assert entries <= 2 * 311
        assert size <= 2 * 1_398_644
