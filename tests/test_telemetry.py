"""Tests for the telemetry layer: tracer, schema, metrics, profiler.

Unit coverage of each primitive plus end-to-end checks that a traced /
profiled session emits a schema-valid event stream and an exactly
reconciling cycle profile on all three engines.  (The per-workload
reconciliation sweep lives in ``benchmarks/test_telemetry_overhead.py``;
here we keep to the small conftest programs.)
"""

import json
from types import SimpleNamespace

import pytest

from repro.errors import InterpError
from repro.machine.session import CaratSession, RunConfig
from repro.telemetry import (
    PROFILE_CATEGORIES,
    CycleProfiler,
    MetricsRegistry,
    Tracer,
    run_snapshot,
    validate_events,
    validate_jsonl,
)

from .conftest import LINKED_LIST_SOURCE, SUM_SOURCE


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_balances_and_attaches_end_args(self):
        tracer = Tracer()
        with tracer.span("pass.dce", "compiler", {"before": 10}) as end_args:
            end_args["after"] = 7
        assert [e.ph for e in tracer.events] == ["B", "E"]
        assert tracer.events[0].args == {"before": 10}
        assert tracer.events[1].args == {"after": 7}
        assert validate_events([e.to_dict() for e in tracer.events]) == []

    def test_span_ends_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s", "session"):
                raise RuntimeError("boom")
        assert [e.ph for e in tracer.events] == ["B", "E"]

    def test_instant_marks_thread_scope(self):
        tracer = Tracer()
        tracer.instant("guard.fault", "guard", {"address": 64})
        record = tracer.events[0].to_dict()
        assert record["ph"] == "i"
        assert record["s"] == "t"

    def test_clock_handoff_stays_monotonic(self):
        # Compile-time events run on the logical sequence; attaching the
        # machine clock (which restarts at 0) must not move time backwards.
        tracer = Tracer()
        for _ in range(5):
            tracer.instant("compile", "compiler")
        cycles = {"now": 0}
        tracer.set_clock(lambda: cycles["now"])
        tracer.instant("run", "session")
        cycles["now"] = 100
        tracer.instant("later", "session")
        stamps = [e.ts for e in tracer.events]
        assert stamps == sorted(stamps)
        assert validate_events([e.to_dict() for e in tracer.events]) == []

    def test_buffer_cap_counts_drops(self):
        tracer = Tracer(max_events=3)
        for i in range(10):
            tracer.instant(f"e{i}", "session")
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert tracer.summary()["dropped"] == 7

    def test_bad_detail_rejected(self):
        with pytest.raises(ValueError):
            Tracer(detail="verbose")

    def test_jsonl_roundtrip_validates(self, tmp_path):
        tracer = Tracer()
        with tracer.span("session.run", "session"):
            tracer.instant("fig8.step01", "protocol", {"detail": "freeze"})
            tracer.counter("interp", {"cycles": 42})
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        assert validate_jsonl(path) == []
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line) for line in lines)

    def test_chrome_trace_structure(self, tmp_path):
        tracer = Tracer()
        tracer.instant("x", "kernel")
        doc = tracer.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["traceEvents"][0]["name"] == "x"
        path = tmp_path / "trace.chrome.json"
        tracer.write_chrome_trace(path)
        assert json.loads(path.read_text())["traceEvents"]

    def test_summary_counts_by_category(self):
        tracer = Tracer()
        tracer.instant("a", "guard")
        tracer.instant("b", "guard")
        tracer.instant("c", "policy")
        summary = tracer.summary()
        assert summary["guard"] == 2
        assert summary["policy"] == 1
        assert summary["total"] == 3


class TestSchemaValidation:
    def test_flags_missing_required_key(self):
        errors = validate_events([{"name": "x", "cat": "guard", "ph": "i"}])
        assert any("missing" in e for e in errors)

    def test_flags_unknown_phase_and_category(self):
        event = {"name": "x", "cat": "nope", "ph": "Z", "ts": 0,
                 "pid": 0, "tid": 0}
        errors = validate_events([event])
        assert any("cat" in e for e in errors)
        assert any("ph" in e for e in errors)

    def test_flags_unbalanced_span(self):
        events = [
            {"name": "s", "cat": "session", "ph": "B", "ts": 0,
             "pid": 0, "tid": 0},
        ]
        assert any("unclosed" in e for e in validate_events(events))

    def test_flags_nonmonotonic_timestamps(self):
        events = [
            {"name": "a", "cat": "session", "ph": "i", "ts": 5,
             "pid": 0, "tid": 0, "s": "t"},
            {"name": "b", "cat": "session", "ph": "i", "ts": 3,
             "pid": 0, "tid": 0, "s": "t"},
        ]
        assert any("precedes" in e for e in validate_events(events))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_registry_absorbs_stats_and_flattens(self):
        registry = MetricsRegistry()
        registry.absorb("kernel", {"moves": 1})
        registry.absorb("kernel", {"moves": 3, "cost": {"copy": 7}})
        registry.absorb("interp", {"cycles": 9})
        # Sections sort by prefix; re-absorbing a prefix overwrites it.
        assert registry.to_dict() == {
            "interp": {"cycles": 9},
            "kernel": {"moves": 3, "cost": {"copy": 7}},
        }

    def test_run_snapshot_document(self):
        config = RunConfig(mode="carat", profile=True)
        result = CaratSession(config).run(SUM_SOURCE)
        document = run_snapshot(result)
        assert document["schema"] == "carat.run.v1"
        assert document["exit_code"] == 0
        assert document["interp"]["cycles"] == result.cycles
        assert document["runtime"]["guards_executed"] >= 1
        assert document["profile"]["schema"] == "carat.profile.v1"
        assert document["config"]["mode"] == "carat"
        # The document is plain data end to end.
        json.dumps(document)

    def test_run_snapshot_traditional_has_mmu_sections(self):
        result = CaratSession(RunConfig(mode="traditional")).run(SUM_SOURCE)
        document = run_snapshot(result)
        assert "mmu" in document and "dtlb" in document and "stlb" in document
        assert "runtime" not in document


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------


class _FakeStats:
    def __init__(self):
        self.cycles = 0
        self.guard_cycles = 0
        self.tracking_cycles = 0
        self.translation_cycles = 0
        self.page_fault_cycles = 0
        self.tier_cycles = 0
        self.instructions = 0


def _fake_interpreter(stats):
    """Just what ``CycleProfiler.attach`` instruments: a frame stack,
    ``run_steps``, no tick hook and no runtime."""
    return SimpleNamespace(
        stats=stats,
        frames=[],
        run_steps=None,
        tick_hook=None,
        process=SimpleNamespace(pid=1, runtime=None),
    )


def _frame(name):
    return SimpleNamespace(function=SimpleNamespace(name=name))


class TestProfilerUnits:
    def test_delta_capture_splits_app_from_overheads(self):
        profiler = CycleProfiler()
        stats = _FakeStats()
        interp = _fake_interpreter(stats)
        profiler.attach(interp)
        interp.frames.append(_frame("main"))  # opens main's span
        stats.cycles += 10
        stats.guard_cycles += 3
        stats.instructions += 1
        interp.frames.append(_frame("leaf"))  # closes it, opens leaf's
        stats.cycles += 4
        stats.instructions += 2
        interp.frames.pop()
        interp.frames.pop()  # an empty stack opens no span
        stats.cycles += 5  # outside every span
        profiler.finish(stats)
        assert profiler.buckets["app"] == 7 + 4
        assert profiler.buckets["guard"] == 3
        assert profiler.buckets["patching"] == 5
        rows = profiler.functions()
        assert rows["main"]["cycles"] == 10 and rows["main"]["instructions"] == 1
        assert rows["leaf"]["cycles"] == 4 and rows["leaf"]["instructions"] == 2
        assert profiler.instructions == stats.instructions

    def test_finish_sweeps_remainder_into_patching(self):
        profiler = CycleProfiler()
        stats = _FakeStats()
        stats.cycles = 50
        profiler.attribute_external("policy", 20)
        profiler.finish(stats)
        assert profiler.buckets["policy"] == 20
        assert profiler.buckets["patching"] == 30
        profiler.assert_reconciles(stats)
        profiler.finish(stats)  # idempotent
        assert profiler.buckets["patching"] == 30

    def test_external_attribution_restricted(self):
        with pytest.raises(ValueError):
            CycleProfiler().attribute_external("guard", 1)

    def test_assert_reconciles_raises_on_drift(self):
        profiler = CycleProfiler()
        stats = _FakeStats()
        stats.cycles = 9
        with pytest.raises(AssertionError):
            profiler.assert_reconciles(stats)


@pytest.mark.parametrize("engine", ["reference", "fast", "trace"])
class TestTelemetryEndToEnd:
    def test_trace_is_schema_valid_and_costs_nothing(self, engine):
        plain = CaratSession(RunConfig(engine=engine)).run(SUM_SOURCE)
        config = RunConfig(engine=engine, trace=True, trace_detail="fine")
        traced = CaratSession(config).run(SUM_SOURCE)
        # The tracer must never charge a cycle.
        assert traced.fingerprint() == plain.fingerprint()
        events = [e.to_dict() for e in traced.tracer.events]
        assert validate_events(events) == []
        names = {e["name"] for e in events}
        assert "session.run" in names
        assert any(name.startswith("pass.") for name in names)
        assert any(name.startswith("phase.") for name in names)
        # Fine detail narrates individual guard checks.
        assert traced.tracer.summary()["guard"] >= 1

    def test_profile_reconciles_and_costs_nothing(self, engine):
        plain = CaratSession(RunConfig(engine=engine)).run(LINKED_LIST_SOURCE)
        config = RunConfig(engine=engine, profile=True)
        profiled = CaratSession(config).run(LINKED_LIST_SOURCE)
        assert profiled.fingerprint() == plain.fingerprint()
        profile = profiled.profile
        profile.assert_reconciles(profiled.stats)
        assert sum(profile.buckets.values()) == profiled.cycles
        # No moves happen in a plain run: nothing external to attribute.
        assert profile.buckets["policy"] == 0
        assert profile.buckets["patching"] == 0
        assert profile.buckets["guard"] == profiled.stats.guard_cycles
        assert profile.buckets["tracking"] == profiled.stats.tracking_cycles
        assert set(profile.buckets) == set(PROFILE_CATEGORIES)
        # Heap allocations in main get a named site.
        assert any(
            label.startswith("main:heap") for label in profile.sites()
        )
        report = profile.report()
        assert "bucket" in report and "@main" in report

    def test_both_engines_attribute_identically(self, engine):
        # Each engine's profile must equal the reference attribution —
        # parameterized so a failure names the engine that drifted.
        reference = CaratSession(
            RunConfig(engine="reference", profile=True)
        ).run(LINKED_LIST_SOURCE)
        this = CaratSession(RunConfig(engine=engine, profile=True)).run(
            LINKED_LIST_SOURCE
        )
        assert this.profile.buckets == reference.profile.buckets
        assert this.profile.functions() == reference.profile.functions()
        assert this.profile.sites() == reference.profile.sites()


# ---------------------------------------------------------------------------
# Span attribution edge cases: identical rows on every engine
# ---------------------------------------------------------------------------

#: The loop's 21st call divides by zero in ``scale``; at threshold 2 the
#: loop runs as a trace with ``scale`` inlined when it does.
CALLEE_FAULT_SOURCE = """
long scale(long x, long d) {
  return x / d;
}
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 30; i++) {
    acc = acc + scale(1000, 20 - i);
  }
  print_long(acc);
}
"""

#: ``main`` recursing into itself: the nested returns compile a return
#: trace, and the outermost ``main`` leaves the program through its own
#: ``ret`` (exit code 40 + 20), which is never retired.
RETURNING_MAIN_SOURCE = """
long level;
long twice(long x) {
  return x + x;
}
long main() {
  long r;
  level = level + 1;
  if (level < 20) { r = main(); } else { r = twice(20); }
  return r + 1;
}
"""


def _profile_on_every_engine(source, setup=None, fault=None):
    """Profile ``source`` on the three engines (traces at threshold 2),
    check each profile reconciles, its function rows sum to
    ``InterpStats.instructions`` and equal the reference engine's, and
    return ``{engine: (profile, interpreter)}``."""
    runs = {}
    for engine in ("reference", "fast", "trace"):
        captured = []

        def capture(interpreter):
            captured.append(interpreter)
            if setup is not None:
                setup(interpreter)

        session = CaratSession(
            RunConfig(engine=engine, profile=True, trace_threshold=2),
            setup=capture,
        )
        if fault is None:
            session.run(source)
        else:
            with pytest.raises(fault):
                session.run(source)
        (interpreter,) = captured
        profile = session.profiler
        profile.assert_reconciles(interpreter.stats)
        rows = profile.functions()
        assert None not in rows
        instructions = sum(row["instructions"] for row in rows.values())
        assert instructions == interpreter.stats.instructions, engine
        runs[engine] = (profile, interpreter)
    reference = runs["reference"][0]
    for engine, (profile, _interpreter) in runs.items():
        assert profile.functions() == reference.functions(), engine
        assert profile.buckets == reference.buckets, engine
    assert runs["trace"][1].stats.traces_compiled > 0
    return runs


class TestSpanAttribution:
    def test_fault_in_a_callee_inside_a_trace(self):
        runs = _profile_on_every_engine(CALLEE_FAULT_SOURCE, fault=InterpError)
        profile, interpreter = runs["trace"]
        assert interpreter.stats.trace_instructions > 0
        assert set(profile.functions()) == {"main", "scale"}

    def test_main_exits_through_its_return(self):
        runs = _profile_on_every_engine(RETURNING_MAIN_SOURCE)
        profile, interpreter = runs["trace"]
        assert interpreter.exit_code == 60
        assert interpreter.stats.trace_instructions > 0
        assert set(profile.functions()) == {"main", "twice"}

    def test_tick_hook_cycles_land_in_patching(self):
        charged = []

        def setup(interpreter):
            def charge(interp):
                interp.stats.cycles += 7
                charged.append(interp)

            interpreter.set_tick_interval(25)
            interpreter.tick_hook = charge

        runs = _profile_on_every_engine(LINKED_LIST_SOURCE, setup=setup)
        for profile, interpreter in runs.values():
            ticks = sum(1 for interp in charged if interp is interpreter)
            assert ticks > 0
            assert profile.buckets["patching"] == 7 * ticks
            in_functions = sum(
                row["cycles"] for row in profile.functions().values()
            )
            assert in_functions == interpreter.stats.cycles - 7 * ticks


def test_trace_export_files(tmp_path):
    prefix = tmp_path / "run"
    config = RunConfig(trace_out=str(prefix), profile=True)
    result = CaratSession(config).run(SUM_SOURCE)
    assert result.exit_code == 0
    assert validate_jsonl(f"{prefix}.jsonl") == []
    chrome = json.loads((tmp_path / "run.chrome.json").read_text())
    assert chrome["otherData"]["clock"] == "simulated-cycles"
    assert len(chrome["traceEvents"]) == len(result.tracer.events)


def test_policy_epochs_attributed_to_policy_bucket():
    # A policy-driven run charges move cycles at epoch safepoints —
    # inside the tick hook, outside every function's span.  The policy
    # engine claims them for the `policy` bucket and reconciliation
    # still holds exactly.
    from repro.kernel.kernel import Kernel
    from repro.policy import (
        CompactionDaemon,
        HeatTracker,
        PolicyEngine,
        scatter_capsule,
    )
    from repro.workloads import get_workload

    source = get_workload("hpccg", "tiny").source
    kernel = Kernel()
    engine_box = {}

    def setup(interpreter):
        process = interpreter.process
        scatter_capsule(kernel, process, interpreter=interpreter)
        heat = HeatTracker(decay=0.5)
        engine = PolicyEngine(
            kernel,
            process,
            epoch_cycles=5_000,
            budget_cycles=100_000,
            heat=heat,
            compaction=CompactionDaemon(kernel, process),
        )
        engine.attach(interpreter)
        engine_box["engine"] = engine

    config = RunConfig(
        profile=True, trace=True,
        heap_size=512 * 1024, stack_size=128 * 1024,
    )
    session = CaratSession(config, kernel=kernel, setup=setup)
    result = session.run(source)
    assert result.exit_code == 0
    profile = result.profile
    profile.assert_reconciles(result.stats)
    moved = sum(engine_box["engine"].stats.epoch_move_cycles)
    assert moved > 0  # the scattered capsule forces compaction moves
    assert profile.buckets["policy"] == moved
    names = {e.name for e in result.tracer.events}
    assert "policy.epoch" in names
    assert any(name.startswith("fig8.step") for name in names)
