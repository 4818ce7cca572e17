"""Self-tests of the host wall-clock benchmark.

    PYTHONPATH=src python -m pytest -q benchmarks/perf

The workload tests run each workload for one repetition, untraced and
traced, and take about two minutes together.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import pytest

import run
from perf_layers import ENTRY_POINTS, self_times
from perf_workloads import (
    HERE,
    SOAK_FLAGS,
    WORKLOADS,
    Ledger,
    load_golden,
    soak_args,
    soak_runner,
)
from repro.cli import main
from repro.telemetry import TraceEvent

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _span(name, begin, end):
    return [TraceEvent(name, "session", "B", begin), TraceEvent(name, "session", "E", end)]


def test_self_time_subtracts_only_direct_children():
    events = (
        [TraceEvent("outer", "session", "B", 0)]
        + [TraceEvent("mid", "session", "B", 10)]
        + _span("leaf", 12, 18)
        + [TraceEvent("mid", "session", "E", 30)]
        + _span("leaf", 40, 45)
        + [TraceEvent("outer", "session", "E", 100)]
        + [TraceEvent("tick", "metrics", "C", 101)]
        + _span("outer", 120, 130)
    )
    totals, covered = self_times(events)
    assert totals == {"outer": [2, 75 + 10], "mid": [1, 14], "leaf": [2, 11]}
    assert covered == 110
    assert sum(entry[1] for entry in totals.values()) == covered


def test_self_time_of_a_span_nested_in_itself():
    events = [TraceEvent("run", "session", "B", 0)] + _span("run", 5, 25) + [
        TraceEvent("run", "session", "E", 40)
    ]
    assert self_times(events) == ({"run": [2, 40]}, 40)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(100, 90) == 10
    assert run.nearest_rank(list(range(1, 101)), 90) == 90
    assert run.nearest_rank([3.0], 90) == 3.0


class _SevenUnits:
    """A workload whose repetitions are instant and yield seven units."""

    min_reps = 1

    def warm_up(self):
        pass

    def prepare(self, ledger):
        pass

    def repetition(self, ledger):
        ledger.units.extend([(0.0, 0.0)] * 7)


def test_measuring_continues_until_the_tail_has_ten_samples_beyond():
    ledger = run.measure(_SevenUnits(), seconds=0)
    # 98 units leave 9 beyond p90; 105 leave 10.
    assert len(ledger.units) == 105
    assert run.samples_beyond(len(ledger.units), run.TAIL_PERCENT) >= run.TAIL_BEYOND


def test_benchmark_json_declares_what_run_reports():
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.per_layer_metrics()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_corrupted_golden_entry_counts_as_failed():
    golden = copy.deepcopy(load_golden())
    golden["small"]["ep"]["sha256"] = "0" * 64
    result = run.run("hot-small", 77, seconds=0, trace=False, reps=1, golden=golden)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_repetition_reports_every_end_to_end_metric(workload):
    result = run.run(workload, 77, seconds=0, trace=False, reps=1)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_every_wrapper_fires(workload):
    result = run.run(workload, 77, seconds=0, trace=True)
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    unattributed = metrics["bench.unattributed_share"]
    assert sum(shares) + unattributed == pytest.approx(1.0, abs=0.01)
    assert unattributed <= 0.10
    assert metrics["bench.trace_overhead"] > 0
    entered = Counter()
    with open(HERE / "results" / "traces" / f"{workload}.jsonl") as handle:
        for line in handle:
            event = json.loads(line)
            if event["ph"] == "B":
                entered[event["args"]["at"]] += 1
    for name, module, path, _, mapped in ENTRY_POINTS:
        if mapped == workload:
            assert entered[f"{module}.{path}"] > 0, f"{module}.{path} never ran"
            assert metrics[f"{name}.self_share"] > 0


def test_soak_config_is_the_one_the_cli_builds(tmp_path):
    flags = list(SOAK_FLAGS)
    flags[flags.index("--requests") + 1] = "2000"
    out = tmp_path / "soak.json"
    assert main(["soak", *flags, "--seed", "77", "--json", str(out),
                 "--crash-dump", str(tmp_path / "crash.json")]) == 0
    cli_fingerprint = json.loads(out.read_text())["fingerprint"]
    report = soak_runner(soak_args(77, flags)).run()
    assert report.ok
    assert report.fingerprint() == cli_fingerprint


def test_ledger_attempt_counts_exceptions_as_failures():
    ledger = Ledger()
    assert ledger.attempt("ok", lambda: 5) == 5

    def boom():
        raise RuntimeError("boom")

    assert ledger.attempt("boom", boom) is None
    assert (ledger.attempted, ledger.failed) == (2, 1)
