"""Host wall-clock benchmark of the CARAT reproduction: one workload per process.

    python3 benchmarks/perf/run.py --workload paper-tiny --seed 77 --seconds 20 --trace 0

Imports the system from the ``src/`` directory of its own checkout.  The
process runs one untimed warm-up unit, then repetitions of the workload
until ``--seconds`` have passed and the unit-time tail has enough samples,
and prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": 198, "failed": 0,
     "metrics": {"setup_s": {"value": 0.0241, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``).
With ``--trace 1`` the process runs one untraced and one traced
repetition and reports the per-layer ledger (``per_layer_metrics``); the
traced repetition's spans are written to ``results/traces/`` as JSONL and
Chrome trace files.  A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

from perf_layers import export, installed, self_times, span_names
from perf_speed import Speed
from perf_workloads import HERE, WORKLOADS, Ledger, layer_counts, make
from repro.telemetry import Tracer

#: The tail percentile reported, and the samples it needs beyond it.
TAIL_PERCENT = 90
TAIL_BEYOND = 10

#: Trace buffer size; the traced run fails if any event is dropped.
MAX_TRACE_EVENTS = 4_000_000

#: name -> (unit, better), in BENCHMARK.json order.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "unit_p50_s": ("s", "lower"),
    "unit_p90_s": ("s", "lower"),
    "minstr_per_s": ("Minstr/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Span -> the name its call count is reported under, for the layers
#: whose call count says how much work they did.
CALL_COUNTS = {
    "frontend.compile_source": "calls",
    "analysis.dominator_tree": "builds",
    "ir.verify_module": "calls",
    "ir.print_module": "calls",
    "carat.verify_signature": "calls",
    "kernel.load": "calls",
    "runtime.plan_move": "calls",
    "resilience.drive_transaction": "calls",
    "sanitizer.check_kernel": "calls",
}

#: Ratios where a larger value means less wasted work.
HIGHER_IS_BETTER = {
    "machine.guard_elided_ratio",
    "machine.dispatch_cache_hit_ratio",
    "runtime.region_cache_hit_ratio",
    "resilience.commit_ratio",
}


def nearest_rank(samples: List[float], percent: int) -> float:
    """Nearest-rank percentile, in exact integer arithmetic."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[rank - 1]


def samples_beyond(count: int, percent: int) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, -(-count * percent // 100)) if count else 0


def measure(workload, seconds: float, reps: Optional[int] = None):
    """Warm up, prepare, then run repetitions: exactly ``reps`` of them,
    or else until ``seconds`` have passed (predicting the next repetition
    from the last), the workload's ``min_reps`` are done, and the tail
    percentile has enough samples beyond it."""
    ledger = Ledger()
    workload.warm_up()
    workload.prepare(ledger)
    start = perf_counter()
    done = 0
    while True:
        ledger.speed.collect()
        began = perf_counter()
        units_before = len(ledger.units)
        workload.repetition(ledger)
        done += 1
        if reps is not None:
            if done >= reps:
                return ledger
            continue
        if len(ledger.units) == units_before:
            return ledger  # every unit failed; more repetitions will not help
        now = perf_counter()
        tail = samples_beyond(len(ledger.units), TAIL_PERCENT) >= TAIL_BEYOND
        if tail and done >= workload.min_reps and (now - start) + (now - began) > seconds:
            return ledger


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(ledger, seconds) -> Dict[str, float]:
    """The end-to-end metrics, with ``seconds(start, end)`` measuring
    each span."""
    units = [seconds(start, end) for start, end in ledger.units]
    return {
        "setup_s": statistics.median(
            sum(seconds(*span) for span in spans) for spans in ledger.setups
        ),
        "unit_p50_s": statistics.median(units),
        "unit_p90_s": nearest_rank(units, TAIL_PERCENT),
        "minstr_per_s": statistics.median(
            instructions / sum(seconds(*span) for span in spans) / 1e6
            for instructions, spans in ledger.rates
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric, in report order."""
    declared: Dict[str, Tuple[str, str]] = {}
    for span in span_names():
        declared[f"{span}.self_share"] = ("share", "lower")
        if span in CALL_COUNTS:
            declared[f"{span}.{CALL_COUNTS[span]}"] = ("count", "lower")
    for name in layer_counts(Ledger()):
        if name.endswith("_ratio"):
            declared[name] = ("ratio", "higher" if name in HIGHER_IS_BETTER else "lower")
        elif name.startswith("model."):
            declared[name] = ("cycles", "lower")
        else:
            declared[name] = ("count", "lower")
    declared["model.cycles"] = ("cycles", "lower")
    declared["bench.unattributed_share"] = ("share", "lower")
    declared["bench.trace_overhead"] = ("ratio", "lower")
    declared["bench.traced_wall_s"] = ("s", "lower")
    return declared


def traced(workload, trace_dir: Path):
    """One untraced and one traced repetition; returns (per-layer
    metrics, ledgers, problems found while checking the trace)."""
    # The calibration loop never runs inside a call the trace spans, and
    # it and the garbage collections between units are the benchmark's
    # own time, outside every span and every wall time.
    untraced_ledger = Ledger(speed=Speed(within_calls=False))
    workload.warm_up()
    workload.prepare(untraced_ledger)
    untraced_ledger.speed.collect()
    untraced_ledger.speed.sample(force=True)
    start = perf_counter()
    workload.repetition(untraced_ledger)
    end = perf_counter()
    untraced_ledger.speed.sample(force=True)
    untraced_s = untraced_ledger.speed.seconds(start, end)

    ledger = Ledger(speed=Speed(within_calls=False))
    tracer = Tracer(max_events=MAX_TRACE_EVENTS)
    tracer.set_clock(perf_counter_ns)
    ledger.speed.collect()
    ledger.speed.sample(force=True)
    with installed(tracer):
        start = perf_counter()
        workload.repetition(ledger)
        end = perf_counter()
    ledger.speed.sample(force=True)
    wall_ns = ledger.speed.raw_seconds(start, end) * 1e9

    problems: List[str] = []
    totals, covered_ns = self_times(tracer.events)
    self_ns = sum(entry[1] for entry in totals.values())
    unattributed_ns = wall_ns - covered_ns
    # Self times must add up to the outermost spans, which must fit in the
    # wall time; so the shares plus the unattributed share make 1.
    if self_ns != covered_ns or unattributed_ns < -0.01 * wall_ns:
        problems.append(
            f"self times {self_ns} ns, outermost spans {covered_ns} ns and "
            f"wall {wall_ns:.0f} ns do not add up"
        )
    if tracer.dropped:
        problems.append(f"{tracer.dropped} trace events dropped")
    if untraced_ledger.rep_cycles != ledger.rep_cycles:
        problems.append(
            f"tracing changed modeled cycles: {untraced_ledger.rep_cycles} "
            f"-> {ledger.rep_cycles}"
        )

    trace_dir.mkdir(parents=True, exist_ok=True)
    problems.extend(export(tracer, trace_dir / workload.name)[:5])

    metrics: Dict[str, float] = {}
    for span in span_names():
        calls, span_ns = totals.get(span, (0, 0))
        metrics[f"{span}.self_share"] = span_ns / wall_ns
        if span in CALL_COUNTS:
            metrics[f"{span}.{CALL_COUNTS[span]}"] = calls
    metrics.update(layer_counts(ledger))
    metrics["model.cycles"] = ledger.rep_cycles[0] if ledger.rep_cycles else 0
    metrics["bench.unattributed_share"] = unattributed_ns / wall_ns
    traced_s = ledger.speed.seconds(start, end)
    metrics["bench.trace_overhead"] = traced_s / untraced_s
    metrics["bench.traced_wall_s"] = traced_s
    declared = per_layer_metrics()
    return {name: metrics[name] for name in declared}, (untraced_ledger, ledger), problems


def run(name: str, seed: int, seconds: float, trace: bool,
        reps: Optional[int] = None, golden: Optional[dict] = None) -> dict:
    """One benchmark process's result document (see the module doc)."""
    workload = make(name, seed, golden)
    problems: List[str] = []
    if trace:
        values, ledgers, problems = traced(workload, HERE / "results" / "traces")
        units = per_layer_metrics()
    else:
        ledger = measure(workload, seconds, reps)
        ledgers = (ledger,)
        if not (ledger.units and ledger.setups and ledger.rates):
            raise RuntimeError(f"{name}: no unit completed; nothing to report")
        ledger.speed.sample(force=True)
        values = end_to_end_metrics(ledger, ledger.speed.seconds)
        raw = end_to_end_metrics(ledger, ledger.speed.raw_seconds)
        units = END_TO_END
        print(
            "# raw wall-clock values: "
            + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"),
            file=sys.stderr,
        )
        beyond = samples_beyond(len(ledger.units), TAIL_PERCENT)
        if reps is None and beyond < TAIL_BEYOND:
            problems.append(f"only {beyond} unit samples beyond p{TAIL_PERCENT}")
        print(
            f"# {name}: {len(ledger.units)} units, {len(ledger.setups)} set-ups, "
            f"{len(ledger.rates)} rates, {len(ledger.rep_cycles)} repetitions",
            file=sys.stderr,
        )
    for ledger in ledgers:
        if len(set(ledger.rep_cycles)) > 1:
            problems.append(f"modeled cycles differ between repetitions: {ledger.rep_cycles}")
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    for problem in problems:
        print(f"# PROBLEM {problem}", file=sys.stderr)
    for metric, value in values.items():
        print(f"# {metric:48s} {value:.6g} {units[metric][0]}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric][0]}
            for metric, value in values.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One string-hash layout for every run: dict layouts, and with them
    # timings, otherwise differ from process to process.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
