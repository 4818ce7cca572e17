"""The trace-tier speedup benchmark (superblock compilation).

For the guard-heavy headline workloads this measures wall-clock under
the reference interpreter vs the trace tier (``--engine trace``: the
fast engine plus hot-superblock compilation with parameter-specialized
guards), verifies that both produce the *same* results (output, exit
code, modeled cycles, and guard counts — the engines' contract), and
records the tier's own counters: traces compiled, side exits,
respecializations, and guard checks served by the specialized fast
path.

Emitted artifacts:

* ``benchmarks/results/trace_<workload>.json`` — one file per
  benchmark with both engines' wall-clock and the trace counters;
* the repo-root ``BENCH_trace.json`` — the aggregate: per-workload
  speedups, the geomean, and the headline verdict.

The assertion floor here is the CI gate (trace must be at least 2x
faster on the headline workload at any scale); the committed
``BENCH_trace.json`` is generated at ``CARAT_BENCH_SCALE=small``,
where the geomean clears the 6x design target.
"""

import json
import time
from pathlib import Path

from harness import SCALE, _compile_options, emit_json, emit_table, geomean, run_carat

from repro.carat.pipeline import compile_carat
from repro.workloads import get_workload

#: Guard-heavy workloads; ``hpccg`` is the headline (first in the
#: paper's figure order).  ``ep`` is the stress case: its hot loop
#: calls a defined function (inlined as a frame-spanning trace) and
#: branches on random data, so the accept/reject split side-exits into
#: a linear side trace every few iterations — it is kept in the pool
#: deliberately so the geomean includes an exit-heavy workload.
WORKLOADS = ["hpccg", "cg", "ep"]
HEADLINE = "hpccg"

#: CI floor, deliberately below the 6x design target so tiny-scale smoke
#: runs on shared CI machines don't flake; the target is asserted on the
#: recorded numbers at small scale.
MIN_HEADLINE_SPEEDUP = 2.0
TARGET_GEOMEAN = 6.0

REPO_ROOT = Path(__file__).parent.parent


def _timed_pair(binary, workload, repeats=7):
    """Best-of-N wall clock for both engines, with the samples
    *interleaved* (ref, trace, ref, trace, ...) so slow drift in machine
    load biases neither side; returns the last result of each (runs are
    deterministic, so any run's numbers represent all of them)."""
    best = {"reference": float("inf"), "trace": float("inf")}
    results = {}
    for _ in range(repeats):
        for engine in ("reference", "trace"):
            t0 = time.perf_counter()
            results[engine] = run_carat(
                binary, guard_mechanism="mpx", name=workload, engine=engine
            )
            best[engine] = min(best[engine], time.perf_counter() - t0)
    return best["reference"], best["trace"], results


def _comparable(result):
    return (
        result.exit_code,
        tuple(result.output),
        result.cycles,
        result.instructions,
        result.process.runtime.stats.guards_executed,
        result.process.runtime.stats.guard_faults,
    )


def test_trace_speedup():
    rows = []
    per_workload = {}
    for workload in WORKLOADS:
        source = get_workload(workload, SCALE).source
        binary = compile_carat(
            source, _compile_options("guards_carat"), module_name=workload
        )
        # One warm-up run populates the module's dispatch cache *and*
        # trace-code cache so the measurement sees the steady state
        # (compile-once, run-many).
        run_carat(binary, guard_mechanism="mpx", name=workload, engine="trace")
        ref_time, trace_time, results = _timed_pair(binary, workload)
        ref_result, trace_result = results["reference"], results["trace"]
        assert _comparable(ref_result) == _comparable(trace_result), (
            f"{workload}: engines disagree"
        )
        speedup = ref_time / trace_time
        istats = trace_result.stats
        entry = {
            "scale": SCALE,
            "reference_seconds": round(ref_time, 6),
            "trace_seconds": round(trace_time, 6),
            "speedup": round(speedup, 3),
            "traces_compiled": istats.traces_compiled,
            "trace_exits": istats.trace_exits,
            "trace_respecializations": istats.trace_respecializations,
            "guard_checks_elided": istats.guard_checks_elided,
            "compiled_blocks": istats.compiled_blocks,
            "cycles": trace_result.cycles,
            "guards_executed": (
                trace_result.process.runtime.stats.guards_executed
            ),
        }
        per_workload[workload] = entry
        emit_json(f"trace_{workload}", {"workload": workload, **entry})
        rows.append(
            (
                workload,
                ref_time,
                trace_time,
                speedup,
                istats.traces_compiled,
                istats.trace_exits,
            )
        )

    speedups = [per_workload[w]["speedup"] for w in WORKLOADS]
    aggregate = {
        "scale": SCALE,
        "headline": HEADLINE,
        "headline_speedup": per_workload[HEADLINE]["speedup"],
        "geomean_speedup": round(geomean(speedups), 3),
        "min_headline_speedup": MIN_HEADLINE_SPEEDUP,
        "target_geomean_speedup": TARGET_GEOMEAN,
        "workloads": per_workload,
    }
    (REPO_ROOT / "BENCH_trace.json").write_text(
        json.dumps(aggregate, indent=2) + "\n"
    )

    emit_table(
        "trace_speedup",
        f"Trace-tier speedup vs reference interpreter ({SCALE} scale, "
        "guards_carat+mpx, best of 7)",
        ["benchmark", "ref_s", "trace_s", "speedup", "traces", "exits"],
        rows,
        footer=[
            f"geomean speedup {aggregate['geomean_speedup']:.3f}x; "
            f"headline {HEADLINE} {aggregate['headline_speedup']:.2f}x "
            f"(floor {MIN_HEADLINE_SPEEDUP}x, geomean target "
            f"{TARGET_GEOMEAN}x at small scale)"
        ],
    )

    assert aggregate["headline_speedup"] >= MIN_HEADLINE_SPEEDUP


def test_trace_sanitized_parity():
    """Both engines under the cross-layer sanitizer: the trace tier must
    not trip a single invariant the reference run does not."""
    source = get_workload(HEADLINE, "tiny").source
    binary = compile_carat(
        source, _compile_options("full"), module_name=HEADLINE
    )
    results = {
        engine: run_carat(
            binary, guard_mechanism="mpx", name=HEADLINE,
            sanitize=True, engine=engine,
        )
        for engine in ("reference", "trace")
    }
    for engine, result in results.items():
        assert result.sanitizer is not None and result.sanitizer.ok, (
            f"{engine}: {result.sanitizer.describe()}"
        )
    assert _comparable(results["reference"]) == _comparable(results["trace"])
