"""The fast-engine speedup benchmark (two-level fast path).

For the guard-heavy headline workloads this measures wall-clock under
the reference interpreter vs the pre-compiled fast engine, verifies that
both produce the *same* results (output, exit code, modeled cycles, and
guard counts — the engines' contract), and records the guard-cache hit
rate the epoch-invalidated region cache achieves.

Emitted artifacts:

* ``benchmarks/results/fastpath_<workload>.json`` — one file per
  benchmark with both engines' wall-clock and the cache counters;
* the repo-root ``BENCH_fastpath.json`` — the aggregate: per-workload
  speedups, the geomean, and the headline verdict.

The assertion floor here is the CI gate (fast must be at least 1.5x
faster on the headline workload at any scale); the committed
``BENCH_fastpath.json`` is generated at ``CARAT_BENCH_SCALE=small``,
where the headline speedup clears the 3x design target.
"""

import json
import time
from pathlib import Path

from harness import SCALE, _compile_options, emit_json, emit_table, geomean, run_carat

from repro.carat.pipeline import compile_carat
from repro.workloads import get_workload

#: Guard-heavy workloads; ``hpccg`` is the headline (first in the
#: paper's figure order).
WORKLOADS = ["hpccg", "cg", "ep"]
HEADLINE = "hpccg"

#: CI floor, deliberately below the 3x design target so tiny-scale smoke
#: runs on shared CI machines don't flake; the target is asserted on the
#: recorded numbers at small scale.
MIN_HEADLINE_SPEEDUP = 1.5
MIN_HIT_RATE = 0.90

REPO_ROOT = Path(__file__).parent.parent


def _timed_run(binary, workload, engine, repeats=5):
    """Best-of-N wall clock plus the last run's result (results are
    deterministic, so any run's numbers represent all of them)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_carat(binary, guard_mechanism="mpx", name=workload, engine=engine)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _comparable(result):
    return (
        result.exit_code,
        tuple(result.output),
        result.cycles,
        result.instructions,
        result.process.runtime.stats.guards_executed,
        result.process.runtime.stats.guard_faults,
    )


def test_fastpath_speedup():
    rows = []
    per_workload = {}
    for workload in WORKLOADS:
        source = get_workload(workload, SCALE).source
        binary = compile_carat(
            source, _compile_options("guards_carat"), module_name=workload
        )
        # One warm-up run populates the module's dispatch cache so the
        # measurement sees the steady state (compile-once, run-many).
        run_carat(binary, guard_mechanism="mpx", name=workload, engine="fast")
        ref_time, ref_result = _timed_run(binary, workload, "reference")
        fast_time, fast_result = _timed_run(binary, workload, "fast")
        assert _comparable(ref_result) == _comparable(fast_result), (
            f"{workload}: engines disagree"
        )
        rt = fast_result.process.runtime.stats
        hit_rate = rt.region_cache_hit_rate()
        speedup = ref_time / fast_time
        istats = fast_result.stats
        entry = {
            "scale": SCALE,
            "reference_seconds": round(ref_time, 6),
            "fast_seconds": round(fast_time, 6),
            "speedup": round(speedup, 3),
            "guard_cache_hits": rt.region_cache_hits,
            "guard_cache_misses": rt.region_cache_misses,
            "guard_cache_invalidations": rt.region_cache_invalidations,
            "guard_cache_hit_rate": round(hit_rate, 4),
            "compiled_blocks": istats.compiled_blocks,
            "dispatch_cache_hits": istats.dispatch_cache_hits,
            "dispatch_cache_misses": istats.dispatch_cache_misses,
            "cycles": fast_result.cycles,
            "guards_executed": rt.guards_executed,
        }
        per_workload[workload] = entry
        emit_json(f"fastpath_{workload}", {"workload": workload, **entry})
        rows.append(
            (workload, ref_time, fast_time, speedup, hit_rate)
        )

    speedups = [per_workload[w]["speedup"] for w in WORKLOADS]
    aggregate = {
        "scale": SCALE,
        "headline": HEADLINE,
        "headline_speedup": per_workload[HEADLINE]["speedup"],
        "headline_hit_rate": per_workload[HEADLINE]["guard_cache_hit_rate"],
        "geomean_speedup": round(geomean(speedups), 3),
        "min_headline_speedup": MIN_HEADLINE_SPEEDUP,
        "target_speedup": 3.0,
        "workloads": per_workload,
    }
    (REPO_ROOT / "BENCH_fastpath.json").write_text(
        json.dumps(aggregate, indent=2) + "\n"
    )

    emit_table(
        "fastpath_speedup",
        f"Fast-engine speedup vs reference interpreter ({SCALE} scale, "
        "guards_carat+mpx, best of 5)",
        ["benchmark", "ref_s", "fast_s", "speedup", "hit_rate"],
        rows,
        footer=[
            f"geomean speedup {aggregate['geomean_speedup']:.3f}x; "
            f"headline {HEADLINE} {aggregate['headline_speedup']:.2f}x "
            f"(floor {MIN_HEADLINE_SPEEDUP}x, target 3x at small scale)"
        ],
    )

    assert aggregate["headline_speedup"] >= MIN_HEADLINE_SPEEDUP
    assert aggregate["headline_hit_rate"] > MIN_HIT_RATE


def test_fastpath_sanitized_parity():
    """Both engines under the cross-layer sanitizer: the fast path must
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
        for engine in ("reference", "fast")
    }
    for engine, result in results.items():
        assert result.sanitizer is not None and result.sanitizer.ok, (
            f"{engine}: {result.sanitizer.describe()}"
        )
    assert _comparable(results["reference"]) == _comparable(results["fast"])
