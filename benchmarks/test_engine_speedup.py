"""Engine speedup: the fast and trace engines against the reference
interpreter on the guard-heavy headline workloads.

Per workload the three engines run one ``guards_carat`` binary with
their samples interleaved (reference, fast, trace, reference, ...), so
slow drift in machine load biases no engine; each engine's time is its
best of 7.  A speedup is a ratio of two times taken in one process, so
machine speed cancels out of it and the gates need no calibration.  The
engines must agree on output, exit code, modeled cycles and guard
counts (their contract).

Emitted: the repo-root ``BENCH_engines.json`` (committed at
``CARAT_BENCH_SCALE=small``) and the host table ``engine_speedup.txt``.
The gates are floors under the design targets, so tiny-scale runs on
shared CI machines do not flake: the fast headline at least 1.5x with a
guard-cache hit rate above 0.90, and the trace headline at least 2x.
"""

import time

from harness import (
    SCALE, _compile_options, above, emit_bench, emit_table, geomean, metric,
    run_carat,
)

from repro.carat.pipeline import compile_carat
from repro.workloads import get_workload

#: Guard-heavy workloads; ``hpccg`` is the headline (first in the
#: paper's figure order).  ``ep`` is the trace tier's stress case: its
#: hot loop calls a defined function (inlined as a frame-spanning trace)
#: and branches on random data, so it side-exits every few iterations.
WORKLOADS = ["hpccg", "cg", "ep"]
HEADLINE = "hpccg"
ENGINES = ("reference", "fast", "trace")
REPEATS = 7


def _comparable(result):
    return (
        result.exit_code,
        tuple(result.output),
        result.cycles,
        result.instructions,
        result.process.runtime.stats.guards_executed,
        result.process.runtime.stats.guard_faults,
    )


def _timed(binary, workload):
    """Best-of-``REPEATS`` wall clock per engine, samples interleaved,
    and the last result of each (runs are deterministic)."""
    # Warm-up runs fill the module's dispatch and trace-code caches, so
    # the timings see the steady state (compile once, run many).
    for engine in ENGINES[1:]:
        run_carat(binary, guard_mechanism="mpx", name=workload, engine=engine)
    best = dict.fromkeys(ENGINES, float("inf"))
    results = {}
    for _ in range(REPEATS):
        for engine in ENGINES:
            t0 = time.perf_counter()
            results[engine] = run_carat(
                binary, guard_mechanism="mpx", name=workload, engine=engine
            )
            best[engine] = min(best[engine], time.perf_counter() - t0)
    return best, results


def test_engine_speedup():
    rows = []
    for workload in WORKLOADS:
        source = get_workload(workload, SCALE).source
        binary = compile_carat(
            source, _compile_options("guards_carat"), module_name=workload
        )
        best, results = _timed(binary, workload)
        reference = _comparable(results["reference"])
        for engine in ENGINES[1:]:
            assert _comparable(results[engine]) == reference, (
                f"{workload}: {engine} disagrees with the reference engine"
            )
        fast, trace = results["fast"], results["trace"]
        rt = fast.process.runtime.stats
        rows.append({
            "workload": workload,
            "reference_seconds": round(best["reference"], 6),
            "fast_seconds": round(best["fast"], 6),
            "trace_seconds": round(best["trace"], 6),
            "fast_speedup": round(best["reference"] / best["fast"], 3),
            "trace_speedup": round(best["reference"] / best["trace"], 3),
            "guard_cache_hits": rt.region_cache_hits,
            "guard_cache_misses": rt.region_cache_misses,
            "guard_cache_invalidations": rt.region_cache_invalidations,
            "guard_cache_hit_rate": round(rt.region_cache_hit_rate(), 4),
            "compiled_blocks": fast.stats.compiled_blocks,
            "dispatch_cache_hits": fast.stats.dispatch_cache_hits,
            "dispatch_cache_misses": fast.stats.dispatch_cache_misses,
            "traces_compiled": trace.stats.traces_compiled,
            "trace_exits": trace.stats.trace_exits,
            "trace_respecializations": trace.stats.trace_respecializations,
            "guard_checks_elided": trace.stats.guard_checks_elided,
            "cycles": fast.cycles,
            "guards_executed": rt.guards_executed,
        })

    headline = rows[0]
    fast_geomean = round(geomean([r["fast_speedup"] for r in rows]), 3)
    trace_geomean = round(geomean([r["trace_speedup"] for r in rows]), 3)
    emit_table(
        "engine_speedup",
        f"Engine speedup vs reference interpreter ({SCALE} scale, "
        f"guards_carat+mpx, interleaved best of {REPEATS})",
        ["benchmark", "ref_s", "fast_s", "trace_s", "fast_x", "trace_x",
         "hit_rate", "traces", "exits"],
        [
            (r["workload"], r["reference_seconds"], r["fast_seconds"],
             r["trace_seconds"], r["fast_speedup"], r["trace_speedup"],
             r["guard_cache_hit_rate"], r["traces_compiled"], r["trace_exits"])
            for r in rows
        ],
        footer=[
            f"geomean speedup fast {fast_geomean:.3f}x, trace "
            f"{trace_geomean:.3f}x; headline {HEADLINE} fast "
            f"{headline['fast_speedup']:.2f}x (floor 1.5x), trace "
            f"{headline['trace_speedup']:.2f}x (floor 2.0x)",
            "design targets at small scale: fast 3x headline, trace 6x geomean",
        ],
    )
    emit_bench(
        "engines",
        {"scale": SCALE, "binary": "guards_carat+mpx", "workloads": WORKLOADS,
         "headline": HEADLINE, "repeats": REPEATS},
        {
            "fast.headline_speedup": metric(
                headline["fast_speedup"], "x", "higher", 1.5),
            "fast.headline_hit_rate": metric(
                headline["guard_cache_hit_rate"], "ratio", "higher", above(0.90)),
            "fast.geomean_speedup": metric(fast_geomean, "x", "higher"),
            "trace.headline_speedup": metric(
                headline["trace_speedup"], "x", "higher", 2.0),
            "trace.geomean_speedup": metric(trace_geomean, "x", "higher"),
        },
        rows,
    )


def test_engine_sanitized_parity():
    """All three engines under the cross-layer sanitizer: neither fast
    engine may trip an invariant the reference run does not."""
    source = get_workload(HEADLINE, "tiny").source
    binary = compile_carat(source, _compile_options("full"), module_name=HEADLINE)
    results = {
        engine: run_carat(
            binary, guard_mechanism="mpx", name=HEADLINE,
            sanitize=True, engine=engine,
        )
        for engine in ENGINES
    }
    for engine, result in results.items():
        assert result.sanitizer is not None and result.sanitizer.ok, (
            f"{engine}: {result.sanitizer.describe()}"
        )
        assert _comparable(result) == _comparable(results["reference"]), engine
