"""Safety-mode overhead and detection benchmark (``--safety``).

Safety mode answers CryptSan's question — does every region-legal
access land in memory the program currently *owns?* — by probing the
allocation table behind each guard.  This benchmark records what that
oracle costs and what it buys:

* **Overhead** — modeled-cycle inflation of ``safety=True`` vs plain
  CARAT guards per workload per engine, plus the check count (every
  checked access pays two extra rb-tree probes).
* **Detection** — the adversarial matrix: all four planted bugs
  (use-after-free and out-of-bounds, read and write) must raise
  :class:`~repro.errors.SafetyFault` on every engine.

Emitted: the repo-root ``BENCH_safety.json`` (a row per workload and
engine, and per planted bug and engine) and the table
``safety_overhead.txt``, both at ``CARAT_BENCH_SCALE=small``; CI's
``tables`` job diffs both.  The gates: detection must be 4/4 on every
engine, outputs must be bit-identical with safety on, and the geomean
cycle overhead must stay under the design ceiling.
"""

from harness import SCALE, below, emit_bench, emit_table, geomean, metric, run_carat

from repro.errors import SafetyFault
from repro.workloads import get_workload
from repro.workloads.adversarial import EXPECTED_KINDS, adversarial_workload

#: Guard-heavy headliners plus the DMA streaming service — the workload
#: whose agents motivated giving safety mode the same mediated API.
WORKLOADS = ["hpccg", "cg", "dmastream"]
ENGINES = ["reference", "fast", "trace"]

#: Design ceiling for the geomean modeled-cycle overhead.  CryptSan
#: reports ~2x worst case on SPEC; our table probe is cheaper than its
#: HMAC recompute, so the modeled geomean must stay well under that.
MAX_GEOMEAN_OVERHEAD = 2.0


def _pair(source, workload, engine):
    plain = run_carat(source, name=workload, engine=engine)
    checked = run_carat(source, name=workload, engine=engine, safety=True)
    assert checked.exit_code == plain.exit_code == 0
    assert checked.output == plain.output, f"{workload}/{engine}: output drift"
    safety = checked.process.runtime.safety
    assert safety is not None and not safety.violations, (
        f"{workload}/{engine}: false positive: {safety.describe()}"
    )
    return plain, checked, safety


def test_safety_overhead():
    overheads = []
    for workload in WORKLOADS:
        source = get_workload(workload, SCALE).source
        for engine in ENGINES:
            plain, checked, safety = _pair(source, workload, engine)
            overheads.append({
                "workload": workload,
                "engine": engine,
                "plain_cycles": plain.cycles,
                "safety_cycles": checked.cycles,
                "overhead": round(checked.cycles / plain.cycles, 4),
                "checks": safety.checks,
                "tombstones": len(safety.tombstones),
            })

    detections = []
    for engine in ENGINES:
        for name, expected in sorted(EXPECTED_KINDS.items()):
            bug = adversarial_workload(name, "tiny")
            try:
                run_carat(bug.source, name=name, engine=engine, safety=True)
                detected = None
            except SafetyFault as fault:
                detected = fault.violation.kind
            detections.append({
                "bug": name, "engine": engine,
                "expected": expected, "detected": detected,
            })

    reference = [r for r in overheads if r["engine"] == "reference"]
    overhead = round(geomean([r["overhead"] for r in reference]), 4)
    detected = sum(r["detected"] == r["expected"] for r in detections)
    expected = len(EXPECTED_KINDS) * len(ENGINES)
    emit_table(
        "safety_overhead",
        f"Safety-mode modeled-cycle overhead ({SCALE} scale, reference "
        "engine; detection matrix on all three)",
        ["benchmark", "plain_cyc", "safety_cyc", "overhead", "checks"],
        [
            (r["workload"], r["plain_cycles"], r["safety_cycles"],
             r["overhead"], r["checks"])
            for r in reference
        ],
        footer=[
            f"geomean overhead {overhead:.3f}x "
            f"(ceiling {MAX_GEOMEAN_OVERHEAD}x); detection "
            f"{detected}/{expected} planted bugs across engines"
        ],
    )
    emit_bench(
        "safety",
        {"scale": SCALE, "workloads": WORKLOADS, "engines": ENGINES,
         "bugs": sorted(EXPECTED_KINDS)},
        {
            "geomean_overhead": metric(
                overhead, "x", "lower", below(MAX_GEOMEAN_OVERHEAD)),
            "detections": metric(detected, "bugs", "higher", expected),
        },
        overheads + detections,
    )
