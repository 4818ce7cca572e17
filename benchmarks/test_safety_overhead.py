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

Emitted artifacts:

* ``benchmarks/results/safety_<workload>.json`` — one file per
  workload with per-engine cycles/checks/overhead;
* the repo-root ``BENCH_safety.json`` — the aggregate: per-workload
  overheads, the geomean, and the detection-matrix verdict.

The assertion floor doubles as the CI gate: detection must be 4/4 on
every engine, outputs must be bit-identical with safety on, and the
geomean cycle overhead must stay under the design ceiling.
"""

import json
from pathlib import Path

import pytest

from harness import SCALE, emit_json, emit_table, geomean, run_carat

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

REPO_ROOT = Path(__file__).parent.parent


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
    rows = []
    per_workload = {}
    for workload in WORKLOADS:
        source = get_workload(workload, SCALE).source
        engines = {}
        for engine in ENGINES:
            plain, checked, safety = _pair(source, workload, engine)
            overhead = checked.cycles / plain.cycles
            engines[engine] = {
                "plain_cycles": plain.cycles,
                "safety_cycles": checked.cycles,
                "overhead": round(overhead, 4),
                "checks": safety.checks,
                "tombstones": len(safety.tombstones),
            }
        entry = {"scale": SCALE, "engines": engines}
        per_workload[workload] = entry
        emit_json(f"safety_{workload}", {"workload": workload, **entry})
        ref = engines["reference"]
        rows.append(
            (
                workload,
                ref["plain_cycles"],
                ref["safety_cycles"],
                ref["overhead"],
                ref["checks"],
            )
        )

    detection = {}
    for engine in ENGINES:
        verdicts = {}
        for name, expected in sorted(EXPECTED_KINDS.items()):
            bug = adversarial_workload(name, "tiny")
            with pytest.raises(SafetyFault) as fault:
                run_carat(bug.source, name=name, engine=engine, safety=True)
            assert fault.value.violation.kind == expected
            verdicts[name] = fault.value.violation.kind
        detection[engine] = verdicts

    overheads = [
        per_workload[w]["engines"]["reference"]["overhead"] for w in WORKLOADS
    ]
    aggregate = {
        "scale": SCALE,
        "geomean_overhead": round(geomean(overheads), 4),
        "max_geomean_overhead": MAX_GEOMEAN_OVERHEAD,
        "detected": sum(len(v) for v in detection.values()),
        "expected_detections": len(EXPECTED_KINDS) * len(ENGINES),
        "detection": detection,
        "workloads": per_workload,
    }
    (REPO_ROOT / "BENCH_safety.json").write_text(
        json.dumps(aggregate, indent=2) + "\n"
    )

    emit_table(
        "safety_overhead",
        f"Safety-mode modeled-cycle overhead ({SCALE} scale, reference "
        "engine; detection matrix on all three)",
        ["benchmark", "plain_cyc", "safety_cyc", "overhead", "checks"],
        rows,
        footer=[
            f"geomean overhead {aggregate['geomean_overhead']:.3f}x "
            f"(ceiling {MAX_GEOMEAN_OVERHEAD}x); detection "
            f"{aggregate['detected']}/{aggregate['expected_detections']} "
            "planted bugs across engines"
        ],
    )

    assert aggregate["detected"] == aggregate["expected_detections"]
    assert aggregate["geomean_overhead"] < MAX_GEOMEAN_OVERHEAD
