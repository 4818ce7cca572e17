"""Long-horizon soak under continuous chaos: the steady-state benchmark.

Not a figure from the paper — this benchmark operates the paper's
machinery the way a *service* would (Sections 6-7 argue CARAT is meant
to run underneath long-lived workloads): four request-serving tenants,
a deliberately tight fast tier so the tiering balancer keeps generating
Figure-8 move traffic, and a seeded chaos schedule arming protocol
faults every epoch for the whole horizon.

Accept (the hard acceptance criteria of the soak harness):

* the headline soak (>=100k requests, 4 tenants, chaos rate 2.0)
  completes on **all three engines** with zero steady-state verdicts
  and zero sanitizer violations;
* every injected fault is absorbed — retried to success or degraded
  into a quarantine that *drained* (no quarantine outlives its
  cooldown, none is left at the end);
* the whole-run fingerprint is **bit-identical across engines and
  across a re-run with the same seed**;
* ``BENCH_soak.json`` records the headline run (throughput, p99
  latency, EFI trajectory, fault accounting) for the CI gate.

Scale with ``CARAT_SOAK_REQUESTS=20000 pytest
benchmarks/test_soak_steadystate.py`` for a quicker local pass.
"""

import json
import os
from pathlib import Path

from harness import emit_table

from repro.machine.session import RunConfig
from repro.soak import SoakRunner

REPO_ROOT = Path(__file__).parent.parent

REQUESTS = int(os.environ.get("CARAT_SOAK_REQUESTS", "100000"))
TENANTS = 4
CHAOS_RATE = 2.0
SEED = 77
ENGINES = ("reference", "fast", "trace")


def _soak(engine: str, seed: int = SEED):
    config = RunConfig(
        engine=engine,
        name="kvservice-soak",
        soak_requests=REQUESTS,
        soak_tenants=TENANTS,
        soak_horizon=400,
        soak_rounds_per_epoch=25,
        quantum=1000,
        chaos_rate=CHAOS_RATE,
        chaos_seed=seed,
    )
    runner = SoakRunner(
        config,
        crash_dump_path=str(REPO_ROOT / f"soak-crash-{engine}.json"),
    )
    return runner.run()


def test_soak_steady_state_headline():
    reports = {}
    for engine in ENGINES:
        report = _soak(engine)
        assert report.ok, (engine, [v["detail"] for v in report.verdicts])
        assert report.requests_completed == report.requests_target
        assert report.faults["fired"] > 0, "chaos never hit a move"
        # Every fault accounted for: retried to success, or degraded
        # into a quarantine that drained within its cooldown.
        assert report.faults["quarantines_stuck"] == 0
        assert (
            report.faults["quarantines_drained"]
            == report.faults["quarantines_entered"]
        )
        assert "0 error(s)" in report.sanitizer
        reports[engine] = report

    fingerprints = {r.fingerprint() for r in reports.values()}
    assert len(fingerprints) == 1, "engines diverged on the soak"

    rerun = _soak("fast")
    assert rerun.fingerprint() == reports["fast"].fingerprint(), (
        "same seed must reproduce the identical soak"
    )

    headline = reports["fast"]
    aggregate = {
        "schema": "carat.soakbench.v1",
        "workload": "kvservice",
        "requests": REQUESTS,
        "tenants": TENANTS,
        "chaos_rate": CHAOS_RATE,
        "seed": SEED,
        "engines": sorted(ENGINES),
        "fingerprint": headline.fingerprint(),
        "rerun_identical": True,
        "epochs": headline.epochs,
        "machine_cycles": headline.machine_cycles,
        "throughput_rpkc": round(headline.throughput_rpkc(), 4),
        "latency_p50": headline.latency_p50,
        "latency_p99": headline.latency_p99,
        "efi_trajectory": [round(v, 6) for v in headline.efi_trajectory],
        "faults": headline.faults,
        "verdicts": headline.verdicts,
        "dropped_events": headline.dropped_events,
        "sanitizer": headline.sanitizer,
    }
    (REPO_ROOT / "BENCH_soak.json").write_text(
        json.dumps(aggregate, indent=2) + "\n"
    )

    efi = headline.efi_trajectory
    emit_table(
        "soak_steadystate",
        f"Chaos soak: {REQUESTS} requests over {TENANTS} kvservice tenants "
        f"(chaos rate {CHAOS_RATE}, seed {SEED}; identical on "
        f"{'/'.join(ENGINES)})",
        ["metric", "value"],
        [
            ("epochs", headline.epochs),
            ("machine cycles", headline.machine_cycles),
            ("requests/kilocycle", round(headline.throughput_rpkc(), 3)),
            ("p50 latency (cycles)", headline.latency_p50),
            ("p99 latency (cycles)", headline.latency_p99),
            ("EFI first/last/max",
             f"{efi[0]:.4f}/{efi[-1]:.4f}/{max(efi):.4f}"),
            ("faults armed", headline.faults["injected"]),
            ("faults fired", headline.faults["fired"]),
            ("move retries", headline.faults["move_retries"]),
            ("moves degraded", headline.faults["moves_degraded"]),
            ("quarantines drained", headline.faults["quarantines_drained"]),
            ("dropped trace events", headline.dropped_events),
            ("verdicts", len(headline.verdicts)),
        ],
    )
