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
  latency, EFI, fault accounting) and a row per engine.

Scale with ``CARAT_SOAK_REQUESTS=20000 pytest
benchmarks/test_soak_steadystate.py`` for a quicker local pass.
"""

import os

from harness import REPO_ROOT, emit_bench, emit_table, metric

from repro.machine.session import RunConfig
from repro.soak import SoakRunner

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
    reports = {engine: _soak(engine) for engine in ENGINES}
    rows = [
        {
            "engine": engine,
            "fingerprint": r.fingerprint(),
            "completed_run": r.completed_run,
            "requests_target": r.requests_target,
            "requests_completed": r.requests_completed,
            "verdicts": [v["name"] for v in r.verdicts],
            "sanitizer": r.sanitizer,
            "faults": r.faults,
        }
        for engine, r in reports.items()
    ]
    headline = reports["fast"]
    faults = headline.faults
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
            ("faults armed", faults["injected"]),
            ("faults fired", faults["fired"]),
            ("move retries", faults["move_retries"]),
            ("moves degraded", faults["moves_degraded"]),
            ("quarantines drained", faults["quarantines_drained"]),
            ("dropped trace events", headline.dropped_events),
            ("verdicts", len(headline.verdicts)),
        ],
    )
    # The gates hold on every engine: a finished run with no verdict,
    # every request of the target served, chaos that really hit moves,
    # and every fault absorbed -- retried to success, or degraded into a
    # quarantine that drained within its cooldown.
    runs = reports.values()
    emit_bench(
        "soak",
        {"workload": "kvservice", "requests": REQUESTS, "tenants": TENANTS,
         "chaos_rate": CHAOS_RATE, "seed": SEED, "engines": list(ENGINES)},
        {
            "fingerprint": metric(headline.fingerprint(), "sha256"),
            "runs_not_ok": metric(
                sum(not r.ok for r in runs), "runs", "lower", 0),
            "requests_off_target": metric(
                sum(abs(r.requests_target - r.requests_completed) for r in runs),
                "requests", "lower", 0),
            "faults_fired_min": metric(
                min(r.faults["fired"] for r in runs), "faults", "higher", 1),
            "quarantines_stuck": metric(
                sum(r.faults["quarantines_stuck"] for r in runs),
                "quarantines", "lower", 0),
            "quarantines_undrained": metric(
                sum(r.faults["quarantines_entered"]
                    - r.faults["quarantines_drained"] for r in runs),
                "quarantines", "lower", 0),
            "epochs": metric(headline.epochs, "epochs"),
            "machine_cycles": metric(headline.machine_cycles, "cycles", "lower"),
            "throughput_rpkc": metric(
                round(headline.throughput_rpkc(), 4), "requests/kcycle",
                "higher"),
            "latency_p50": metric(headline.latency_p50, "cycles", "lower"),
            "latency_p99": metric(headline.latency_p99, "cycles", "lower"),
            "efi_first": metric(round(efi[0], 6), "EFI", "lower"),
            "efi_last": metric(round(efi[-1], 6), "EFI", "lower"),
            "efi_max": metric(round(max(efi), 6), "EFI", "lower"),
            "faults_injected": metric(faults["injected"], "faults"),
            "move_retries": metric(faults["move_retries"], "retries"),
            "moves_degraded": metric(faults["moves_degraded"], "moves"),
            "dropped_events": metric(headline.dropped_events, "events", "lower"),
        },
        rows,
    )

    for engine, report in reports.items():
        assert "0 error(s)" in report.sanitizer, (engine, report.sanitizer)
    fingerprints = {r.fingerprint() for r in reports.values()}
    assert len(fingerprints) == 1, "engines diverged on the soak"
    rerun = _soak("fast")
    assert rerun.fingerprint() == headline.fingerprint(), (
        "same seed must reproduce the identical soak"
    )
