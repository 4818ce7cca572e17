"""Telemetry contract sweep: zero disabled-mode cost, exact profiles.

Two guarantees the telemetry layer makes, checked against **every**
workload in the suite under **all three** engines:

1. **Nil overhead.**  A run with the tracer and profiler attached is
   cycle-identical (full fingerprint: output, instruction mix, every
   modeled counter) to a plain run — telemetry observes the cost model,
   it never participates in it.  A disabled-telemetry run takes the
   exact pre-telemetry code path, so this also pins the "zero cycle cost
   when disabled" property.

2. **Exact reconciliation.**  The profiler's buckets sum to
   ``InterpStats.cycles`` with drift 0 — not approximately: the buckets
   are differences of the same counters that form the total.  Plain
   workload runs perform no kernel-driven moves, so the ``policy`` and
   ``patching`` buckets must both be exactly 0, the function rows sum
   to ``InterpStats.instructions``, and every engine must produce the
   reference engine's buckets, function rows and allocation sites — the
   trace engine with its traces running.
"""

from __future__ import annotations

from harness import SCALE, SUITE, emit_json, emit_table
from repro.machine.session import CaratSession, RunConfig
from repro.telemetry import PROFILE_CATEGORIES, validate_events
from repro.workloads import get_workload

ENGINES = ("reference", "fast", "trace")


def _profiles():
    """(workload, engine) -> (plain RunResult, telemetry RunResult)."""
    for workload in SUITE:
        source = get_workload(workload, SCALE).source
        binary = None
        for engine in ENGINES:
            plain_config = RunConfig(engine=engine, name=workload)
            plain_session = CaratSession(plain_config)
            plain = plain_session.run(binary if binary is not None else source)
            binary = plain.binary  # compile once per workload
            telem_config = plain_config.replace(
                profile=True, trace=True, trace_detail="normal"
            )
            telem = CaratSession(telem_config).run(binary)
            yield workload, engine, plain, telem


def test_telemetry_contract_suite_sweep():
    rows = []
    payload = {}
    reference_profiles = {}
    for workload, engine, plain, telem in _profiles():
        profile = telem.profile
        # 1. Nil overhead: full behavioral fingerprint equality.
        assert telem.fingerprint() == plain.fingerprint(), (
            f"{workload}/{engine}: telemetry perturbed the run"
        )
        # 2. Exact reconciliation, by the profiler's own assertion and
        #    again by hand.
        profile.assert_reconciles(telem.stats)
        drift = sum(profile.buckets.values()) - telem.cycles
        assert drift == 0, f"{workload}/{engine}: drift {drift:+d}"
        assert profile.buckets["policy"] == 0, f"{workload}/{engine}"
        assert profile.buckets["patching"] == 0, f"{workload}/{engine}"
        # Category split agrees with the stats counters it derives from.
        assert profile.buckets["guard"] == telem.stats.guard_cycles
        assert profile.buckets["tracking"] == telem.stats.tracking_cycles
        instructions = sum(
            row["instructions"] for row in profile.functions().values()
        )
        assert instructions == telem.stats.instructions, f"{workload}/{engine}"
        attribution = (
            dict(profile.buckets), profile.functions(), profile.sites()
        )
        # The trace that rode along is schema-valid.
        assert validate_events(
            [e.to_dict() for e in telem.tracer.events]
        ) == []
        if engine == "reference":
            reference_profiles[workload] = attribution
            rows.append([
                workload,
                telem.cycles,
                profile.buckets["app"],
                profile.buckets["guard"],
                profile.buckets["tracking"],
                len(telem.tracer.events),
                "0",
            ])
            payload[workload] = {
                "cycles": telem.cycles,
                "buckets": dict(profile.buckets),
                "trace_events": len(telem.tracer.events),
            }
        else:
            # 3. Every engine attributes identically, bucket for bucket,
            #    function for function and site for site.
            assert attribution == reference_profiles[workload], (
                f"{workload}: {engine} disagrees on attribution"
            )
            if engine == "trace":
                assert telem.stats.traces_compiled > 0, (
                    f"{workload}: no trace ran under the profiler"
                )

    assert len(rows) == len(SUITE)
    emit_table(
        "telemetry_overhead",
        f"Telemetry contract ({SCALE}): profiled cycles == plain cycles, "
        "buckets reconcile with drift 0 on all three engines",
        ["workload", "cycles", "app", "guard", "tracking", "events", "drift"],
        rows,
        footer=[
            f"categories: {', '.join(PROFILE_CATEGORIES)}",
            "fingerprint(plain) == fingerprint(profiled+traced) for every "
            "row, under all three engines",
        ],
    )
    emit_json("telemetry_overhead", {"scale": SCALE, "workloads": payload})
