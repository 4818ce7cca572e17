"""The multi-tenant kernel: scheduler, CoW sharing, fairness arbitration.

Four pillars:

* **isolation** — every tenant is a full per-PID capsule; a move (or CoW
  break) in tenant A never touches tenant B's region generation, stats,
  or pause log;
* **correctness under sharing** — identical images deduplicate to one
  physical copy, writes CoW-break out through the transactional move
  path, and every tenant computes exactly what it would alone;
* **determinism** — a schedule is a pure function of (specs, config):
  re-runs are fingerprint-identical, and with sharing off each tenant's
  fingerprint equals its solo run, under both engines (hypothesis);
* **sanitizer teeth** — the cross-process frame-ownership and shared-CoW
  rules flag injected corruption (a rule that never fires measures
  nothing).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carat.pipeline import compile_carat
from repro.errors import ProtectionFault
from repro.kernel.kernel import Kernel
from repro.kernel.pagetable import PAGE_SIZE
from repro.machine.interp import Interpreter
from repro.machine.session import CaratSession, RunConfig
from repro.machine.threads import ThreadGroup, ThreadSpec
from repro.multiproc import (
    FairnessArbiter,
    Scheduler,
    ShareManager,
    TenantSpec,
)
from repro.multiproc.scheduler import percentile
from repro.runtime.regions import PERM_RW, Region
from repro.sanitizer import FaultInjector, InvariantChecker
from repro.telemetry import validate_events
from tests.conftest import LINKED_LIST_SOURCE, SUM_SOURCE

#: Writes a global in a loop: under sharing, the globals page must
#: CoW-break on the first store and every tenant still prints 1275.
COUNTER_SOURCE = """
long counter;
void main() {
  long i;
  for (i = 1; i <= 50; i++) { counter = counter + i; }
  print_long(counter);
}
"""

#: Touches only locals — never stores a global, so under sharing its
#: image stays pristine and it performs zero moves.
PURE_SOURCE = """
void main() {
  long i;
  long s = 0;
  for (i = 1; i <= 50; i++) { s = s + i; }
  print_long(s);
}
"""

ENGINES = ["reference", "fast", "trace"]

#: Capsule sizes for direct ``load_carat`` calls (the kernel default is
#: an 8 MiB heap — far too big for multi-tenant unit fixtures).
SMALL = dict(heap_size=128 * 1024, stack_size=32 * 1024)


def _config(engine="reference", **overrides):
    base = dict(
        engine=engine,
        sanitize=True,
        quantum=123,
        heap_size=64 * 1024,
        stack_size=16 * 1024,
    )
    base.update(overrides)
    return RunConfig(**base)


def _schedule(specs, engine="reference", **kwargs):
    config = kwargs.pop("config", None) or _config(engine)
    return Scheduler(config, specs, **kwargs).run()


# ---------------------------------------------------------------------------
# Configuration plumbing (the quantum satellite)
# ---------------------------------------------------------------------------


class TestQuantumConfig:
    @pytest.mark.parametrize("bad", [0, -5, "400", 3.5])
    def test_quantum_validated(self, bad):
        with pytest.raises((ValueError, TypeError)):
            RunConfig(quantum=bad)

    def test_thread_group_takes_config_quantum(self):
        binary = compile_carat(SUM_SOURCE)
        kernel = Kernel(8 << 20)
        process = kernel.load_carat(binary, **SMALL)
        group = ThreadGroup.from_config(
            process,
            kernel,
            [ThreadSpec("main")],
            _config(quantum=77, sanitize=False),
        )
        assert group.quantum == 77

    def test_scheduler_quantum_bounds_run_steps(self):
        result = _schedule(
            [TenantSpec(SUM_SOURCE), TenantSpec(SUM_SOURCE)],
            config=_config(quantum=13),
        )
        # 13-instruction slices force many rounds.
        assert result.rounds > 10

    def test_tenant_weight_validated(self):
        with pytest.raises(ValueError):
            TenantSpec(SUM_SOURCE, weight=0)


# ---------------------------------------------------------------------------
# Scheduling and isolation
# ---------------------------------------------------------------------------


class TestScheduling:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tenants_run_to_completion(self, engine):
        result = _schedule(
            [
                TenantSpec(SUM_SOURCE, name="sum"),
                TenantSpec(LINKED_LIST_SOURCE, name="list"),
                TenantSpec(COUNTER_SOURCE, name="counter"),
            ],
            engine=engine,
        )
        outputs = {r.process.name: r.output for r in result.tenants.values()}
        assert outputs == {
            "sum": ["2016"],
            "list": ["780"],
            "counter": ["1275"],
        }
        assert all(r.exit_code == 0 for r in result.tenants.values())
        assert result.machine_cycles == sum(
            r.stats.cycles for r in result.tenants.values()
        )

    def test_rerun_is_fingerprint_identical(self):
        specs = [
            TenantSpec(SUM_SOURCE),
            TenantSpec(LINKED_LIST_SOURCE),
            TenantSpec(COUNTER_SOURCE),
        ]
        first = _schedule(specs)
        second = _schedule(specs)
        assert first.fingerprints() == second.fingerprints()

    def test_per_tenant_stats_are_isolated(self):
        result = _schedule(
            [TenantSpec(PURE_SOURCE), TenantSpec(COUNTER_SOURCE)],
            share=True,
        )
        kernel = next(iter(result.tenants.values())).kernel
        # Only the counter tenant (pid 2) writes a globals page, so only
        # it attempts a move and pays a pause.
        assert kernel.tenant_stats[2].moves_attempted >= 1
        # The pure tenant never charged a stat, so it has no block at
        # all — the strongest form of "A's moves never land on B".
        assert kernel.stats_for(1).moves_attempted == 0
        assert 1 not in result.pauses and 2 in result.pauses

    def test_move_in_one_tenant_leaves_others_generation_alone(self):
        """The per-PID heart of the tentpole: a CoW break (a full
        transactional page move) in tenant A must not bump tenant B's
        region generation — B's guard caches and TLB stay warm."""
        kernel = Kernel(8 << 20)
        kernel.attach_shares(ShareManager(kernel))
        binary = compile_carat(COUNTER_SOURCE)
        a = kernel.load_carat(binary, share=True, **SMALL)
        b = kernel.load_carat(binary, share=True, **SMALL)
        interp = Interpreter(a, kernel)
        interp.start("main", ())
        b_version = b.regions.version
        a_version = a.regions.version
        with pytest.raises(ProtectionFault) as exc:
            interp.run_steps(10_000_000)
        serviced = kernel.shares.service_write_fault(a, interp, exc.value)
        assert serviced is not None and serviced > 0
        assert a.regions.version > a_version  # A's caches invalidate...
        assert b.regions.version == b_version  # ...B's never notice.
        assert interp.run_steps(10_000_000) == "done"
        assert interp.exit_code == 0
        assert interp.output == ["1275"]


# ---------------------------------------------------------------------------
# CoW sharing
# ---------------------------------------------------------------------------


class TestCowSharing:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_write_isolation_and_dedup(self, engine):
        result = _schedule(
            [TenantSpec(COUNTER_SOURCE, name=f"t{i}") for i in range(3)],
            engine=engine,
            share=True,
        )
        assert [r.output for r in result.tenants.values()] == [["1275"]] * 3
        dedup = result.dedup
        assert dedup["cow_breaks"] == 3  # one globals-page break each
        # The code page never breaks: three members, one physical copy.
        assert dedup["saved_pages"] >= 2
        assert all(len(result.pauses[pid]) >= 1 for pid in result.tenants)

    def test_sharing_preserves_solo_output(self):
        config = _config()
        solo = CaratSession(config).run(COUNTER_SOURCE)
        shared = _schedule(
            [TenantSpec(COUNTER_SOURCE) for _ in range(4)],
            config=config,
            share=True,
        )
        for tenant in shared.tenants.values():
            assert tenant.output == solo.output
            assert tenant.exit_code == solo.exit_code

    def test_schedule_honours_fault_and_retry_config(self):
        """A schedule wires the kernel from its config like a single run
        does: the injected fault fires in a CoW break, the break retries
        under the configured policy, and every tenant's output holds."""
        from repro.workloads import get_workload

        source = get_workload("ep", "tiny").source
        specs = [TenantSpec(source, name=f"ep{i}") for i in range(4)]
        plain = _schedule(specs, engine="fast", share=True)
        config = _config(
            "fast", inject_faults="copy-data:crash:0", max_retries=2
        )
        scheduler = Scheduler(config, specs, share=True)
        faulted = scheduler.run()
        kernel = scheduler.kernel
        assert kernel.retry_policy.max_attempts == 2
        assert kernel.fault_injector.fired
        assert kernel.degradation is not None
        assert kernel.stats.move_retries >= 1
        assert faulted.dedup["cow_breaks"] == plain.dedup["cow_breaks"] == 4
        for pid, result in faulted.tenants.items():
            assert result.output == plain.tenants[pid].output
            assert result.exit_code == 0

    def test_distinct_programs_never_share(self):
        result = _schedule(
            [TenantSpec(PURE_SOURCE), TenantSpec(LINKED_LIST_SOURCE)],
            share=True,
        )
        # Two different images: each tenant has its own group, so no
        # page is ever held by more than one member.
        assert result.dedup["saved_pages"] == 0
        outputs = sorted(r.output[0] for r in result.tenants.values())
        assert outputs == ["1275", "780"]

    def test_detach_reattach_roundtrip(self):
        kernel = Kernel(4 << 20)
        shares = ShareManager(kernel)
        kernel.attach_shares(shares)
        base = kernel.frames.alloc_address(2)
        group = shares.register("img", base, 2)
        shares.attach(group, 1)
        shares.attach(group, 2)

        holder = []
        shares.detach_range(1, base, 1, holder)
        assert group.members[1] == {1}  # page 0 detached, page 1 kept
        assert shares.range_shared(1, base, base + PAGE_SIZE) is False
        shares.reattach_range(1, base, 1, holder)
        assert group.members[1] == {0, 1}
        assert shares.range_shared(1, base, base + PAGE_SIZE) is True

        # Full collapse: the last member detaching frees the run...
        holder_a, holder_b = [], []
        shares.detach_range(1, base, 2, holder_a)
        shares.detach_range(2, base, 2, holder_b)
        assert shares.lookup("img") is None
        assert kernel.frames.frame_is_free(base // PAGE_SIZE)
        # ...and rollback re-claims the frames and re-registers the group.
        shares.reattach_range(2, base, 2, holder_b)
        assert shares.lookup("img") is group
        assert not kernel.frames.frame_is_free(base // PAGE_SIZE)


# ---------------------------------------------------------------------------
# Sanitizer: cross-process rules and their teeth
# ---------------------------------------------------------------------------


def _shared_pair():
    kernel = Kernel(8 << 20)
    kernel.attach_shares(ShareManager(kernel))
    binary = compile_carat(COUNTER_SOURCE)
    a = kernel.load_carat(binary, share=True, **SMALL)
    b = kernel.load_carat(binary, share=True, **SMALL)
    return kernel, a, b


class TestCrossProcessSanitizer:
    def test_registered_sharing_is_clean(self):
        kernel, _, _ = _shared_pair()
        assert InvariantChecker().check_kernel(kernel).ok

    def test_corrupt_cow_share_detected(self):
        kernel, a, _ = _shared_pair()
        checker = InvariantChecker()
        assert checker.check_kernel(kernel).ok
        FaultInjector(kernel).corrupt_cow_share(a)
        report = checker.check_kernel(kernel)
        assert not report.ok
        assert report.by_rule("shared-cow")

    def test_unregistered_double_claim_detected(self):
        """Two PIDs mapping one frame outside the share table is exactly
        the corruption the cross-process ownership rule exists for."""
        kernel, a, b = _shared_pair()
        private = next(r for r in a.regions if r.allows("write"))
        b.regions.add(Region(private.base, PAGE_SIZE, PERM_RW))
        report = InvariantChecker().check_kernel(kernel)
        assert not report.ok
        assert any(
            "claimed by both" in v.message
            for v in report.by_rule("frame-ownership")
        )

    def test_canonical_hold_is_not_a_leak(self):
        """Frames a group holds after every member CoW-broke away are
        deliberate (late attachers find pristine pages), not leaks."""
        kernel, a, b = _shared_pair()
        for process in (a, b):
            interp = Interpreter(process, kernel)
            interp.start("main", ())
            with pytest.raises(ProtectionFault) as exc:
                interp.run_steps(10_000_000)
            assert kernel.shares.service_write_fault(
                process, interp, exc.value
            )
            assert interp.run_steps(10_000_000) == "done"
            assert interp.output == ["1275"]
        group = next(iter(kernel.shares.groups.values()))
        assert group.refcount(0) == 0  # both members broke the page...
        report = InvariantChecker().check_kernel(kernel)
        assert report.ok  # ...yet its canonical frame is not "leaked".

    def test_scheduled_run_passes_sanitizer_end_to_end(self):
        result = _schedule(
            [TenantSpec(COUNTER_SOURCE) for _ in range(3)],
            share=True,
        )
        # Sanitizer raises on violation, so completion means clean; the
        # assertion documents that checks actually ran.
        assert all(r.exit_code == 0 for r in result.tenants.values())


# ---------------------------------------------------------------------------
# Fairness arbitration
# ---------------------------------------------------------------------------


class TestArbiter:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            FairnessArbiter(epoch_cycles=0)
        with pytest.raises(ValueError):
            FairnessArbiter(demote_pressure=0.0)

    def test_epochs_run_and_budgets_respected(self):
        arbiter = FairnessArbiter(epoch_cycles=500, budget_cycles=4000)
        result = _schedule(
            [
                TenantSpec(COUNTER_SOURCE, weight=1),
                TenantSpec(COUNTER_SOURCE, weight=3),
            ],
            share=True,
            arbiter=arbiter,
        )
        summary = result.arbitration
        assert summary["epochs_run"] > 0
        assert summary["budgets_respected"] is True
        weights = {
            info["weight"] for info in summary["tenants"].values()
        }
        assert weights == {1, 3}
        assert all(r.exit_code == 0 for r in result.tenants.values())

    def test_weighted_shares_wired_and_audited(self):
        """Regression: ``wire()`` used to hand every tenant the whole-
        machine budget as its contract, so ``budgets_respected()``
        audited spend against a limit no tenant was actually given.
        The wired contract must be the weighted share ``on_round``
        enforces — here 1000/3000 of a 4000-cycle budget."""
        arbiter = FairnessArbiter(epoch_cycles=500, budget_cycles=4000)
        result = _schedule(
            [
                TenantSpec(COUNTER_SOURCE, weight=1),
                TenantSpec(COUNTER_SOURCE, weight=3),
            ],
            share=True,
            arbiter=arbiter,
        )
        shares = {
            state.tenant.spec.weight: state.stats.budget_cycles
            for state in arbiter.states.values()
        }
        assert shares == {1: 1000, 3: 3000}
        # Every per-epoch spend (pressure demotions included — they book
        # into the same ledger) stayed within the *corrected* share.
        for state in arbiter.states.values():
            assert all(
                spent <= state.stats.budget_cycles
                for spent in state.stats.epoch_move_cycles
            )
        assert arbiter.budgets_respected()
        assert result.arbitration["budgets_respected"] is True


# ---------------------------------------------------------------------------
# Percentile math (the p99 the scheduler reports)
# ---------------------------------------------------------------------------


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0

    def test_float_boundary_cases_exact(self):
        """Regression: rank was ``ceil(n * fraction)`` in *float*
        arithmetic, and binary rounding pushes products like
        ``20 * 0.35`` to 7.000000000000001 — ceil'd to rank 8 instead
        of 7.  Same story for ``100 * 0.99``."""
        assert percentile(list(range(1, 21)), 0.35) == 7
        assert percentile(list(range(1, 101)), 0.99) == 99
        assert percentile([5], 1.0) == 5
        assert percentile([3, 1, 2], 0.5) == 2  # sorts its input

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=1,
            max_size=200,
        ),
        fraction=st.floats(
            min_value=0.001, max_value=1.0, allow_nan=False
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_nearest_rank_reference(self, values, fraction):
        """Nearest-rank percentile against a naive reference computed in
        exact rational arithmetic over the same float input."""
        n = len(values)
        rank = min(n, max(1, math.ceil(Fraction(fraction) * n)))
        assert percentile(values, fraction) == sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# Per-tenant telemetry
# ---------------------------------------------------------------------------


class TestTenantTelemetry:
    def test_trace_lanes_and_pause_events(self):
        config = _config(trace=True)
        scheduler = Scheduler(
            config,
            [TenantSpec(COUNTER_SOURCE) for _ in range(3)],
            share=True,
        )
        result = scheduler.run()
        events = [e.to_dict() for e in scheduler.tracer.events]
        assert validate_events(events) == []
        pids = {e["pid"] for e in events}
        assert pids >= set(result.tenants)  # every tenant owns a lane
        pauses = [e for e in events if e["name"] == "tenant.pause"]
        breaks = [e for e in events if e["name"] == "cow.break"]
        assert {e["pid"] for e in pauses} == set(result.tenants)
        assert len(breaks) == result.dedup["cow_breaks"]
        # The machine clock never runs backwards across tenant switches.
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)


# ---------------------------------------------------------------------------
# The determinism property (hypothesis)
# ---------------------------------------------------------------------------


class TestScheduleDeterminism:
    @given(
        programs=st.lists(
            st.sampled_from([SUM_SOURCE, LINKED_LIST_SOURCE, COUNTER_SOURCE]),
            min_size=2,
            max_size=4,
        ),
        quantum=st.integers(min_value=7, max_value=500),
        engine=st.sampled_from(ENGINES),
    )
    @settings(max_examples=10, deadline=None)
    def test_seeded_schedule_deterministic_and_solo_equivalent(
        self, programs, quantum, engine
    ):
        """Two identical N-tenant schedules are bit-identical, and with
        sharing and policy off each tenant fingerprints exactly as its
        solo run — time-slicing is observationally free."""
        config = _config(engine, quantum=quantum)
        specs = [TenantSpec(p, name=f"t{i}") for i, p in enumerate(programs)]
        first = Scheduler(config, specs).run()
        second = Scheduler(config, specs).run()
        assert first.fingerprints() == second.fingerprints()
        solo = {
            program: CaratSession(config).run(program).fingerprint()
            for program in set(programs)
        }
        for spec, (_, fingerprint) in zip(
            specs, sorted(first.fingerprints().items())
        ):
            assert fingerprint == solo[spec.program]
