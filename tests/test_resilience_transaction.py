"""The resilience layer, unit by unit: the undo journal, the retry
policy's backoff math, the degradation manager, fault-spec parsing,
destination validation, and — end to end through the kernel — verified
rollback: a faulted move must leave the machine fingerprint-identical
to its pre-move state.
"""

import pytest

from repro.carat import compile_carat
from repro.errors import KernelError, MoveError, RollbackError
from repro.kernel import Kernel, PAGE_SIZE
from repro.kernel.physmem import PhysicalMemory
from repro.machine.interp import Interpreter
from repro.resilience import (
    DegradationManager,
    MoveFailure,
    MoveJournal,
    RetryPolicy,
)
from repro.resilience.journal import (
    PAGE_MOVE_STEPS,
    PROTECTION_STEPS,
    STEP_REGION_PERMS,
    STEP_RELEASE_OLD,
    STEP_RESERVE,
)
from repro.sanitizer.faults import (
    FaultPoint,
    ProtocolFaultInjector,
    parse_fault_points,
    random_fault_schedule,
)
from tests.conftest import LINKED_LIST_SOURCE, machine_fingerprint


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


class TestMoveJournal:
    def test_rollback_runs_undos_newest_first(self):
        journal = MoveJournal()
        order = []
        for i in range(3):
            journal.record("step", f"undo {i}", lambda i=i: order.append(i))
        assert journal.rollback() == 3
        assert order == [2, 1, 0]
        assert journal.state == "rolled-back"
        # A second rollback is a no-op, not a re-execution.
        assert journal.rollback() == 0
        assert order == [2, 1, 0]

    def test_commit_discards_undos(self):
        journal = MoveJournal()
        fired = []
        journal.record("step", "undo", lambda: fired.append(1))
        journal.commit()
        assert journal.state == "committed"
        assert len(journal) == 0
        with pytest.raises(RollbackError):
            journal.record("step", "late", lambda: None)
        assert fired == []

    def test_log_u64_and_image_restore_bytes(self):
        memory = PhysicalMemory(2 * PAGE_SIZE)
        memory.write_u64(0x100, 0xDEAD)
        memory.write_bytes(0x200, b"original")
        journal = MoveJournal()
        journal.log_u64("patch-escapes", memory, 0x100, memory.read_u64(0x100))
        journal.log_image("copy-data", memory, 0x200, 8)
        memory.write_u64(0x100, 0xBEEF)
        memory.write_bytes(0x200, b"clobberd")
        journal.rollback()
        assert memory.read_u64(0x100) == 0xDEAD
        assert memory.read_bytes(0x200, 8) == b"original"

    def test_failing_undo_wraps_in_rollback_error(self):
        journal = MoveJournal()
        journal.record("step", "fine", lambda: None)
        def boom():
            raise KeyError("gone")
        journal.record("release-frames", "explodes", boom)
        with pytest.raises(RollbackError, match="release-frames"):
            journal.rollback()

    def test_steps_journaled_first_appearance_order(self):
        journal = MoveJournal()
        for step in ["a", "b", "a", "c", "b"]:
            journal.record(step, step, lambda: None)
        assert journal.steps_journaled() == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_exponential_then_capped(self):
        policy = RetryPolicy(
            backoff_base_cycles=1_000,
            backoff_factor=2.0,
            backoff_cap_cycles=3_000,
        )
        assert policy.backoff_cycles(1) == 1_000
        assert policy.backoff_cycles(2) == 2_000
        assert policy.backoff_cycles(3) == 3_000  # capped, not 4000
        assert policy.backoff_cycles(10) == 3_000

    def test_should_retry_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


# ---------------------------------------------------------------------------
# Degradation manager
# ---------------------------------------------------------------------------


def _failure(lo=0x1000, hi=0x3000, operation="page-move"):
    return MoveFailure(
        pid=1,
        operation=operation,
        lo=lo,
        hi=hi,
        step="copy-data",
        error="injected",
        attempts=3,
        cycles_wasted=123,
        clock_cycles=456,
    )


class TestDegradationManager:
    def test_failure_quarantines_overlapping_ranges(self):
        manager = DegradationManager()
        manager.record_failure(_failure())
        assert not manager.allows(0x1000, 0x2000)
        assert not manager.allows(0x2FFF, 0x4000)  # overlap by one byte
        assert manager.allows(0x3000, 0x4000)  # adjacent is fine
        assert manager.pinned_pages(PAGE_SIZE) == 2
        assert "1 move failure(s)" in manager.describe()

    def test_duplicate_ranges_not_requarantined(self):
        manager = DegradationManager()
        manager.record_failure(_failure())
        manager.record_failure(_failure(lo=0x1800, hi=0x2000))
        assert len(manager.failures) == 2
        assert len(manager.quarantined) == 1

    def test_cooldown_consumed_per_epoch(self):
        manager = DegradationManager(cooldown_epochs=2)
        assert not manager.in_cooldown()
        manager.record_failure(_failure())
        assert manager.in_cooldown()
        assert manager.consume_cooldown_epoch()
        assert manager.consume_cooldown_epoch()
        assert not manager.consume_cooldown_epoch()
        assert not manager.in_cooldown()

    def test_release_expired_frees_aged_quarantines(self):
        manager = DegradationManager(cooldown_epochs=2)
        manager.record_failure(_failure())
        assert manager.release_expired() == []  # age 0: still cooling
        manager.advance_epoch()
        assert manager.release_expired() == []  # age 1 < cooldown
        assert manager.oldest_quarantine_age() == 1
        manager.advance_epoch()
        assert manager.release_expired() == [(0x1000, 0x3000)]
        assert manager.allows(0x1000, 0x3000)
        assert manager.quarantined == []
        assert manager.released == [(0x1000, 0x3000)]
        assert manager.oldest_quarantine_age() == 0

    def test_release_requires_exact_range(self):
        manager = DegradationManager()
        manager.record_failure(_failure())
        assert not manager.release(0x1000, 0x2000)  # sub-range: no
        assert manager.release(0x1000, 0x3000)
        assert not manager.release(0x1000, 0x3000)  # already released

    def test_requarantine_after_release_restamps_entry_epoch(self):
        manager = DegradationManager(cooldown_epochs=1)
        manager.record_failure(_failure())
        manager.advance_epoch()
        assert manager.release_expired() == [(0x1000, 0x3000)]
        manager.record_failure(_failure())
        assert manager.quarantine_age(0x1000, 0x3000) == 0


# ---------------------------------------------------------------------------
# Fault-spec parsing and schedules
# ---------------------------------------------------------------------------


class TestFaultSpecs:
    def test_parse_simple_and_full_specs(self):
        points = parse_fault_points(
            "copy-data:crash, patch-escapes:torn:0, region-install:hang:2:persist"
        )
        assert [(p.step, p.kind, p.move_index, p.persistent) for p in points] == [
            ("copy-data", "crash", None, False),
            ("patch-escapes", "torn", 0, False),
            ("region-install", "hang", 2, True),
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPoint(step="copy-data", kind="gamma-ray")

    def test_random_spec_needs_seeded_rng(self):
        with pytest.raises(ValueError):
            parse_fault_points("random:3")

    def test_random_schedule_is_deterministic_per_seed(self):
        import random

        a = random_fault_schedule(random.Random(7), count=5)
        b = random_fault_schedule(random.Random(7), count=5)
        assert a == b
        for point in a:
            assert point.step in PAGE_MOVE_STEPS


# ---------------------------------------------------------------------------
# End to end through the kernel: faults, rollback, retry, degradation
# ---------------------------------------------------------------------------


def _loaded(**kernel_kwargs):
    binary = compile_carat(LINKED_LIST_SOURCE, module_name="list")
    kernel = Kernel(**kernel_kwargs)
    process = kernel.load_carat(binary)
    interp = Interpreter(process, kernel)
    interp.start("main")
    interp.run_steps(1200)  # mid build loop: heap nodes and escapes exist
    return kernel, process, interp


def _victim_page(process):
    victim = process.runtime.worst_case_allocation()
    return victim.address & ~(PAGE_SIZE - 1)


class TestDestinationValidation:
    def test_patcher_rejects_unbacked_destination(self):
        kernel, process, interp = _loaded()
        patcher = process.runtime.patcher
        page = _victim_page(process)
        plan = patcher.plan_move(page, page + PAGE_SIZE)
        # Pick a page-aligned hole the frame allocator has NOT handed out.
        hole, _ = kernel.frames.free_runs(None)[-1]
        with pytest.raises(MoveError) as info:
            patcher.execute_move(plan, hole * PAGE_SIZE, journal=MoveJournal())
        assert info.value.step == STEP_RESERVE

    def test_kernel_rejects_misaligned_or_oob_destination(self):
        kernel, process, interp = _loaded()
        page = _victim_page(process)
        for bad in (page + 8, kernel.memory.size + PAGE_SIZE):
            with pytest.raises(MoveError):
                kernel.request_page_move(process, page, 1, destination=bad)
        # Both rejections rolled back cleanly: nothing committed.
        assert kernel.stats.moves_committed == 0
        assert kernel.stats.moves_rolled_back == 2


class TestSourceAdmission:
    def test_source_moved_away_is_refused_before_the_world_stops(self):
        # The first move leaves a hole at the victim's old page; a second
        # move from that range used to be admitted, copy the freed frames
        # and fail only at release-frames with a double free.
        kernel, process, interp = _loaded()
        page = _victim_page(process)
        snaps = interp.register_snapshots()
        kernel.request_page_move(process, page, 1, register_snapshots=snaps)
        interp.apply_snapshots(snaps)
        assert process.regions.first_hole(page, page + PAGE_SIZE) == page
        stats = kernel.stats
        attempted, stops = stats.moves_attempted, process.runtime.stats.world_stops
        for count in (1, 2):
            with pytest.raises(MoveError, match="not mapped") as refused:
                kernel.request_page_move(process, page, count)
            assert refused.value.step == "admission"
        assert stats.moves_attempted == attempted
        assert process.runtime.stats.world_stops == stops
        assert stats.moves_rolled_back == 0
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    def test_partly_mapped_source_is_refused(self):
        kernel, process, interp = _loaded()
        regions = process.regions
        top = max(region.end for region in regions)
        with pytest.raises(MoveError, match=f"hole at {top:#x}") as refused:
            kernel.request_page_move(process, top - PAGE_SIZE, 2)
        assert refused.value.step == "admission"
        assert kernel.stats.moves_attempted == 0


class TestTransactionalMoves:
    def test_one_shot_fault_retries_then_commits(self):
        kernel, process, interp = _loaded()
        injector = ProtocolFaultInjector([FaultPoint("copy-data", "crash")])
        kernel.attach_fault_injector(injector)
        snaps = interp.register_snapshots()
        plan, cost, cycles = kernel.request_page_move(
            process, _victim_page(process), register_snapshots=snaps
        )
        interp.apply_snapshots(snaps)
        assert injector.fired == ["copy-data:crash@move0"]
        stats = kernel.stats
        assert stats.moves_attempted == 2
        assert stats.moves_committed == 1
        assert stats.moves_rolled_back == 1
        assert stats.move_retries == 1
        assert stats.backoff_cycles > 0
        assert cycles > cost.total  # wasted attempt + backoff folded in
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    @pytest.mark.parametrize("step", PAGE_MOVE_STEPS)
    def test_rollback_restores_exact_machine_state(self, step):
        kernel, process, interp = _loaded()
        kernel.retry_policy = RetryPolicy(max_attempts=1)
        injector = ProtocolFaultInjector(
            [FaultPoint(step, "crash", persistent=True)]
        )
        kernel.attach_fault_injector(injector)
        before = machine_fingerprint(kernel, process)
        snaps = interp.register_snapshots()
        saved_slots = [dict(s.slots) for s in snaps]
        with pytest.raises(MoveError) as info:
            kernel.request_page_move(
                process, _victim_page(process), register_snapshots=snaps
            )
        assert info.value.step == step
        assert info.value.attempts == 1
        assert machine_fingerprint(kernel, process) == before
        # Register snapshots were restored too (the patch was undone).
        assert [dict(s.slots) for s in snaps] == saved_slots
        assert not process.runtime.is_stopped
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    def test_short_hang_is_absorbed_and_charged(self):
        kernel, process, interp = _loaded()
        stall = kernel.retry_policy.step_timeout_cycles - 1
        injector = ProtocolFaultInjector(
            [FaultPoint("copy-data", "hang", stall_cycles=stall)]
        )
        kernel.attach_fault_injector(injector)
        _, cost, cycles = kernel.request_page_move(process, _victim_page(process))
        assert kernel.stats.moves_attempted == 1  # no retry: step completed
        assert kernel.stats.moves_committed == 1
        assert cycles >= cost.total + stall  # the wait is billed

    def test_watchdog_converts_long_hang_into_retry(self):
        kernel, process, interp = _loaded()
        injector = ProtocolFaultInjector([FaultPoint("copy-data", "hang")])
        kernel.attach_fault_injector(injector)
        kernel.request_page_move(process, _victim_page(process))
        assert kernel.stats.move_retries == 1
        assert kernel.stats.moves_committed == 1
        assert kernel.stats.moves_rolled_back == 1

    def test_exhaustion_degrades_and_pins_the_range(self):
        kernel, process, interp = _loaded()
        kernel.retry_policy = RetryPolicy(max_attempts=2)
        injector = ProtocolFaultInjector(
            [FaultPoint("region-install", "crash", persistent=True)]
        )
        kernel.attach_fault_injector(injector)
        manager = DegradationManager()
        kernel.attach_degradation(manager)
        page = _victim_page(process)
        with pytest.raises(MoveError) as info:
            kernel.request_page_move(process, page)
        failure = info.value.failure
        assert failure.operation == "page-move"
        assert failure.step == "region-install"
        assert failure.attempts == 2
        assert manager.failures == [failure]
        assert manager.is_quarantined(page, page + PAGE_SIZE)
        assert manager.in_cooldown()
        assert kernel.stats.moves_degraded == 1
        # The pinned range is refused at admission — before any attempt.
        attempted_before = kernel.stats.moves_attempted
        with pytest.raises(MoveError) as refused:
            kernel.request_page_move(process, page)
        assert refused.value.step == "admission"
        assert kernel.stats.moves_attempted == attempted_before

    def test_quarantined_page_movable_again_after_cooldown_release(self):
        kernel, process, interp = _loaded()
        kernel.retry_policy = RetryPolicy(max_attempts=2)
        injector = ProtocolFaultInjector(
            [FaultPoint("region-install", "crash", persistent=True)]
        )
        kernel.attach_fault_injector(injector)
        manager = DegradationManager(cooldown_epochs=2)
        kernel.attach_degradation(manager)
        page = _victim_page(process)
        with pytest.raises(MoveError):
            kernel.request_page_move(process, page)
        assert manager.is_quarantined(page, page + PAGE_SIZE)
        # The transient fault clears; the cooldown elapses; the range is
        # released and the very same move now goes through.
        injector.points.clear()
        for _ in range(manager.cooldown_epochs):
            assert manager.release_expired() == []
            manager.advance_epoch()
        assert manager.release_expired() == [(page, page + PAGE_SIZE)]
        committed_before = kernel.stats.moves_committed
        kernel.request_page_move(process, page)
        assert kernel.stats.moves_committed == committed_before + 1
        assert not manager.is_quarantined(page, page + PAGE_SIZE)

    @pytest.mark.parametrize("step", ["world-stop", "reserve-destination"])
    def test_early_fault_releases_caller_claimed_destination(self, step):
        # A fault BEFORE the reserve step's own journal entry (world
        # stop, or at reserve entry) must still free a caller-claimed
        # destination on rollback — the soak's chaos schedule found
        # these leaking as orphan frames.
        kernel, process, interp = _loaded()
        kernel.retry_policy = RetryPolicy(max_attempts=2)
        injector = ProtocolFaultInjector(
            [FaultPoint(step, "crash", persistent=True)]
        )
        kernel.attach_fault_injector(injector)
        hole, length = kernel.frames.free_runs(None)[-1]
        assert length >= 1
        assert kernel.frames.alloc_at(hole, 1)
        free_before = kernel.frames.free_frames
        with pytest.raises(MoveError):
            kernel.request_page_move(
                process, _victim_page(process), destination=hole * PAGE_SIZE
            )
        assert kernel.frames.frame_is_free(hole)
        assert kernel.frames.free_frames == free_before + 1

    def test_caller_claimed_destination_released_by_rollback(self):
        kernel, process, interp = _loaded()
        kernel.retry_policy = RetryPolicy(max_attempts=1)
        injector = ProtocolFaultInjector(
            [FaultPoint("kernel-metadata", "crash", persistent=True)]
        )
        kernel.attach_fault_injector(injector)
        hole, length = kernel.frames.free_runs(None)[-1]
        assert length >= 1
        assert kernel.frames.alloc_at(hole, 1)
        free_before = kernel.frames.free_frames
        with pytest.raises(MoveError):
            kernel.request_page_move(
                process, _victim_page(process), destination=hole * PAGE_SIZE
            )
        # The transaction adopted the claim and released it on rollback.
        assert kernel.frames.frame_is_free(hole)
        assert kernel.frames.free_frames == free_before + 1

    def test_retry_reclaims_caller_destination_and_commits(self):
        kernel, process, interp = _loaded()
        injector = ProtocolFaultInjector([FaultPoint("copy-data", "crash")])
        kernel.attach_fault_injector(injector)
        hole, _ = kernel.frames.free_runs(None)[-1]
        assert kernel.frames.alloc_at(hole, 1)
        plan, _, _ = kernel.request_page_move(
            process, _victim_page(process), destination=hole * PAGE_SIZE
        )
        assert kernel.stats.moves_committed == 1
        assert plan.lo != hole * PAGE_SIZE
        region = process.regions.find(hole * PAGE_SIZE)
        assert region is not None  # the destination is live and mapped
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    def test_allocation_move_fault_rolls_back(self):
        kernel, process, interp = _loaded()
        kernel.retry_policy = RetryPolicy(max_attempts=1)
        injector = ProtocolFaultInjector(
            [FaultPoint(STEP_RELEASE_OLD, "crash", persistent=True)]
        )
        kernel.attach_fault_injector(injector)
        victim = process.runtime.worst_case_allocation()
        before = machine_fingerprint(kernel, process)
        with pytest.raises(MoveError) as info:
            kernel.request_allocation_move(process, victim)
        assert info.value.step == STEP_RELEASE_OLD
        assert machine_fingerprint(kernel, process) == before
        assert not process.runtime.is_stopped
        interp.run_steps(10_000_000)
        assert interp.output == [str(sum(range(40)))]

    @pytest.mark.parametrize("step", PROTECTION_STEPS[:-1])
    def test_protection_change_fault_rolls_back(self, step):
        kernel, process, interp = _loaded()
        kernel.retry_policy = RetryPolicy(max_attempts=1)
        injector = ProtocolFaultInjector(
            [FaultPoint(step, "crash", persistent=True)]
        )
        kernel.attach_fault_injector(injector)
        from repro.runtime.regions import PERM_READ

        base = process.layout.stack_base
        before = machine_fingerprint(kernel, process)
        with pytest.raises(MoveError):
            kernel.request_protection_change(process, base, PAGE_SIZE, PERM_READ)
        assert machine_fingerprint(kernel, process) == before
        assert process.regions.check(base, 8, "write")  # perms untouched

    def test_nested_world_stop_reused_not_recharged(self):
        # Regression: allocation moves and protection changes used to
        # initiate a *second* world stop even when the caller already
        # held one (and then resumed the world out from under the
        # caller).  With reuse_existing the transaction must piggyback
        # on the existing stop: no new stop charged, world still
        # stopped afterwards.
        kernel, process, interp = _loaded()
        runtime = process.runtime
        assert runtime.world_stop(1) > 0
        assert runtime.is_stopped
        stops_before = runtime.stats.world_stops

        victim = process.runtime.worst_case_allocation()
        kernel.request_allocation_move(process, victim)
        assert runtime.stats.world_stops == stops_before
        assert runtime.is_stopped  # the caller's stop was not released

        from repro.runtime.regions import PERM_READ, PERM_RWX

        base = process.layout.stack_base
        kernel.request_protection_change(process, base, PAGE_SIZE, PERM_READ)
        assert runtime.stats.world_stops == stops_before
        assert runtime.is_stopped
        kernel.request_protection_change(process, base, PAGE_SIZE, PERM_RWX)
        runtime.resume()

        # Without a caller-held stop the transaction initiates its own
        # stop and releases it on commit.
        kernel.request_allocation_move(
            process, process.runtime.worst_case_allocation()
        )
        assert runtime.stats.world_stops == stops_before + 1
        assert not runtime.is_stopped

    def test_protection_change_commit_unaffected_by_one_shot_fault(self):
        kernel, process, interp = _loaded()
        injector = ProtocolFaultInjector(
            [FaultPoint(STEP_REGION_PERMS, "crash")]
        )
        kernel.attach_fault_injector(injector)
        from repro.runtime.regions import PERM_READ, PERM_RWX

        base = process.layout.stack_base
        cycles = kernel.request_protection_change(
            process, base, PAGE_SIZE, PERM_READ
        )
        assert cycles > 0
        assert not process.regions.check(base, 8, "write")
        assert kernel.stats.move_retries == 1
        kernel.request_protection_change(process, base, PAGE_SIZE, PERM_RWX)
