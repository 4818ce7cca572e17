"""The memory-policy engine (``repro.policy``) and its substrate:
tiered physical memory, frame-allocator introspection, heat tracking,
fragmentation scoring, the compaction daemon, the tiering balancer, and
the ``PolicyEngine`` epoch loop wired through ``Kernel.advance_clock``.
"""

import pytest

from repro.carat.pipeline import compile_carat
from repro.errors import OutOfMemoryError, ReproError
from repro.kernel.kernel import Kernel
from repro.kernel.mmu_notifier import EventKind
from repro.kernel.pagetable import PAGE_SHIFT, PAGE_SIZE
from repro.kernel.physmem import FrameAllocator, PhysicalMemory
from repro.machine.costs import CostModel
from tests.support import run_carat
from repro.machine.interp import Interpreter
from repro.policy import (
    CompactionDaemon,
    EpochBudget,
    HeatTracker,
    PolicyEngine,
    TieringBalancer,
    assess_fragmentation,
    scatter_capsule,
)
from repro.policy.moves import estimate_move_cycles, perform_move
from repro.runtime.allocation_table import AllocationTable
from tests.conftest import SUM_SOURCE

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# FrameAllocator occupancy / fragmentation counters
# ---------------------------------------------------------------------------


class TestFrameAllocatorIntrospection:
    def test_occupancy_tracks_alloc_and_free(self):
        frames = FrameAllocator(64 * PAGE_SIZE, reserve_low=4)
        assert frames.occupancy() == 0.0
        assert frames.usable_frames == 60
        start = frames.alloc(10)
        assert frames.allocated_frames == 10
        assert frames.occupancy() == pytest.approx(10 / 60)
        assert frames.free_frames == 50
        frames.free(start, 10)
        assert frames.occupancy() == 0.0

    def test_free_runs_reflect_holes(self):
        frames = FrameAllocator(32 * PAGE_SIZE, reserve_low=4)
        base = frames.alloc(28)  # fill everything usable
        assert base == 4
        assert frames.free_runs() == []
        frames.free(6, 2)
        frames.free(12, 5)
        frames.free(30, 2)
        assert frames.free_runs() == [(6, 2), (12, 5), (30, 2)]
        assert frames.largest_free_run() == 5

    def test_largest_free_run_fresh_allocator(self):
        frames = FrameAllocator(32 * PAGE_SIZE, reserve_low=4)
        assert frames.free_runs() == [(4, 28)]
        assert frames.largest_free_run() == 28

    def test_tiered_alloc_respects_bounds(self):
        frames = FrameAllocator(64 * PAGE_SIZE, reserve_low=4, fast_frames=16)
        assert frames.tiered
        assert frames.tier_bounds("fast") == (4, 16)
        assert frames.tier_bounds("slow") == (16, 64)
        fast = frames.alloc(4, tier="fast")
        slow = frames.alloc(4, tier="slow")
        assert 4 <= fast and fast + 4 <= 16
        assert 16 <= slow
        assert frames.tier_of_frame(fast) == "fast"
        assert frames.tier_of_frame(slow) == "slow"
        assert frames.free_frames_in("fast") == 12 - 4

    def test_tier_exhaustion_raises(self):
        frames = FrameAllocator(64 * PAGE_SIZE, reserve_low=4, fast_frames=16)
        frames.alloc(12, tier="fast")
        with pytest.raises(OutOfMemoryError):
            frames.alloc(1, tier="fast")
        # The slow tier is unaffected.
        frames.alloc(40, tier="slow")

    def test_untiered_allocator_rejects_tier_requests(self):
        frames = FrameAllocator(64 * PAGE_SIZE)
        with pytest.raises(ReproError):
            frames.alloc(1, tier="fast")

    def test_bad_fast_frames_rejected(self):
        with pytest.raises(ReproError):
            FrameAllocator(64 * PAGE_SIZE, reserve_low=16, fast_frames=8)
        with pytest.raises(ReproError):
            FrameAllocator(64 * PAGE_SIZE, reserve_low=16, fast_frames=64)


class TestPhysicalMemoryTiers:
    def test_tier_of_address(self):
        memory = PhysicalMemory(64 * PAGE_SIZE, fast_size=16 * PAGE_SIZE)
        assert memory.tiered
        assert memory.tier_of(0) == "fast"
        assert memory.tier_of(16 * PAGE_SIZE - 1) == "fast"
        assert memory.tier_of(16 * PAGE_SIZE) == "slow"

    def test_untiered_memory(self):
        memory = PhysicalMemory(64 * PAGE_SIZE)
        assert not memory.tiered
        assert memory.tier_of(0) is None

    def test_unaligned_fast_size_rejected(self):
        with pytest.raises(ReproError):
            PhysicalMemory(64 * PAGE_SIZE, fast_size=PAGE_SIZE + 1)


# ---------------------------------------------------------------------------
# Fragmentation scoring
# ---------------------------------------------------------------------------


class TestFragmentation:
    def test_single_run_scores_zero(self):
        frames = FrameAllocator(64 * PAGE_SIZE, reserve_low=4)
        report = assess_fragmentation(frames)
        assert report.external_fragmentation == 0.0
        assert report.free_run_count == 1
        assert report.largest_free_run == 60

    def test_shattered_memory_scores_high(self):
        frames = FrameAllocator(64 * PAGE_SIZE, reserve_low=4)
        frames.alloc(60)
        # Punch 15 single-frame holes: every free run has length 1.
        for frame in range(4, 64, 4):
            frames.free(frame, 1)
        report = assess_fragmentation(frames)
        assert report.free_frames == 15
        assert report.largest_free_run == 1
        assert report.external_fragmentation == pytest.approx(1 - 1 / 15)
        assert report.run_histogram == {1: 15}

    def test_full_memory_scores_zero(self):
        frames = FrameAllocator(32 * PAGE_SIZE, reserve_low=4)
        frames.alloc(28)
        report = assess_fragmentation(frames)
        assert report.free_frames == 0
        assert report.external_fragmentation == 0.0

    def test_tier_scoped_assessment(self):
        frames = FrameAllocator(64 * PAGE_SIZE, reserve_low=4, fast_frames=16)
        frames.alloc(10, tier="slow")
        fast = assess_fragmentation(frames, "fast")
        slow = assess_fragmentation(frames, "slow")
        assert fast.total_frames == 12 and fast.free_frames == 12
        assert slow.total_frames == 48 and slow.free_frames == 38

    def test_describe_mentions_efi(self):
        frames = FrameAllocator(64 * PAGE_SIZE, reserve_low=4)
        assert "EFI" in assess_fragmentation(frames).describe()


# ---------------------------------------------------------------------------
# Heat tracking
# ---------------------------------------------------------------------------


class TestHeatTracker:
    def test_sampling_period(self):
        heat = HeatTracker(sample_period=4)
        for _ in range(8):
            heat.observe(0x1000, 8, "read")
        assert heat.accesses_seen == 8
        assert heat.samples_taken == 2

    def test_scores_decay_and_prune(self):
        heat = HeatTracker(decay=0.5)
        heat.observe(4 * PAGE_SIZE, 8, "write")
        heat.end_epoch()
        page = 4
        assert heat.score(page) == 1.0
        heat.end_epoch()
        assert heat.score(page) == 0.5
        for _ in range(20):  # 0.5 * 0.5^20 is far below the prune floor
            heat.end_epoch()
        assert heat.score(page) == 0.0
        assert page not in heat.scores

    def test_live_window_counts_before_epoch_end(self):
        heat = HeatTracker()
        heat.observe(0, 8, "read")
        assert heat.score(0) == 1

    def test_ranked_hottest_first_deterministic_ties(self):
        heat = HeatTracker()
        for _ in range(3):
            heat.observe(7 * PAGE_SIZE, 8, "read")
        heat.observe(2 * PAGE_SIZE, 8, "read")
        heat.observe(9 * PAGE_SIZE, 8, "read")
        assert heat.ranked() == [(7, 3), (2, 1), (9, 1)]
        assert heat.hottest(1) == [(7, 3)]

    def test_install_chains_existing_probe(self):
        calls = []

        class FakeInterp:
            access_probe = None

        interp = FakeInterp()
        interp.access_probe = lambda a, s, k: calls.append((a, s, k))
        heat = HeatTracker()
        heat.install(interp)
        interp.access_probe(0x2000, 8, "read")
        assert calls == [(0x2000, 8, "read")]
        assert heat.accesses_seen == 1

    def test_allocation_heat_aggregates_pages(self):
        table = AllocationTable()
        cold = table.add(1 * PAGE_SIZE, 64)
        hot = table.add(2 * PAGE_SIZE, 2 * PAGE_SIZE)  # spans pages 2-3
        heat = HeatTracker()
        heat.observe(1 * PAGE_SIZE, 8, "read")
        for _ in range(2):
            heat.observe(2 * PAGE_SIZE, 8, "read")
        for _ in range(2):
            heat.observe(3 * PAGE_SIZE + 8, 8, "write")
        ranked = heat.allocation_heat(table)
        assert ranked == [(hot, 4.0), (cold, 1.0)]

    def test_allocation_heat_skips_untracked_pages(self):
        table = AllocationTable()
        heat = HeatTracker()
        heat.observe(5 * PAGE_SIZE, 8, "read")
        assert heat.allocation_heat(table) == []


# ---------------------------------------------------------------------------
# Tier cost accounting (CostModel + Interpreter)
# ---------------------------------------------------------------------------


class TestTierCosts:
    def test_cost_model_tier_access_extra(self):
        costs = CostModel()
        assert costs.tier_access_extra("fast") == costs.fast_tier_access
        assert costs.tier_access_extra("slow") == costs.slow_tier_access
        with pytest.raises(ValueError):
            costs.tier_access_extra("lukewarm")

    def test_interpreter_charges_slow_tier(self):
        kernel = Kernel(memory_size=16 * MB, fast_memory=1 * MB)
        result = run_carat(SUM_SOURCE, kernel=kernel, heap_size=256 * 1024,
                           stack_size=64 * 1024)
        assert result.exit_code == 0
        stats = result.stats
        # The capsule is placed in the slow (capacity) tier.
        assert stats.slow_tier_accesses > 0
        assert stats.fast_tier_accesses == 0
        assert stats.tier_cycles == (
            stats.fast_tier_accesses * kernel.costs.fast_tier_access
            + stats.slow_tier_accesses * kernel.costs.slow_tier_access
        )
        assert stats.hot_tier_share() == 0.0

    def test_untiered_kernel_charges_nothing(self):
        result = run_carat(SUM_SOURCE)
        assert result.stats.tier_cycles == 0
        assert result.stats.slow_tier_accesses == 0

    def test_tier_premium_shows_up_in_cycles(self):
        plain = run_carat(SUM_SOURCE)
        tiered = run_carat(
            SUM_SOURCE,
            kernel=Kernel(memory_size=16 * MB, fast_memory=1 * MB),
            heap_size=256 * 1024,
            stack_size=64 * 1024,
        )
        assert tiered.output == plain.output
        assert tiered.cycles == plain.cycles + tiered.stats.tier_cycles


# ---------------------------------------------------------------------------
# Budgets and cost estimation
# ---------------------------------------------------------------------------


class TestEpochBudget:
    def test_budget_arithmetic(self):
        budget = EpochBudget(1000)
        assert budget.can_afford(1000)
        assert not budget.can_afford(1001)
        budget.charge(400)
        assert budget.remaining == 600
        assert budget.can_afford(600)
        assert not budget.can_afford(601)

    def test_estimate_is_upper_bound_of_real_move(self):
        kernel = Kernel(memory_size=16 * MB)
        binary = compile_carat(SUM_SOURCE)
        process = kernel.load_carat(
            binary, heap_size=256 * 1024, stack_size=64 * 1024
        )
        runtime = process.runtime
        lo = min(r.base for r in process.regions)
        plan = runtime.patcher.plan_move(lo, lo + 4 * PAGE_SIZE)
        estimate = estimate_move_cycles(kernel, runtime, plan)
        _, _, actual = kernel.request_page_move(process, plan.lo, plan.page_count)
        assert 0 < actual <= estimate


# ---------------------------------------------------------------------------
# Compaction daemon
# ---------------------------------------------------------------------------


def _load_sum(kernel):
    binary = compile_carat(SUM_SOURCE)
    return kernel.load_carat(binary, heap_size=256 * 1024, stack_size=64 * 1024)


class TestCompactionDaemon:
    def test_scatter_then_pack_restores_contiguity(self):
        kernel = Kernel(memory_size=16 * MB)
        process = _load_sum(kernel)
        scatter_capsule(kernel, process)
        before = assess_fragmentation(kernel.frames)
        assert before.external_fragmentation > 0.5

        daemon = CompactionDaemon(kernel, process, target_fragmentation=0.05)
        moves = daemon.run_epoch(EpochBudget(10_000_000))
        after = assess_fragmentation(kernel.frames)
        assert moves > 0
        assert after.external_fragmentation <= 0.05
        assert after.free_frames == before.free_frames  # nothing leaked

        # The program still runs correctly on its relocated capsule.
        interp = Interpreter(process, kernel)
        interp.resync_stack_pointer()
        assert interp.run("main") == 0
        assert interp.output[-1] == str(sum(range(64)))

    def test_insufficient_budget_skips_and_spends_nothing(self):
        kernel = Kernel(memory_size=16 * MB)
        process = _load_sum(kernel)
        scatter_capsule(kernel, process)
        daemon = CompactionDaemon(kernel, process, target_fragmentation=0.05)
        budget = EpochBudget(10)
        assert daemon.run_epoch(budget) == 0
        assert budget.spent == 0
        assert budget.skipped == 1

    def test_rejects_non_carat_process(self):
        kernel = Kernel(memory_size=16 * MB)
        binary = compile_carat(
            SUM_SOURCE, options=None, module_name="prog"
        )
        from repro.carat.pipeline import compile_baseline

        trad = kernel.load_traditional(compile_baseline(SUM_SOURCE))
        with pytest.raises(ValueError):
            CompactionDaemon(kernel, trad)


# ---------------------------------------------------------------------------
# Tiering balancer
# ---------------------------------------------------------------------------


class TestTieringBalancer:
    def _tiered_setup(self, fast_frames=48):
        kernel = Kernel(
            memory_size=16 * MB, fast_memory=fast_frames * PAGE_SIZE
        )
        process = _load_sum(kernel)
        heat = HeatTracker()
        balancer = TieringBalancer(
            kernel, process, heat, max_allocation_pages=20
        )
        return kernel, process, heat, balancer

    def _heat_up(self, heat, allocation, amount=100):
        for page in range(
            allocation.address >> PAGE_SHIFT,
            ((allocation.end - 1) >> PAGE_SHIFT) + 1,
        ):
            heat.scores[page] = float(amount)

    def test_promotes_hot_slow_allocation(self):
        kernel, process, heat, balancer = self._tiered_setup()
        table = process.runtime.table
        victim = next(a for a in table if a.kind == "global")
        assert kernel.memory.tier_of(victim.address) == "slow"
        self._heat_up(heat, victim)
        moves = balancer.run_epoch(EpochBudget(10_000_000))
        assert moves >= 1
        assert balancer.promotions >= 1
        assert kernel.memory.tier_of(victim.address) == "fast"

    def test_no_promotion_without_heat(self):
        _, _, _, balancer = self._tiered_setup()
        assert balancer.run_epoch(EpochBudget(10_000_000)) == 0
        assert balancer.promotions == 0

    def test_demotes_under_pressure_only(self):
        kernel, process, heat, balancer = self._tiered_setup(fast_frames=20)
        # Usable fast tier: frames 16..20 (reserve_low is 16) = 4 frames.
        table = process.runtime.table
        globals_alloc = next(a for a in table if a.kind == "global")
        code_alloc = next(a for a in table if a.kind == "code")
        self._heat_up(heat, globals_alloc)
        balancer.run_epoch(EpochBudget(10_000_000))
        assert kernel.memory.tier_of(globals_alloc.address) == "fast"
        fast_free = kernel.frames.free_frames_in("fast")
        # Fill whatever fast space is left so the next promotion needs
        # an eviction.
        if fast_free:
            kernel.frames.alloc(fast_free, tier="fast")

        # Next epoch: globals went cold, code is now the hot thing.
        heat.scores.clear()
        self._heat_up(heat, code_alloc)
        balancer.run_epoch(EpochBudget(10_000_000))
        assert balancer.demotions == 1
        assert kernel.memory.tier_of(globals_alloc.address) == "slow"
        assert kernel.memory.tier_of(code_alloc.address) == "fast"

    def test_never_demotes_something_hotter_than_incoming(self):
        kernel, process, heat, balancer = self._tiered_setup(fast_frames=20)
        table = process.runtime.table
        globals_alloc = next(a for a in table if a.kind == "global")
        code_alloc = next(a for a in table if a.kind == "code")
        self._heat_up(heat, globals_alloc, amount=100)
        balancer.run_epoch(EpochBudget(10_000_000))
        fast_free = kernel.frames.free_frames_in("fast")
        if fast_free:
            kernel.frames.alloc(fast_free, tier="fast")
        # code is warm but cooler than the resident: no eviction happens.
        self._heat_up(heat, code_alloc, amount=10)
        balancer.run_epoch(EpochBudget(10_000_000))
        assert balancer.demotions == 0
        assert kernel.memory.tier_of(code_alloc.address) == "slow"

    def test_requires_tiered_kernel(self):
        kernel = Kernel(memory_size=16 * MB)
        process = _load_sum(kernel)
        with pytest.raises(ValueError):
            TieringBalancer(kernel, process, HeatTracker())

    def test_demote_plans_each_seed_range_once(self, monkeypatch):
        kernel, process, heat, balancer = self._tiered_setup(fast_frames=32)
        runtime = process.runtime
        base = process.layout.heap_base
        pages = 8
        for page in range(pages):
            for slot in range(15):
                runtime.on_alloc(base + page * PAGE_SIZE + 128 + slot * 256, 64)
        # One block straddles pages 3 and 4, so their plans merge.
        runtime.on_alloc(base + 4 * PAGE_SIZE - 32, 64)
        destination = kernel.frames.alloc_address(pages, tier="fast")
        assert perform_move(kernel, process, None, base, pages, destination, "test")
        # Page 3 is the coldest page, but its plan drags in hot page 4;
        # page 5 is the coldest plan (tied with page 6).  Page heat is
        # charged to one block per page, so most residents score 0 and
        # rank ahead of the victim.
        first = destination >> PAGE_SHIFT
        for page, score in enumerate([5, 3, 7, 0, 8, 1, 1, 6]):
            heat.scores[first + page] = float(score)
        _, residents = balancer.classify()
        assert len(residents) == pages * 15 + 1
        seed_ranges = {
            (a.address & -PAGE_SIZE, (a.end + PAGE_SIZE - 1) & -PAGE_SIZE)
            for a, _ in residents
        }
        # 8 single-page seeds plus the straddling block's two-page seed.
        assert len(seed_ranges) == pages + 1

        # The reference plans every resident and keeps the first of the
        # strictly coldest plans.
        best = None
        for victim, _ in residents:
            plan = balancer._plan_for(victim)
            score = balancer._range_heat(plan.lo, plan.hi)
            if best is None or score < best[0]:
                best = (score, victim)
        expected = best[1]
        assert expected.address >> PAGE_SHIFT == first + 5
        assert residents[0][0] is not expected
        victim_page = expected.address & -PAGE_SIZE

        seeds = []
        plan_move = runtime.patcher.plan_move

        def counting_plan_move(lo, hi):
            seeds.append((lo, hi))
            return plan_move(lo, hi)

        monkeypatch.setattr(runtime.patcher, "plan_move", counting_plan_move)
        assert balancer.demote_coldest(residents, EpochBudget(10_000_000)) == 1
        # One plan per distinct seed range; the last call is the kernel
        # re-planning the victim's range as it negotiates the move.
        *chosen, negotiated = seeds
        assert len(chosen) == len(set(chosen)) and set(chosen) == seed_ranges
        assert negotiated == (victim_page, victim_page + PAGE_SIZE)
        assert all(victim is not expected for victim, _ in residents)
        assert len(residents) == pages * 15
        assert kernel.memory.tier_of(expected.address) == "slow"
        fast = [a for a in runtime.table if kernel.memory.tier_of(a.address) == "fast"]
        assert len(fast) == (pages - 1) * 15 + 1


# ---------------------------------------------------------------------------
# PolicyEngine + Kernel.advance_clock + MMU-notifier interplay
# ---------------------------------------------------------------------------


class TestAdvanceClock:
    def test_advance_clock_accumulates_and_notifies_policy(self):
        kernel = Kernel(memory_size=16 * MB)
        seen = []

        class Probe:
            def on_clock(self, k):
                seen.append(k.clock_cycles)

        kernel.attach_policy(Probe())
        kernel.advance_clock(100)
        kernel.advance_clock(50)
        assert kernel.clock_cycles == 150
        assert seen == [100, 150]

    def test_advance_clock_without_policy(self):
        kernel = Kernel(memory_size=16 * MB)
        kernel.advance_clock(75)
        assert kernel.clock_cycles == 75


class TestPolicyEngineIntegration:
    def _run_with_engine(self, **engine_kw):
        kernel = Kernel(
            memory_size=16 * MB,
            fast_memory=1 * MB,
            keep_notifier_events=True,
        )
        engine = None

        def setup(interpreter):
            nonlocal engine
            # SUM is a short program (~6k cycles); tick and epoch often
            # enough to see several policy epochs within it.
            interpreter.set_tick_interval(100)
            process = interpreter.process
            scatter_capsule(kernel, process, interpreter=interpreter)
            heat = HeatTracker()
            engine = PolicyEngine(
                kernel,
                process,
                epoch_cycles=1_000,
                budget_cycles=200_000,
                heat=heat,
                compaction=CompactionDaemon(kernel, process),
                tiering=TieringBalancer(
                    kernel, process, heat, max_allocation_pages=40
                ),
                **engine_kw,
            )
            engine.attach(interpreter)

        result = run_carat(
            SUM_SOURCE,
            kernel=kernel,
            heap_size=256 * 1024,
            stack_size=64 * 1024,
            setup=setup,
        )
        return kernel, engine, result

    def test_epochs_fire_and_budgets_hold(self):
        kernel, engine, result = self._run_with_engine()
        assert result.exit_code == 0
        stats = engine.stats
        assert stats.epochs > 0
        assert stats.total_moves > 0
        assert stats.budgets_respected
        assert len(stats.epoch_move_cycles) == stats.epochs
        assert len(stats.frag_history) == stats.epochs
        assert kernel.clock_cycles > 0

    def test_policy_moves_appear_in_notifier_trace(self):
        kernel, engine, result = self._run_with_engine()
        stats = engine.stats
        events = kernel.notifier.events
        by_reason = {}
        for event in events:
            by_reason.setdefault(event.detail, []).append(event)
        for reason, counter in (
            ("policy-compaction", stats.compaction_moves),
            ("policy-promote", stats.promotions),
            ("policy-demote", stats.demotions),
        ):
            assert len(by_reason.get(reason, [])) == counter
            assert all(
                e.kind is EventKind.PTE_CHANGE for e in by_reason.get(reason, [])
            )
        # The policy performed at least one labelled move of each family
        # the scenario exercises.
        assert stats.compaction_moves > 0
        assert stats.promotions > 0

    def test_stats_describe_is_printable(self):
        _, engine, _ = self._run_with_engine()
        text = engine.stats.describe()
        assert "epoch" in text and "respected" in text
