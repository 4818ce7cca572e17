"""The tiering balancer: heat-driven placement across fast/slow memory.

A tiered kernel (``Kernel(..., fast_memory=...)``) splits physical
memory into a small *fast* tier (near memory — think on-package DRAM)
and a large *slow* tier (far memory — CXL-class capacity), with each
access to the slow tier paying ``CostModel.slow_tier_access`` extra
cycles.  New capsules land in the slow tier; the balancer then uses the
:class:`~repro.policy.heat.HeatTracker`'s decayed scores to *promote*
hot allocations into fast memory, and to *demote* colder residents when
— and only when — the fast tier is too full to admit something hotter.
Demotion-under-pressure (rather than on every cold score) is what keeps
the balancer from ping-ponging allocations between tiers as program
phases shift.  Every move runs through the same CARAT protocol
compaction uses and is budget-gated by the shared upper-bound cost
estimate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import OutOfMemoryError
from repro.kernel.pagetable import PAGE_SHIFT, PAGE_SIZE
from repro.policy.moves import EpochBudget, estimate_move_cycles, perform_move

#: Safety valve: moves per epoch even if the budget would allow more.
MAX_MOVES_PER_EPOCH = 32


def _seed_range(allocation) -> Tuple[int, int]:
    """The page-aligned range a move of ``allocation`` starts from."""
    page_lo = allocation.address & ~(PAGE_SIZE - 1)
    page_hi = (allocation.end + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    return page_lo, page_hi


class TieringBalancer:
    """Promotes hot allocations into fast memory, evicting colder ones."""

    def __init__(
        self,
        kernel,
        process,
        heat,
        hot_fraction: float = 0.05,
        max_allocation_pages: int = 16,
    ) -> None:
        if not kernel.frames.tiered:
            raise ValueError("tiering requires a kernel built with fast_memory")
        if process.runtime is None:
            raise ValueError("tiering requires a CARAT process")
        if not (0.0 < hot_fraction <= 1.0):
            raise ValueError("hot_fraction must be in (0, 1]")
        self.kernel = kernel
        self.process = process
        self.heat = heat
        self.hot_fraction = hot_fraction
        self.max_allocation_pages = max_allocation_pages
        self.promotions = 0
        self.demotions = 0

    # -- classification ----------------------------------------------------------

    def classify(self) -> Tuple[List[Tuple[object, float]], List[Tuple[object, float]]]:
        """Split the process's allocations by tier and heat.

        Returns ``(candidates, residents)``: slow-tier allocations whose
        share of total heat reaches ``hot_fraction`` (hottest first —
        these want promoting), and *all* fast-tier allocations with
        their scores, coldest first (the eviction order if the fast tier
        fills up).
        """
        table = self.process.runtime.table
        ranked = self.heat.allocation_heat(table)
        total = sum(score for _, score in ranked) or 1.0
        scored = {id(allocation): score for allocation, score in ranked}
        tier_of = self.kernel.memory.tier_of
        candidates = [
            (allocation, score)
            for allocation, score in ranked
            if tier_of(allocation.address) == "slow"
            and score / total >= self.hot_fraction
        ]
        residents = sorted(
            (
                (allocation, scored.get(id(allocation), 0.0))
                for allocation in table
                if tier_of(allocation.address) == "fast"
            ),
            key=lambda item: (item[1], item[0].address),
        )
        return candidates, residents

    # -- one epoch of balancing --------------------------------------------------

    def run_epoch(self, budget: EpochBudget, interpreter=None, stats=None) -> int:
        """Promote this epoch's hot set, demoting colder residents only
        when the fast tier has no room.  Returns moves performed."""
        candidates, residents = self.classify()
        moves = 0
        for allocation, _ in candidates:
            if moves >= MAX_MOVES_PER_EPOCH:
                break
            # An earlier move's expansion may have dragged this neighbour
            # into the fast tier already.
            if self.kernel.memory.tier_of(allocation.address) == "fast":
                continue
            plan = self._plan_for(allocation)
            if plan.page_count > self.max_allocation_pages:
                continue  # too big to migrate profitably
            degradation = self.kernel.degradation
            if degradation is not None and not degradation.allows(plan.lo, plan.hi):
                continue  # pinned (quarantined) after repeated failures
            shares = self.kernel.shares
            if shares is not None and shares.range_shared(
                self.process.pid, plan.lo, plan.hi
            ):
                continue  # CoW-shared pages are pinned for policy moves
            queue = self.kernel.move_queue
            if queue is not None and queue.overlaps_pending(
                self.process.pid, plan.lo, plan.hi
            ):
                continue  # already queued for an incremental move
            # Moves happen at plan (page-range) granularity, so heat
            # comparisons must too: a cold allocation sharing a page
            # with a hot one is NOT a cheap thing to move.
            score = self._range_heat(plan.lo, plan.hi)
            outcome = self._promote(
                plan, score, residents, budget, interpreter, stats
            )
            if outcome is None:
                break  # out of budget or out of evictable space
            moves += outcome
        return moves

    def _plan_for(self, allocation):
        return self.process.runtime.patcher.plan_move(*_seed_range(allocation))

    def _range_heat(self, lo: int, hi: int) -> float:
        """Total heat of the pages in ``[lo, hi)`` (page-aligned)."""
        return sum(
            self.heat.score(page)
            for page in range(lo >> PAGE_SHIFT, hi >> PAGE_SHIFT)
        )

    def _promote(
        self,
        plan,
        score: float,
        residents: List[Tuple[object, float]],
        budget: EpochBudget,
        interpreter,
        stats,
    ) -> Optional[int]:
        """Move ``plan`` into the fast tier, evicting colder residents as
        needed.  Returns moves performed, or ``None`` to stop the epoch
        (budget exhausted / no way to make room)."""
        kernel = self.kernel
        frames = kernel.frames
        runtime = self.process.runtime
        moves = 0
        while True:
            try:
                destination = frames.alloc_address(plan.page_count, tier="fast")
            except OutOfMemoryError:
                demoted = self._evict_one(
                    score, residents, budget, interpreter, stats
                )
                if demoted is None:
                    return None if moves == 0 else moves
                moves += demoted
                continue
            estimate = estimate_move_cycles(kernel, runtime, plan, interpreter)
            if not budget.can_afford(estimate):
                frames.free_address(destination, plan.page_count)
                budget.skipped += 1
                return None
            result = perform_move(
                kernel,
                self.process,
                interpreter,
                plan.lo,
                plan.page_count,
                destination,
                "policy-promote",
                heat=self.heat,
                estimate=estimate,
            )
            if result is None:
                # Degraded: the range is quarantined and rollback already
                # released the fast-tier destination; stop the epoch.
                return None if moves == 0 else moves
            _, _, cycles = result
            budget.charge(cycles)
            self.promotions += 1
            if stats is not None:
                stats.promotions += 1
            return moves + 1

    def demote_coldest(
        self,
        residents: List[Tuple[object, float]],
        budget: EpochBudget,
        interpreter=None,
        stats=None,
    ) -> Optional[int]:
        """Public pressure-relief entry point: demote the coldest
        evictable fast-tier resident unconditionally (no incoming-heat
        comparison).  Returns 1 on success, ``None`` if nothing could be
        evicted within ``budget``."""
        return self._evict_one(
            float("inf"), residents, budget, interpreter, stats
        )

    def _evict_one(
        self,
        incoming_score: float,
        residents: List[Tuple[object, float]],
        budget: EpochBudget,
        interpreter,
        stats,
    ) -> Optional[int]:
        """Demote the fast-tier resident whose *move plan* carries the
        least heat, provided it is strictly colder than the incoming
        range.  Returns 1 on success, ``None`` if nothing evictable (or
        the budget cannot cover the demotion).

        Residents sharing a seed page range get the same plan, checks and
        score, and ``best`` moves only on a strictly lower score, so each
        seed range is planned once: the first resident holding it is the
        only one that could be chosen."""
        kernel = self.kernel
        frames = kernel.frames
        runtime = self.process.runtime
        best = None
        degradation = kernel.degradation
        planned = set()
        for index, (victim, _) in enumerate(residents):
            if kernel.memory.tier_of(victim.address) != "fast":
                continue  # already moved (dragged by an earlier plan)
            seed = _seed_range(victim)
            if seed in planned:
                continue
            planned.add(seed)
            plan = runtime.patcher.plan_move(*seed)
            if plan.page_count > self.max_allocation_pages:
                continue
            if degradation is not None and not degradation.allows(plan.lo, plan.hi):
                continue  # pinned (quarantined) after repeated failures
            if kernel.shares is not None and kernel.shares.range_shared(
                self.process.pid, plan.lo, plan.hi
            ):
                continue  # CoW-shared pages are pinned for policy moves
            if kernel.move_queue is not None and kernel.move_queue.overlaps_pending(
                self.process.pid, plan.lo, plan.hi
            ):
                continue  # already queued for an incremental move
            plan_score = self._range_heat(plan.lo, plan.hi)
            if plan_score >= incoming_score:
                continue  # would carry out something at least as hot
            if best is None or plan_score < best[0]:
                best = (plan_score, index, plan)
        if best is None:
            return None  # everything evictable is at least as hot
        _, index, plan = best
        estimate = estimate_move_cycles(kernel, runtime, plan, interpreter)
        if not budget.can_afford(estimate):
            budget.skipped += 1
            return None
        try:
            destination = frames.alloc_address(plan.page_count, tier="slow")
        except OutOfMemoryError:
            return None  # slow tier full too; give up this epoch
        residents.pop(index)
        result = perform_move(
            kernel,
            self.process,
            interpreter,
            plan.lo,
            plan.page_count,
            destination,
            "policy-demote",
            heat=self.heat,
            estimate=estimate,
        )
        if result is None:
            # Degraded: the victim stays put (its range is quarantined)
            # and rollback already gave back the slow-tier range; stop
            # trying this epoch.
            return None
        _, _, cycles = result
        budget.charge(cycles)
        self.demotions += 1
        if stats is not None:
            stats.demotions += 1
        return 1

    # -- reporting ---------------------------------------------------------------

    def fast_tier_bytes_used(self) -> int:
        lo, hi = self.kernel.frames.tier_bounds("fast")
        free = self.kernel.frames.free_frames_in("fast")
        return ((hi - lo) - free) * PAGE_SIZE
