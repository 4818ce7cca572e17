"""The :class:`PolicyEngine` facade: epochs, budgets, and accounting.

The engine owns the policy loop's clockwork.  It chains onto the
interpreter's tick hook (the safepoint callback that fires every
``tick_interval`` instructions) and forwards the program's elapsed
cycles into :meth:`Kernel.advance_clock`; the kernel calls back into
:meth:`PolicyEngine.on_clock`, which fires an *epoch* every
``epoch_cycles`` of program time.  Each epoch:

1. folds the heat tracker's access window into decayed scores,
2. gives the compaction daemon and tiering balancer a fresh
   :class:`EpochBudget` of ``budget_cycles`` to spend on moves,
3. records fragmentation, hot-tier share, and spend into
   :class:`PolicyStats`.

Because every move is gated on an upper-bound estimate against the
shared budget, ``PolicyStats.budgets_respected`` is an invariant, not a
hope — the benchmark asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.policy.fragmentation import assess_fragmentation
from repro.policy.heat import HeatTracker
from repro.policy.moves import EpochBudget

__all__ = ["EpochBudget", "PolicyEngine", "PolicyStats"]


@dataclass
class PolicyStats:
    """Counters the policy engine maintains across its lifetime."""

    budget_cycles: int = 0
    epochs: int = 0
    compaction_moves: int = 0
    promotions: int = 0
    demotions: int = 0
    moves_skipped_budget: int = 0
    move_cycles: int = 0
    budget_overruns: int = 0
    #: Epochs spent idle because the DegradationManager held the engine
    #: in post-failure cooldown (heat still decays; no moves are planned).
    degraded_epochs: int = 0
    #: Per-epoch cycle spend, post-epoch fragmentation (EFI over the
    #: whole allocator), and the share of *that epoch's* accesses that
    #: hit the fast tier (the convergence signal for tiering).
    epoch_move_cycles: List[int] = field(default_factory=list)
    frag_history: List[float] = field(default_factory=list)
    hot_share_history: List[float] = field(default_factory=list)

    @property
    def total_moves(self) -> int:
        return self.compaction_moves + self.promotions + self.demotions

    @property
    def budgets_respected(self) -> bool:
        """True iff no epoch ever spent past its cycle budget."""
        return self.budget_overruns == 0 and all(
            spent <= self.budget_cycles for spent in self.epoch_move_cycles
        )

    def describe(self) -> str:
        frag = (
            f"{self.frag_history[0]:.3f} -> {self.frag_history[-1]:.3f}"
            if self.frag_history
            else "n/a"
        )
        hot = (
            f"{self.hot_share_history[-1]:.1%}" if self.hot_share_history else "n/a"
        )
        degraded = (
            f", {self.degraded_epochs} degraded" if self.degraded_epochs else ""
        )
        return (
            f"{self.epochs} epoch(s){degraded}: {self.compaction_moves} "
            f"compaction, {self.promotions} promote, {self.demotions} demote "
            f"({self.moves_skipped_budget} skipped on budget); "
            f"{self.move_cycles} move cycles, budgets "
            f"{'respected' if self.budgets_respected else 'OVERRUN'}; "
            f"EFI {frag}, hot-tier share {hot}"
        )


class PolicyEngine:
    """Drives heat tracking, compaction, and tiering off the kernel clock.

    ``compaction`` and ``tiering`` are pre-built
    :class:`~repro.policy.compaction.CompactionDaemon` /
    :class:`~repro.policy.tiering.TieringBalancer` instances (either may
    be ``None`` to disable that policy).  Call :meth:`attach` with the
    interpreter running the process before execution starts.
    """

    def __init__(
        self,
        kernel,
        process,
        epoch_cycles: int = 50_000,
        budget_cycles: int = 25_000,
        heat: Optional[HeatTracker] = None,
        compaction=None,
        tiering=None,
    ) -> None:
        if epoch_cycles < 1 or budget_cycles < 0:
            raise ValueError("epoch_cycles must be >= 1, budget_cycles >= 0")
        self.kernel = kernel
        self.process = process
        self.epoch_cycles = epoch_cycles
        self.budget_cycles = budget_cycles
        self.heat = heat if heat is not None else HeatTracker()
        self.compaction = compaction
        self.tiering = tiering
        # Compaction moves shift hot pages too: route our tracker in so
        # scores follow the bytes (the balancer already carries its own).
        if compaction is not None and compaction.heat is None:
            compaction.heat = self.heat
        self.interpreter = None
        self.stats = PolicyStats(budget_cycles=budget_cycles)
        self._next_epoch = kernel.clock_cycles + epoch_cycles
        self._last_cycles = 0
        self._last_fast = 0
        self._last_slow = 0
        self._in_epoch = False

    # -- wiring ------------------------------------------------------------------

    def attach(self, interpreter) -> None:
        """Hook the engine into an interpreter and its kernel: bind the
        heat tracker's window, chain a tick hook that forwards
        cycle progress to :meth:`Kernel.advance_clock`, and register as
        the kernel's policy."""
        self.interpreter = interpreter
        self.heat.install(interpreter)
        self._last_cycles = interpreter.stats.cycles
        previous = interpreter.tick_hook

        def hook(interp) -> None:
            if previous is not None:
                previous(interp)
            delta = interp.stats.cycles - self._last_cycles
            self._last_cycles = interp.stats.cycles
            if delta > 0:
                self.kernel.advance_clock(delta)

        interpreter.tick_hook = hook
        self.kernel.attach_policy(self)

    # -- the epoch loop ----------------------------------------------------------

    def on_clock(self, kernel) -> None:
        """Kernel-clock callback: fire every epoch boundary we crossed
        (bounded, so a single slow stretch cannot spiral)."""
        if self._in_epoch:
            return
        fired = 0
        while kernel.clock_cycles >= self._next_epoch:
            self.run_epoch()
            self._next_epoch += self.epoch_cycles
            fired += 1
            if fired >= 4:
                # We fell far behind (e.g. a huge cycle jump); resync
                # instead of replaying every missed epoch.
                self._next_epoch = kernel.clock_cycles + self.epoch_cycles
                break

    def run_epoch(self) -> None:
        """One policy epoch: decay heat, then let each daemon spend from
        a shared move budget, then record the after-state."""
        self._in_epoch = True
        tracer = getattr(self.kernel, "tracer", None)
        interpreter = self.interpreter
        cycles_at_entry = (
            interpreter.stats.cycles if interpreter is not None else 0
        )
        try:
            stats = self.stats
            stats.epochs += 1
            if tracer is not None:
                tracer.begin(
                    "policy.epoch", "policy", {"epoch": stats.epochs}
                )
            self.heat.end_epoch()
            budget = EpochBudget(self.budget_cycles)
            # Degraded mode: after a move failure the DegradationManager
            # holds the engine in cooldown — heat still decays and the
            # after-state is still recorded, but no moves are planned.
            degradation = getattr(self.kernel, "degradation", None)
            if degradation is not None and degradation.consume_cooldown_epoch():
                stats.degraded_epochs += 1
            else:
                if self.compaction is not None:
                    self.compaction.run_epoch(budget, self.interpreter, stats)
                if self.tiering is not None:
                    self.tiering.run_epoch(budget, self.interpreter, stats)
            stats.move_cycles += budget.spent
            stats.moves_skipped_budget += budget.skipped
            stats.epoch_move_cycles.append(budget.spent)
            if budget.spent > budget.limit:
                stats.budget_overruns += 1
            stats.frag_history.append(
                assess_fragmentation(self.kernel.frames).external_fragmentation
            )
            if self.interpreter is not None and self.kernel.frames.tiered:
                istats = self.interpreter.stats
                fast = istats.fast_tier_accesses - self._last_fast
                slow = istats.slow_tier_accesses - self._last_slow
                self._last_fast = istats.fast_tier_accesses
                self._last_slow = istats.slow_tier_accesses
                if fast + slow:
                    stats.hot_share_history.append(fast / (fast + slow))
        finally:
            self._in_epoch = False
            if interpreter is not None:
                # Interpreter cycles charged during the epoch (rolled-up
                # move/patch costs) are policy spend: let an attached
                # profiler book them under its ``policy`` bucket instead
                # of the catch-all ``patching`` remainder.
                profiler = getattr(interpreter, "profiler", None)
                epoch_cycles = interpreter.stats.cycles - cycles_at_entry
                if profiler is not None and epoch_cycles > 0:
                    profiler.attribute_external("policy", epoch_cycles)
            if tracer is not None:
                tracer.end(
                    "policy.epoch", "policy",
                    {"budget_spent": self.stats.epoch_move_cycles[-1]
                     if self.stats.epoch_move_cycles else 0},
                )
