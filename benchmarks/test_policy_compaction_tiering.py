"""Policy-engine experiments: compaction and tiered placement on CARAT.

Not a figure from the paper — this benchmark exercises the paper's
*argument* (Sections 1-2, 7): once address translation is a software
protocol, the kernel memory services hardware paging makes painful
become cheap policy loops over one mechanism.  Two experiments:

* **Compaction** — pre-fragment physical memory by scattering each
  workload's capsule (external-fragmentation index driven above 0.7),
  then run under the policy engine and measure how far heat-tracked,
  budgeted compaction drives the EFI back down.  Accept: ≥50% EFI
  reduction, with every epoch's move-cycle budget respected.

* **Tiering** — run on a machine with a small fast tier and a large slow
  tier (capsules land in the slow tier), and measure the share of
  accesses hitting the fast tier in the final epochs after the balancer
  promotes the hot working set.  Accept: tail hot-tier share ≥80%,
  promotions happened, budgets respected.
"""

from harness import arith_mean, emit_table, run_carat

from repro.kernel.kernel import Kernel
from repro.policy import (
    CompactionDaemon,
    HeatTracker,
    PolicyEngine,
    TieringBalancer,
    assess_fragmentation,
    scatter_capsule,
)

MB = 1024 * 1024

#: A slice of the suite covering the behaviour classes: regular-affine,
#: pointer-chase, irregular-gather, mixed.
POLICY_SUITE = ["hpccg", "canneal", "mcf", "nab", "ep"]

HEAP = 512 * 1024
STACK = 128 * 1024
EPOCH_CYCLES = 5_000
BUDGET_CYCLES = 100_000


def _run_compaction(runs, name):
    kernel = Kernel(memory_size=16 * MB)
    engine = None
    before = None

    def setup(interpreter):
        nonlocal engine, before
        interpreter.set_tick_interval(1_000)
        process = interpreter.process
        scatter_capsule(kernel, process, interpreter=interpreter)
        before = assess_fragmentation(kernel.frames)
        engine = PolicyEngine(
            kernel,
            process,
            epoch_cycles=EPOCH_CYCLES,
            budget_cycles=BUDGET_CYCLES,
            compaction=CompactionDaemon(
                kernel, process, target_fragmentation=0.05
            ),
        )
        engine.attach(interpreter)

    result = run_carat(
        runs.binary(name, "full"),
        kernel=kernel,
        name=name,
        heap_size=HEAP,
        stack_size=STACK,
        setup=setup,
    )
    assert result.exit_code == 0
    after = assess_fragmentation(kernel.frames)
    return before, after, engine.stats


def _run_tiering(runs, name):
    kernel = Kernel(memory_size=16 * MB, fast_memory=1 * MB)
    engine = None

    def setup(interpreter):
        nonlocal engine
        interpreter.set_tick_interval(1_000)
        process = interpreter.process
        heat = HeatTracker(decay=0.5)
        engine = PolicyEngine(
            kernel,
            process,
            epoch_cycles=EPOCH_CYCLES,
            budget_cycles=BUDGET_CYCLES,
            heat=heat,
            tiering=TieringBalancer(
                kernel, process, heat, max_allocation_pages=40
            ),
        )
        engine.attach(interpreter)

    result = run_carat(
        runs.binary(name, "full"),
        kernel=kernel,
        name=name,
        heap_size=HEAP,
        stack_size=STACK,
        setup=setup,
    )
    assert result.exit_code == 0
    return result, engine.stats


def _tail_share(stats, window=3):
    tail = stats.hot_share_history[-window:]
    return arith_mean(tail) if tail else float("nan")


def _collect(runs):
    compaction_rows = []
    tiering_rows = []
    for name in POLICY_SUITE:
        before, after, cstats = _run_compaction(runs, name)
        compaction_rows.append(
            (
                name,
                before.external_fragmentation,
                after.external_fragmentation,
                1.0 - after.external_fragmentation
                / max(before.external_fragmentation, 1e-12),
                cstats.compaction_moves,
                cstats.move_cycles,
                max(cstats.epoch_move_cycles, default=0),
                "yes" if cstats.budgets_respected else "NO",
            )
        )
        result, tstats = _run_tiering(runs, name)
        tiering_rows.append(
            (
                name,
                result.stats.slow_tier_accesses,
                result.stats.fast_tier_accesses,
                result.stats.hot_tier_share(),
                _tail_share(tstats),
                tstats.promotions,
                tstats.demotions,
                "yes" if tstats.budgets_respected else "NO",
            )
        )
    return compaction_rows, tiering_rows


def test_policy_compaction_and_tiering(runs, benchmark):
    compaction_rows, tiering_rows = benchmark.pedantic(
        _collect, args=(runs,), rounds=1, iterations=1
    )
    emit_table(
        "policy_compaction",
        "Policy engine: external fragmentation before/after budgeted "
        f"compaction (budget {BUDGET_CYCLES} cycles per {EPOCH_CYCLES}-cycle "
        "epoch)",
        ["benchmark", "EFI_before", "EFI_after", "reduction",
         "moves", "move_cycles", "max_epoch_spend", "budgets_ok"],
        compaction_rows,
    )
    emit_table(
        "policy_tiering",
        "Policy engine: hot/cold placement across a 1 MiB fast + 15 MiB "
        "slow tier (capsules start in the slow tier)",
        ["benchmark", "slow_accesses", "fast_accesses", "overall_share",
         "tail_share", "promotions", "demotions", "budgets_ok"],
        tiering_rows,
    )

    for row in compaction_rows:
        name, before_efi, after_efi, reduction, moves, _, max_spend, ok = row
        assert before_efi > 0.5, (name, "scatter failed to fragment")
        assert moves > 0, (name, "compaction never ran")
        assert reduction >= 0.5, (name, "EFI not halved", before_efi, after_efi)
        assert max_spend <= BUDGET_CYCLES, (name, "epoch overspent")
        assert ok == "yes", (name, "budget overrun")

    for row in tiering_rows:
        name, _, fast, _, tail, promotions, _, ok = row
        assert promotions > 0, (name, "nothing promoted")
        assert fast > 0, (name, "no fast-tier accesses")
        assert tail >= 0.8, (name, "tail hot-tier share below 80%", tail)
        assert ok == "yes", (name, "budget overrun")
