"""The move-pause frontier: serial stop-the-world vs incremental moves.

The incremental protocol (async queue -> multi-move batches -> chunked
pre-copy -> one short flip) exists to bound pauses.  This benchmark maps
the frontier on the escape-heavy ``canneal`` workload under the
aggressive policy configuration the differential suite uses (scatter,
compaction, tiering, 5k-cycle epochs): one serial baseline where every
policy move stops the world for its full duration, then a sweep of
batch sizes x chunk budgets through the queue.

Reported per configuration, over the *policy* moves only (scatter's
synchronous setup moves happen before there is a program to pause, so
the pause log is cleared after scatter):

* ``p99_pause`` / ``max_pause`` — nearest-rank p99 and max of the
  per-pause cycle samples (``kernel.pause_log``);
* ``pages_moved`` and ``move_cycles`` — and their ratio,
  ``pages_per_kilocycle``, the throughput of the move subsystem
  (batching amortizes per-move fixed costs, so the queue should
  relocate *at least* as many pages per cycle spent moving).

Emitted: the repo-root ``BENCH_movepause.json`` (the full frontier)
and the table ``movepause_frontier.txt``; CI's ``tables`` job diffs
both.  The gates: the best chunked configuration must cut p99 pause by
at least 5x against serial at equal-or-better move throughput, every
chunked configuration must beat serial's p99, and every configuration
must move pages, with bit-identical program output.
"""

from harness import emit_bench, emit_table, metric, run_carat

from repro.kernel.kernel import Kernel
from repro.multiproc.scheduler import percentile
from repro.policy import (
    CompactionDaemon,
    HeatTracker,
    PolicyEngine,
    TieringBalancer,
    scatter_capsule,
)
from repro.resilience import MoveQueue
from repro.workloads import get_workload

MB = 1024 * 1024
WORKLOAD = "canneal"

#: The sweep: >= 3 batch sizes x >= 3 chunk budgets.  ``chunk_budget=0``
#: is the unchunked queue (batching without bounded pre-copy) — it
#: isolates how much of the win is chunking vs batching.
BATCH_SIZES = [1, 4, 8]
CHUNK_BUDGETS = [0, 400, 1200]

#: The p99 cut the best chunked configuration must reach.
MIN_P99_CUT = 5.0


def _frontier_run(batch_size=None, chunk_budget=0, engine="reference"):
    """One policy run; returns the pause/throughput summary for the
    policy-move phase (post-scatter)."""
    workload = get_workload(WORKLOAD, "tiny")
    kernel = Kernel(memory_size=16 * MB, fast_memory=1 * MB)
    if batch_size is not None:
        kernel.attach_move_queue(
            MoveQueue(kernel, batch_size=batch_size, chunk_budget=chunk_budget)
        )
    scatter_pages = {}

    def setup(interpreter):
        interpreter.set_tick_interval(1_000)
        process = interpreter.process
        scatter_capsule(kernel, process, interpreter=interpreter)
        kernel.pause_log.clear()
        scatter_pages["n"] = process.pages_moved
        heat = HeatTracker()
        engine_ = PolicyEngine(
            kernel,
            process,
            epoch_cycles=5_000,
            budget_cycles=500_000,
            heat=heat,
            compaction=CompactionDaemon(
                kernel, process, target_fragmentation=0.05
            ),
            tiering=TieringBalancer(
                kernel, process, heat, max_allocation_pages=40
            ),
        )
        engine_.attach(interpreter)

    result = run_carat(
        workload.source,
        kernel=kernel,
        name=workload.name,
        heap_size=512 * 1024,
        stack_size=128 * 1024,
        setup=setup,
        sanitize=True,
        engine=engine,
    )
    assert result.exit_code == 0
    pauses = kernel.pause_log.get(result.process.pid, [])
    pages = result.process.pages_moved - scatter_pages["n"]
    move_cycles = sum(pauses)
    summary = {
        "batch_size": batch_size,
        "chunk_budget": chunk_budget,
        "pauses": len(pauses),
        "p99_pause": percentile(pauses, 0.99),
        "max_pause": max(pauses) if pauses else 0,
        "pages_moved": pages,
        "move_cycles": move_cycles,
        "pages_per_kilocycle": round(
            pages * 1000 / move_cycles, 4
        ) if move_cycles else 0.0,
    }
    if kernel.move_queue is not None:
        stats = kernel.move_queue.stats
        assert kernel.move_queue.idle  # drained before the final checkpoint
        summary.update(
            moves_serviced=stats.serviced,
            batches=stats.batches,
            chunks=stats.chunks,
            flips=stats.flips,
            stale_drops=stats.stale_drops,
        )
    else:
        summary["moves_serviced"] = kernel.stats.moves_committed
    return summary, tuple(result.output)


def test_move_pause_frontier():
    serial, serial_output = _frontier_run()

    sweep = []
    for batch_size in BATCH_SIZES:
        for chunk_budget in CHUNK_BUDGETS:
            entry, output = _frontier_run(batch_size, chunk_budget)
            # The incremental protocol is semantically invisible: every
            # configuration computes exactly what serial computes.
            assert output == serial_output, (
                f"mb={batch_size} cb={chunk_budget}: output diverged"
            )
            entry["p99_cut"] = round(
                serial["p99_pause"] / entry["p99_pause"], 2
            ) if entry["p99_pause"] else float("inf")
            sweep.append(entry)

    chunked = [e for e in sweep if e["chunk_budget"] > 0]
    best = min(chunked, key=lambda e: (e["p99_pause"], -e["pages_per_kilocycle"]))

    emit_table(
        "movepause_frontier",
        f"Move-pause frontier on {WORKLOAD} (tiny scale, policy moves; "
        "serial = synchronous stop-the-world)",
        ["config", "pauses", "p99", "max", "pages", "pages/kcyc", "p99 cut"],
        [
            (
                "serial",
                serial["pauses"], serial["p99_pause"], serial["max_pause"],
                serial["pages_moved"], serial["pages_per_kilocycle"], "1.0x",
            )
        ]
        + [
            (
                f"mb={e['batch_size']} cb={e['chunk_budget']}",
                e["pauses"], e["p99_pause"], e["max_pause"],
                e["pages_moved"], e["pages_per_kilocycle"],
                f"{e['p99_cut']}x",
            )
            for e in sweep
        ],
        footer=[
            f"best chunked: mb={best['batch_size']} cb={best['chunk_budget']} "
            f"-> p99 {best['p99_pause']} ({best['p99_cut']}x cut, "
            f"floor {MIN_P99_CUT}x)"
        ],
    )

    # The gates.  p99: the whole point of the incremental protocol.
    # Throughput: batching must amortize, not tax -- at least as many
    # pages relocated per cycle spent in the move subsystem.  And every
    # chunked configuration improves p99, so the frontier is monotone in
    # the right direction, not a single lucky point.
    emit_bench(
        "movepause",
        {"workload": WORKLOAD, "scale": "tiny", "batch_sizes": BATCH_SIZES,
         "chunk_budgets": CHUNK_BUDGETS},
        {
            "serial.pauses": metric(serial["pauses"], "pauses", "higher", 1),
            "serial.p99_pause": metric(serial["p99_pause"], "cycles", "higher", 1),
            "configurations": metric(len(sweep), "configs", "higher", 9),
            "pages_moved_min": metric(
                min(e["pages_moved"] for e in [serial] + sweep),
                "pages", "higher", 1),
            "moves_serviced_min": metric(
                min(e["moves_serviced"] for e in sweep), "moves", "higher", 1),
            "best.batch_size": metric(best["batch_size"], "moves"),
            "best.chunk_budget": metric(best["chunk_budget"], "cycles"),
            "best.p99_pause": metric(best["p99_pause"], "cycles", "lower"),
            "best.p99_cut": metric(
                serial["p99_pause"] / best["p99_pause"], "x", "higher",
                MIN_P99_CUT),
            "best.throughput_ratio": metric(
                best["pages_per_kilocycle"] / serial["pages_per_kilocycle"],
                "x", "higher", 1.0),
            "chunked.p99_margin_min": metric(
                min(serial["p99_pause"] - e["p99_pause"] for e in chunked),
                "cycles", "higher", 1),
        },
        [serial] + sweep,
    )
