"""Differential correctness: the policy engine must be semantically
invisible.

CARAT's core safety claim is that moves preserve program semantics —
every pointer (escape, register, tracked base) is patched before the
program can observe the new layout.  The policy engine stacks dozens of
*unsolicited* moves (scatter, compaction, promotion, demotion) on top of
normal execution, so we check the end-to-end version of the claim: for
escape-heavy workloads, a run under an aggressive policy engine on a
tiered, pre-fragmented machine produces bit-identical output to a plain
CARAT run, while actually performing policy moves.
"""

import pytest

from repro.kernel.kernel import Kernel
from repro.resilience import DegradationManager
from tests.support import run_carat
from repro.policy import (
    CompactionDaemon,
    HeatTracker,
    PolicyEngine,
    TieringBalancer,
    scatter_capsule,
)
from repro.workloads import get_workload

MB = 1024 * 1024

#: Pointer-heavy / escape-heavy workloads: linked structures and index
#: arrays make these the most move-sensitive programs in the suite.
WORKLOADS = ["canneal", "mcf", "nab"]


def _plain_run(workload):
    return run_carat(
        workload.source,
        name=workload.name,
        heap_size=512 * 1024,
        stack_size=128 * 1024,
        sanitize=True,
    )


def _policy_run(workload):
    kernel = Kernel(memory_size=16 * MB, fast_memory=1 * MB)
    engine = None

    def setup(interpreter):
        nonlocal engine
        interpreter.set_tick_interval(1_000)
        process = interpreter.process
        scatter_capsule(kernel, process, interpreter=interpreter)
        heat = HeatTracker()
        engine = PolicyEngine(
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
        engine.attach(interpreter)

    result = run_carat(
        workload.source,
        kernel=kernel,
        name=workload.name,
        heap_size=512 * 1024,
        stack_size=128 * 1024,
        setup=setup,
        sanitize=True,
    )
    return result, engine


@pytest.mark.parametrize("name", WORKLOADS)
def test_policy_engine_preserves_semantics(name):
    workload = get_workload(name, "tiny")
    plain = _plain_run(workload)
    moved, engine = _policy_run(workload)

    assert moved.exit_code == plain.exit_code == 0
    assert moved.output == plain.output  # bit-identical program output
    if workload.checksum is not None:
        assert moved.output[-1] == str(workload.checksum)

    # The run was genuinely disturbed, not a vacuous pass: the engine
    # performed policy moves and stayed within every epoch budget.
    assert engine.stats.total_moves > 0
    assert engine.stats.epochs > 0
    assert engine.stats.budgets_respected

    # And the instrumented program did the same amount of program work.
    assert moved.instructions == plain.instructions

    # Both runs executed under the cross-layer invariant checker: every
    # policy move was audited at the change request that made it.
    assert plain.sanitizer.ok
    assert moved.sanitizer.ok and moved.sanitizer.checks_run > 0


class _RecordingHeat(HeatTracker):
    """A heat tracker that logs its state at every epoch boundary: the
    window and access count the epoch closes with, then the scores it
    folds them into."""

    def __init__(self) -> None:
        super().__init__(decay=0.5)
        self.log = []

    def end_epoch(self) -> None:
        self.log.append((dict(self.window), self.accesses_seen))
        super().end_epoch()
        self.log.append((dict(self.scores), self.accesses_seen))


def _heat_run(workload, engine_name):
    """A ``repro policy --scatter`` run (compaction and tiering on a
    tiered, pre-fragmented machine) on ``engine_name``; returns the
    result, the engine and the heat tracker."""
    kernel = Kernel(memory_size=8 * MB, fast_memory=1 * MB)
    kernel.attach_degradation(DegradationManager())
    heat = _RecordingHeat()
    engine = None

    def setup(interpreter):
        nonlocal engine
        process = interpreter.process
        scatter_capsule(kernel, process, interpreter=interpreter)
        engine = PolicyEngine(
            kernel,
            process,
            epoch_cycles=20_000,
            heat=heat,
            compaction=CompactionDaemon(kernel, process),
            tiering=TieringBalancer(
                kernel, process, heat, max_allocation_pages=40
            ),
        )
        engine.attach(interpreter)

    result = run_carat(
        workload.source,
        kernel=kernel,
        name=workload.name,
        heap_size=512 * 1024,
        stack_size=128 * 1024,
        setup=setup,
        engine=engine_name,
    )
    return result, engine, heat


@pytest.mark.parametrize("name", ["mcf", "hpccg"])
def test_heat_window_is_identical_on_every_engine(name):
    # Every engine bumps the heat window inline on each load and store;
    # the policy reads it only at epoch boundaries, so the window,
    # scores and access count must agree there, epoch by epoch.
    workload = get_workload(name, "tiny")
    runs = {e: _heat_run(workload, e) for e in ("reference", "fast", "trace")}
    reference, engine, heat = runs["reference"]
    assert engine.stats.epochs > 1 and engine.stats.total_moves > 0
    assert heat.accesses_seen == reference.stats.loads + reference.stats.stores
    for engine_name in ("fast", "trace"):
        result, other_engine, other = runs[engine_name]
        assert result.output == reference.output
        assert other.log == heat.log, engine_name
        assert dict(other.window) == dict(heat.window)
        assert other.scores == heat.scores
        assert other.accesses_seen == heat.accesses_seen
        assert other_engine.stats.total_moves == engine.stats.total_moves
    assert runs["trace"][0].stats.traces_compiled > 0
