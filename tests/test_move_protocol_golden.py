"""The move protocol's step sequence, pinned.

Every mapping change runs one protocol (Figure 8): patch escapes, patch
register snapshots, copy the bytes, rebase the tracking structures.  The
fault injector fires by progress count (a ``torn`` fault lands at
``done == total // 2``) and a rollback charges per journal entry, so the
*order* of the protocol's fault hooks and journal records is part of the
modeled clock.  This file drives serial page moves (including
overlapping slides up and down), allocation moves, queued incremental
moves (batch sizes 1 and 4 x chunk budgets 0 and 400) and one ``torn``
fault at every torn-capable step, and records for each move:

* every ``(step, progress)`` fault-hook call (``H`` lines);
* every journal record's step and label (``J`` lines);
* every rollback's entry count (``R`` lines);
* the move's :class:`~repro.runtime.patching.MoveCost` (``C`` lines),

plus the tracking state after the standalone patcher moves and the
program's output after the kernel-level ones.  The trace must equal
``benchmarks/golden/move_protocol.txt`` line for line.

Regenerate the golden file only when a change reorders the protocol on
purpose, and say why in ``CHANGES.md``::

    PYTHONPATH=src python tests/test_move_protocol_golden.py > benchmarks/golden/move_protocol.txt
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path
from typing import List

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.carat import compile_carat
from repro.kernel import Kernel, PAGE_SIZE
from repro.kernel.physmem import PhysicalMemory
from repro.machine.interp import Interpreter
from repro.resilience import MoveJournal, MoveQueue, MoveRequest
from repro.resilience.journal import TORN_CAPABLE_STEPS
from repro.runtime import (
    AllocationTable,
    AllocationToEscapeMap,
    Patcher,
    RegisterSnapshot,
)
from repro.sanitizer.faults import FaultPoint, ProtocolFaultInjector

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "golden" / "move_protocol.txt"
)

#: A linked list of mixed-size nodes: stopped mid-build, the heap spans
#: two pages, every node's ``next`` cell is an escape inside the moved
#: range, and the live frame holds pointer registers into it.
SOURCE = """
struct Node { long value; struct Node *next; };
struct Node *head;
void main() {
  long i;
  for (i = 0; i < 40; i++) {
    struct Node *node = (struct Node*)malloc(112 + (i % 3) * 32);
    node->value = i;
    node->next = head;
    head = node;
  }
  long total = 0;
  struct Node *p = head;
  while (p != null) { total += p->value; p = p->next; }
  print_long(total);
}
"""
STEPS_BEFORE_MOVES = 700


class _Recorder:
    """A fault injector that logs every call before delegating, and the
    sink for the journal hooks below."""

    def __init__(self, points=()) -> None:
        self.lines: List[str] = []
        self.inner = ProtocolFaultInjector(list(points))

    def begin_move(self) -> None:
        self.lines.append("move")
        self.inner.begin_move()

    def on_step(self, step, progress=None) -> None:
        if progress is None:
            self.lines.append(f"H {step}")
        else:
            self.lines.append(f"H {step} {progress[0]}/{progress[1]}")
        self.inner.on_step(step, progress)

    __call__ = on_step

    def cost(self, cost) -> None:
        self.lines.append("C " + " ".join(
            f"{key}={value}" for key, value in cost.to_dict().items()
        ))


@contextlib.contextmanager
def _journal_log(recorder: _Recorder):
    """Log every journal record and every rollback's entry count."""
    record, rollback = MoveJournal.record, MoveJournal.rollback

    def logged_record(self, step, label, undo):
        recorder.lines.append(f"J {step} {label}")
        record(self, step, label, undo)

    def logged_rollback(self):
        undone = rollback(self)
        recorder.lines.append(f"R {undone}")
        return undone

    MoveJournal.record, MoveJournal.rollback = logged_record, logged_rollback
    try:
        yield
    finally:
        MoveJournal.record, MoveJournal.rollback = record, rollback


# ---------------------------------------------------------------------------
# Standalone patcher: several allocations, overlapping slides
# ---------------------------------------------------------------------------


def _patcher_moves(out: List[str]) -> None:
    memory = PhysicalMemory(1024 * 1024)
    patcher = Patcher(AllocationTable(), AllocationToEscapeMap(), memory)
    table, escapes = patcher.table, patcher.escapes
    a = table.add(0x10000, 64)
    table.add(0x10040, 32)
    table.add(0x11000, 64)
    table.add(0x11FC0, 0x80)  # straddles 0x12000: the plan expands
    cells = {
        0x20000: 0x10010,  # outside -> a
        0x20008: 0x11020,  # outside -> c
        0x20010: 0x12010,  # outside -> d's tail
        0x10008: 0x10040,  # a.next -> b: an escape inside the range
        0x11008: 0x10000,  # c -> a, inside the range
        0x11FC8: 0x11000,  # d -> c, inside the range
        0x20018: 0x10020,  # goes stale below
    }
    for cell, value in cells.items():
        memory.write_u64(cell, value)
        escapes.record(cell)
    escapes.flush(table, memory.read_u64)
    memory.write_u64(0x20018, 7)
    for offset in range(0, 0x80, 8):
        memory.write_u64(0x11000 + offset + 0x10, 0x5A00 + offset)

    def snapshots():
        return [
            RegisterSnapshot(0, {"p": a.address + 8, "n": 0x99999}, {"p", "n"}),
            RegisterSnapshot(1, {"q": a.address + 0x1010, "i": a.address}, {"q"}),
        ]

    def state() -> str:
        parts = []
        for allocation in sorted(table, key=lambda x: x.address):
            locations = sorted(escapes.escapes_of(allocation))
            parts.append(
                f"{allocation.address:#x}:"
                + ",".join(f"{loc:#x}" for loc in locations)
            )
        return "S " + " ".join(parts)

    moves = [
        ("slide up one page", 0x10000, 0x12000, 0x11000, True),
        ("slide down one page", 0x11000, 0x13000, 0x10000, True),
        ("far move, rolled back", 0x10000, 0x11000, 0x40000, False),
        ("far move", 0x10000, 0x11000, 0x40000, True),
    ]
    for title, lo, hi, destination, commit in moves:
        recorder = _Recorder()
        out.append(f"## patcher: {title}")
        with _journal_log(recorder):
            plan = patcher.plan_move(lo, hi)
            recorder.lines.append(
                f"plan [{plan.lo:#x}, {plan.hi:#x}) "
                f"{len(plan.allocations)} allocation(s)"
            )
            journal = MoveJournal()
            cost = patcher.execute_move(
                plan, destination, snapshots(),
                journal=journal, fault_hook=recorder,
            )
            recorder.cost(cost)
            if commit:
                journal.commit()
            else:
                journal.rollback()
        out.extend(recorder.lines)
        out.append(state())


# ---------------------------------------------------------------------------
# Kernel-level moves
# ---------------------------------------------------------------------------


def _loaded(binary):
    kernel = Kernel()
    process = kernel.load_carat(binary)
    interp = Interpreter(process, kernel)
    interp.start("main")
    interp.run_steps(STEPS_BEFORE_MOVES)
    process.runtime.flush_escapes()
    return kernel, process, interp


def _finish(out: List[str], recorder: _Recorder, interp) -> None:
    interp.run_steps(10_000_000)
    out.extend(recorder.lines)
    out.append(f"fired {recorder.inner.fired}")
    out.append(f"output {interp.output}")


def _serial(binary, out: List[str], points=()) -> None:
    kernel, process, interp = _loaded(binary)
    recorder = _Recorder(points)
    kernel.attach_fault_injector(recorder)
    heap = process.layout.heap_base
    with _journal_log(recorder):
        for count in (2, 1):
            snapshots = interp.register_snapshots()
            plan, cost, cycles = kernel.request_page_move(
                process, heap, count, register_snapshots=snapshots
            )
            interp.apply_snapshots(snapshots)
            recorder.lines.append(
                f"plan [{plan.lo:#x}, {plan.hi:#x}) cycles={cycles}"
            )
            recorder.cost(cost)
            heap = process.layout.heap_base
    _finish(out, recorder, interp)


def _allocation(binary, out: List[str], points=()) -> None:
    kernel, process, interp = _loaded(binary)
    recorder = _Recorder(points)
    kernel.attach_fault_injector(recorder)
    runtime = process.runtime
    with _journal_log(recorder):
        heap = [a for a in runtime.table if a.kind == "heap"]
        for victim in (runtime.worst_case_allocation(), heap[0], heap[-1]):
            snapshots = interp.register_snapshots()
            cost, cycles = kernel.request_allocation_move(
                process, victim, register_snapshots=snapshots
            )
            interp.apply_snapshots(snapshots)
            recorder.lines.append(f"moved to {victim.address:#x} cycles={cycles}")
            recorder.cost(cost)
    _finish(out, recorder, interp)


def _queued(binary, out: List[str], batch_size, chunk_budget, points=()) -> None:
    kernel, process, interp = _loaded(binary)
    recorder = _Recorder(points)
    kernel.attach_fault_injector(recorder)
    queue = MoveQueue(kernel, batch_size=batch_size, chunk_budget=chunk_budget)
    kernel.attach_move_queue(queue)
    patcher = process.runtime.patcher
    hole, _ = kernel.frames.free_runs(None)[-1]
    taken = []
    for page in (process.layout.globals_base, process.layout.heap_base,
                 process.layout.heap_base + PAGE_SIZE):
        plan = patcher.plan_move(page, page + PAGE_SIZE)
        if any(plan.lo < hi and plan.hi > lo for lo, hi in taken):
            continue
        taken.append((plan.lo, plan.hi))
        assert kernel.frames.alloc_at(hole, plan.page_count)
        queue.enqueue(MoveRequest(
            process=process,
            lo=plan.lo,
            page_count=plan.page_count,
            destination=hole * PAGE_SIZE,
            interpreter=interp,
        ))
        hole += plan.page_count
    with _journal_log(recorder):
        queue.drain_all()
    recorder.lines.append(f"stats {queue.stats}")
    recorder.cost(process.runtime.stats.move_cost_accum)
    _finish(out, recorder, interp)


def protocol_trace() -> str:
    binary = compile_carat(SOURCE, module_name="golden")
    out: List[str] = []
    _patcher_moves(out)
    out.append("## serial page moves")
    _serial(binary, out)
    out.append("## allocation moves")
    _allocation(binary, out)
    for batch_size in (1, 4):
        for chunk_budget in (0, 400):
            out.append(f"## queued moves: batch {batch_size}, chunk {chunk_budget}")
            _queued(binary, out, batch_size, chunk_budget)
    for step in sorted(TORN_CAPABLE_STEPS):
        torn = [FaultPoint(step, "torn")]
        out.append(f"## torn {step}: serial page moves")
        _serial(binary, out, torn)
        out.append(f"## torn {step}: allocation moves")
        _allocation(binary, out, torn)
        out.append(f"## torn {step}: queued moves, batch 4, chunk 400")
        _queued(binary, out, 4, 400, torn)
    return "\n".join(out) + "\n"


def test_move_protocol_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = protocol_trace().splitlines()
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"golden line {number} differs"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    sys.stdout.write(protocol_trace())
