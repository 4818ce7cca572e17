"""Multi-threaded execution: several interpreter contexts, one process.

The paper's change-request protocol (Figure 8) is inherently
multi-threaded: the kernel signals *every* thread, each dumps its
register state, they barrier, one coordinates the patch, and all resume.
:class:`ThreadGroup` provides that setting — N cooperative threads
(round-robin, fixed quantum) sharing one CARAT process's memory, heap,
and runtime, each on its own stack:

* thread 0 runs on the process stack;
* additional threads get stacks carved from the heap, registered with
  the Allocation Table as ``stack`` allocations (Section 2.2: "added
  stacks are allocated in heap memory"), so page moves treat them like
  any other data.

``stop_the_world`` gathers one register snapshot per thread;
``resume_after`` writes the (possibly patched) snapshots back.  The
group only yields control at the interpreters' safepoints, so kernel
activity between quanta is always patch-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import InterpError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.interp import Interpreter
from repro.runtime.patching import RegisterSnapshot

DEFAULT_THREAD_STACK = 64 * 1024
#: Fallback round-robin quantum when the caller passes none (a run
#: configured by a :class:`RunConfig` passes ``quantum=config.quantum``).
DEFAULT_QUANTUM = 400


@dataclass
class ThreadSpec:
    """One thread's entry point: a function name plus its arguments."""

    entry: str
    args: Tuple = ()


class ThreadGroup:
    """Cooperative threads over one process; see module docstring."""

    def __init__(
        self,
        process: Process,
        kernel: Kernel,
        specs: Sequence[ThreadSpec],
        quantum: Optional[int] = None,
        thread_stack_size: int = DEFAULT_THREAD_STACK,
    ) -> None:
        if not specs:
            raise ValueError("a thread group needs at least one thread")
        if quantum is None:
            quantum = DEFAULT_QUANTUM
        if quantum < 1:
            raise ValueError(f"quantum must be positive, not {quantum!r}")
        self.process = process
        self.kernel = kernel
        self.quantum = quantum
        self.threads: List[Interpreter] = []
        for i, spec in enumerate(specs):
            if i == 0:
                interp = Interpreter(process, kernel, thread_id=0)
            else:
                if process.heap is None:
                    raise InterpError("extra threads need a process heap")
                base = process.heap.malloc(thread_stack_size)
                top = base + thread_stack_size
                if process.runtime is not None:
                    process.runtime.on_alloc(base, thread_stack_size, "stack")
                interp = Interpreter(
                    process, kernel, stack_range=(base, top), thread_id=i
                )
            interp.start(spec.entry, spec.args)
            self.threads.append(interp)
        self._snapshots: Optional[List[List[RegisterSnapshot]]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    @property
    def alive(self) -> List[Interpreter]:
        return [t for t in self.threads if not t.finished]

    @property
    def all_done(self) -> bool:
        return not self.alive

    def run_round(self) -> bool:
        """One scheduling round: every live thread runs one quantum.
        Returns True while any thread remains.  Every thread is at a
        safepoint between quanta, so an attached move queue advances one
        bounded chunk here."""
        for thread in self.alive:
            thread.run_steps(self.quantum)
        queue = getattr(self.kernel, "move_queue", None)
        if queue is not None:
            queue.step()
        return not self.all_done

    def run_to_completion(self, max_rounds: int = 1_000_000) -> None:
        for _ in range(max_rounds):
            if not self.run_round():
                queue = getattr(self.kernel, "move_queue", None)
                if queue is not None:
                    queue.drain_all()
                return
        raise InterpError("thread group exceeded its round budget")

    # ------------------------------------------------------------------
    # World stop (Figure 8 steps 2-3 / 12)
    # ------------------------------------------------------------------

    def stop_the_world(self) -> List[RegisterSnapshot]:
        """Every thread dumps its registers; returns the combined snapshot
        list to hand to the kernel's change request."""
        if self.process.runtime is not None:
            self.process.runtime.world_stop(thread_count=len(self.alive) or 1)
        self._snapshots = [t.register_snapshots() for t in self.threads]
        combined: List[RegisterSnapshot] = []
        for snaps in self._snapshots:
            combined.extend(snaps)
        return combined

    def resume_after(self) -> None:
        """Write patched snapshots back and resume every thread."""
        if self._snapshots is None:
            raise InterpError("resume_after without a preceding stop_the_world")
        for thread, snaps in zip(self.threads, self._snapshots):
            thread.apply_snapshots(snaps)
        self._snapshots = None
        if self.process.runtime is not None:
            self.process.runtime.resume()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def output(self) -> List[str]:
        """All threads' output, thread 0 first (interleaving within a
        thread is preserved; across threads it is grouped)."""
        lines: List[str] = []
        for thread in self.threads:
            lines.extend(thread.output)
        return lines

    def total_instructions(self) -> int:
        return sum(t.stats.instructions for t in self.threads)

    def total_cycles(self) -> int:
        return sum(t.stats.cycles for t in self.threads)
