"""Transactional execution of the Figure 8 upcall protocol.

A :class:`MoveTransaction` brackets one *attempt* at a page move,
allocation move, or protection change: it owns the attempt's
:class:`~repro.resilience.journal.MoveJournal`, fires the kernel's
fault-injection hook at every step boundary (and mid-step, for torn
faults), applies the per-step watchdog to injected hangs, and on any
failure rolls the machine back to its pre-attempt state — then the
guard-cache generation is bumped, the world resumed (iff this attempt
stopped it), and the sanitizer run as the recovery oracle.

:func:`drive_transaction` is the retry loop around attempts: transient
faults (injected crash/torn, watchdog timeouts) retry with exponential
backoff up to ``RetryPolicy.max_attempts``; deterministic errors (an
unbacked destination, heap exhaustion) fail fast.  Exhaustion records a
structured :class:`~repro.resilience.degrade.MoveFailure` with the
kernel's :class:`~repro.resilience.degrade.DegradationManager` (when
attached) and raises :class:`~repro.errors.MoveError` — never a corrupt
state, never a raw KeyError out of physical memory.

Commit effects (stats, MMU-notifier events, world resume, the post-move
sanitizer checkpoint) run only after every step has succeeded, so a
fault-free run is cycle-for-cycle identical to the pre-transactional
protocol.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import KernelError, MoveError, ReproError, RollbackError
from repro.resilience.degrade import MoveFailure
from repro.resilience.journal import (
    STEP_ESCAPE_FLUSH,
    STEP_KERNEL_METADATA,
    STEP_NEGOTIATE,
    STEP_QUIESCE_AGENTS,
    STEP_REGION_INSTALL,
    STEP_REGION_PERMS,
    STEP_RELEASE_FRAMES,
    STEP_RELEASE_OLD,
    STEP_RESERVE,
    STEP_RESUME,
    STEP_WORLD_STOP,
    MoveJournal,
)
from repro.resilience.retry import (
    InjectedFault,
    InjectedHang,
    RetryPolicy,
    StepTimeout,
)

#: Cycles charged per journal entry undone — rollback walks its records
#: the way a real undo log would walk write-ahead entries.
UNDO_CYCLES_PER_RECORD = 25


class MoveTransaction:
    """One attempt of one change request, with rollback on any fault."""

    def __init__(
        self, kernel, runtime, operation: str, pid: Optional[int] = None
    ) -> None:
        self.kernel = kernel
        self.runtime = runtime
        self.operation = operation
        #: Owning tenant, for per-PID stat attribution (None = legacy).
        self.pid = pid
        self.journal = MoveJournal()
        self.current_step: str = STEP_WORLD_STOP
        #: Cycles lost to injected hangs this attempt (stalls below the
        #: watchdog threshold, or the timeout window itself).
        self.stalled_cycles = 0
        self.initiated_stop = False
        self.stop_cycles = 0
        self.rolled_back = False

    # -- the fault surface ----------------------------------------------

    def enter(
        self, step: str, progress: Optional[Tuple[int, int]] = None
    ) -> None:
        """Step boundary (``progress is None``) or mid-step progress
        hook.  Fires the kernel's fault injector; hangs meet the
        watchdog here."""
        if progress is None:
            self.current_step = step
        injector = self.kernel.fault_injector
        if injector is None:
            return
        try:
            injector.on_step(step, progress)
        except InjectedHang as hang:
            timeout = self.kernel.retry_policy.step_timeout_cycles
            if timeout is not None and hang.stall_cycles >= timeout:
                self.stalled_cycles += timeout
                raise StepTimeout(step, timeout) from hang
            # Stall shorter than the watchdog: the step eventually
            # completes; the requester just pays for the wait.
            self.stalled_cycles += hang.stall_cycles

    def world_stop(self, thread_count: int, reuse_existing: bool = True) -> int:
        """The ``world-stop`` step.  ``reuse_existing`` skips the stop
        (and its cost) when a caller — e.g. a ThreadGroup — already holds
        the world stopped."""
        self.enter(STEP_WORLD_STOP)
        if reuse_existing and self.runtime.is_stopped:
            self.initiated_stop = False
            self.stop_cycles = 0
        else:
            self.initiated_stop = True
            self.stop_cycles = self.runtime.world_stop(thread_count)
        return self.stop_cycles

    # -- outcomes --------------------------------------------------------

    def rollback(self) -> int:
        """Verified rollback: undo the journal newest-first, invalidate
        every guard cache (generation bump), resume the world iff this
        attempt stopped it, and run the sanitizer as the recovery
        oracle.  Returns the cycles the rollback itself cost."""
        entries = len(self.journal)
        self.journal.rollback()
        self.rolled_back = True
        self.runtime.on_move_rollback()
        if self.initiated_stop:
            self.runtime.resume()
        self.kernel.charge_stat("moves_rolled_back", pid=self.pid)
        if self.kernel.tracer is not None:
            self.kernel.tracer.instant(
                "move.rollback", "resilience",
                {"operation": self.operation, "step": self.current_step,
                 "journal_entries": entries},
            )
        self.kernel._sanitize("move-rollback")
        return entries * UNDO_CYCLES_PER_RECORD

    def commit(self) -> None:
        self.journal.commit()


# ---------------------------------------------------------------------------
# The retry driver
# ---------------------------------------------------------------------------


def drive_transaction(
    kernel,
    process,
    runtime,
    operation: str,
    attempt: Callable[[MoveTransaction], tuple],
    lo: int,
    hi: int,
    charge_move_cycles: bool = True,
):
    """Run ``attempt`` under retry/backoff/degradation.

    ``attempt(txn)`` performs one full transaction attempt and returns a
    result tuple whose *last* element is the attempt's cycle total.  On
    success the wasted cycles of earlier failed attempts (world stops,
    stalls, rollbacks, backoff) are folded into that total.  On
    exhaustion a :class:`MoveError` carrying a structured
    :class:`MoveFailure` is raised; the machine state is the pre-move
    state (verified by rollback + sanitizer).
    """
    policy: RetryPolicy = kernel.retry_policy
    if kernel.fault_injector is not None:
        kernel.fault_injector.begin_move()
    wasted = 0
    attempts = 0
    while True:
        attempts += 1
        kernel.charge_stat("moves_attempted", pid=process.pid)
        txn = MoveTransaction(kernel, runtime, operation, pid=process.pid)
        try:
            result = attempt(txn)
        except RollbackError:
            raise
        except ReproError as exc:
            wasted += txn.stop_cycles + txn.stalled_cycles
            wasted += txn.rollback()
            transient = isinstance(exc, (InjectedFault, StepTimeout))
            if transient and policy.should_retry(attempts):
                backoff = policy.backoff_cycles(attempts)
                wasted += backoff
                kernel.charge_stat("move_retries", pid=process.pid)
                kernel.charge_stat("backoff_cycles", backoff, pid=process.pid)
                if kernel.tracer is not None:
                    kernel.tracer.instant(
                        "move.retry", "resilience",
                        {"operation": operation, "attempt": attempts,
                         "backoff_cycles": backoff, "error": str(exc)},
                    )
                continue
            failure = MoveFailure(
                pid=process.pid,
                operation=operation,
                lo=lo,
                hi=hi,
                step=txn.current_step,
                error=str(exc),
                attempts=attempts,
                cycles_wasted=wasted,
                clock_cycles=kernel.clock_cycles,
            )
            if kernel.degradation is not None:
                kernel.degradation.record_failure(failure)
                kernel.charge_stat("moves_degraded", pid=process.pid)
                if kernel.tracer is not None:
                    kernel.tracer.instant(
                        "move.degraded", "resilience",
                        {"operation": operation, "lo": lo, "hi": hi,
                         "step": txn.current_step, "attempts": attempts},
                    )
            if charge_move_cycles:
                kernel.charge_stat("move_cycles", wasted, pid=process.pid)
            kernel.record_pause(process.pid, wasted)
            error = MoveError(
                f"{operation} of [{lo:#x}, {hi:#x}) failed at step "
                f"{txn.current_step!r} after {attempts} attempt(s): {exc}",
                step=txn.current_step,
                attempts=attempts,
                lo=lo,
                hi=hi,
                cycles_wasted=wasted,
            )
            error.failure = failure
            raise error from exc
        txn.commit()
        kernel.charge_stat("moves_committed", pid=process.pid)
        if kernel.tracer is not None:
            kernel.tracer.instant(
                "move.commit", "resilience",
                {"operation": operation, "lo": lo, "hi": hi,
                 "attempts": attempts, "wasted_cycles": wasted},
            )
        total = result[-1] + wasted
        if charge_move_cycles:
            kernel.charge_stat("move_cycles", total, pid=process.pid)
        kernel.record_pause(process.pid, total)
        return result[:-1] + (total,)


# ---------------------------------------------------------------------------
# The three transactional request bodies
# ---------------------------------------------------------------------------


def install_move_metadata(txn: MoveTransaction, kernel, process, plan, destination: int) -> None:
    """The kernel-side metadata tail of a page move: region table,
    heap/globals/layout rebase, and source-frame release — every mutation
    journaled against ``txn``.  Shared verbatim by the serial protocol
    (:func:`execute_page_move`) and the incremental batch driver's flip,
    so the two paths cannot drift."""
    from repro.kernel.pagetable import PAGE_SIZE
    from repro.runtime.regions import PERM_RWX, Region

    regions = process.regions
    journal = txn.journal

    # Region update: the moved range loses permission, the destination
    # gains it; adjacent same-permission regions re-coalesce.  The undo
    # reinstalls the saved array verbatim (and bumps the generation).
    txn.enter(STEP_REGION_INSTALL)
    saved_regions = regions.regions
    journal.record(
        STEP_REGION_INSTALL,
        "reinstall pre-move region array",
        lambda saved=saved_regions: regions.replace_all(saved),
    )
    source_region = regions.find(plan.lo)
    perms = source_region.perms if source_region is not None else PERM_RWX
    regions.remove_range(plan.lo, plan.hi)
    regions.add(Region(destination, plan.length, perms))
    regions.coalesce()

    # Kernel-side metadata follows the move: the heap allocator's
    # address set, the globals symbol map, and segment bases.
    txn.enter(STEP_KERNEL_METADATA)
    delta = destination - plan.lo
    if process.heap is not None:
        heap_state = process.heap.snapshot_state()
        journal.record(
            STEP_KERNEL_METADATA,
            "restore heap allocator metadata",
            lambda s=heap_state: process.heap.restore_state(s),
        )
        process.heap.rebase_range(plan.lo, plan.hi, delta)
    saved_globals = dict(process.globals_map)
    def restore_globals(saved=saved_globals):
        process.globals_map.clear()
        process.globals_map.update(saved)
    journal.record(STEP_KERNEL_METADATA, "restore globals map", restore_globals)
    for symbol, address in list(process.globals_map.items()):
        if plan.lo <= address < plan.hi:
            process.globals_map[symbol] = address + delta
    layout = process.layout
    layout_attrs = ("stack_base", "globals_base", "code_base", "heap_base")
    saved_layout = tuple(getattr(layout, attr) for attr in layout_attrs)
    def restore_layout(saved=saved_layout):
        for attr, value in zip(layout_attrs, saved):
            setattr(layout, attr, value)
    journal.record(STEP_KERNEL_METADATA, "restore segment bases", restore_layout)
    for attr in layout_attrs:
        segment_base = getattr(layout, attr)
        if plan.lo <= segment_base < plan.hi:
            setattr(layout, attr, segment_base + delta)

    # The old frames return to the kernel; undo re-claims exactly them.
    # When the source pages sit in a CoW share group (this move is the
    # group's own ``cow-break`` service — admission refuses everyone
    # else), only this tenant's membership detaches: frames still mapped
    # by other members stay allocated, frames whose refcount hit zero
    # are freed.  Undo reattaches the membership and re-claims exactly
    # what was freed; the undo is recorded BEFORE the detach so a fault
    # *during* the detach still rolls back.
    txn.enter(STEP_RELEASE_FRAMES)
    source_pages = plan.length // PAGE_SIZE
    shares = getattr(kernel, "shares", None)
    if shares is not None and shares.range_shared(process.pid, plan.lo, plan.hi):
        released_holder: list = []
        def reattach_shared(
            base=plan.lo, count=source_pages, holder=released_holder
        ):
            shares.reattach_range(process.pid, base, count, holder)
        journal.record(
            STEP_RELEASE_FRAMES, "reattach shared source pages", reattach_shared
        )
        shares.detach_range(process.pid, plan.lo, source_pages, released_holder)
    else:
        def reclaim_source(base=plan.lo, count=source_pages):
            if not kernel.frames.alloc_at(base // PAGE_SIZE, count):
                raise RollbackError(
                    f"source frames at {base:#x} were reallocated mid-rollback"
                )
        journal.record(
            STEP_RELEASE_FRAMES, "re-claim source frames", reclaim_source
        )
        kernel.frames.free_address(plan.lo, source_pages)


def record_page_move(kernel, process, plan, cost, reason: str) -> None:
    """The commit-point bookkeeping of one page move: page and move
    counters, the runtime's cost ledger, and the MMU-notifier event.
    Shared by the serial protocol (:func:`execute_page_move`) and the
    incremental batch driver's flip."""
    from repro.kernel.pagetable import PAGE_SHIFT

    runtime = process.runtime
    process.pages_moved += plan.page_count
    kernel.charge_stat("carat_moves", pid=process.pid)
    runtime.stats.moves_serviced += 1
    runtime.stats.move_cost_accum = runtime.stats.move_cost_accum + cost
    kernel.notifier.pte_change(
        process.pid, plan.lo >> PAGE_SHIFT, kernel.clock_cycles, reason
    )


def execute_page_move(
    txn: MoveTransaction,
    kernel,
    process,
    lo: int,
    hi: int,
    register_snapshots,
    destination: Optional[int],
    thread_count: int,
    reason: str,
):
    """One attempt of the full Figure 8 page move (kernel side)."""
    from repro.kernel.pagetable import PAGE_SIZE

    runtime = process.runtime
    journal = txn.journal
    kernel._trace(1, f"request page move [{lo:#x}, {hi:#x})")

    # A caller-claimed destination belongs to the transaction from the
    # very first step of the attempt: a fault anywhere before the
    # reserve step (world stop, negotiation, reserve entry) must still
    # free those frames on rollback, or they leak — the caller is told
    # never to free a destination after a MoveError.  On a retry the
    # previous rollback already released the range (it is free again),
    # so the reserve step below re-claims and re-journals it instead.
    adopted = (
        destination is not None
        and destination >= 0
        and destination % PAGE_SIZE == 0
        and destination // PAGE_SIZE < kernel.frames.total_frames
        and not kernel.frames.frame_is_free(destination // PAGE_SIZE)
    )
    if adopted:
        claimed_pages = (hi - lo) // PAGE_SIZE
        journal.record(
            STEP_WORLD_STOP,
            f"release adopted destination [{destination:#x}, "
            f"+{claimed_pages} page(s))",
            lambda d=destination, n=claimed_pages: kernel.frames.free_address(
                d, n
            ),
        )

    # Steps 2-3: signal all threads; they dump registers and barrier.
    txn.world_stop(thread_count, reuse_existing=True)
    kernel._trace(2, f"signal {thread_count} thread(s)")
    kernel._trace(3, "threads dump registers and enter signal handlers")
    kernel._trace(4, "barrier; negotiate move with the kernel module")

    # Step 4: negotiate — the runtime may expand the page set.
    txn.enter(STEP_NEGOTIATE)
    plan = runtime.patcher.plan_move(lo, hi)
    kernel._trace(
        5,
        f"negotiated source range [{plan.lo:#x}, {plan.hi:#x})"
        + (" (expanded)" if plan.expanded else ""),
    )

    # Quiesce translation clients: any agent streaming the negotiated
    # range guard-free must drain its lease before a single byte moves
    # (SPARTA's contract).  The step fires even with no mediator
    # attached so the fault campaign always has this surface; drained
    # leases are journaled (rollback re-grants them), and a client that
    # refuses raises a non-transient QuiesceFailure — the move degrades.
    txn.enter(STEP_QUIESCE_AGENTS)
    if kernel.agents is not None:
        kernel.agents.quiesce_for_move(txn, process, plan.lo, plan.hi)
    else:
        txn.enter(STEP_QUIESCE_AGENTS, (1, 1))

    # Reserve the destination.  The transaction owns it either way: a
    # kernel-allocated range is allocated here; a caller-claimed range is
    # adopted (and re-claimed on retry, since the previous attempt's
    # rollback released it).  Rollback always frees it, so the machine
    # holds no orphan frames at the recovery-oracle checkpoint — callers
    # must NOT free the destination again after a MoveError.
    txn.enter(STEP_RESERVE)
    pages = plan.length // PAGE_SIZE
    if destination is None:
        destination = kernel.frames.alloc_address(pages)
    else:
        frame = destination // PAGE_SIZE
        if (
            destination < 0
            or destination % PAGE_SIZE
            or frame + pages > kernel.frames.total_frames
        ):
            raise KernelError(
                f"destination {destination:#x} is not a page-aligned "
                f"{pages}-page range inside physical memory"
            )
        if kernel.frames.frame_is_free(frame):
            if not kernel.frames.alloc_at(frame, pages):
                raise KernelError(
                    f"destination [{destination:#x}, +{pages} page(s)) was "
                    "partially reallocated between attempts"
                )
    if not adopted:
        # An adopted (caller-claimed) destination was journaled at
        # attempt start; recording again here would double-free it.
        journal.record(
            STEP_RESERVE,
            f"release destination [{destination:#x}, +{pages} page(s))",
            lambda d=destination, n=pages: kernel.frames.free_address(d, n),
        )
    kernel._trace(6, f"{len(plan.allocations)} affected allocation(s) determined")

    # Steps 5-11: the runtime patches and moves (journaled internally).
    cost = runtime.patcher.execute_move(
        plan,
        destination,
        register_snapshots,
        journal=journal,
        fault_hook=txn.enter,
    )
    kernel._trace(7, "patches computed for every escape")
    kernel._trace(8, "escapes patched to post-move addresses")
    kernel._trace(
        9,
        f"register snapshots patched "
        f"({len(register_snapshots or [])} thread frame(s))",
    )
    kernel._trace(10, f"data moved to [{destination:#x}, "
                      f"{destination + plan.length:#x})")
    kernel._trace(11, "barrier before resume")

    install_move_metadata(txn, kernel, process, plan, destination)

    # Step 12 — the commit point.  Everything after this line is
    # observable; nothing before it is.
    txn.enter(STEP_RESUME)
    record_page_move(kernel, process, plan, cost, reason)
    if txn.initiated_stop:
        runtime.resume()
    kernel._trace(12, "completion indicated; threads resume")
    kernel._sanitize("page-move")
    return plan, cost, txn.stop_cycles + txn.stalled_cycles + cost.total


def execute_allocation_move(
    txn: MoveTransaction,
    kernel,
    process,
    allocation,
    register_snapshots,
    destination: Optional[int],
    thread_count: int,
):
    """One attempt of an allocation-granularity move (Section 6)."""
    runtime = process.runtime
    journal = txn.journal
    txn.world_stop(thread_count, reuse_existing=True)

    txn.enter(STEP_RESERVE)
    old_address = allocation.address
    if destination is None:
        if process.heap is None:
            raise KernelError("no heap to place the allocation in")
        heap_state = process.heap.snapshot_state()
        journal.record(
            STEP_RESERVE,
            "restore heap allocator metadata (destination malloc)",
            lambda s=heap_state: process.heap.restore_state(s),
        )
        destination = process.heap.malloc(allocation.size)

    cost = runtime.patcher.move_allocation(
        allocation,
        destination,
        register_snapshots,
        journal=journal,
        fault_hook=txn.enter,
    )

    # The old bytes return to the heap's free space.
    txn.enter(STEP_RELEASE_OLD)
    if process.heap is not None and process.heap.size_of(old_address) is not None:
        heap_state = process.heap.snapshot_state()
        journal.record(
            STEP_RELEASE_OLD,
            "restore heap allocator metadata (old block free)",
            lambda s=heap_state: process.heap.restore_state(s),
        )
        process.heap.free(old_address)

    txn.enter(STEP_RESUME)
    runtime.stats.moves_serviced += 1
    runtime.stats.move_cost_accum = runtime.stats.move_cost_accum + cost
    if txn.initiated_stop:
        runtime.resume()
    kernel._sanitize("allocation-move")
    return cost, txn.stop_cycles + txn.stalled_cycles + cost.total


def execute_protection_change(
    txn: MoveTransaction,
    kernel,
    process,
    base: int,
    length: int,
    perms: int,
    thread_count: int,
):
    """One attempt of a protection change (world-stop, region entry
    modification, resume — Section 4.4)."""
    runtime = process.runtime
    regions = process.regions
    txn.world_stop(thread_count, reuse_existing=True)

    txn.enter(STEP_REGION_PERMS)
    saved_regions = regions.regions
    txn.journal.record(
        STEP_REGION_PERMS,
        "reinstall pre-change region array",
        lambda saved=saved_regions: regions.replace_all(saved),
    )
    regions.set_range_perms(base, base + length, perms)

    txn.enter(STEP_RESUME)
    if txn.initiated_stop:
        runtime.resume()
    kernel.charge_stat("carat_protection_changes", pid=process.pid)
    kernel._sanitize("protection-change")
    return (
        txn.stop_cycles + txn.stalled_cycles + kernel.costs.alloc_table_update,
    )
