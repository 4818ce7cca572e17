"""The asynchronous move queue: batched, chunked, bounded-pause moves.

The serial protocol stops the world for the *entire* Figure 8 sequence —
negotiate, patch every escape, copy every byte — so a 16-page move costs
the program a multi-thousand-cycle pause.  The :class:`MoveQueue` turns
policy-initiated moves into a three-stage pipeline that bounds what any
single pause can cost:

1. **Enqueue** — compaction/tiering daemons (and the fairness arbiter)
   enqueue a :class:`MoveRequest` instead of calling
   ``request_page_move`` synchronously.  The destination frames are
   already claimed by the daemon; admission control runs immediately so
   a quarantined or CoW-pinned range is refused before any work.
2. **Pre-copy chunks** — at every service point (``advance_clock``,
   between scheduler quanta, between thread rounds) the queue advances
   the in-flight batch by one chunk of at most ``chunk_budget`` cycles:
   escape scanning and data streaming run with the world *running*
   (see :class:`~repro.runtime.patching.IncrementalMove`).  Guards that
   touch an in-flight source range pay a small stall toll and mark the
   page dirty (the write barrier); everything else proceeds untolled —
   that is the fine-grained region locking.
3. **Flip** — once every item in the batch has streamed out, ONE world
   stop covers the whole batch: per item, escapes recorded since the
   window opened are re-scanned, escapes/registers are patched against
   fresh state, dirtied pages re-copied, and the kernel metadata tail
   (:func:`~repro.resilience.transaction.install_move_metadata`)
   installed.  The stop's cost is amortized over the batch.

The whole batch is ONE transaction: every mutation from the first
pre-copy byte to the last metadata install is journaled, so a fault at
any chunk boundary rolls every item back, closes the dirty-tracking
windows, and retries (transient) or degrades (exhausted) exactly like
the serial driver.  A move whose geometry changed between enqueue and
service (the program freed or grew allocations) raises
:class:`StaleMove` — transient, because the retry re-plans and either
shrinks the request or drops it.

Accounting invariant: every chunk and every flip charges ``move_cycles``
and appends to ``kernel.pause_log`` with the *same* number, so per
tenant ``sum(pause_log) == move/fault cycles charged`` holds with the
queue on or off — and p99 pause collapses from the serial protocol's
full-move cost to ``max(chunk_budget, flip cost)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.errors import MoveError, ReproError, RollbackError
from repro.resilience.degrade import MoveFailure
from repro.resilience.journal import (
    STEP_NEGOTIATE,
    STEP_QUIESCE_AGENTS,
    STEP_RESERVE,
    STEP_RESUME,
)
from repro.resilience.retry import InjectedFault, StepTimeout
from repro.resilience.transaction import (
    MoveTransaction,
    install_move_metadata,
    record_page_move,
)


class StaleMove(ReproError):
    """The range's geometry changed between enqueue and service."""


@dataclass
class MoveRequest:
    """One deferred policy move, destination frames already claimed."""

    process: object
    lo: int
    page_count: int
    destination: int
    reason: str = "carat-move"
    heat: object = None
    interpreter: object = None
    #: The enqueuing daemon's upper-bound cycle estimate (what it charged
    #: against its epoch budget).
    estimate: int = 0
    #: Whether the destination frames are currently claimed by this
    #: request (a rollback's journal undo releases them).
    destination_claimed: bool = True

    @property
    def hi(self) -> int:
        from repro.kernel.pagetable import PAGE_SIZE

        return self.lo + self.page_count * PAGE_SIZE

    @property
    def dest_hi(self) -> int:
        from repro.kernel.pagetable import PAGE_SIZE

        return self.destination + self.page_count * PAGE_SIZE


@dataclass
class QueueStats:
    enqueued: int = 0
    refused: int = 0
    stale_drops: int = 0
    batches: int = 0
    chunks: int = 0
    flips: int = 0
    serviced: int = 0
    retries: int = 0
    degraded: int = 0


class _Item:
    """One request's in-flight state within the current batch attempt."""

    __slots__ = ("request", "plan", "window", "inc")

    def __init__(self, request: MoveRequest) -> None:
        self.request = request
        self.plan = None
        self.window = None
        self.inc = None


class _Batch:
    """One same-tenant batch sharing a transaction and one flip stop."""

    __slots__ = ("pid", "requests", "items", "txn", "attempts", "wasted")

    def __init__(self, pid: int, requests: List[MoveRequest]) -> None:
        self.pid = pid
        self.requests = requests
        self.items: List[_Item] = []
        self.txn: Optional[MoveTransaction] = None
        self.attempts = 0
        self.wasted = 0


class MoveQueue:
    """Deferred-move service; see module docstring.

    ``batch_size`` caps how many same-tenant requests share one flip
    stop; ``chunk_budget`` caps the cycles any single pre-copy chunk may
    cost (0 = unchunked: the whole pre-copy runs in one service step,
    still without stopping the world).
    """

    def __init__(
        self,
        kernel,
        batch_size: int = 4,
        chunk_budget: int = 0,
        thread_count: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if chunk_budget < 0:
            raise ValueError("chunk_budget must be >= 0")
        self.kernel = kernel
        self.batch_size = batch_size
        self.chunk_budget = chunk_budget
        self.thread_count = thread_count
        self.pending: Deque[MoveRequest] = deque()
        self.stats = QueueStats()
        self._batch: Optional[_Batch] = None
        self._stepping = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def enqueue(self, request: MoveRequest) -> bool:
        """Accept a move whose destination frames the caller has already
        claimed.  Refusal (quarantined / CoW-pinned range) releases the
        destination and returns False — mirroring what a degraded
        synchronous move would leave behind."""
        try:
            self.kernel._check_admission(
                request.process, "page-move", request.lo, request.hi,
                reason=request.reason, destination=request.destination,
            )
        except MoveError:
            if request.destination_claimed:
                self.kernel.frames.free_address(
                    request.destination, request.page_count
                )
                request.destination_claimed = False
            self.stats.refused += 1
            return False
        self.pending.append(request)
        self.stats.enqueued += 1
        return True

    def overlaps_pending(self, pid: int, lo: int, hi: int) -> bool:
        """Whether ``[lo, hi)`` overlaps any queued or in-flight source
        range of tenant ``pid`` — policy daemons skip such extents so a
        range is never selected twice."""
        for request in self.pending:
            if request.process.pid == pid and lo < request.hi and hi > request.lo:
                return True
        if self._batch is not None and self._batch.pid == pid:
            for item in self._batch.items:
                plan = item.plan
                if plan is not None and lo < plan.hi and hi > plan.lo:
                    return True
            for request in self._batch.requests:
                if lo < request.hi and hi > request.lo:
                    return True
        return False

    def destination_ranges(self) -> List[Tuple[int, int]]:
        """Claimed destination byte ranges of every queued and in-flight
        request — the sanitizer's frame-ownership rule exempts these
        (they are owned by the move in flight, not leaked)."""
        ranges = [
            (request.destination, request.dest_hi)
            for request in self.pending
            if request.destination_claimed
        ]
        if self._batch is not None:
            ranges.extend(
                (request.destination, request.dest_hi)
                for request in self._batch.requests
                if request.destination_claimed
            )
        return ranges

    @property
    def idle(self) -> bool:
        return not self.pending and self._batch is None

    # ------------------------------------------------------------------
    # Service side (called from advance_clock / scheduler / thread group)
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Advance the queue by one bounded unit of work: start a batch,
        run one pre-copy chunk, or flip a fully pre-copied batch.
        Returns True if any work was done."""
        if self._stepping:
            return False  # re-entered from a sanitizer/policy callback
        self._stepping = True
        try:
            return self._step()
        finally:
            self._stepping = False

    def drain_all(self) -> None:
        """Run the queue dry (end of run, before the final sanitizer
        checkpoint)."""
        while self.step():
            pass

    # -- batch lifecycle -------------------------------------------------

    def _step(self) -> bool:
        if self._batch is None:
            if not self._start_batch():
                return False
        batch = self._batch
        try:
            self._advance(batch)
        except RollbackError:
            raise
        except ReproError as exc:
            self._handle_fault(batch, exc)
        return True

    def _start_batch(self) -> bool:
        """Form the next batch: the head request plus up to
        ``batch_size - 1`` more from the same tenant (batches share one
        transaction and one flip stop, so they must share a PID)."""
        while self.pending:
            head = self.pending.popleft()
            if not self._still_admissible(head):
                continue
            requests = [head]
            pid = head.process.pid
            kept: List[MoveRequest] = []
            while self.pending and len(requests) < self.batch_size:
                request = self.pending.popleft()
                if request.process.pid != pid:
                    kept.append(request)
                    continue
                if any(
                    request.lo < taken.hi and request.hi > taken.lo
                    for taken in requests
                ):
                    # Overlapping source ranges cannot share a batch: the
                    # first flip rebases the range out from under the
                    # second.  Defer it; re-planning the next batch will
                    # drop it as stale.
                    kept.append(request)
                    continue
                if self._still_admissible(request):
                    requests.append(request)
            self.pending.extendleft(reversed(kept))
            batch = _Batch(pid, requests)
            self._batch = batch
            self.stats.batches += 1
            if self.kernel.fault_injector is not None:
                self.kernel.fault_injector.begin_move()
            self._attempt(batch)
            if self._batch is not None:
                return True
            # The whole batch went stale at planning; try the next
            # pending request rather than stalling the queue this step.
        return False

    def _still_admissible(self, request: MoveRequest) -> bool:
        """Re-run admission at service time (a range may have been
        quarantined or CoW-shared since enqueue); a refused request drops
        and its destination frames return to the kernel."""
        try:
            self.kernel._check_admission(
                request.process, "page-move", request.lo, request.hi,
                reason=request.reason, destination=request.destination,
            )
        except MoveError:
            self._drop(request)
            return False
        return True

    def _drop(self, request: MoveRequest) -> None:
        if request.destination_claimed:
            self.kernel.frames.free_address(
                request.destination, request.page_count
            )
            request.destination_claimed = False
        self.stats.stale_drops += 1

    def _attempt(self, batch: _Batch) -> None:
        """One protected attempt: planning and window/mover construction
        have fault surfaces too (negotiate, reserve), so route their
        failures through the same rollback/retry/degrade discipline as
        chunk and flip faults.  Retries recurse through here, bounded by
        the retry policy's ``max_attempts``."""
        try:
            self._begin_attempt(batch)
        except RollbackError:
            raise
        except ReproError as exc:
            self._handle_fault(batch, exc)

    def _begin_attempt(self, batch: _Batch) -> None:
        """One attempt: re-plan every request, re-claim destinations (a
        prior rollback released them), open the dirty-tracking windows,
        and construct the incremental movers.  Requests whose geometry
        grew or shifted drop here (stale); shrunken ones free their
        destination tail and continue."""
        from repro.kernel.pagetable import PAGE_SIZE

        kernel = self.kernel
        batch.attempts += 1
        kernel.charge_stat("moves_attempted", pid=batch.pid)
        txn = MoveTransaction(
            kernel,
            batch.requests[0].process.runtime,
            "page-move-batch",
            pid=batch.pid,
        )
        batch.txn = txn
        batch.items = []
        journal = txn.journal
        for request in list(batch.requests):
            runtime = request.process.runtime
            txn.enter(STEP_NEGOTIATE)
            plan = runtime.patcher.plan_move(request.lo, request.hi)
            if any(
                request.process.regions.find(page) is None
                for page in range(plan.lo, plan.hi, PAGE_SIZE)
            ):
                # The range is no longer (fully) region-backed — an
                # earlier batch moved it out from under this request
                # while it sat queued.  Moving it now would install a
                # region over dead bytes and double-free the source
                # frames at release.  (Zero table allocations is NOT
                # staleness: compaction legitimately moves region-backed
                # pages that hold no tracked allocation.)
                batch.requests.remove(request)
                self._drop(request)
                continue
            if plan.lo != request.lo or plan.page_count > request.page_count:
                # Expanded (or shifted) since enqueue: the claimed
                # destination no longer fits — drop and let the daemon
                # re-plan next epoch.
                batch.requests.remove(request)
                self._drop(request)
                continue
            if plan.page_count < request.page_count:
                # Shrunk: free the destination tail and move what's left.
                tail = request.page_count - plan.page_count
                kernel.frames.free_address(
                    request.destination + plan.page_count * PAGE_SIZE, tail
                )
                request.page_count = plan.page_count
            txn.enter(STEP_RESERVE)
            if not request.destination_claimed:
                frame = request.destination // PAGE_SIZE
                if not kernel.frames.frame_is_free(frame) or not (
                    kernel.frames.alloc_at(frame, plan.page_count)
                ):
                    # Someone took the frames while we were rolled back.
                    batch.requests.remove(request)
                    self.stats.stale_drops += 1
                    continue
                request.destination_claimed = True

            def release_destination(req=request, n=plan.page_count):
                kernel.frames.free_address(req.destination, n)
                req.destination_claimed = False

            journal.record(
                STEP_RESERVE,
                f"release destination [{request.destination:#x}, "
                f"+{plan.page_count} page(s))",
                release_destination,
            )
            item = _Item(request)
            item.plan = plan
            item.window = runtime.open_move_window(plan.lo, plan.hi)
            try:
                item.inc = runtime.patcher.begin_incremental_move(
                    plan,
                    request.destination,
                    journal=journal,
                    fault_hook=txn.enter,
                    window=item.window,
                )
            except ReproError:
                runtime.close_move_window(item.window)
                raise
            batch.items.append(item)
        if not batch.items:
            self._batch = None  # everything went stale; nothing journaled

    # -- chunk / flip ----------------------------------------------------

    def _advance(self, batch: _Batch) -> None:
        for item in batch.items:
            if not item.inc.done_precopy:
                cycles = item.inc.precopy_step(self.chunk_budget)
                if cycles is None:
                    continue  # raced to done; look for the next item
                self._account(batch, item.request, cycles)
                self.stats.chunks += 1
                if self.kernel.tracer is not None:
                    self.kernel.tracer.instant(
                        "move.chunk", "resilience",
                        {"lo": item.plan.lo, "hi": item.plan.hi,
                         "cycles": cycles,
                         "dirty_pages": len(item.window.dirty_pages)},
                        pid=batch.pid,
                    )
                self.kernel._sanitize("move-chunk")
                return
        self._flip(batch)

    def _account(self, batch: _Batch, request: MoveRequest, cycles: int) -> None:
        """The invariant: every unit of move work charges ``move_cycles``
        and logs the same number as a pause."""
        self.kernel.charge_stat("move_cycles", cycles, pid=batch.pid)
        self.kernel.record_pause(batch.pid, cycles)
        if request.interpreter is not None:
            request.interpreter.stats.cycles += cycles

    def _flip(self, batch: _Batch) -> None:
        """The single stop-the-world tail covering the whole batch."""
        kernel = self.kernel
        txn = batch.txn
        txn.world_stop(self.thread_count, reuse_existing=True)
        # Drain translation-client leases over every batched source range
        # before the flip rebases it (journaled: rollback re-grants every
        # drained lease).  The step fires even with no mediator attached
        # so the fault campaign reaches it on the queued path too.
        txn.enter(STEP_QUIESCE_AGENTS)
        if kernel.agents is not None:
            for item in batch.items:
                kernel.agents.quiesce_for_move(
                    txn, item.request.process, item.plan.lo, item.plan.hi
                )
        else:
            txn.enter(STEP_QUIESCE_AGENTS, (1, 1))
        flip_total = 0
        flipped = []
        for item in batch.items:
            request = item.request
            runtime = request.process.runtime
            txn.enter(STEP_NEGOTIATE)
            fresh = runtime.patcher.plan_move(item.plan.lo, item.plan.hi)
            if fresh.lo != item.plan.lo or fresh.hi != item.plan.hi:
                raise StaleMove(
                    f"move of [{item.plan.lo:#x}, {item.plan.hi:#x}) went "
                    f"stale mid-flight (now [{fresh.lo:#x}, {fresh.hi:#x}))"
                )
            snapshots = None
            interpreter = request.interpreter
            if interpreter is not None and interpreter.frames:
                snapshots = interpreter.register_snapshots()
            cost = item.inc.flip(fresh, snapshots)
            install_move_metadata(
                txn, kernel, request.process, fresh, request.destination
            )
            flip_total += item.inc.flip_cycles
            flipped.append((item, fresh, cost, snapshots))

        # The commit point: everything after this is observable.
        txn.enter(STEP_RESUME)
        for item, fresh, cost, snapshots in flipped:
            request = item.request
            record_page_move(kernel, request.process, fresh, cost, request.reason)
            if snapshots is not None:
                request.interpreter.apply_snapshots(snapshots)
            if request.heat is not None:
                request.heat.rebase_range(
                    fresh.lo, fresh.hi, request.destination - fresh.lo
                )
            request.process.runtime.close_move_window(item.window)
        if txn.initiated_stop:
            batch.requests[0].process.runtime.resume()
        txn.commit()
        kernel.charge_stat("moves_committed", pid=batch.pid)
        total = txn.stop_cycles + txn.stalled_cycles + flip_total + batch.wasted
        self._account(batch, batch.requests[0], total)
        if kernel.tracer is not None:
            kernel.tracer.instant(
                "move.commit", "resilience",
                {"operation": "page-move-batch",
                 "moves": len(batch.items),
                 "attempts": batch.attempts,
                 "wasted_cycles": batch.wasted,
                 "flip_cycles": flip_total},
                pid=batch.pid,
            )
        self.stats.flips += 1
        self.stats.serviced += len(batch.items)
        self._batch = None
        kernel._sanitize("page-move")

    # -- fault handling --------------------------------------------------

    def _handle_fault(self, batch: _Batch, exc: ReproError) -> None:
        """Roll the whole batch back; retry transient faults with
        backoff, degrade on exhaustion — the serial driver's discipline,
        applied batch-wide."""
        kernel = self.kernel
        txn = batch.txn
        for item in batch.items:
            item.request.process.runtime.close_move_window(item.window)
        batch.wasted += txn.stop_cycles + txn.stalled_cycles
        batch.wasted += txn.rollback()
        policy = kernel.retry_policy
        transient = isinstance(exc, (InjectedFault, StepTimeout, StaleMove))
        if transient and policy.should_retry(batch.attempts):
            backoff = policy.backoff_cycles(batch.attempts)
            batch.wasted += backoff
            kernel.charge_stat("move_retries", pid=batch.pid)
            kernel.charge_stat("backoff_cycles", backoff, pid=batch.pid)
            self.stats.retries += 1
            if kernel.tracer is not None:
                kernel.tracer.instant(
                    "move.retry", "resilience",
                    {"operation": "page-move-batch",
                     "attempt": batch.attempts,
                     "backoff_cycles": backoff, "error": str(exc)},
                    pid=batch.pid,
                )
            self._attempt(batch)
            if self._batch is None:
                # Every request went stale during re-planning (or the
                # retry itself faulted out); the wasted cycles still get
                # charged and logged.
                self._settle_wasted(batch)
            return
        for request in batch.requests:
            failure = MoveFailure(
                pid=request.process.pid,
                operation="page-move-batch",
                lo=request.lo,
                hi=request.hi,
                step=txn.current_step,
                error=str(exc),
                attempts=batch.attempts,
                cycles_wasted=batch.wasted,
                clock_cycles=kernel.clock_cycles,
            )
            if kernel.degradation is not None:
                kernel.degradation.record_failure(failure)
                kernel.charge_stat("moves_degraded", pid=batch.pid)
                self.stats.degraded += 1
                if kernel.tracer is not None:
                    kernel.tracer.instant(
                        "move.degraded", "resilience",
                        {"operation": "page-move-batch",
                         "lo": request.lo, "hi": request.hi,
                         "step": txn.current_step,
                         "attempts": batch.attempts},
                        pid=batch.pid,
                    )
        self._settle_wasted(batch)
        self._batch = None
        if kernel.degradation is None:
            raise MoveError(
                f"batched page move ({len(batch.requests)} request(s), "
                f"pid {batch.pid}) failed at step {txn.current_step!r} "
                f"after {batch.attempts} attempt(s): {exc}",
                step=txn.current_step,
                attempts=batch.attempts,
                lo=batch.requests[0].lo if batch.requests else 0,
                hi=batch.requests[-1].hi if batch.requests else 0,
                cycles_wasted=batch.wasted,
            ) from exc

    def _settle_wasted(self, batch: _Batch) -> None:
        if batch.wasted and batch.requests:
            self._account(batch, batch.requests[0], batch.wasted)
            batch.wasted = 0
