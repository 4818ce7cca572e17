"""The CARAT runtime (Section 4.2).

Linked into every CARAT process (here: bound to the interpreter at load
time), it is the backend for the injected instrumentation and the
interface to the kernel:

* **tracking** — ``on_alloc`` / ``on_free`` update the Allocation Table
  eagerly; ``on_escape`` appends to the batched escape buffer;
* **protection** — ``guard_*`` validate accesses against the kernel's
  region landing zone through a pluggable guard mechanism, raising
  :class:`~repro.errors.ProtectionFault` (the analog of a #GP) on failure
  and accounting every guard's cycles;
* **mapping** — ``world_stop``/``resume`` bracket a move, and
  ``patcher`` (:class:`~repro.runtime.patching.Patcher`) runs its
  runtime steps: negotiate, patch, copy, rebase.  The kernel drives the
  whole Figure 8 protocol: ``Kernel.request_page_move`` runs
  :func:`~repro.resilience.transaction.execute_page_move` as a
  transaction, which calls ``Patcher.execute_move``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ProtectionFault, SafetyFault
from repro.machine.costs import DEFAULT_COSTS, CostModel
from repro.runtime.allocation_table import Allocation, AllocationTable
from repro.runtime.escape_map import AllocationToEscapeMap
from repro.runtime.patching import (
    PAGE_SIZE,
    MemoryInterface,
    MoveCost,
    Patcher,
)

from repro.runtime.regions import (
    GuardMechanism,
    GuardOutcome,
    Region,
    RegionSet,
    make_guard,
)

#: Extra cycles a guard pays when its access overlaps an in-flight
#: incremental move's source range: the access must consult the move's
#: forwarding state before it can proceed (the fine-grained region lock
#: — only the moving range stalls; every other region is untouched).
MOVE_WINDOW_STALL_CYCLES = 60


class MoveWindow:
    """One in-flight incremental move's source range, as the guards and
    tracking callbacks see it between chunks.

    While a window is open the world keeps running: writes into the
    range mark their pages dirty (the flip re-copies exactly those),
    new escape records bump ``dirty_escapes`` (the flip re-scans them),
    and an allocation appearing or vanishing inside the range sets
    ``structurally_dirty`` (the flip must re-negotiate the plan).
    """

    __slots__ = ("lo", "hi", "dirty_pages", "dirty_escapes", "structurally_dirty")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        #: Page indices (absolute) written since the window opened.
        self.dirty_pages: set = set()
        #: Escape records made since the window opened (re-scanned at flip).
        self.dirty_escapes = 0
        self.structurally_dirty = False

    def overlaps(self, address: int, size: int) -> bool:
        return address < self.hi and address + size > self.lo

    def mark_write(self, address: int, size: int) -> None:
        lo = max(address, self.lo)
        hi = min(address + max(1, size), self.hi)
        for page in range(lo // PAGE_SIZE, (hi + PAGE_SIZE - 1) // PAGE_SIZE):
            self.dirty_pages.add(page)


@dataclass
class RuntimeStats:
    """Counters behind Figures 3, 5, 6, 7, 9 and Table 3."""

    guards_executed: int = 0
    guard_cycles: int = 0
    guard_faults: int = 0
    tracking_events: int = 0
    tracking_cycles: int = 0
    world_stops: int = 0
    moves_serviced: int = 0
    #: Move attempts this runtime rolled back (the transactional path).
    moves_rolled_back: int = 0
    move_cost_accum: MoveCost = field(default_factory=MoveCost)
    #: Epoch-invalidated region cache telemetry (fast engine only; the
    #: reference engine leaves these at zero).  Cycle accounting is not
    #: affected by the cache — these count saved *searches*, not cycles.
    region_cache_hits: int = 0
    region_cache_misses: int = 0
    region_cache_invalidations: int = 0

    def region_cache_hit_rate(self) -> float:
        total = self.region_cache_hits + self.region_cache_misses
        return self.region_cache_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """Uniform telemetry schema; the accumulated move cost nests."""
        out = dataclasses.asdict(self)
        out["move_cost_accum"] = self.move_cost_accum.to_dict()
        return out


class GuardSiteCell:
    """One guard site's memoized last-hit region.

    Valid only while ``regions`` is the same landing zone *object* and
    ``gen`` matches its current generation — identity protects against
    cross-run reuse of compiled code, the generation against any kernel
    mutation or page move in between.
    """

    __slots__ = ("regions", "region", "gen")

    def __init__(self) -> None:
        self.regions: Optional[RegionSet] = None
        self.region: Optional[Region] = None
        self.gen = -1

    def fill(self, regions: RegionSet, region: Region, gen: int) -> None:
        self.regions = regions
        self.region = region
        self.gen = gen


class CaratRuntime:
    """The per-process runtime: tracking, guards, and patching backend."""

    #: Modeled per-entry cost (bytes) of an Allocation Table node: key,
    #: length, kind, two child pointers, parent, color — the paper's C++
    #: rb-tree node, whatever structure holds the table on the host.
    TABLE_ENTRY_BYTES = 64

    def __init__(
        self,
        memory: MemoryInterface,
        regions: Optional[RegionSet] = None,
        guard_mechanism: str = "mpx",
        costs: CostModel = DEFAULT_COSTS,
        escape_batch_limit: int = 4096,
    ) -> None:
        self.memory = memory
        self.regions = regions if regions is not None else RegionSet()
        self.costs = costs
        self.guard: GuardMechanism = make_guard(guard_mechanism, costs)
        self.table = AllocationTable()
        self.escapes = AllocationToEscapeMap(batch_limit=escape_batch_limit)
        self.patcher = Patcher(
            self.table, self.escapes, memory, costs, regions=self.regions
        )
        self.stats = RuntimeStats()
        self._stopped = False
        #: Open :class:`MoveWindow` list — normally empty, so the guard
        #: fast path pays one falsy check.  Only accesses overlapping an
        #: open window's range pay the stall toll.
        self._move_windows: List[MoveWindow] = []
        #: Attached :class:`~repro.telemetry.Tracer` (set by the session).
        #: Guard faults always emit; per-check and per-tracking-callback
        #: instants only at ``fine`` detail.  Never charges cycles.
        self.tracer = None
        #: Epoch-invalidated region cache (the fast engine's part (b)).
        #: Off by default: the reference engine keeps the pristine
        #: guard-per-access behaviour that the figures are calibrated on.
        self.region_cache_enabled = False
        self._last_hit_cell = GuardSiteCell()
        #: escapes-at-free-time -> allocation count, accumulated over the
        #: whole run (Figure 5 reports lifetime histograms, so freed
        #: allocations must keep contributing).
        self._lifetime_escape_counts: Dict[int, int] = {}
        #: High-water mark of the tracking structures (Figure 6 reports
        #: the footprint the run *needed*, not what is live at exit).
        self.peak_tracking_bytes = 0
        #: Attached :class:`~repro.runtime.safety.SafetyChecker`
        #: (``--safety`` mode); ``None`` keeps every guard path — and
        #: every fingerprinted cycle — exactly as before.
        self.safety = None

    def enable_safety(self, toolchain: Optional[str] = None):
        """Turn on CryptSan-style guard-time memory safety: every
        allowed access is additionally checked against allocation-table
        liveness, and violations raise
        :class:`~repro.errors.SafetyFault` with HMAC provenance tags.
        Returns the attached checker."""
        from repro.runtime.safety import SafetyChecker

        if self.safety is None:
            if toolchain is None:
                self.safety = SafetyChecker(self)
            else:
                self.safety = SafetyChecker(self, toolchain)
        return self.safety

    # ------------------------------------------------------------------
    # Tracking callbacks (carat.alloc / carat.free / carat.escape)
    # ------------------------------------------------------------------

    def on_alloc(self, address: int, size: int, kind: str = "heap") -> Allocation:
        self.stats.tracking_events += 1
        self.stats.tracking_cycles += self.costs.alloc_table_update
        # Stack allocas land inside the stack block the loader registered;
        # the table tracks "the stack" as one entry (Section 4.2), so a
        # covered sub-allocation needs no new node.
        containing = self.table.find_containing(address, max(1, size))
        if containing is not None and containing.kind == "stack":
            return containing
        if self._move_windows:
            for window in self._move_windows:
                if window.overlaps(address, max(1, size)):
                    window.structurally_dirty = True
        allocation = self.table.add(address, size, kind)
        if self.safety is not None:
            self.safety.note_alloc(allocation)
        self._note_footprint()
        tracer = self.tracer
        if tracer is not None and tracer.fine:
            tracer.instant(
                "tracking.alloc", "tracking",
                {"address": address, "size": size, "kind": kind},
            )
        return allocation

    def on_free(self, address: int) -> Optional[Allocation]:
        self.stats.tracking_events += 1
        self.stats.tracking_cycles += self.costs.alloc_table_update
        table = self.table
        if self.escapes.pending_count and table.find_containing(address) is not None:
            # Attribute pending records before the allocation disappears so
            # the lifetime histogram (Figure 5) sees them (with none
            # pending, the flush would do nothing: skip the lookup).
            self.escapes.flush(table, self.memory.read_u64)
        allocation = table.remove_if_present(address)
        if allocation is not None and self._move_windows:
            for window in self._move_windows:
                if window.overlaps(allocation.address, allocation.size):
                    window.structurally_dirty = True
        if allocation is not None:
            if self.safety is not None:
                self.safety.note_free(allocation)
            count = self.escapes.drop_allocation(allocation.address)
            self._lifetime_escape_counts[count] = (
                self._lifetime_escape_counts.get(count, 0) + 1
            )
        tracer = self.tracer
        if tracer is not None and tracer.fine:
            tracer.instant("tracking.free", "tracking", {"address": address})
        return allocation

    def on_escape(self, location: int) -> None:
        self.stats.tracking_events += 1
        self.stats.tracking_cycles += self.costs.escape_record
        if self._move_windows:
            # An escape matters to an in-flight move only if the stored
            # pointer lands in its range — those are what the flip must
            # re-scan (and the write dirties the holding page like any
            # other store).
            try:
                value = self.memory.read_u64(location)
            except Exception:
                value = None
            for window in self._move_windows:
                if value is None or window.lo <= value < window.hi:
                    window.dirty_escapes += 1
                if window.overlaps(location, 8):
                    window.mark_write(location, 8)
        if self.escapes.record(location):
            self.flush_escapes()

    def flush_escapes(self) -> int:
        resolved = self.escapes.flush(self.table, self.memory.read_u64)
        # Batch resolution costs one table lookup per record.
        self.stats.tracking_cycles += resolved * (self.costs.escape_record * 2)
        if resolved:
            self._note_footprint()
            if self.tracer is not None:
                self.tracer.instant(
                    "tracking.flush", "tracking", {"resolved": resolved}
                )
        return resolved

    def _note_footprint(self) -> None:
        current = self.tracking_footprint_bytes()
        if current > self.peak_tracking_bytes:
            self.peak_tracking_bytes = current

    # ------------------------------------------------------------------
    # Move windows (the incremental protocol's write barrier)
    # ------------------------------------------------------------------

    def open_move_window(self, lo: int, hi: int) -> MoveWindow:
        """Open a dirty-tracking window over an in-flight move's source
        range.  Guards overlapping it pay :data:`MOVE_WINDOW_STALL_CYCLES`
        and writes mark dirty pages; everything else runs untouched."""
        window = MoveWindow(lo, hi)
        self._move_windows.append(window)
        return window

    def close_move_window(self, window: MoveWindow) -> None:
        try:
            self._move_windows.remove(window)
        except ValueError:
            pass  # already closed (rollback path)

    def _window_toll(self, address: int, size: int, access: str) -> int:
        """Cycles an access overlapping any open move window pays, plus
        the write-barrier side effect (dirty-page marking)."""
        extra = 0
        for window in self._move_windows:
            if window.overlaps(address, size):
                extra += MOVE_WINDOW_STALL_CYCLES
                if access == "write":
                    window.mark_write(address, size)
        return extra

    # ------------------------------------------------------------------
    # Guards (carat.guard.*)
    # ------------------------------------------------------------------

    def enable_region_cache(self) -> None:
        """Turn on the epoch-invalidated guard fast path (the fast engine
        calls this when it binds to the process)."""
        self.region_cache_enabled = True

    def _check_cached(
        self,
        address: int,
        size: int,
        access: str,
        cell: Optional[GuardSiteCell],
    ) -> GuardOutcome:
        """One guard evaluation through the region cache.

        Probes the per-site cell first, then the runtime-wide last-hit
        cell; a valid probe needs only ``base <= address < end`` — the
        mechanism's :meth:`check_known` settles size/permission and
        charges exactly what the uncached path would.  Any generation
        mismatch (region mutation or page move since the fill) demotes
        the probe to the full search, so stale hits cannot happen.
        """
        regions = self.regions
        guard = self.guard
        if not self.region_cache_enabled:
            return guard.check(regions, address, size, access)
        gen = regions.version
        stats = self.stats
        last = self._last_hit_cell
        stale = False
        for probe in (cell, last) if cell is not None else (last,):
            region = probe.region
            if region is None or probe.regions is not regions:
                continue
            if probe.gen != gen:
                stale = True
                continue
            if region.base <= address < region.end:
                stats.region_cache_hits += 1
                if probe is cell:
                    last.fill(regions, region, gen)
                elif cell is not None:
                    cell.fill(regions, region, gen)
                return guard.check_known(regions, region, address, size, access)
        if stale:
            stats.region_cache_invalidations += 1
        stats.region_cache_misses += 1
        outcome = guard.check(regions, address, size, access)
        if outcome.allowed and outcome.region is not None:
            last.fill(regions, outcome.region, gen)
            if cell is not None:
                cell.fill(regions, outcome.region, gen)
        return outcome

    def _safety_scan(
        self, address: int, size: int, access: str, cycles: int
    ) -> int:
        """Safety-mode liveness check for an access the region guard
        already allowed.  Returns the cycle total including the check;
        on a violation, finalizes this guard's accounting (cycles,
        fault count, trace instant) and raises
        :class:`~repro.errors.SafetyFault`."""
        safety = self.safety
        cycles += safety.check_cycles
        violation = safety.scan(address, size, access)
        if violation is None:
            return cycles
        self.stats.guard_cycles += cycles
        self.stats.guard_faults += 1
        if self.tracer is not None:
            self.tracer.instant(
                "guard.safety-fault", "guard", violation.to_dict()
            )
        raise SafetyFault(violation)

    def guard_access(
        self,
        address: int,
        size: int,
        access: str,
        cell: Optional[GuardSiteCell] = None,
    ) -> int:
        """Validate a data access; returns cycles charged, raises
        :class:`ProtectionFault` when disallowed.  ``cell`` is the call
        site's memoization cell when the compiled engine can name sites."""
        outcome = self._check_cached(address, size, access, cell)
        self.stats.guards_executed += 1
        cycles = outcome.cycles
        if self._move_windows:
            cycles += self._window_toll(address, size, access)
        if outcome.allowed and self.safety is not None:
            cycles = self._safety_scan(address, size, access, cycles)
        self.stats.guard_cycles += cycles
        tracer = self.tracer
        if not outcome.allowed:
            self.stats.guard_faults += 1
            if tracer is not None:
                tracer.instant(
                    "guard.fault", "guard",
                    {"address": address, "size": size, "access": access},
                )
            raise ProtectionFault(address, size, access)
        if tracer is not None and tracer.fine:
            tracer.instant(
                "guard.check", "guard",
                {"address": address, "size": size, "access": access,
                 "cycles": cycles},
            )
        return cycles

    def guard_range(
        self,
        address: int,
        length: int,
        access: str = "read",
        cell: Optional[GuardSiteCell] = None,
    ) -> int:
        """Merged (Opt-2) guard: the whole byte range must be permitted for
        ``access``.  Zero-length ranges always pass — emitted for loops
        whose trip count may be zero."""
        self.stats.guards_executed += 1
        if length <= 0:
            self.stats.guard_cycles += self.costs.instruction
            return self.costs.instruction
        outcome = self._check_cached(address, length, access, cell)
        cycles = outcome.cycles
        if self._move_windows:
            cycles += self._window_toll(address, length, access)
        if outcome.allowed and self.safety is not None:
            cycles = self._safety_scan(address, length, access, cycles)
        self.stats.guard_cycles += cycles
        tracer = self.tracer
        if not outcome.allowed:
            self.stats.guard_faults += 1
            if tracer is not None:
                tracer.instant(
                    "guard.fault", "guard",
                    {"address": address, "size": length, "access": access},
                )
            raise ProtectionFault(address, length, access)
        if tracer is not None and tracer.fine:
            tracer.instant(
                "guard.check", "guard",
                {"address": address, "size": length, "access": access,
                 "cycles": cycles},
            )
        return cycles

    def guard_call(
        self,
        stack_pointer: int,
        frame_size: int,
        cell: Optional[GuardSiteCell] = None,
    ) -> int:
        """Call guard: the callee's worst-case frame [sp-frame, sp) must be
        inside a writable region (the stack grows down)."""
        base = stack_pointer - frame_size
        outcome = self._check_cached(base, frame_size, "write", cell)
        self.stats.guards_executed += 1
        cycles = outcome.cycles
        if self._move_windows:
            cycles += self._window_toll(base, frame_size, "write")
        if outcome.allowed and self.safety is not None:
            cycles = self._safety_scan(base, frame_size, "write", cycles)
        self.stats.guard_cycles += cycles
        tracer = self.tracer
        if tracer is not None and outcome.allowed and tracer.fine:
            tracer.instant(
                "guard.check", "guard",
                {"address": base, "size": frame_size, "access": "stack",
                 "cycles": cycles},
            )
        if not outcome.allowed:
            self.stats.guard_faults += 1
            if tracer is not None:
                tracer.instant(
                    "guard.fault", "guard",
                    {"address": base, "size": frame_size, "access": "stack"},
                )
            # A failed stack guard aborts to the kernel, which may choose
            # to expand the stack (Section 2.2); the interpreter surfaces
            # this as a fault the kernel can catch.
            raise ProtectionFault(base, frame_size, "stack")
        return cycles

    # ------------------------------------------------------------------
    # Kernel-driven changes (Figure 8)
    # ------------------------------------------------------------------

    def world_stop(self, thread_count: int = 1) -> int:
        """Steps 2-4: signal threads, dump registers, barrier.  Returns the
        cycles charged."""
        self._stopped = True
        self.stats.world_stops += 1
        cycles = self.costs.world_stop_per_thread * max(1, thread_count)
        return cycles

    def resume(self) -> None:
        self._stopped = False

    def on_move_rollback(self) -> None:
        """A move attempt was rolled back.  Whatever the journal undid,
        addresses may have changed meaning mid-attempt, so every guard
        cache keyed on the region generation must be invalidated — the
        undo restored the *data*, not other agents' memoized lookups."""
        self.stats.moves_rolled_back += 1
        self.regions.bump_generation()

    @property
    def is_stopped(self) -> bool:
        return self._stopped

    # ------------------------------------------------------------------
    # Introspection (feasibility figures)
    # ------------------------------------------------------------------

    def tracking_footprint_bytes(self) -> int:
        """Memory dedicated to the tracking structures (Figure 6)."""
        return (
            len(self.table) * self.TABLE_ENTRY_BYTES
            + self.escapes.memory_footprint_bytes()
        )

    def escape_histogram(self) -> Dict[int, int]:
        """Escapes-per-allocation over the whole run (Figure 5): freed
        allocations contribute their count at free time, live ones their
        current count.  Flushes first so pending records are attributed."""
        self.flush_escapes()
        histogram = dict(self._lifetime_escape_counts)
        for count, allocations in self.escapes.histogram().items():
            histogram[count] = histogram.get(count, 0) + allocations
        zero_live = sum(
            1 for a in self.table if self.escapes.escape_count(a) == 0
        )
        if zero_live:
            histogram[0] = histogram.get(0, 0) + zero_live
        return histogram

    def worst_case_allocation(self) -> Optional[Allocation]:
        """The live allocation with the most escapes — the page the
        Figure 9 experiment keeps moving."""
        self.flush_escapes()
        best: Optional[Allocation] = None
        best_count = -1
        for allocation in self.table:
            count = self.escapes.escape_count(allocation)
            if count > best_count:
                best, best_count = allocation, count
        return best
