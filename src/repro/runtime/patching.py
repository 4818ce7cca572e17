"""Pointer patching for page movement (Figure 8 steps 4-12, Table 3).

When the kernel wants to move a range of physical pages, the runtime
runs these steps, each written once as a :class:`Patcher` method:

4.  negotiates the final page set — **page expansion**: allocations must
    move whole, so the source range grows until no allocation straddles
    its boundary (:meth:`Patcher.plan_move`, costed by
    ``_expand_cycles``);
5-6. queries the Allocation Table for every allocation overlapping the
    final range (``plan_move`` again);
7-8. resolves the batched escape records (``_flush_escapes``), finds all
    escapes of those allocations and patches each one to the address its
    pointer will have after the move — pointer *swizzling*
    (``_patch_escapes``);
9.  patches the register snapshots the threads dumped at the world-stop
    (``_patch_registers``);
10. moves the bytes (``_copy``);
11-12. rebases the Allocation Table / escape map and reports completion
    (``_rebase``).

The serial move (:meth:`Patcher.execute_move`), the allocation move
(:meth:`Patcher.move_allocation`) and the incremental move's
stop-the-world tail (:meth:`IncrementalMove.flip`) all run these step
methods with the same journal records and fault hooks, in the same
order.  They differ only in their cost formulas, in whether the copy
journals the destination's image (the incremental pre-copy already
did), and in the rebase: an allocation move rebases one allocation and
leaves the region generation alone.

Every step's cycle cost is accounted separately because Table 3 reports
exactly this breakdown (Page Expand / Patch Gen & Exec / Register Patch /
Allocation & Movement), and the paper's headline ablation — "prototype
w/o expand" — is the same numbers with the expansion column removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.errors import KernelError, MoveError
from repro.machine.costs import DEFAULT_COSTS, CostModel
from repro.resilience.journal import (
    STEP_COPY_DATA,
    STEP_ESCAPE_FLUSH,
    STEP_PATCH_ESCAPES,
    STEP_PATCH_REGISTERS,
    STEP_REBASE_TRACKING,
    STEP_RESERVE,
    MoveJournal,
)
from repro.runtime.allocation_table import Allocation, AllocationTable
from repro.runtime.escape_map import AllocationToEscapeMap
from repro.runtime.regions import RegionSet

PAGE_SIZE = 4096


def _no_hook(step: str, progress: Optional[Tuple[int, int]] = None) -> None:
    """Default fault hook: a move outside a transaction has no fault
    surface."""


def page_down(address: int) -> int:
    return address & ~(PAGE_SIZE - 1)


def page_up(address: int) -> int:
    return (address + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


class MemoryInterface(Protocol):
    """What the patcher needs from physical memory."""

    def read_u64(self, address: int) -> int: ...

    def write_u64(self, address: int, value: int) -> None: ...

    def read_bytes(self, address: int, length: int) -> bytes: ...

    def write_bytes(self, address: int, data: bytes) -> None: ...


class RegisterSnapshot:
    """A thread's register file dumped on its stack at the world-stop.

    ``slots`` maps a register identifier to its value; ``pointer_slots``
    names the registers the compiler knows are pointer-typed (the paper
    patches conservatively from the type information available at the IR
    level).
    """

    def __init__(
        self,
        thread_id: int,
        slots: Dict[str, int],
        pointer_slots: Optional[set] = None,
    ) -> None:
        self.thread_id = thread_id
        self.slots = dict(slots)
        self.pointer_slots = (
            set(slots.keys()) if pointer_slots is None else set(pointer_slots)
        )

    def patch(self, lo: int, hi: int, delta: int) -> int:
        """Rewrite every pointer register aimed into [lo, hi).  Returns the
        number patched."""
        patched = 0
        for name in self.pointer_slots:
            value = self.slots.get(name)
            if value is not None and lo <= value < hi:
                self.slots[name] = value + delta
                patched += 1
        return patched


@dataclass
class MoveCost:
    """Cycle breakdown of one page movement — one row of Table 3."""

    page_expand: int = 0
    patch_gen_exec: int = 0
    register_patch: int = 0
    alloc_and_move: int = 0

    @property
    def prototype_cost(self) -> int:
        """Expand + patch + registers (the paper's "Prototype Cost" —
        movement excluded because paging pays it too)."""
        return self.page_expand + self.patch_gen_exec + self.register_patch

    @property
    def prototype_wo_expand(self) -> int:
        return self.patch_gen_exec + self.register_patch

    @property
    def total(self) -> int:
        return self.prototype_cost + self.alloc_and_move

    @property
    def wo_expand_fraction(self) -> float:
        """"Prototype w/o Expand / Total Cost" — the fraction not caused by
        the allocation/page granularity mismatch."""
        return self.prototype_wo_expand / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        """Uniform telemetry schema; includes the derived total."""
        return {
            "page_expand": self.page_expand,
            "patch_gen_exec": self.patch_gen_exec,
            "register_patch": self.register_patch,
            "alloc_and_move": self.alloc_and_move,
            "total": self.total,
        }

    def __add__(self, other: "MoveCost") -> "MoveCost":
        return MoveCost(
            self.page_expand + other.page_expand,
            self.patch_gen_exec + other.patch_gen_exec,
            self.register_patch + other.register_patch,
            self.alloc_and_move + other.alloc_and_move,
        )


@dataclass
class MovePlan:
    """The negotiated move: the (possibly expanded) source range and the
    allocations inside it."""

    requested_lo: int
    requested_hi: int
    lo: int
    hi: int
    allocations: List[Allocation]
    expand_lookups: int

    @property
    def length(self) -> int:
        return self.hi - self.lo

    @property
    def expanded(self) -> bool:
        return self.lo != self.requested_lo or self.hi != self.requested_hi

    @property
    def page_count(self) -> int:
        return self.length // PAGE_SIZE


class Patcher:
    """Executes the runtime side of page movement."""

    def __init__(
        self,
        table: AllocationTable,
        escapes: AllocationToEscapeMap,
        memory: MemoryInterface,
        costs: CostModel = DEFAULT_COSTS,
        regions: Optional[RegionSet] = None,
    ) -> None:
        self.table = table
        self.escapes = escapes
        self.memory = memory
        self.costs = costs
        #: Region landing zone to generation-invalidate on moves.  A move
        #: changes what addresses mean *before* the kernel reinstalls the
        #: region array, so any guard cache keyed on the generation must
        #: be killed here, not only at the later region mutation.
        self.regions = regions
        #: Optional :class:`~repro.kernel.physmem.FrameAllocator`; when the
        #: kernel installs it, :meth:`execute_move` refuses an unbacked
        #: destination up front (see :meth:`_validate_destination`).
        self.frames = None

    def _validate_destination(self, destination: int, length: int) -> None:
        """Refuse a destination that is not frame-backed *before* any
        state is mutated.  Historically a bad destination exploded
        mid-copy — after the escapes were already swizzled — with a raw
        low-level error; now it is a structured :class:`MoveError` at the
        reservation step, with nothing yet to roll back."""
        size = getattr(self.memory, "size", None)
        if size is not None and not (0 <= destination and destination + length <= size):
            raise MoveError(
                f"destination [{destination:#x}, {destination + length:#x}) "
                f"is outside physical memory ({size:#x} bytes)",
                step=STEP_RESERVE,
                lo=destination,
                hi=destination + length,
            )
        if self.frames is not None:
            for frame in range(destination // PAGE_SIZE, page_up(destination + length) // PAGE_SIZE):
                if self.frames.frame_is_free(frame):
                    raise MoveError(
                        f"destination frame {frame} "
                        f"([{destination:#x}, {destination + length:#x})) "
                        f"is not allocated — refusing to copy into an "
                        f"unbacked range",
                        step=STEP_RESERVE,
                        lo=destination,
                        hi=destination + length,
                    )

    # -- step 4-6: negotiation ---------------------------------------------------

    def plan_move(self, lo: int, hi: int) -> MovePlan:
        """Expand [lo, hi) until no allocation straddles a boundary.

        Each round costs one Allocation Table range query.  The kernel can
        veto the expanded plan (see the kernel module's negotiate logic).
        """
        if lo % PAGE_SIZE or hi % PAGE_SIZE:
            raise KernelError("move range must be page-aligned")
        if hi <= lo:
            raise KernelError("empty move range")
        requested_lo, requested_hi = lo, hi
        lookups = 0
        while True:
            lookups += 1
            overlapping = self.table.overlapping(lo, hi)
            new_lo, new_hi = lo, hi
            for allocation in overlapping:
                if allocation.address < new_lo:
                    new_lo = page_down(allocation.address)
                if allocation.end > new_hi:
                    new_hi = page_up(allocation.end)
            if new_lo == lo and new_hi == hi:
                return MovePlan(
                    requested_lo, requested_hi, lo, hi, overlapping, lookups
                )
            lo, hi = new_lo, new_hi

    # -- steps 7-12: patch + move ----------------------------------------------------

    def execute_move(
        self,
        plan: MovePlan,
        destination: int,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
        *,
        journal: MoveJournal,
        fault_hook=_no_hook,
    ) -> MoveCost:
        """Patch every escape and register, move the data, rebase the
        tracking structures.  Returns the cycle cost breakdown.

        ``journal`` makes every mutation undoable; ``fault_hook(step,
        progress)`` is the transaction's fault surface, fired at each
        step boundary and after every mid-step item (so torn faults can
        land between two escapes, two register frames, or the two halves
        of the copy).
        """
        if destination % PAGE_SIZE:
            raise KernelError("destination must be page-aligned")
        self._validate_destination(destination, plan.length)
        costs = self.costs
        delta = destination - plan.lo
        self._flush_escapes(fault_hook)
        escapes = self._patch_escapes(plan.allocations, delta, journal, fault_hook)
        registers = self._patch_registers(
            register_snapshots, plan.lo, plan.hi, delta, journal, fault_hook
        )
        self._copy(plan.lo, destination, plan.length, journal, fault_hook)
        self._rebase(plan, delta, journal, fault_hook)
        return MoveCost(
            page_expand=self._expand_cycles(plan),
            patch_gen_exec=escapes * costs.patch_escape + len(plan.allocations) * 4,
            register_patch=registers * costs.patch_register,
            alloc_and_move=int(
                costs.move_alloc_fixed + costs.move_per_byte * plan.length
            ),
        )

    # -- allocation granularity (Section 6) ------------------------------------------

    def move_allocation(
        self,
        allocation: Allocation,
        destination: int,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
        *,
        journal: MoveJournal,
        fault_hook=_no_hook,
    ) -> MoveCost:
        """Move one *allocation* (not its pages) — the paper's future-work
        design (Section 6): no page-set negotiation, no expansion, and the
        copy is sized by the allocation, so the entire granularity-
        mismatch cost ("Page Expand" plus most of "Allocation & Movement")
        disappears.  Returns a cost breakdown with ``page_expand == 0``.

        ``journal``/``fault_hook`` work exactly as in :meth:`execute_move`.
        The kernel refuses a destination that overlaps the allocation.
        """
        costs = self.costs
        lo, hi = allocation.address, allocation.end
        delta = destination - lo
        self._flush_escapes(fault_hook)
        escapes = self._patch_escapes([allocation], delta, journal, fault_hook)
        registers = self._patch_registers(
            register_snapshots, lo, hi, delta, journal, fault_hook
        )
        self._copy(lo, destination, allocation.size, journal, fault_hook)

        # One allocation needs no delta-ordered rebase.  Its three undos
        # are journaled before anything is mutated, and the progress hook
        # fires after: a torn fault there rolls back all three.
        fault_hook(STEP_REBASE_TRACKING)
        journal.record(
            STEP_REBASE_TRACKING,
            f"rebase allocation back to {lo:#x}",
            lambda a=allocation, o=lo: self.table.rebase(a, o),
        )
        journal.record(
            STEP_REBASE_TRACKING,
            f"rekey escape map back to {lo:#x}",
            lambda d=destination, o=lo: self.escapes.rekey(d, o),
        )
        inverse = [
            (loc + delta, loc) for loc in self.escapes.locations_in_range(lo, hi)
        ]
        journal.record(
            STEP_REBASE_TRACKING,
            "rewrite escape locations back to the old block",
            lambda moves=inverse: self.escapes.rewrite_locations(moves),
        )
        self.table.rebase(allocation, destination)
        self.escapes.rekey(lo, destination)
        self.escapes.rewrite_range(lo, hi, delta)
        fault_hook(STEP_REBASE_TRACKING, (1, 1))
        # No generation bump: an allocation-granularity move shuffles bytes
        # *within* registered regions, so cached region geometry stays valid.
        return MoveCost(
            patch_gen_exec=escapes * costs.patch_escape + 4,
            register_patch=registers * costs.patch_register,
            alloc_and_move=int(
                costs.move_alloc_fixed // 4 + costs.move_per_byte * allocation.size
            ),
        )

    # -- incremental movement (the bounded-pause protocol) -----------------------------

    def begin_incremental_move(
        self,
        plan: MovePlan,
        destination: int,
        *,
        journal: MoveJournal,
        window,
        fault_hook=_no_hook,
    ) -> "IncrementalMove":
        """Start an incremental move: pre-copy and escape scanning run in
        chunks with the world *running* (``precopy_step``), and only the
        short reconcile-and-patch tail (``flip``) needs a world stop.
        ``window`` is the runtime's dirty-tracking
        :class:`~repro.runtime.runtime.MoveWindow` over the source range."""
        if destination % PAGE_SIZE:
            raise KernelError("destination must be page-aligned")
        self._validate_destination(destination, plan.length)
        return IncrementalMove(self, plan, destination, journal, fault_hook, window)

    # -- the protocol's steps, shared by every kind of move ----------------------------

    def _expand_cycles(self, plan: MovePlan) -> int:
        """Step 4's cost: one lookup per expansion round, a quarter lookup
        per allocation found."""
        lookup = self.costs.expand_lookup
        return plan.expand_lookups * lookup + len(plan.allocations) * lookup // 4

    def _flush_escapes(self, hook) -> None:
        """Resolve the batched escape records so the patch sees a complete
        map.  Not journaled: resolution is idempotent (a rolled-back retry
        re-flushes to a no-op, and the resolved map is exactly what a
        batch-limit flush would have produced anyway)."""
        hook(STEP_ESCAPE_FLUSH)
        self.escapes.flush(self.table, self.memory.read_u64)

    def _patch_escapes(
        self, allocations, delta: int, journal: MoveJournal, hook
    ) -> int:
        """Steps 7-8: swizzle every escape still pointing into one of
        ``allocations`` to its post-move address.  Returns the number
        patched."""
        memory = self.memory
        hook(STEP_PATCH_ESCAPES)
        sites = [
            (allocation, location)
            for allocation in allocations
            for location in self.escapes.escapes_of(allocation)
        ]
        patched = 0
        for index, (allocation, location) in enumerate(sites):
            current = memory.read_u64(location)
            if allocation.address <= current < allocation.end:
                journal.log_u64(STEP_PATCH_ESCAPES, memory, location, current)
                memory.write_u64(location, current + delta)
                patched += 1
            # Stale entry (cell was overwritten): skip, drop lazily.
            hook(STEP_PATCH_ESCAPES, (index + 1, len(sites)))
        return patched

    def _patch_registers(
        self, snapshots, lo: int, hi: int, delta: int, journal: MoveJournal, hook
    ) -> int:
        """Step 9: patch the register snapshots the threads dumped at the
        world stop.  Returns the number of registers patched."""
        hook(STEP_PATCH_REGISTERS)
        snapshots = snapshots or []
        patched = 0
        for index, snapshot in enumerate(snapshots):
            journal.log_registers(STEP_PATCH_REGISTERS, snapshot)
            patched += snapshot.patch(lo, hi, delta)
            hook(STEP_PATCH_REGISTERS, (index + 1, len(snapshots)))
        return patched

    def _copy(
        self, source: int, destination: int, length: int, journal: MoveJournal,
        hook, log_image: bool = True,
    ) -> None:
        """Step 10: move the bytes, split in two halves so a torn fault
        can land between them.  The source is read in full *first*
        (memmove semantics survive overlapping ranges).  The destination's
        prior image is journaled for rollback unless the caller already
        journaled it (``log_image=False``)."""
        hook(STEP_COPY_DATA)
        if log_image:
            journal.log_image(STEP_COPY_DATA, self.memory, destination, length)
        image = self.memory.read_bytes(source, length)
        half = max(1, length // 2)
        self.memory.write_bytes(destination, image[:half])
        hook(STEP_COPY_DATA, (1, 2))
        self.memory.write_bytes(destination + half, image[half:])
        hook(STEP_COPY_DATA, (2, 2))

    def _rebase(self, plan: MovePlan, delta: int, journal: MoveJournal, hook) -> None:
        """Steps 11-12 for a page move: rebase the Allocation Table and the
        escape map, then kill every guard cache keyed on the region
        generation.

        When the destination range overlaps the source, one allocation's
        new base can equal another's not-yet-rebased base: rebase in
        delta-directed order so the colliding key is always vacated
        first, and rekey the escape map as one batch (detach every old
        key, then install new ones).  The per-allocation undos run
        newest-first on rollback, which is the reverse of the
        delta-directed order — collision-free for the same reason the
        forward order is."""
        table, escapes = self.table, self.escapes
        hook(STEP_REBASE_TRACKING)
        rekeys: List[Tuple[int, int]] = []
        ordered = sorted(plan.allocations, key=lambda a: a.address, reverse=delta > 0)
        for index, allocation in enumerate(ordered):
            old_address = allocation.address
            journal.record(
                STEP_REBASE_TRACKING,
                f"rebase allocation back to {old_address:#x}",
                lambda a=allocation, o=old_address: table.rebase(a, o),
            )
            table.rebase(allocation, old_address + delta)
            rekeys.append((old_address, allocation.address))
            hook(STEP_REBASE_TRACKING, (index + 1, len(ordered)))
        journal.record(
            STEP_REBASE_TRACKING,
            "rekey escape map back to pre-move bases",
            lambda pairs=[(n, o) for o, n in rekeys]: escapes.rekey_all(pairs),
        )
        escapes.rekey_all(rekeys)
        # Escape cells that themselves lived in the moved range now sit at
        # new addresses; rewrite their recorded locations.  The undo uses
        # the *exact* inverse location pairs, not an inverse window — a
        # window would also drag along stale cells that already sat in the
        # destination range before the move.
        inverse = [
            (loc + delta, loc) for loc in escapes.locations_in_range(plan.lo, plan.hi)
        ]
        journal.record(
            STEP_REBASE_TRACKING,
            "rewrite escape locations back to the source range",
            lambda moves=inverse: escapes.rewrite_locations(moves),
        )
        escapes.rewrite_range(plan.lo, plan.hi, delta)
        if self.regions is not None:
            self.regions.bump_generation()


class IncrementalMove:
    """One in-flight incremental move: chunked pre-work, short flip.

    Pre-copy chunks (:meth:`precopy_step`) run with the world *running*;
    they mutate nothing the program can see — the destination frames are
    reserved but covered by no region, so guards fault any access — and
    therefore need no stop.  Each chunk does at most ``chunk_budget``
    cycles of escape scanning (patch-candidate generation) and data
    streaming.  The :meth:`flip` runs under the caller's world stop: it
    re-scans escapes recorded while the window was open, then runs the
    serial move's step code — patch escapes and registers against
    *fresh* machine state, re-copy the whole range, rebase the tracking
    structures — charging only the dirty share of the copy, since the
    bulk already streamed out.

    Every mutation is journaled through the shared transaction journal,
    so a fault at any chunk boundary rolls the whole move back.
    """

    def __init__(
        self,
        patcher: Patcher,
        plan: MovePlan,
        destination: int,
        journal: MoveJournal,
        fault_hook,
        window,
    ) -> None:
        self.patcher = patcher
        self.plan = plan
        self.destination = destination
        self.journal = journal
        self.hook = fault_hook
        self.window = window
        self.cost = MoveCost()
        #: Cycles the flip itself cost (the stop-the-world share).
        self.flip_cycles = 0
        self._sites_total: Optional[int] = None
        self._sites_scanned = 0
        self._bytes_copied = 0
        self._copy_started = False
        self.done_precopy = False

    def precopy_step(self, chunk_budget: int) -> Optional[int]:
        """Advance the pre-work by roughly ``chunk_budget`` cycles
        (unbounded when 0); always makes progress.  Returns the cycles
        charged, or ``None`` once pre-copy is complete."""
        if self.done_precopy:
            return None
        budget = chunk_budget if chunk_budget > 0 else float("inf")
        costs = self.patcher.costs
        plan = self.plan
        memory = self.patcher.memory
        spent = 0

        if self._sites_total is None:
            # First chunk: the negotiation/expansion cost, plus an escape
            # flush so the scan sees a complete map.
            self.patcher._flush_escapes(self.hook)
            self.cost.page_expand = self.patcher._expand_cycles(plan)
            spent += self.cost.page_expand
            self._sites_total = sum(
                len(self.patcher.escapes.escapes_of(allocation))
                for allocation in plan.allocations
            )

        # Scan phase: patch-candidate generation, read-only (the flip
        # patches against fresh state; this phase carries the cost).
        scan_unit = max(1, costs.escape_record)
        while self._sites_scanned < self._sites_total:
            self._sites_scanned += 1
            self.cost.patch_gen_exec += scan_unit
            spent += scan_unit
            if spent >= budget:
                self.hook(
                    STEP_PATCH_ESCAPES,
                    (self._sites_scanned, self._sites_total),
                )
                return spent
        if self._sites_total:
            self.hook(STEP_PATCH_ESCAPES, (self._sites_scanned, self._sites_total))

        # Copy phase: stream source bytes into the reserved destination.
        if not self._copy_started:
            self.journal.log_image(
                STEP_COPY_DATA, memory, self.destination, plan.length
            )
            fixed = int(costs.move_alloc_fixed)
            self.cost.alloc_and_move += fixed
            spent += fixed
            self._copy_started = True
        per_byte = costs.move_per_byte
        remaining = plan.length - self._bytes_copied
        if remaining > 0:
            if spent >= budget:
                return spent  # out of budget this chunk; copy next time
            room = budget - spent
            if per_byte > 0 and room != float("inf"):
                n = min(remaining, max(1, int(room / per_byte)))
            else:
                n = remaining
            data = memory.read_bytes(plan.lo + self._bytes_copied, n)
            memory.write_bytes(self.destination + self._bytes_copied, data)
            self._bytes_copied += n
            copy_cycles = int(per_byte * n)
            self.cost.alloc_and_move += copy_cycles
            spent += copy_cycles
            self.hook(STEP_COPY_DATA, (self._bytes_copied, plan.length))
        if self._bytes_copied >= plan.length:
            self.done_precopy = True
        return spent

    def flip(
        self,
        fresh_plan: MovePlan,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
    ) -> MoveCost:
        """The stop-the-world tail.  The caller holds the world stopped
        and has re-negotiated ``fresh_plan`` over the same page bounds (a
        geometry change must retry the whole move before getting here).
        Returns the accumulated :class:`MoveCost`; the flip's own cycles
        are in :attr:`flip_cycles`."""
        patcher = self.patcher
        costs = patcher.costs
        plan = fresh_plan
        delta = self.destination - plan.lo
        journal, hook = self.journal, self.hook

        # Escapes recorded while the world ran re-scan now (the
        # write-barrier dirty check).
        patcher._flush_escapes(hook)
        rescan = self.window.dirty_escapes * max(1, costs.escape_record)
        # Patch against fresh state: the pre-scan was the cost model; the
        # machine is the authority.
        escapes = patcher._patch_escapes(plan.allocations, delta, journal, hook)
        registers = patcher._patch_registers(
            register_snapshots, plan.lo, plan.hi, delta, journal, hook
        )
        # Reconcile the copy.  The escape patches above may have
        # rewritten cells *inside* the source range, and the program may
        # have written it between chunks — physically re-copy the whole
        # range (the pre-copy already journaled the destination's image),
        # charging cycles only for the dirty pages.
        patcher._copy(
            plan.lo, self.destination, plan.length, journal, hook, log_image=False
        )
        recopy = int(costs.move_per_byte * len(self.window.dirty_pages) * PAGE_SIZE)
        patcher._rebase(plan, delta, journal, hook)

        patch_cost = rescan + escapes * costs.patch_escape + len(plan.allocations) * 4
        register_cost = registers * costs.patch_register
        self.cost.patch_gen_exec += patch_cost
        self.cost.register_patch += register_cost
        self.cost.alloc_and_move += recopy
        self.flip_cycles = patch_cost + register_cost + recopy
        return self.cost
