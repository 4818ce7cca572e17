"""The kernel: frame management, loading, faults, and change requests.

One :class:`Kernel` owns physical memory and can host both kinds of
process side by side:

* **traditional** processes get a page table + MMU; the kernel services
  page faults by demand-allocating frames (Table 2's allocation events)
  and can move pages by copy + PTE remap + TLB shootdown (Table 2's move
  events), emitting MMU-notifier events for both;
* **CARAT** processes get a region set + runtime; the kernel's change
  requests run the Figure 8 protocol — world-stop, negotiate, patch,
  move, region update, resume — with every cycle charged to the cost
  model.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.carat.pipeline import CaratBinary
from repro.carat.signing import DEFAULT_TOOLCHAIN
from repro.errors import KernelError, MoveError, SegmentationFault
from repro.kernel.heap import HeapAllocator
from repro.ir.types import size_of
from repro.kernel.loader import (
    image_geometry,
    layout_globals,
    page_align,
    validate_binary,
    write_globals,
)
from repro.kernel.mmu import MMU, PageFault
from repro.kernel.mmu_notifier import MMUNotifier
from repro.kernel.pagetable import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_EXEC,
    PTE_PRESENT,
    PTE_WRITE,
    PageTable,
)
from repro.kernel.physmem import FrameAllocator, PhysicalMemory
from repro.kernel.process import (
    VIRT_CODE_BASE,
    VIRT_GLOBALS_BASE,
    VIRT_HEAP_BASE,
    VIRT_STACK_TOP,
    MemoryLayout,
    Process,
)
from repro.machine.costs import DEFAULT_COSTS, CostModel
from repro.resilience.retry import RetryPolicy
from repro.resilience.transaction import (
    drive_transaction,
    execute_allocation_move,
    execute_page_move,
    execute_protection_change,
)
from repro.runtime.patching import MoveCost, MovePlan, RegisterSnapshot
from repro.runtime.regions import (
    PERM_EXEC,
    PERM_READ,
    PERM_RW,
    PERM_RWX,
    Region,
    RegionSet,
)
from repro.runtime.runtime import CaratRuntime

DEFAULT_MEMORY = 64 * 1024 * 1024
DEFAULT_HEAP = 8 * 1024 * 1024
DEFAULT_STACK = 1 * 1024 * 1024

#: Cost of a page fault trap + kernel entry/exit, beyond the work done.
FAULT_TRAP_CYCLES = 600
#: Cost of a TLB shootdown when the kernel changes a traditional mapping.
SHOOTDOWN_CYCLES = 300


@dataclass
class KernelStats:
    """Kernel service counters.

    One instance is the machine-wide aggregate (``Kernel.stats``); the
    kernel additionally keeps one per tenant (``Kernel.tenant_stats``),
    updated in lockstep through :meth:`Kernel.charge_stat`, so a
    multi-tenant machine can attribute every fault/move/rollback to the
    process that caused it.
    """

    page_faults: int = 0
    demand_allocations: int = 0
    traditional_moves: int = 0
    carat_moves: int = 0
    carat_protection_changes: int = 0
    fault_cycles: int = 0
    move_cycles: int = 0
    #: Transactional move protocol counters (``run --stats`` reports
    #: them; the fault campaign asserts over them).
    moves_attempted: int = 0
    moves_committed: int = 0
    moves_rolled_back: int = 0
    moves_degraded: int = 0
    move_retries: int = 0
    backoff_cycles: int = 0

    def to_dict(self) -> dict:
        """Uniform telemetry schema (``repro.telemetry.metrics``)."""
        return dataclasses.asdict(self)


class Kernel:
    def __init__(
        self,
        memory_size: int = DEFAULT_MEMORY,
        costs: CostModel = DEFAULT_COSTS,
        trusted_toolchains: Optional[set] = None,
        keep_notifier_events: bool = False,
        fast_memory: Optional[int] = None,
    ) -> None:
        self.memory = PhysicalMemory(memory_size, fast_size=fast_memory)
        self.frames = FrameAllocator(
            memory_size,
            fast_frames=(
                fast_memory // PAGE_SIZE if fast_memory is not None else None
            ),
        )
        self.costs = costs
        self.notifier = MMUNotifier(keep_events=keep_notifier_events)
        self.trusted_toolchains = trusted_toolchains or {DEFAULT_TOOLCHAIN}
        self.processes: Dict[int, Process] = {}
        self.stats = KernelStats()
        #: Per-PID service counters, maintained in lockstep with the
        #: aggregate by :meth:`charge_stat`.  Regions, runtimes, heaps,
        #: allocation tables, guard caches, and TLBs are *already* per
        #: :class:`Process`; this splits the last single-owner structure
        #: (the stats) so tenants are fully isolated.
        self.tenant_stats: Dict[int, KernelStats] = {}
        #: The tenant currently on the simulated CPU.  A scheduler sets
        #: it around each quantum; kernel services started while it is
        #: set charge that tenant's stats even when no process object is
        #: in hand.  ``None`` = single-owner (legacy) operation.
        self.current_pid: Optional[int] = None
        #: Per-PID pause samples (cycles of each completed or wasted
        #: change request, world-stop included) — the telemetry source
        #: for per-tenant p99 pause in the multi-tenant benchmark.
        self.pause_log: Dict[int, List[int]] = {}
        #: Attached :class:`~repro.multiproc.ShareManager`; ``None``
        #: means no cross-process page sharing.
        self.shares = None
        self.clock_cycles = 0
        self._next_pid = 1
        #: When True, change requests append Figure-8 step labels here.
        self.trace_protocol = False
        self.protocol_trace: List[str] = []
        #: On a tiered kernel, new capsules land in the capacity tier and
        #: the policy engine promotes what turns out to be hot.
        self.placement_tier: Optional[str] = (
            "slow" if fast_memory is not None else None
        )
        #: Attached memory-policy engine (see :mod:`repro.policy`); driven
        #: from :meth:`advance_clock`.
        self.policy = None
        #: Attached invariant sanitizer (see :mod:`repro.sanitizer`);
        #: notified after every change request and process load.
        self.sanitizer = None
        #: Retry/backoff/watchdog configuration for the transactional
        #: move protocol (see :mod:`repro.resilience`).
        self.retry_policy = RetryPolicy()
        #: Attached step-targeted fault injector
        #: (:class:`~repro.sanitizer.faults.ProtocolFaultInjector`);
        #: ``None`` means no faults ever fire.
        self.fault_injector = None
        #: Attached :class:`~repro.resilience.degrade.DegradationManager`;
        #: when present, exhausted moves degrade (quarantine + pin)
        #: instead of propagating, and admission refuses quarantined
        #: ranges up front.
        self.degradation = None
        #: Attached :class:`~repro.telemetry.Tracer`; every Figure-8
        #: protocol step lands in it as an instant event.
        self.tracer = None
        #: Attached :class:`~repro.resilience.movequeue.MoveQueue`;
        #: when present, policy moves enqueue instead of running the
        #: full protocol synchronously, and :meth:`advance_clock` drains
        #: them incrementally with bounded pauses.
        self.move_queue = None
        #: Attached :class:`~repro.agents.AgentMediator`; when present,
        #: guard-free translation clients (DMA engines, accelerators)
        #: hold pinned leases the move protocol must quiesce.
        self.agents = None

    def _trace(self, step: int, message: str) -> None:
        if self.trace_protocol:
            self.protocol_trace.append(f"step {step:2d}: {message}")
        if self.tracer is not None:
            self.tracer.instant(
                f"fig8.step{step:02d}", "protocol", {"detail": message}
            )

    def _sanitize(self, label: str) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_change_request(self, label)

    # ------------------------------------------------------------------
    # Per-tenant accounting
    # ------------------------------------------------------------------

    def stats_for(self, pid: int) -> KernelStats:
        """The per-tenant stats block for ``pid`` (created on demand)."""
        stats = self.tenant_stats.get(pid)
        if stats is None:
            stats = KernelStats()
            self.tenant_stats[pid] = stats
        return stats

    def charge_stat(self, name: str, amount: int = 1, pid: Optional[int] = None) -> None:
        """Bump a :class:`KernelStats` counter on the aggregate *and* on
        the owning tenant's block.  ``pid=None`` falls back to
        :attr:`current_pid`; with neither set only the aggregate moves
        (single-owner operation — exactly the old behavior)."""
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        owner = self.current_pid if pid is None else pid
        if owner is not None:
            tenant = self.stats_for(owner)
            setattr(tenant, name, getattr(tenant, name) + amount)

    @contextmanager
    def tenant(self, pid: Optional[int]) -> Iterator[None]:
        """Scope kernel services to one tenant: everything charged while
        the context is open lands in ``pid``'s stats (and, if a tracer is
        attached, its trace lane).  The scheduler wraps each quantum in
        this."""
        previous = self.current_pid
        self.current_pid = pid
        tracer = self.tracer
        previous_lane = None
        if tracer is not None:
            previous_lane = tracer.current_pid
            tracer.current_pid = pid if pid is not None else 0
        try:
            yield
        finally:
            self.current_pid = previous
            if tracer is not None:
                tracer.current_pid = previous_lane

    def record_pause(self, pid: int, cycles: int) -> None:
        """Log one tenant pause (the cycles a change request held the
        world stopped — committed or wasted).  The multi-tenant benchmark
        derives per-tenant p99 pause from this log; a tracer additionally
        gets an instant event on the tenant's lane."""
        self.pause_log.setdefault(pid, []).append(cycles)
        if self.tracer is not None:
            self.tracer.instant(
                "tenant.pause", "kernel", {"cycles": cycles}, pid=pid
            )

    def attach_shares(self, manager) -> None:
        """Install a :class:`~repro.multiproc.ShareManager`: identical
        read-only pages (code/globals) dedup across tenants, writes
        CoW-break through the transactional move path, and policy moves
        refuse shared ranges."""
        self.shares = manager

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load_carat(
        self,
        binary: CaratBinary,
        heap_size: int = DEFAULT_HEAP,
        stack_size: int = DEFAULT_STACK,
        guard_mechanism: str = "mpx",
        share: bool = False,
    ) -> Process:
        """Load a signed CARAT binary: dark-capsule physical layout, one
        initial region, runtime bound and primed with static allocations.

        With ``share=True`` (requires an attached
        :class:`~repro.multiproc.ShareManager`) the read-only image —
        globals + code — is deduplicated across tenants running the same
        binary: the capsule splits into a private RWX run (stack + heap)
        and a shared R-X run mapped by every member.  The shared run is
        keyed on the binary's signed image; the first tenant materializes
        it (frames + globals written), later tenants just attach and write
        nothing into it, which is correct because it is read-only for
        everyone, so its frames always hold pristine initial values.  A
        write into the shared run protection-faults; the scheduler
        services it as a CoW break (see :meth:`~repro.multiproc.
        ShareManager.service_write_fault`)."""
        validate_binary(binary, self.trusted_toolchains)
        if share and self.shares is None:
            raise KernelError(
                "share=True needs a ShareManager (kernel.attach_shares)"
            )
        module = binary.module
        code_size, globals_size = image_geometry(module)
        image_size = globals_size + code_size
        stack_size = page_align(stack_size)
        heap_size = page_align(heap_size)
        pid = self._next_pid

        # The private run: stack, the image unless it is shared, and the
        # heap carved from its tail.
        private_size = stack_size + heap_size + (0 if share else image_size)
        base = self.frames.alloc_address(
            private_size // PAGE_SIZE, tier=self.placement_tier
        )
        regions = RegionSet([Region(base, private_size, PERM_RWX)])
        image_base = base + stack_size
        write_image = True
        if share:
            key = self.shares.image_key(binary)
            group = self.shares.lookup(key)
            write_image = group is None
            if write_image:
                pages = image_size // PAGE_SIZE
                shared_base = self.frames.alloc_address(
                    pages, tier=self.placement_tier
                )
                group = self.shares.register(key, shared_base, pages)
            self.shares.attach(group, pid)
            image_base = group.base
            regions.add(Region(image_base, image_size, PERM_READ | PERM_EXEC))

        layout = MemoryLayout(
            stack_base=base,
            stack_size=stack_size,
            globals_base=image_base,
            globals_size=globals_size,
            code_base=image_base + globals_size,
            code_size=code_size,
            heap_base=base + private_size - heap_size,
            heap_size=heap_size,
        )
        runtime = CaratRuntime(
            self.memory, regions, guard_mechanism=guard_mechanism, costs=self.costs
        )
        # The patcher validates move destinations against the kernel's
        # frame allocator (refusing unbacked ranges with a MoveError).
        runtime.patcher.frames = self.frames

        globals_map, _ = layout_globals(module, layout.globals_base)
        if write_image:
            write_globals(binary, globals_map, self.memory.write_bytes)

        # Static allocations are recorded at load time (Section 4.1.2).
        # Every member of a shared image tracks its own view of it: the
        # Allocation Table is per-process even when the frames are not.
        for gv in module.globals.values():
            runtime.on_alloc(
                globals_map[gv.name], max(1, size_of(gv.value_type)), "global"
            )
        runtime.on_alloc(layout.stack_base, layout.stack_size, "stack")
        runtime.on_alloc(layout.code_base, layout.code_size, "code")
        # Load-time bookkeeping is free for the program.
        runtime.stats.tracking_events = 0
        runtime.stats.tracking_cycles = 0

        process = Process(
            pid=pid,
            name=binary.name,
            mode="carat",
            binary=binary,
            layout=layout,
            globals_map=globals_map,
            regions=regions,
            runtime=runtime,
            heap=HeapAllocator(layout.heap_base, layout.heap_size),
            static_footprint_pages=image_size // PAGE_SIZE,
            initial_pages=(stack_size + image_size + heap_size) // PAGE_SIZE,
        )
        self._next_pid += 1
        self.processes[pid] = process
        if self.sanitizer is not None:
            self.sanitizer.on_process_loaded(process)
        self._sanitize("load-carat-shared" if share else "load-carat")
        return process

    def load_traditional(
        self,
        binary: CaratBinary,
        heap_size: int = DEFAULT_HEAP,
        stack_size: int = DEFAULT_STACK,
    ) -> Process:
        """Load under the paging model: virtual layout, code/globals and
        the top stack page mapped eagerly, everything else demand-paged."""
        module = binary.module
        code_size, globals_size = image_geometry(module)
        stack_size = page_align(stack_size)
        heap_size = page_align(heap_size)

        layout = MemoryLayout(
            code_base=VIRT_CODE_BASE,
            code_size=code_size,
            globals_base=VIRT_GLOBALS_BASE,
            globals_size=globals_size,
            heap_base=VIRT_HEAP_BASE,
            heap_size=heap_size,
            stack_base=VIRT_STACK_TOP - stack_size,
            stack_size=stack_size,
        )

        page_table = PageTable()
        mmu = MMU(page_table, costs=self.costs)
        process = Process(
            pid=self._next_pid,
            name=binary.name,
            mode="traditional",
            binary=binary,
            layout=layout,
            page_table=page_table,
            mmu=mmu,
            heap=HeapAllocator(layout.heap_base, layout.heap_size),
            static_footprint_pages=(code_size + globals_size) // PAGE_SIZE,
        )
        self._next_pid += 1
        self.processes[process.pid] = process

        # Initial mapping: code (r-x), globals (rw-), top stack page (rw-).
        self._map_range(
            process, layout.code_base, code_size, PTE_PRESENT | PTE_EXEC
        )
        self._map_range(
            process, layout.globals_base, globals_size, PTE_PRESENT | PTE_WRITE
        )
        top_page = layout.stack_top - PAGE_SIZE
        self._map_range(process, top_page, PAGE_SIZE, PTE_PRESENT | PTE_WRITE)
        process.initial_pages = page_table.mapped_pages

        globals_map, _ = layout_globals(module, layout.globals_base)
        process.globals_map = globals_map
        write_globals(binary, globals_map, lambda a, b: self._write_virtual(process, a, b))
        if self.sanitizer is not None:
            self.sanitizer.on_process_loaded(process)
        self._sanitize("load-traditional")
        return process

    def _map_range(self, process: Process, vbase: int, size: int, flags: int) -> None:
        assert process.page_table is not None
        for offset in range(0, page_align(size), PAGE_SIZE):
            vpn = (vbase + offset) >> PAGE_SHIFT
            if process.page_table.is_mapped(vpn):
                continue
            frame = self.frames.alloc()
            self.memory.fill(frame * PAGE_SIZE, PAGE_SIZE, 0)
            process.page_table.map(vpn, frame, flags)

    def _write_virtual(self, process: Process, vaddr: int, data: bytes) -> None:
        """Loader-path write: walks the page table directly (no TLB)."""
        assert process.page_table is not None
        offset = 0
        while offset < len(data):
            address = vaddr + offset
            vpn = address >> PAGE_SHIFT
            pte = process.page_table.lookup(vpn)
            if pte is None:
                raise KernelError(f"loader write to unmapped page {vpn:#x}")
            page_offset = address & (PAGE_SIZE - 1)
            chunk = min(len(data) - offset, PAGE_SIZE - page_offset)
            self.memory.write_bytes(
                (pte.pfn << PAGE_SHIFT) | page_offset, data[offset : offset + chunk]
            )
            offset += chunk

    # ------------------------------------------------------------------
    # Traditional-model services
    # ------------------------------------------------------------------

    def handle_page_fault(self, process: Process, fault: PageFault) -> int:
        """Demand paging: a fault inside a valid segment maps a fresh
        zeroed frame (one Table 2 allocation event); anything else is a
        real segfault."""
        if process.page_table is None:
            raise KernelError("page fault for a non-traditional process")
        vaddr = fault.vaddr
        segment = self._segment_of(process, vaddr)
        if segment is None or fault.present:
            raise SegmentationFault(vaddr, fault.access)
        self.charge_stat("page_faults", pid=process.pid)
        frame = self.frames.alloc()
        self.memory.fill(frame * PAGE_SIZE, PAGE_SIZE, 0)
        flags = PTE_PRESENT | PTE_WRITE
        if segment == "code":
            flags = PTE_PRESENT | PTE_EXEC
        process.page_table.map(fault.vpn, frame, flags)
        process.demand_page_allocs += 1
        self.charge_stat("demand_allocations", pid=process.pid)
        self.notifier.page_alloc(process.pid, fault.vpn, self.clock_cycles)
        cycles = FAULT_TRAP_CYCLES
        self.charge_stat("fault_cycles", cycles, pid=process.pid)
        self._sanitize("page-fault")
        return cycles

    def _segment_of(self, process: Process, vaddr: int) -> Optional[str]:
        for name, (base, size) in process.layout.segments().items():
            if base <= vaddr < base + size:
                return name
        return None

    def move_page_traditional(self, process: Process, vaddr: int) -> int:
        """Copy a page to a new frame and remap: the paging model's page
        move (constant-time PTE update + shootdown)."""
        if process.page_table is None or process.mmu is None:
            raise KernelError("not a traditional process")
        vpn = vaddr >> PAGE_SHIFT
        pte = process.page_table.lookup(vpn)
        if pte is None:
            raise KernelError(f"cannot move unmapped page {vpn:#x}")
        new_frame = self.frames.alloc()
        self.memory.copy(pte.pfn << PAGE_SHIFT, new_frame * PAGE_SIZE, PAGE_SIZE)
        old_frame, _ = process.page_table.remap(vpn, new_frame)
        self.frames.free(old_frame)
        process.mmu.invalidate_page(vpn)
        process.pages_moved += 1
        self.charge_stat("traditional_moves", pid=process.pid)
        self.notifier.pte_change(process.pid, vpn, self.clock_cycles)
        self.notifier.invalidate_range(process.pid, vpn, vpn + 1, self.clock_cycles)
        cycles = SHOOTDOWN_CYCLES + int(self.costs.move_per_byte * PAGE_SIZE)
        self.charge_stat("move_cycles", cycles, pid=process.pid)
        self._sanitize("traditional-move")
        return cycles

    # ------------------------------------------------------------------
    # CARAT-model change requests (Figure 8)
    # ------------------------------------------------------------------

    def request_page_move(
        self,
        process: Process,
        page_address: int,
        page_count_: int = 1,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
        destination: Optional[int] = None,
        thread_count: int = 1,
        reason: str = "carat-move",
    ) -> Tuple[MovePlan, MoveCost, int]:
        """Steps 1-12: move ``page_count_`` pages starting at
        ``page_address``.  Returns (plan, cost breakdown, total cycles
        including the world stop).

        ``reason`` labels the MMU-notifier event so trace consumers
        (Table 2 accounting, the policy benchmarks) can attribute the
        move to its initiator — e.g. ``policy-compaction``,
        ``policy-promote``, ``policy-demote``.

        The request runs as a transaction (see :mod:`repro.resilience`):
        any fault rolls every step back, transient faults retry with
        backoff, and exhaustion raises a structured
        :class:`~repro.errors.MoveError` with the machine verified back
        in its pre-move state."""
        runtime = process.runtime
        regions = process.regions
        if runtime is None or regions is None:
            raise KernelError("not a CARAT process")
        lo = page_address & ~(PAGE_SIZE - 1)
        hi = lo + page_count_ * PAGE_SIZE
        self._check_admission(
            process, "page-move", lo, hi, reason=reason,
            destination=destination,
        )
        return drive_transaction(
            self,
            process,
            runtime,
            "page-move",
            lambda txn: execute_page_move(
                txn,
                self,
                process,
                lo,
                hi,
                register_snapshots,
                destination,
                thread_count,
                reason,
            ),
            lo,
            hi,
        )

    def _check_admission(
        self,
        process,
        operation: str,
        lo: int,
        hi: int,
        reason: str = "carat-move",
        destination: Optional[int] = None,
    ) -> None:
        """Admission control, before any work (no world stop, no attempt
        counted): a source range the process's regions do not fully
        cover is refused (a page moved away earlier left a hole there,
        and its old frames are no longer the process's to copy or free),
        so is a range the DegradationManager has quarantined, and so is
        a range holding CoW-shared pages — shared frames are pinned for
        everyone except the CoW-break service itself
        (``reason="cow-break"``), which is *how* a page leaves the
        share.  A known ``destination`` overlapping a live
        translation-client lease is refused too: an agent is streaming
        those bytes guard-free, so nothing may land on them (a *source*
        overlapping a lease is fine — the ``quiesce-agents`` step drains
        it mid-protocol)."""
        hole = process.regions.first_hole(lo, hi)
        if hole is not None:
            raise MoveError(
                f"{operation} of [{lo:#x}, {hi:#x}) refused: source is not "
                f"mapped by the process (hole at {hole:#x})",
                step="admission",
                lo=lo,
                hi=hi,
            )
        if self.degradation is not None and not self.degradation.allows(lo, hi):
            raise MoveError(
                f"{operation} of [{lo:#x}, {hi:#x}) refused: range is "
                f"quarantined (pinned after repeated move failures)",
                step="admission",
                lo=lo,
                hi=hi,
            )
        if (
            self.shares is not None
            and reason != "cow-break"
            and self.shares.range_shared(process.pid, lo, hi)
        ):
            raise MoveError(
                f"{operation} of [{lo:#x}, {hi:#x}) refused: range holds "
                f"CoW-shared pages (pinned while other tenants map them)",
                step="admission",
                lo=lo,
                hi=hi,
            )
        if self.agents is not None and destination is not None:
            span = hi - lo
            pinned = self.agents.leases_overlapping(
                destination, destination + span
            )
            if pinned:
                raise MoveError(
                    f"{operation} of [{lo:#x}, {hi:#x}) refused: "
                    f"destination [{destination:#x}, "
                    f"{destination + span:#x}) overlaps "
                    f"{pinned[0].describe()}",
                    step="admission",
                    lo=lo,
                    hi=hi,
                )

    def request_allocation_move(
        self,
        process: Process,
        allocation,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
        destination: Optional[int] = None,
        thread_count: int = 1,
    ) -> Tuple[MoveCost, int]:
        """Allocation-granularity movement (Section 6's future-work
        design): move exactly one allocation, with no page negotiation.

        The destination stays inside the process's permitted regions (the
        kernel carves it from the heap's free space via the process heap
        manager), so the region set is untouched.  Returns (cost, total
        cycles including the world stop).
        """
        runtime = process.runtime
        if runtime is None:
            raise KernelError("not a CARAT process")
        self._check_admission(
            process, "allocation-move", allocation.address, allocation.end
        )
        if destination is not None and (
            destination < allocation.end
            and destination + allocation.size > allocation.address
        ):
            # A move onto (part of) itself would copy over its own bytes,
            # and its release step would free the block it now occupies.
            raise MoveError(
                f"allocation-move of [{allocation.address:#x}, "
                f"{allocation.end:#x}) refused: destination "
                f"{destination:#x} overlaps the allocation",
                step="admission",
                lo=allocation.address,
                hi=allocation.end,
            )
        return drive_transaction(
            self,
            process,
            runtime,
            "allocation-move",
            lambda txn: execute_allocation_move(
                txn,
                self,
                process,
                allocation,
                register_snapshots,
                destination,
                thread_count,
            ),
            allocation.address,
            allocation.end,
        )

    def expand_stack(self, process: Process, extra_bytes: int) -> int:
        """Seamless stack expansion (Section 2.2): a failed call guard
        aborts to the kernel, which grows the stack region downward and
        resumes the thread.  Returns the new stack base."""
        runtime = process.runtime
        regions = process.regions
        if runtime is None or regions is None:
            raise KernelError("not a CARAT process")
        extra = (extra_bytes + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        layout = process.layout
        old_base = layout.stack_base
        wanted_frame = (old_base - extra) // PAGE_SIZE
        if wanted_frame > 0 and self.frames.alloc_at(wanted_frame, extra // PAGE_SIZE):
            # Physically adjacent below the old stack: simply extend.
            new_base = wanted_frame * PAGE_SIZE
            layout.stack_base = new_base
            layout.stack_size += extra
        else:
            raise KernelError(
                "cannot expand the stack contiguously; the kernel would "
                "have to move the whole capsule (a page-move request)"
            )
        regions.add(Region(new_base, extra, PERM_RWX))
        regions.coalesce()
        # Grow the stack's Allocation Table entry in place so allocas that
        # straddle the old floor still sit inside one tracked block.
        stack_entry = runtime.table.at(old_base)
        if stack_entry is not None and stack_entry.kind == "stack":
            runtime.table.rebase(stack_entry, new_base)
            stack_entry.size += extra
        else:
            runtime.on_alloc(new_base, extra, "stack")
        self._sanitize("stack-expand")
        return layout.stack_base

    def request_protection_change(
        self,
        process: Process,
        base: int,
        length: int,
        perms: int,
        thread_count: int = 1,
    ) -> int:
        """A protection change is the simpler variant: world-stop, region
        entry modification, resume — no patching (Section 4.4)."""
        runtime = process.runtime
        regions = process.regions
        if runtime is None or regions is None:
            raise KernelError("not a CARAT process")
        # Protection changes never charged stats.move_cycles; the
        # transactional path keeps that accounting.
        (total,) = drive_transaction(
            self,
            process,
            runtime,
            "protection-change",
            lambda txn: execute_protection_change(
                txn, self, process, base, length, perms, thread_count
            ),
            base,
            base + length,
            charge_move_cycles=False,
        )
        return total

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def exit_process(self, process: Process, code: int = 0) -> None:
        process.exited = True
        process.exit_code = code

    def attach_policy(self, engine) -> None:
        """Install a memory-policy engine (see :mod:`repro.policy`); its
        epochs fire from :meth:`advance_clock`."""
        self.policy = engine

    def attach_sanitizer(self, sanitizer) -> None:
        """Install an invariant sanitizer (see :mod:`repro.sanitizer`);
        it is notified after every change request and process load."""
        self.sanitizer = sanitizer

    def attach_fault_injector(self, injector) -> None:
        """Install a step-targeted protocol fault injector
        (:class:`~repro.sanitizer.faults.ProtocolFaultInjector`); every
        change request's step boundaries and mid-step progress points
        consult it."""
        self.fault_injector = injector

    def attach_degradation(self, manager) -> None:
        """Install a :class:`~repro.resilience.degrade.DegradationManager`:
        exhausted moves then quarantine their range (pinning its pages)
        and record a structured failure instead of propagating raw."""
        self.degradation = manager

    def attach_tracer(self, tracer) -> None:
        """Install a :class:`~repro.telemetry.Tracer`: Figure-8 steps and
        transactional-move outcomes become structured trace events.  The
        tracer observes only — it never charges a cycle anywhere."""
        self.tracer = tracer

    def attach_move_queue(self, queue) -> None:
        """Install a :class:`~repro.resilience.movequeue.MoveQueue`:
        policy moves become asynchronous — enqueued with their
        destination claimed, pre-copied in bounded chunks from
        :meth:`advance_clock` (and the scheduler's quantum boundaries),
        and flipped in one short batched world stop."""
        self.move_queue = queue

    def attach_agents(self, mediator) -> None:
        """Install an :class:`~repro.agents.AgentMediator`: registered
        translation clients (see :mod:`repro.agents`) stream leased
        memory guard-free from :meth:`advance_clock`, and every move
        request gains the ``quiesce-agents`` protocol step plus
        lease-aware admission control."""
        self.agents = mediator

    def advance_clock(self, cycles: int) -> None:
        self.clock_cycles += cycles
        if self.policy is not None:
            self.policy.on_clock(self)
        if self.move_queue is not None:
            self.move_queue.step()
        if self.agents is not None:
            self.agents.step()
