"""The cross-layer invariant checker (rules + driver).

CARAT replaces the hardware's translation guarantee with a software one:
the region set, Allocation Table, escape map, page tables, TLBs, frame
allocator, and heap must stay *mutually consistent* through every
move/protect/swap cycle, or guards start giving wrong answers with no
fault.  Each rule here checks one slice of that consistency over a whole
:class:`~repro.kernel.kernel.Kernel` (all processes, both execution
models) and files structured :class:`~repro.sanitizer.violations.Violation`
findings.

The checker only reads.  It walks private structures where no public
snapshot exists, but never calls an accessor that mutates statistics
(memory reads go straight to the backing bytearray so bandwidth counters
stay unperturbed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kernel.pagetable import PAGE_SIZE
from repro.kernel.swap import is_noncanonical
from repro.runtime.regions import Region
from repro.sanitizer.shadow import ShadowedEscapeMap
from repro.sanitizer.violations import (
    SEVERITY_WARNING,
    SanitizerReport,
)

__all__ = [
    "CheckContext",
    "InvariantChecker",
    "region_geometry_problems",
]


@dataclass
class CheckContext:
    """Everything a rule may look at for one checkpoint."""

    kernel: object
    #: Thread register snapshots, when the caller has them (a world stop
    #: or a meta-test).  Register coverage is only checkable then — the
    #: kernel-side hooks never see live registers.
    register_snapshots: List[object] = field(default_factory=list)


Rule = Callable[[CheckContext, SanitizerReport], None]


def _read_u64(memory, address: int) -> int:
    # Bypasses the accounting accessors: checking must not perturb the
    # bandwidth counters the benchmarks report.
    return int.from_bytes(memory._data[address : address + 8], "little")


# ----------------------------------------------------------------------
# Region set
# ----------------------------------------------------------------------


def region_geometry_problems(
    regions: Iterable[Region],
) -> List[Tuple[str, int]]:
    """Geometry defects of a region sequence *as stored*: non-positive
    lengths, ordering breaks, overlaps.  Returns (message, subject
    address) pairs; empty means sorted/disjoint/positive.  Shared with
    the property-based tests."""
    problems: List[Tuple[str, int]] = []
    previous: Optional[Region] = None
    for region in regions:
        if region.length <= 0:
            problems.append((f"non-positive length: {region!r}", region.base))
        if previous is not None:
            if region.base < previous.base:
                problems.append(
                    (f"{region!r} stored out of order after {previous!r}",
                     region.base)
                )
            elif region.base < previous.end:
                problems.append(
                    (f"{region!r} overlaps {previous!r}", region.base)
                )
        previous = region
    return problems


def _rule_region_geometry(ctx: CheckContext, report: SanitizerReport) -> None:
    for process in ctx.kernel.processes.values():
        if process.regions is None:
            continue
        for message, subject in region_geometry_problems(process.regions):
            report.add(
                "region-geometry", message, pid=process.pid, subject=subject
            )


# ----------------------------------------------------------------------
# Allocation Table
# ----------------------------------------------------------------------


def _rule_allocation_table(ctx: CheckContext, report: SanitizerReport) -> None:
    for process in ctx.kernel.processes.values():
        runtime = process.runtime
        if runtime is None:
            continue
        try:
            runtime.table.check_invariants()
        except AssertionError as exc:
            report.add(
                "allocation-table",
                f"allocation table structure broken: {exc}",
                pid=process.pid,
            )


def _rule_allocation_coverage(
    ctx: CheckContext, report: SanitizerReport
) -> None:
    """Every live allocation must sit inside the process's permitted
    regions — otherwise its own program would fail a guard on memory it
    legitimately owns.  Swapped-out (non-canonical) allocations are
    deliberately outside every region."""
    for process in ctx.kernel.processes.values():
        runtime = process.runtime
        regions = process.regions
        if runtime is None or regions is None:
            continue
        for allocation in runtime.table:
            if is_noncanonical(allocation.address):
                continue
            cursor = allocation.address
            while cursor < allocation.end:
                region = regions.find(cursor)
                if region is None:
                    report.add(
                        "allocation-coverage",
                        f"{allocation!r} not covered by any region "
                        f"(hole at {cursor:#x})",
                        pid=process.pid,
                        subject=allocation.address,
                    )
                    break
                if region.perms == 0:
                    report.add(
                        "allocation-coverage",
                        f"{allocation!r} covered only by a no-permission "
                        f"region {region!r}",
                        severity=SEVERITY_WARNING,
                        pid=process.pid,
                        subject=allocation.address,
                    )
                cursor = region.end


# ----------------------------------------------------------------------
# Escape map
# ----------------------------------------------------------------------


def _rule_escape_map(ctx: CheckContext, report: SanitizerReport) -> None:
    """Escape-map keys must be Allocation Table bases, and every escape
    location must be a readable cell.  A resolved cell whose pointer now
    targets a *different* allocation is only a warning: stale entries are
    legal by design (the patcher re-validates before patching), but the
    same signature is what a missed rekey looks like."""
    for process in ctx.kernel.processes.values():
        runtime = process.runtime
        if runtime is None:
            continue
        escapes = runtime.escapes
        memory = ctx.kernel.memory
        resolved = dict(escapes.resolved_items())
        pending = set(escapes.pending_locations())
        for base, locations in sorted(resolved.items()):
            if runtime.table.at(base) is None:
                report.add(
                    "escape-map",
                    f"escape set keyed at {base:#x} has no allocation "
                    f"table entry",
                    pid=process.pid,
                    subject=base,
                )
                continue
            allocation = runtime.table.at(base)
            for location in sorted(locations):
                if is_noncanonical(location):
                    continue  # the cell itself is swapped out
                if location < 0 or location + 8 > memory.size:
                    report.add(
                        "escape-map",
                        f"escape location {location:#x} (for allocation "
                        f"{base:#x}) is outside physical memory",
                        pid=process.pid,
                        subject=location,
                    )
                    continue
                value = _read_u64(memory, location)
                target = runtime.table.find_containing(value)
                if target is None or target.address == base:
                    continue  # stale (overwritten cell) or correct
                if location in resolved.get(target.address, ()):
                    continue  # also recorded under the right key
                if location in pending:
                    continue  # re-resolution already queued
                report.add(
                    "escape-map",
                    f"cell {location:#x} is recorded as an escape of "
                    f"{base:#x} but points into {target!r}",
                    severity=SEVERITY_WARNING,
                    pid=process.pid,
                    subject=location,
                )
        for location in sorted(pending):
            if is_noncanonical(location):
                continue
            if location < 0 or location + 8 > memory.size:
                report.add(
                    "escape-map",
                    f"pending escape location {location:#x} is outside "
                    f"physical memory",
                    pid=process.pid,
                    subject=location,
                )


def _rule_escape_shadow(ctx: CheckContext, report: SanitizerReport) -> None:
    for process in ctx.kernel.processes.values():
        runtime = process.runtime
        if runtime is None or not isinstance(runtime.escapes, ShadowedEscapeMap):
            continue
        for message in runtime.escapes.divergences():
            report.add("escape-shadow", message, pid=process.pid)


# ----------------------------------------------------------------------
# Registers
# ----------------------------------------------------------------------


def _rule_register_coverage(
    ctx: CheckContext, report: SanitizerReport
) -> None:
    """Pointer-typed registers must land inside permitted regions after a
    move (null, one-past-end, and swap-encoded values are legitimate).
    Only runs when the caller supplied register snapshots."""
    if not ctx.register_snapshots:
        return
    region_sets = [
        process.regions
        for process in ctx.kernel.processes.values()
        if process.regions is not None
    ]
    if not region_sets:
        return

    def covered(value: int) -> bool:
        return any(
            regions.find(value) is not None or regions.find(value - 1) is not None
            for regions in region_sets
        )

    for snapshot in ctx.register_snapshots:
        for name in sorted(snapshot.pointer_slots):
            value = snapshot.slots.get(name)
            if not value or is_noncanonical(value):
                continue
            if not covered(value):
                report.add(
                    "register-coverage",
                    f"pointer register {name} = {value:#x} points outside "
                    f"every permitted region (missed register patch?)",
                    subject=value,
                )


# ----------------------------------------------------------------------
# Page table / TLB / frames
# ----------------------------------------------------------------------


def _rule_tlb(ctx: CheckContext, report: SanitizerReport) -> None:
    for process in ctx.kernel.processes.values():
        if process.mmu is None or process.page_table is None:
            continue
        for tlb in (process.mmu.dtlb, process.mmu.stlb):
            for vpn, cached in tlb.entries():
                current = process.page_table.lookup(vpn)
                if current is None:
                    report.add(
                        "tlb",
                        f"{tlb.name} caches vpn {vpn:#x} which is no "
                        f"longer mapped (missed shootdown)",
                        pid=process.pid,
                        subject=vpn,
                    )
                elif current.pfn != cached.pfn:
                    report.add(
                        "tlb",
                        f"{tlb.name} entry for vpn {vpn:#x} points at "
                        f"frame {cached.pfn} but the page table says "
                        f"{current.pfn} (stale translation)",
                        pid=process.pid,
                        subject=vpn,
                    )


def _rule_frame_ownership(ctx: CheckContext, report: SanitizerReport) -> None:
    """The frame allocator's idea of "allocated" must equal the union of
    what page tables map and what CARAT regions cover: an allocated frame
    nobody references is leaked; a free frame somebody references is a
    use-after-free waiting to happen.

    Cross-process rule: a frame may be claimed by at most one PID —
    *unless* it is registered with the kernel's CoW share manager, in
    which case exactly the registered member PIDs may map it."""
    kernel = ctx.kernel
    frames = kernel.frames
    total = frames.total_frames
    owners: Dict[int, Tuple[str, int]] = {}
    shares = getattr(kernel, "shares", None)
    shared_owners: Dict[int, set] = (
        shares.shared_frame_owners() if shares is not None else {}
    )
    queued_destinations: set = set()
    move_queue = getattr(kernel, "move_queue", None)
    if move_queue is not None:
        for dest_lo, dest_hi in move_queue.destination_ranges():
            queued_destinations.update(
                range(dest_lo // PAGE_SIZE, (dest_hi + PAGE_SIZE - 1) // PAGE_SIZE)
            )

    def claim(frame: int, owner: str, pid: int) -> None:
        if frame in owners:
            prior_owner, prior_pid = owners[frame]
            members = shared_owners.get(frame)
            if members is not None and pid in members and prior_pid in members:
                return  # registered CoW sharing: multi-ownership is legal
            report.add(
                "frame-ownership",
                f"frame {frame} claimed by both {prior_owner} and {owner}"
                + ("" if members is None else
                   f" but the share table registers only pids {sorted(members)}"),
                pid=pid,
                subject=frame,
            )
        else:
            owners[frame] = (owner, pid)

    for process in kernel.processes.values():
        if process.page_table is not None:
            for vpn, pte in process.page_table.entries():
                if not 0 <= pte.pfn < total:
                    report.add(
                        "frame-ownership",
                        f"vpn {vpn:#x} maps out-of-range frame {pte.pfn}",
                        pid=process.pid,
                        subject=vpn,
                    )
                    continue
                claim(pte.pfn, f"pid {process.pid} vpn {vpn:#x}", process.pid)
        if process.regions is not None:
            covered = set()
            for region in process.regions:
                if is_noncanonical(region.base):
                    continue
                if region.end > kernel.memory.size:
                    report.add(
                        "frame-ownership",
                        f"{region!r} extends past physical memory",
                        pid=process.pid,
                        subject=region.base,
                    )
                    continue
                first = region.base // PAGE_SIZE
                last = (region.end + PAGE_SIZE - 1) // PAGE_SIZE
                covered.update(range(first, last))
            # One process's regions may split mid-page (protection
            # changes), so frames are claimed once per process.
            for frame in sorted(covered):
                claim(frame, f"pid {process.pid} regions", process.pid)

    for frame in range(frames.reserved_low, total):
        owner = owners.get(frame)
        if frames.frame_is_free(frame):
            if owner is not None:
                report.add(
                    "frame-ownership",
                    f"frame {frame} is free but still referenced by "
                    f"{owner[0]}",
                    subject=frame,
                )
        elif owner is None:
            if frame in shared_owners:
                # Canonical hold: the share group keeps its frames
                # allocated even when every member has CoW-broken away,
                # so a late attacher still finds pristine pages.
                continue
            if frame in queued_destinations:
                # In-flight hold: the frame is a claimed destination of a
                # queued/incremental move — no region covers it until the
                # flip installs one, but it is owned, not leaked.
                continue
            report.add(
                "frame-ownership",
                f"allocated frame {frame} is referenced by no page table "
                f"or region (leaked)",
                subject=frame,
            )


def _rule_shared_cow(ctx: CheckContext, report: SanitizerReport) -> None:
    """The CoW share table must stay consistent with the machine:

    * every attached shared page's frame is actually allocated;
    * every member PID is a live process the kernel knows;
    * no member holds *write* permission on a page still attached to a
      share group — a writable shared page lets one tenant silently
      corrupt every other member (the exact bug CoW-breaking exists to
      prevent; the fault injector's ``corrupt_cow_share`` plants it).
    """
    kernel = ctx.kernel
    shares = getattr(kernel, "shares", None)
    if shares is None:
        return
    frames = kernel.frames
    for group in shares.groups.values():
        for pid, page_indices in group.members.items():
            process = kernel.processes.get(pid)
            if process is None:
                report.add(
                    "shared-cow",
                    f"share group {group.key[:12]} lists unknown pid {pid}",
                    pid=pid,
                    subject=group.base,
                )
                continue
            regions = process.regions
            for index in sorted(page_indices):
                address = group.base + index * PAGE_SIZE
                frame = address // PAGE_SIZE
                if frames.frame_is_free(frame):
                    report.add(
                        "shared-cow",
                        f"shared page {address:#x} (group {group.key[:12]}) "
                        f"is attached to pid {pid} but its frame is free",
                        pid=pid,
                        subject=address,
                    )
                if regions is None:
                    continue
                region = regions.find(address)
                if region is not None and region.allows("write"):
                    report.add(
                        "shared-cow",
                        f"pid {pid} holds write permission on CoW-shared "
                        f"page {address:#x} (group {group.key[:12]}) "
                        f"without detaching — other members see its "
                        f"stores",
                        pid=pid,
                        subject=address,
                    )


# ----------------------------------------------------------------------
# Heap
# ----------------------------------------------------------------------


def _rule_heap(ctx: CheckContext, report: SanitizerReport) -> None:
    for process in ctx.kernel.processes.values():
        heap = process.heap
        if heap is None:
            continue
        try:
            heap.check_invariants()
        except AssertionError as exc:
            report.add(
                "heap", f"heap allocator invariant broken: {exc}",
                pid=process.pid,
            )
        runtime = process.runtime
        if runtime is None:
            continue
        for address, size in heap.free_blocks():
            if is_noncanonical(address):
                continue
            for allocation in runtime.table.overlapping(address, address + size):
                if is_noncanonical(allocation.address):
                    continue
                report.add(
                    "heap",
                    f"free heap block [{address:#x}, {address + size:#x}) "
                    f"overlaps live {allocation!r} (double free or lost "
                    f"allocation record)",
                    pid=process.pid,
                    subject=address,
                )


# ----------------------------------------------------------------------
# Translation-client leases (DMA pinning)
# ----------------------------------------------------------------------


def _rule_dma_pin(ctx: CheckContext, report: SanitizerReport) -> None:
    """Guard-free agents make the lease table load-bearing:

    * every live lease must be backed — inside a kernel-permitted
      region of its process, over allocated frames (an agent streaming
      an unbacked range reads bytes nobody owns);
    * **no move may land inside a live lease**: a queued or in-flight
      destination overlapping a lease would copy bytes onto the exact
      range an agent is streaming without guards.  Source overlap is
      legal — the ``quiesce-agents`` protocol step drains it — but a
      destination overlap has no drain point, which is why admission
      refuses it and the ``move_into_lease`` fault (which forges a
      request past admission) must be caught here.
    """
    kernel = ctx.kernel
    agents = getattr(kernel, "agents", None)
    if agents is None:
        return
    frames = kernel.frames
    for lease in agents.live_leases():
        process = kernel.processes.get(lease.pid)
        if process is None or process.regions is None:
            report.add(
                "dma-pin",
                f"{lease.describe()} names pid {lease.pid}, which is not "
                f"a live CARAT process",
                pid=lease.pid,
                subject=lease.lo,
            )
            continue
        if not process.regions.check(lease.lo, lease.length, lease.access):
            report.add(
                "dma-pin",
                f"{lease.describe()} is no longer inside a "
                f"kernel-permitted region",
                pid=lease.pid,
                subject=lease.lo,
            )
        for frame in range(lease.lo // PAGE_SIZE,
                           (lease.hi - 1) // PAGE_SIZE + 1):
            if frames.frame_is_free(frame):
                report.add(
                    "dma-pin",
                    f"{lease.describe()} covers free frame {frame} — the "
                    f"agent is streaming unowned memory",
                    pid=lease.pid,
                    subject=frame * PAGE_SIZE,
                )
                break
    move_queue = getattr(kernel, "move_queue", None)
    if move_queue is not None:
        for dest_lo, dest_hi in move_queue.destination_ranges():
            for lease in agents.leases_overlapping(dest_lo, dest_hi):
                report.add(
                    "dma-pin",
                    f"queued move destination [{dest_lo:#x}, {dest_hi:#x}) "
                    f"overlaps {lease.describe()} — the flip would land "
                    f"bytes under an active guard-free stream",
                    pid=lease.pid,
                    subject=dest_lo,
                )


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------


#: (name, rule) in evaluation order — structural rules first so their
#: findings contextualize the cross-layer ones.
DEFAULT_RULES: List[Tuple[str, Rule]] = [
    ("region-geometry", _rule_region_geometry),
    ("allocation-table", _rule_allocation_table),
    ("allocation-coverage", _rule_allocation_coverage),
    ("escape-map", _rule_escape_map),
    ("escape-shadow", _rule_escape_shadow),
    ("register-coverage", _rule_register_coverage),
    ("tlb", _rule_tlb),
    ("frame-ownership", _rule_frame_ownership),
    ("shared-cow", _rule_shared_cow),
    ("heap", _rule_heap),
    ("dma-pin", _rule_dma_pin),
]


class InvariantChecker:
    """Composable rule set evaluated against a kernel's full state."""

    def __init__(
        self,
        skip: Sequence[str] = (),
        extra_rules: Optional[Sequence[Tuple[str, Rule]]] = None,
    ) -> None:
        self.rules: List[Tuple[str, Rule]] = [
            (name, rule) for name, rule in DEFAULT_RULES if name not in skip
        ]
        if extra_rules:
            self.rules.extend(extra_rules)

    def rule_names(self) -> List[str]:
        return [name for name, _ in self.rules]

    def check_kernel(
        self,
        kernel,
        register_snapshots: Optional[List[object]] = None,
        label: str = "check",
    ) -> SanitizerReport:
        """Run every rule once; returns this checkpoint's report."""
        ctx = CheckContext(kernel, list(register_snapshots or []))
        report = SanitizerReport(label=label)
        for _, rule in self.rules:
            rule(ctx, report)
            report.checks_run += 1
        return report
