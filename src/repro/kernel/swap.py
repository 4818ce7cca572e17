"""Swapping and demand paging for CARAT via non-canonical addresses.

Section 2.2: "To make a page unavailable, we patch its affected pointers
to a physical address that will cause a fault.  In x64 systems, one
option is to use a non-canonical address.  Since the range of
non-canonical addresses is vast, the specific non-canonical address can
be used to encode different conditions."

We encode a swapped-out byte at original physical address ``p`` as
``NONCANONICAL_BASE | p``: any guard that sees such an address faults
(it is inside no region), the fault handler recognizes the encoding,
swaps the page set back in (possibly at a *different* physical address),
patches every escape and register again, and resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import KernelError, ProtectionFault
from repro.kernel.kernel import Kernel
from repro.kernel.pagetable import PAGE_SIZE
from repro.kernel.process import Process
from repro.runtime.patching import MovePlan, RegisterSnapshot
from repro.runtime.regions import Region

#: Bit 62 set marks the swapped-out condition (bit 63 would make Python
#: sign-handling noisier; any non-canonical pattern works — the encoding
#: just has to be outside every possible region).
NONCANONICAL_BASE = 1 << 62


def is_noncanonical(address: int) -> bool:
    return bool(address & NONCANONICAL_BASE)


def decode(address: int) -> int:
    """The original physical address a swapped pointer encodes."""
    return address & ~NONCANONICAL_BASE


@dataclass
class SwapRecord:
    original_lo: int
    original_hi: int
    data: bytes
    perms: int
    allocations: List[int]  # original allocation base addresses


class SwapManager:
    """Swap device + the CARAT-side swap-out/in protocol."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        #: "disk": swapped-out page sets keyed by original low address.
        self._store: Dict[int, SwapRecord] = {}
        self.swap_outs = 0
        self.swap_ins = 0

    # ------------------------------------------------------------------
    # Swap out
    # ------------------------------------------------------------------

    def swap_out(
        self,
        process: Process,
        page_address: int,
        page_count: int = 1,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
    ) -> SwapRecord:
        """Evict the page set containing ``page_address``: patch every
        escape/register into it to the non-canonical encoding, save the
        bytes, withdraw the region, free the frames."""
        runtime = process.runtime
        regions = process.regions
        if runtime is None or regions is None:
            raise KernelError("swap_out requires a CARAT process")
        lo = page_address & ~(PAGE_SIZE - 1)
        plan = runtime.patcher.plan_move(lo, lo + page_count * PAGE_SIZE)
        if plan.lo in self._store:
            raise KernelError(f"range at {plan.lo:#x} is already swapped out")
        runtime.world_stop()
        runtime.flush_escapes()

        delta = NONCANONICAL_BASE  # new = old | BASE == old + BASE (bit clear)
        self._patch_range(process, plan, delta, register_snapshots)

        source_region = regions.find(plan.lo)
        perms = source_region.perms if source_region is not None else 0
        data = self.kernel.memory.read_bytes(plan.lo, plan.length)
        record = SwapRecord(
            original_lo=plan.lo,
            original_hi=plan.hi,
            data=data,
            perms=perms,
            allocations=[a.address for a in plan.allocations],
        )
        # Rebase tracking structures into non-canonical space so the
        # allocation table still knows these blocks exist.
        for allocation in plan.allocations:
            old = allocation.address
            runtime.table.rebase(allocation, old + delta)
            runtime.escapes.rekey(old, allocation.address)
        runtime.escapes.rewrite_range(plan.lo, plan.hi, delta)

        regions.remove_range(plan.lo, plan.hi)
        regions.coalesce()
        if process.heap is not None:
            # Heap metadata follows the pointers into encoded space; the
            # allocator never hands out non-canonical free blocks.
            process.heap.rebase_range(plan.lo, plan.hi, delta)
        self.kernel.frames.free_address(plan.lo, plan.length // PAGE_SIZE)
        self._store[plan.lo] = record
        self.swap_outs += 1
        self.kernel.notifier.page_swap(
            process.pid, plan.lo >> 12, self.kernel.clock_cycles
        )
        runtime.resume()
        return record

    # ------------------------------------------------------------------
    # Swap in
    # ------------------------------------------------------------------

    def handle_fault(
        self,
        process: Process,
        fault: ProtectionFault,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
    ) -> int:
        """Service a guard fault: if the address encodes a swapped page,
        bring it back and return the new physical address of the faulting
        byte.  Re-raises for genuine protection violations."""
        if not is_noncanonical(fault.address):
            raise fault
        original = decode(fault.address)
        record = self._find_record(original)
        if record is None:
            raise fault
        new_base = self.swap_in(process, record, register_snapshots)
        return new_base + (original - record.original_lo)

    def _find_record(self, original_address: int) -> Optional[SwapRecord]:
        for record in self._store.values():
            if record.original_lo <= original_address < record.original_hi:
                return record
        return None

    def swap_in(
        self,
        process: Process,
        record: SwapRecord,
        register_snapshots: Optional[List[RegisterSnapshot]] = None,
    ) -> int:
        """Restore a swapped range (possibly at a new physical address);
        returns the new base address."""
        runtime = process.runtime
        regions = process.regions
        if runtime is None or regions is None:
            raise KernelError("swap_in requires a CARAT process")
        length = record.original_hi - record.original_lo
        destination = self.kernel.frames.alloc_address(length // PAGE_SIZE)
        runtime.world_stop()
        self.kernel.memory.write_bytes(destination, record.data)

        # Current (encoded) location of the range in pointer space:
        encoded_lo = record.original_lo + NONCANONICAL_BASE
        encoded_hi = record.original_hi + NONCANONICAL_BASE
        delta = destination - encoded_lo

        fake_plan = MovePlan(
            requested_lo=encoded_lo,
            requested_hi=encoded_hi,
            lo=encoded_lo,
            hi=encoded_hi,
            allocations=[
                a
                for base in record.allocations
                for a in [runtime.table.at(base + NONCANONICAL_BASE)]
                if a is not None
            ],
            expand_lookups=0,
        )
        # Escape cells that lived inside the swapped range are resident
        # again (at the destination); move their recorded locations FIRST
        # so the patch pass below can reach the encoded pointers the disk
        # image preserved inside them.
        runtime.escapes.rewrite_range(encoded_lo, encoded_hi, delta)
        self._patch_range(process, fake_plan, delta, register_snapshots)
        for allocation in fake_plan.allocations:
            old = allocation.address
            runtime.table.rebase(allocation, old + delta)
            runtime.escapes.rekey(old, allocation.address)

        regions.add(Region(destination, length, record.perms))
        regions.coalesce()
        if process.heap is not None:
            process.heap.rebase_range(encoded_lo, encoded_hi, delta)
        del self._store[record.original_lo]
        self.swap_ins += 1
        runtime.resume()
        return destination

    # ------------------------------------------------------------------

    def _patch_range(
        self,
        process: Process,
        plan: MovePlan,
        delta: int,
        register_snapshots: Optional[List[RegisterSnapshot]],
    ) -> int:
        """Rewrite every escape (in resident memory) and register pointing
        into [plan.lo, plan.hi) by ``delta``."""
        runtime = process.runtime
        assert runtime is not None
        patched = 0
        for allocation in plan.allocations:
            for location in runtime.escapes.escapes_of(allocation):
                if is_noncanonical(location):
                    continue  # the cell itself is swapped out; its bytes
                    # are on disk and will be patched when restored
                current = self.kernel.memory.read_u64(location)
                if plan.lo <= current < plan.hi:
                    self.kernel.memory.write_u64(location, current + delta)
                    patched += 1
        for snapshot in register_snapshots or []:
            patched += snapshot.patch(plan.lo, plan.hi, delta)
        return patched
