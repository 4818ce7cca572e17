"""The MMU: TLB hierarchy + pagewalker over the radix page table.

This is the hardware half of the traditional model (Figure 1a) that CARAT
proposes to remove.  ``translate`` implements the access path: L1 DTLB →
STLB → pagewalk, charging the cost model at each level, raising
:class:`PageFault` for unmapped or permission-violating accesses so the
kernel can demand-page, copy-on-write, or kill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError
from repro.kernel.pagetable import PAGE_SHIFT, PAGE_SIZE, PTE, PTE_DIRTY, PageTable
from repro.kernel.tlb import TLB, intel_l1_dtlb, intel_stlb
from repro.machine.costs import DEFAULT_COSTS, CostModel


class PageFault(ReproError):
    """Raised on a translation failure; the kernel's fault handler decides
    whether it is a demand-page opportunity or a real segfault."""

    def __init__(self, vaddr: int, access: str, present: bool) -> None:
        kind = "protection" if present else "not-present"
        super().__init__(f"page fault ({kind}): {access} at {vaddr:#x}")
        self.vaddr = vaddr
        self.access = access
        self.present = present

    @property
    def vpn(self) -> int:
        return self.vaddr >> PAGE_SHIFT


@dataclass
class MMUStats:
    accesses: int = 0
    dtlb_misses: int = 0
    stlb_misses: int = 0
    pagewalks: int = 0
    walk_cycles: int = 0
    translation_cycles: int = 0
    faults: int = 0

    def dtlb_mpki(self, instructions: int) -> float:
        """DTLB misses per 1000 instructions — Figure 2's metric."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.dtlb_misses / instructions

    def walks_per_1k(self, instructions: int) -> float:
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.pagewalks / instructions

    def mean_walk_cycles(self) -> float:
        return self.walk_cycles / self.pagewalks if self.pagewalks else 0.0


class MMU:
    def __init__(
        self,
        page_table: PageTable,
        dtlb: Optional[TLB] = None,
        stlb: Optional[TLB] = None,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        self.page_table = page_table
        self.dtlb = dtlb if dtlb is not None else intel_l1_dtlb()
        self.stlb = stlb if stlb is not None else intel_stlb()
        self.costs = costs
        self.stats = MMUStats()

    def translate(self, vaddr: int, access: str = "read") -> Tuple[int, int]:
        """Virtual address -> (physical address, cycles charged).

        Raises :class:`PageFault` when unmapped or the access kind is not
        permitted by the PTE.
        """
        self.stats.accesses += 1
        vpn = vaddr >> PAGE_SHIFT
        offset = vaddr & (PAGE_SIZE - 1)
        cycles = self.costs.tlb_hit

        # codegen._paging inlines this hit's accounting for a hit on the
        # set's most recent entry: a change to the counters here changes
        # it too.
        pte = self.dtlb.lookup(vpn)
        if pte is None:
            self.stats.dtlb_misses += 1
            pte = self.stlb.lookup(vpn)
            if pte is not None:
                cycles += self.costs.stlb_hit
                self.dtlb.insert(vpn, pte)
            else:
                self.stats.stlb_misses += 1
                pte, cycles_walk = self._pagewalk(vpn)
                cycles += cycles_walk
                if pte is None:
                    self.stats.faults += 1
                    self.stats.translation_cycles += cycles
                    raise PageFault(vaddr, access, present=False)
                self.stlb.insert(vpn, pte)
                self.dtlb.insert(vpn, pte)

        if not pte.allows(access):
            self.stats.faults += 1
            self.stats.translation_cycles += cycles
            raise PageFault(vaddr, access, present=True)
        if access == "write":
            pte.flags |= PTE_DIRTY
        self.stats.translation_cycles += cycles
        return (pte.pfn << PAGE_SHIFT) | offset, cycles

    def _pagewalk(self, vpn: int) -> Tuple[Optional[PTE], int]:
        self.stats.pagewalks += 1
        pte, levels = self.page_table.walk(vpn)
        # The paper measures ~47 cycles per walk on average (up to 108);
        # charge proportionally to the levels actually touched.
        cycles = self.costs.pagewalk * levels // 4
        self.stats.walk_cycles += cycles
        return pte, cycles

    # -- invalidation (the shootdown analog) -----------------------------------------

    def invalidate_page(self, vpn: int) -> None:
        self.dtlb.invalidate(vpn)
        self.stlb.invalidate(vpn)

    def invalidate_range(self, vpn_lo: int, vpn_hi: int) -> int:
        return self.dtlb.invalidate_range(vpn_lo, vpn_hi) + self.stlb.invalidate_range(
            vpn_lo, vpn_hi
        )
