"""The cycle cost model.

All experiments report cycles from this model, calibrated to the figures
the paper reports for its testbeds (Section 3): a pagewalk averages ~47
cycles, an MPX bounds check is single-cycle, a compare-and-branch range
guard costs a handful of cycles plus register pressure, and a binary
search over N regions costs O(log N) probes of ~up to tens of cycles
(Figure 4 measures 10-1000 cycles over 1..10000 regions).

Keeping every constant in one dataclass makes the ablation benches able to
re-run experiments under different hardware assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math


@dataclass
class CostModel:
    """Every tunable cycle cost in one place; see module docstring."""

    # -- core execution -------------------------------------------------------
    #: Base cost of one IR instruction (ALU op, branch, etc).
    instruction: int = 1
    #: Extra cost of a memory access that hits the L1 cache.
    memory_access: int = 3
    #: Extra cost of a call/return pair (stack adjustment, branch).
    call: int = 2

    # -- traditional model (paging) --------------------------------------------
    #: L1 DTLB hit: free (folded into the memory pipeline).
    tlb_hit: int = 0
    #: L1 DTLB miss that hits the STLB.
    stlb_hit: int = 7
    #: Full pagewalk, the paper's measured average (47 cycles, up to 108).
    pagewalk: int = 47

    # -- CARAT guards (Figures 3 and 4) ------------------------------------------
    #: MPX-style bounds check: "a single cycle without register pressure".
    mpx_guard: int = 1
    #: Software compare-and-branch guard against one region: two compares,
    #: a branch, plus register pressure / spill pressure.
    range_guard_single: int = 4
    #: Cost of one probe (compare + branch) during a binary search.
    binary_search_probe: int = 6
    #: Cost of one if-tree level (predictable branch, prefetched compare).
    if_tree_level: int = 2
    #: Extra cost per if-tree level when the access pattern defeats the
    #: branch predictor (random accesses, Figure 4a vs 4b).
    if_tree_mispredict: int = 12

    # -- runtime tracking (Figure 7) --------------------------------------------
    #: Allocation Table insert/remove (the paper's red/black tree update).
    alloc_table_update: int = 40
    #: Recording one escape in the batched buffer.
    escape_record: int = 6

    # -- page movement (Table 3) ---------------------------------------------------
    #: Allocation Table lookup during page expansion.
    expand_lookup: int = 60
    #: Patching one escape (read, rebase, write).
    patch_escape: int = 12
    #: Patching one register (snapshot slot rewrite).
    patch_register: int = 9
    #: Copying one byte of page data (amortized, streaming copy).
    move_per_byte: float = 0.08
    #: Fixed cost of allocating the destination page(s).
    move_alloc_fixed: int = 800
    #: Signal delivery + world-stop barrier per thread.
    world_stop_per_thread: int = 500

    # -- tiered memory (policy engine) ------------------------------------------
    #: Extra cycles when a data access is served by the *fast* (near) tier
    #: of a tiered physical memory.  0: the fast tier is ordinary DRAM.
    fast_tier_access: int = 0
    #: Extra cycles when a data access is served by the *slow* (far /
    #: capacity) tier — CXL-class far memory at several times DRAM latency.
    slow_tier_access: int = 30

    def guard_cost(self, mechanism: str, num_regions: int, strided: bool = False) -> int:
        """Cycles for one guard evaluation.

        ``mechanism`` is 'mpx', 'binary_search', or 'if_tree'.  ``strided``
        marks predictable access patterns, which an if-tree exploits
        (Figure 4b) and a binary search cannot.
        """
        if num_regions <= 0:
            num_regions = 1
        depth = max(1, math.ceil(math.log2(num_regions + 1)))
        if mechanism == "mpx":
            if num_regions == 1:
                return self.mpx_guard
            # MPX covers one bounds register; extra regions fall back to
            # a software search after the first check misses.
            return self.mpx_guard + self.binary_search_probe * depth
        if mechanism == "binary_search":
            if num_regions == 1:
                return self.range_guard_single
            return self.binary_search_probe * depth
        if mechanism == "if_tree":
            per_level = self.if_tree_level
            if not strided:
                per_level += self.if_tree_mispredict
            return max(self.range_guard_single, per_level * depth)
        raise ValueError(f"unknown guard mechanism: {mechanism!r}")

    def tier_access_extra(self, tier: str) -> int:
        """Extra cycles for a data access served by ``tier`` ('fast' or
        'slow') of a tiered physical memory."""
        if tier == "fast":
            return self.fast_tier_access
        if tier == "slow":
            return self.slow_tier_access
        raise ValueError(f"unknown memory tier: {tier!r}")


#: The default model used by every experiment unless overridden.
DEFAULT_COSTS = CostModel()
