"""Regions and guard mechanisms (Sections 2.3, 3, 4.2 "Protection").

The kernel partitions the physical address space into *regions* —
contiguous runs of addresses with access permissions — and writes the
current set into a landing zone in the runtime.  A guard checks a
prospective access against this set.

Three guard mechanisms are modelled, matching Figures 3 and 4:

* **MPX**: a single-cycle bounds-register check; exact for one region,
  falling back to a search for more.
* **binary search** over the address-ordered region array.
* **if-tree**: the statically laid out search whose branches become
  predictable under strided access patterns.

Every check returns both the verdict and its cycle cost under the machine
cost model, so the interpreter can charge guards correctly and Figure 4
can measure mechanisms in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.machine.costs import DEFAULT_COSTS, CostModel

PERM_READ = 0x1
PERM_WRITE = 0x2
PERM_EXEC = 0x4
PERM_RW = PERM_READ | PERM_WRITE
PERM_RWX = PERM_RW | PERM_EXEC

_ACCESS_TO_PERM = {"read": PERM_READ, "write": PERM_WRITE, "exec": PERM_EXEC}


@dataclass(frozen=True)
class Region:
    """A contiguous run of physical addresses with permissions."""

    base: int
    length: int
    perms: int = PERM_RW

    @property
    def end(self) -> int:
        return self.base + self.length

    def covers(self, address: int, size: int) -> bool:
        return self.base <= address and address + size <= self.end

    def allows(self, access: str) -> bool:
        return bool(self.perms & _ACCESS_TO_PERM[access])

    def __repr__(self) -> str:
        perms = "".join(
            ch if self.perms & bit else "-"
            for ch, bit in (("r", PERM_READ), ("w", PERM_WRITE), ("x", PERM_EXEC))
        )
        return f"<Region [{self.base:#x}, {self.end:#x}) {perms}>"


class RegionSet:
    """The address-ordered region array the kernel shares with the runtime.

    A version counter ticks on every change; the interpreter uses it to
    notice region updates between guard evaluations.  The same counter is
    the *generation* that epoch-invalidated guard caches key on: any
    cached ``Region`` is valid only while the generation it was filled
    under is still current, so a mutation (or a page move, which bumps
    the generation through :meth:`bump_generation` even before the
    kernel reinstalls the region array) makes a stale hit impossible by
    construction.
    """

    def __init__(self, regions: Optional[List[Region]] = None) -> None:
        self._regions: List[Region] = []
        self.version = 0
        for region in regions or []:
            self.add(region)

    @property
    def generation(self) -> int:
        """Alias of :attr:`version` under its cache-invalidation role."""
        return self.version

    def bump_generation(self) -> None:
        """Force-invalidate every cache keyed on this set's generation.

        Called by agents that change what addresses *mean* without going
        through a region mutation — most importantly
        :meth:`~repro.runtime.patching.Patcher.execute_move`, which moves
        bytes before the kernel reinstalls the region array."""
        self.version += 1

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    # -- mutation (kernel-driven) ----------------------------------------------

    @staticmethod
    def _validate(regions: List[Region]) -> List[Region]:
        """Admission check shared by every bulk/incremental install:
        positive lengths and pairwise disjointness.  Returns the regions
        sorted by base; raises ``ValueError`` without side effects."""
        ordered = sorted(regions, key=lambda r: r.base)
        previous: Optional[Region] = None
        for region in ordered:
            if region.length <= 0:
                raise ValueError(f"region length must be positive: {region!r}")
            if previous is not None and region.base < previous.end:
                raise ValueError(f"{region!r} overlaps {previous!r}")
            previous = region
        return ordered

    def add(self, region: Region) -> None:
        self._regions = self._validate(self._regions + [region])
        self.version += 1

    def remove(self, base: int) -> Region:
        for i, region in enumerate(self._regions):
            if region.base == base:
                self.version += 1
                return self._regions.pop(i)
        raise KeyError(f"no region based at {base:#x}")

    def replace_all(self, regions: List[Region]) -> None:
        """Install a whole new region set atomically.  The replacement is
        validated exactly like :meth:`add` admissions; on failure the
        current set (and version) are left untouched."""
        self._regions = self._validate(list(regions))
        self.version += 1

    def remove_range(self, lo: int, hi: int) -> int:
        """Withdraw [lo, hi) from the set, splitting any region that
        straddles a boundary.  Returns the number of regions affected."""
        if hi <= lo:
            return 0
        affected = 0
        updated: List[Region] = []
        for region in self._regions:
            if region.end <= lo or hi <= region.base:
                updated.append(region)
                continue
            affected += 1
            if region.base < lo:
                updated.append(Region(region.base, lo - region.base, region.perms))
            if hi < region.end:
                updated.append(Region(hi, region.end - hi, region.perms))
        if affected:
            self._regions = sorted(updated, key=lambda r: r.base)
            self.version += 1
        return affected

    def set_range_perms(self, lo: int, hi: int, perms: int) -> None:
        """Give [lo, hi) the permissions ``perms``, splitting and merging
        as needed.  The range must currently be covered by the set."""
        hole = self.first_hole(lo, hi)
        if hole is not None:
            raise ValueError(
                f"range [{lo:#x}, {hi:#x}) is not fully covered "
                f"(hole at {hole:#x})"
            )
        self.remove_range(lo, hi)
        self.add(Region(lo, hi - lo, perms))
        self.coalesce()

    def coalesce(self) -> int:
        """Merge adjacent regions with identical permissions — the
        "run-time adaptation (to minimize the number of regions)" the
        paper calls essential for performance.  Returns merges done."""
        if not self._regions:
            return 0
        merged: List[Region] = [self._regions[0]]
        merges = 0
        for region in self._regions[1:]:
            last = merged[-1]
            if last.end == region.base and last.perms == region.perms:
                merged[-1] = Region(last.base, last.length + region.length, last.perms)
                merges += 1
            else:
                merged.append(region)
        if merges:
            self._regions = merged
            self.version += 1
        return merges

    # -- lookup (runtime-driven) -------------------------------------------------

    def first_hole(self, lo: int, hi: int) -> Optional[int]:
        """The lowest address of ``[lo, hi)`` no region covers, or
        ``None`` when the regions cover the whole range."""
        covered = lo
        for region in self._regions:
            if region.end <= lo or hi <= region.base:
                continue
            if region.base > covered:
                return covered
            covered = max(covered, region.end)
        return covered if covered < hi else None

    def find(self, address: int) -> Optional[Region]:
        """Binary search for the region containing ``address``."""
        lo, hi = 0, len(self._regions) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            region = self._regions[mid]
            if address < region.base:
                hi = mid - 1
            elif address >= region.end:
                lo = mid + 1
            else:
                return region
        return None

    def check(self, address: int, size: int, access: str) -> bool:
        """Would [address, address+size) be permitted for ``access``?

        The whole range must sit inside one region (regions are the unit
        of permission; allocations never straddle them by construction).
        """
        if size <= 0:
            return True
        # One probe: ``find`` already established base <= address < end,
        # so only the range's upper bound and the permission bit remain.
        region = self.find(address)
        return (
            region is not None
            and address + size <= region.end
            and region.allows(access)
        )


@dataclass
class GuardOutcome:
    """One guard evaluation: the verdict and the cycles it cost."""

    allowed: bool
    cycles: int
    region: Optional[Region] = None


class GuardMechanism:
    """Strategy interface: evaluate one guard, reporting its cycle cost."""

    name = "abstract"

    def __init__(self, costs: CostModel = DEFAULT_COSTS) -> None:
        self.costs = costs

    def check(
        self, regions: RegionSet, address: int, size: int, access: str
    ) -> GuardOutcome:
        raise NotImplementedError

    def check_known(
        self,
        regions: RegionSet,
        region: Region,
        address: int,
        size: int,
        access: str,
    ) -> GuardOutcome:
        """Evaluate a guard whose containing region is already known.

        Precondition: ``region`` is the member of ``regions`` with
        ``region.base <= address < region.end`` under the *current*
        generation (what :meth:`RegionSet.find` would return).  Must be
        indistinguishable from :meth:`check` — same verdict, same cycle
        charge, same predictor-state transitions — it merely skips the
        redundant search.  The default conservatively re-runs ``check``.
        """
        return self.check(regions, address, size, access)

    def steady_cycles(self, regions: RegionSet) -> Optional[int]:
        """Cycle charge of a *steady-state hit* under the current region
        geometry, or ``None`` if this mechanism has no constant hit cost.

        Both compiled tiers bake this number into a specialized guard
        check (BranchFreeTranslator-style): the value is only valid while
        ``regions.version`` is unchanged *and* any mechanism predictor
        state matches what the specialization captured — the caller's
        fast-path condition must enforce both, and re-derive the number
        after every generation bump.  Must equal what :meth:`check_known`
        would charge on the corresponding hit.
        """
        return None

    def miss_cycles(self, regions: RegionSet) -> Optional[int]:
        """Cycle charge of an allowed access to a known region when the
        mechanism's predictor state does not match it (MPX: the bounds
        register holds another region; if-tree: the last leaf taken was
        another one).  A specialized check charges this or
        :meth:`steady_cycles` by that state; the default has no state."""
        return self.steady_cycles(regions)


class BinarySearchGuard(GuardMechanism):
    """Probe the ordered region array by binary search; cost is one probe
    per halving (Figure 4's "Binary Search" series)."""

    name = "binary_search"

    def check(
        self, regions: RegionSet, address: int, size: int, access: str
    ) -> GuardOutcome:
        n = len(regions)
        if n == 0:
            return GuardOutcome(False, self.costs.range_guard_single)
        if n == 1:
            region = regions.regions[0]
            allowed = region.covers(address, size) and region.allows(access)
            return GuardOutcome(allowed, self.costs.range_guard_single, region)
        cycles = self.costs.binary_search_probe * max(
            1, math.ceil(math.log2(n + 1))
        )
        region = regions.find(address)
        allowed = (
            region is not None
            and region.covers(address, size)
            and region.allows(access)
        )
        return GuardOutcome(allowed, cycles, region)

    def check_known(
        self,
        regions: RegionSet,
        region: Region,
        address: int,
        size: int,
        access: str,
    ) -> GuardOutcome:
        n = len(regions)
        allowed = address + size <= region.end and region.allows(access)
        if n == 1:
            return GuardOutcome(allowed, self.costs.range_guard_single, region)
        cycles = self.costs.binary_search_probe * max(
            1, math.ceil(math.log2(n + 1))
        )
        return GuardOutcome(allowed, cycles, region)

    def steady_cycles(self, regions: RegionSet) -> Optional[int]:
        n = len(regions)
        if n == 0:
            return None
        if n == 1:
            return self.costs.range_guard_single
        return self.costs.binary_search_probe * max(
            1, math.ceil(math.log2(n + 1))
        )


class IfTreeGuard(GuardMechanism):
    """The statically laid out comparison tree.  Its branches follow the
    access pattern: a strided sweep keeps taking the same path, so the
    predictor learns it (Figure 4b); random probes pay mispredictions.

    ``stride_hint`` tells the cost model which regime the caller is in;
    the interpreter passes its measured access locality.
    """

    name = "if_tree"

    def __init__(
        self, costs: CostModel = DEFAULT_COSTS, stride_hint: bool = False
    ) -> None:
        super().__init__(costs)
        self.stride_hint = stride_hint
        self._last_leaf: Optional[int] = None

    def check(
        self, regions: RegionSet, address: int, size: int, access: str
    ) -> GuardOutcome:
        n = len(regions)
        region = regions.find(address)
        leaf = region.base if region is not None else -1
        predictable = self.stride_hint or leaf == self._last_leaf
        self._last_leaf = leaf
        cycles = self.costs.guard_cost("if_tree", n, strided=predictable)
        allowed = (
            region is not None
            and region.covers(address, size)
            and region.allows(access)
        )
        return GuardOutcome(allowed, cycles, region)

    def check_known(
        self,
        regions: RegionSet,
        region: Region,
        address: int,
        size: int,
        access: str,
    ) -> GuardOutcome:
        leaf = region.base
        predictable = self.stride_hint or leaf == self._last_leaf
        self._last_leaf = leaf
        cycles = self.costs.guard_cost(
            "if_tree", len(regions), strided=predictable
        )
        allowed = address + size <= region.end and region.allows(access)
        return GuardOutcome(allowed, cycles, region)

    def steady_cycles(self, regions: RegionSet) -> Optional[int]:
        # The predictable path's cost; a specialized check charges it
        # only with ``stride_hint`` or a repeated leaf, else
        # :meth:`miss_cycles`.
        return self.costs.guard_cost("if_tree", len(regions), strided=True)

    def miss_cycles(self, regions: RegionSet) -> Optional[int]:
        return self.costs.guard_cost("if_tree", len(regions), strided=False)


class MPXGuard(GuardMechanism):
    """Bounds-register check: single cycle against the hottest region, a
    software fallback for the rest (Figure 3's "MPX Guard" bars)."""

    name = "mpx"

    def __init__(self, costs: CostModel = DEFAULT_COSTS) -> None:
        super().__init__(costs)
        self._bound: Optional[Region] = None
        self._bound_version = -1

    def check(
        self, regions: RegionSet, address: int, size: int, access: str
    ) -> GuardOutcome:
        if self._bound_version != regions.version:
            self._bound = None
            self._bound_version = regions.version
        if (
            self._bound is not None
            and self._bound.covers(address, size)
            and self._bound.allows(access)
        ):
            return GuardOutcome(True, self.costs.mpx_guard, self._bound)
        # Bounds-register miss: fall back to binary search and reload the
        # register with the region that served the access.
        cycles = self.miss_cycles(regions)
        region = regions.find(address)
        allowed = (
            region is not None
            and region.covers(address, size)
            and region.allows(access)
        )
        if allowed:
            self._bound = region
        return GuardOutcome(allowed, cycles, region)

    def check_known(
        self,
        regions: RegionSet,
        region: Region,
        address: int,
        size: int,
        access: str,
    ) -> GuardOutcome:
        if self._bound_version != regions.version:
            self._bound = None
            self._bound_version = regions.version
        bound = self._bound
        if (
            bound is not None
            and bound.covers(address, size)
            and bound.allows(access)
        ):
            # Regions are disjoint and both contain ``address``, so the
            # loaded bounds register necessarily holds ``region`` itself.
            return GuardOutcome(True, self.costs.mpx_guard, bound)
        cycles = self.miss_cycles(regions)
        allowed = address + size <= region.end and region.allows(access)
        if allowed:
            self._bound = region
        return GuardOutcome(allowed, cycles, region)

    def steady_cycles(self, regions: RegionSet) -> Optional[int]:
        # The hit cost while the bounds register holds the region the
        # specialization captured.  When it holds another one (an
        # interleaved guard reloaded it), the allowed access pays
        # :meth:`miss_cycles` instead and loads the register — the
        # specialized check charges either without calling the runtime.
        return self.costs.mpx_guard

    def miss_cycles(self, regions: RegionSet) -> int:
        """The software search plus the register load: what
        :meth:`check` and :meth:`check_known` charge on a register miss,
        constant per region geometry."""
        return self.costs.guard_cost("mpx", len(regions))


def make_guard(name: str, costs: CostModel = DEFAULT_COSTS) -> GuardMechanism:
    if name == "mpx":
        return MPXGuard(costs)
    if name == "binary_search":
        return BinarySearchGuard(costs)
    if name == "if_tree":
        return IfTreeGuard(costs)
    raise ValueError(f"unknown guard mechanism {name!r}")
