"""Set-associative TLB with LRU replacement.

Sized like the hardware the paper measures: a 64-entry 4-way L1 DTLB and
a 1536-entry 12-way STLB ("64 DTLB entries in modern Intel processors...
1536 [STLB entries] on today's generation", Section 3).  Figure 2 is the
DTLB miss counter of this model divided by instructions retired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kernel.pagetable import PTE


@dataclass
class TLBStats:
    lookups: int = 0
    hits: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TLB:
    """One translation cache level.

    Each set is an ordered list (most recent last); lookup cost is uniform
    — associativity is modelled for capacity/conflict behaviour, not
    latency.
    """

    def __init__(self, entries: int = 64, ways: int = 4, name: str = "dtlb") -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.name = name
        self.num_sets = entries // ways
        self.ways = ways
        self.capacity = entries
        #: Set index -> (vpn, pte) entries, most recent last: a hit on the last
        #: entry leaves LRU order unchanged.  Only ever mutated in place.
        self.sets: List[List[Tuple[int, PTE]]] = [[] for _ in range(self.num_sets)]
        self.stats = TLBStats()

    def _set_for(self, vpn: int) -> List[Tuple[int, PTE]]:
        return self.sets[vpn % self.num_sets]

    def lookup(self, vpn: int) -> Optional[PTE]:
        self.stats.lookups += 1
        entries = self._set_for(vpn)
        for i, (cached_vpn, pte) in enumerate(entries):
            if cached_vpn == vpn:
                # Move to MRU position.
                entries.append(entries.pop(i))
                self.stats.hits += 1
                return pte
        return None

    def insert(self, vpn: int, pte: PTE) -> None:
        entries = self._set_for(vpn)
        for i, (cached_vpn, _) in enumerate(entries):
            if cached_vpn == vpn:
                entries.pop(i)
                break
        if len(entries) >= self.ways:
            entries.pop(0)  # evict LRU
            self.stats.evictions += 1
        entries.append((vpn, pte))

    def invalidate(self, vpn: int) -> bool:
        entries = self._set_for(vpn)
        for i, (cached_vpn, _) in enumerate(entries):
            if cached_vpn == vpn:
                entries.pop(i)
                self.stats.invalidations += 1
                return True
        return False

    def invalidate_range(self, vpn_lo: int, vpn_hi: int) -> int:
        count = 0
        for entries in self.sets:
            kept = [(v, p) for v, p in entries if not vpn_lo <= v < vpn_hi]
            count += len(entries) - len(kept)
            entries[:] = kept
        self.stats.invalidations += count
        return count

    def flush(self) -> None:
        for entries in self.sets:
            self.stats.invalidations += len(entries)
            entries.clear()

    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets)

    def entries(self) -> List[Tuple[int, PTE]]:
        """Snapshot of every cached (vpn, pte) pair, for invariant
        checking — consistency against the page table it caches."""
        return [entry for entries in self.sets for entry in entries]


def intel_l1_dtlb() -> TLB:
    """The 64-entry L1 DTLB of the paper's Haswell-class testbed."""
    return TLB(entries=64, ways=4, name="l1-dtlb")


def intel_stlb() -> TLB:
    """The 1536-entry unified second-level TLB."""
    return TLB(entries=1536, ways=12, name="stlb")
