"""Per-page access-heat tracking (the policy engine's telemetry).

:class:`HeatTracker` binds its current-epoch *window* (page -> access
count) to the interpreter's ``heat_window``, and every load and store a
CARAT process performs bumps the page of its first byte there, inline in
each engine's access path — no call per access.  At each epoch boundary
the tracker folds the window into exponentially decayed *heat scores*:

    score(page) <- score(page) * decay + accesses_this_epoch(page)

Hot pages have high scores; pages untouched for a few epochs decay to
(and are pruned at) ~zero.  The tiering balancer consumes the scores to
pick promotion/demotion victims, aggregated to CARAT allocations since
moves happen at allocation granularity.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List, Optional, Tuple

from repro.kernel.pagetable import PAGE_SHIFT

#: Scores below this are dropped at the end of an epoch — the page has
#: been cold long enough that keeping the entry only costs memory.
PRUNE_BELOW = 1e-3


class HeatTracker:
    """Decayed per-page access counts."""

    def __init__(self, decay: float = 0.5) -> None:
        if not (0.0 <= decay < 1.0):
            raise ValueError("decay must be in [0, 1)")
        self.decay = decay
        #: page -> decayed heat score (epochs before the current one).
        self.scores: Dict[int, float] = {}
        #: page -> raw access count in the current epoch.  The installed
        #: interpreter bumps this very object, so it is only ever
        #: mutated in place, never rebound.
        self.window: DefaultDict[int, int] = defaultdict(int)
        #: Accesses folded into ``scores`` by past epochs.
        self._folded = 0
        self.epochs = 0

    # -- telemetry intake --------------------------------------------------------

    @property
    def accesses_seen(self) -> int:
        """Every access observed so far, past epochs and the live window."""
        return self._folded + sum(self.window.values())

    def observe(self, address: int, size: int, access: str) -> None:
        """Count one access by hand, exactly as the interpreter's inline
        bump does: charged to the page containing its *first* byte (a
        page-straddling access counts once, like a PEBS record)."""
        self.window[address >> PAGE_SHIFT] += 1

    def install(self, interpreter) -> None:
        """Bind the window to an interpreter's ``heat_window``.  One
        tracker per interpreter: a second install is refused, since two
        trackers would split (or double) one access stream."""
        if interpreter.heat_window is not None:
            raise ValueError("interpreter already feeds a heat tracker")
        interpreter.heat_window = self.window

    def rebase_range(self, lo: int, hi: int, delta: int) -> None:
        """Rekey heat for pages in ``[lo, hi)`` after those bytes moved
        by ``delta`` (page-aligned).  Without this, a policy move would
        strand an allocation's heat at its old physical address — the
        freshly promoted block would look stone cold and get evicted
        right back (the same reason the escape map rekeys on moves).
        """
        page_lo, page_hi = lo >> PAGE_SHIFT, hi >> PAGE_SHIFT
        page_delta = delta >> PAGE_SHIFT
        for mapping in (self.scores, self.window):
            moved = [page for page in mapping if page_lo <= page < page_hi]
            carried = {page: mapping.pop(page) for page in moved}
            for page, value in carried.items():
                target = page + page_delta
                mapping[target] = mapping.get(target, 0) + value

    # -- epoch boundary ---------------------------------------------------------

    def end_epoch(self) -> None:
        """Decay old scores, fold in the current window, prune the cold."""
        self.epochs += 1
        self._folded += sum(self.window.values())
        decayed: Dict[int, float] = {}
        for page, score in self.scores.items():
            score *= self.decay
            if score >= PRUNE_BELOW:
                decayed[page] = score
        for page, count in self.window.items():
            decayed[page] = decayed.get(page, 0.0) + count
        self.scores = decayed
        self.window.clear()

    # -- queries ----------------------------------------------------------------

    def score(self, page: int) -> float:
        """Current heat of a page, including the live (undecayed) window."""
        return self.scores.get(page, 0.0) + self.window.get(page, 0)

    def ranked(self) -> List[Tuple[int, float]]:
        """All known pages as (page, score), hottest first (ties by page
        number, for determinism)."""
        pages = set(self.scores) | set(self.window)
        return sorted(
            ((page, self.score(page)) for page in pages),
            key=lambda item: (-item[1], item[0]),
        )

    def hottest(self, n: Optional[int] = None) -> List[Tuple[int, float]]:
        ranked = self.ranked()
        return ranked if n is None else ranked[:n]

    def allocation_heat(self, table) -> List[Tuple[object, float]]:
        """Aggregate page scores to allocations (hottest first).

        ``table`` is the runtime's :class:`AllocationTable`; pages not
        covered by any allocation (kernel metadata, freed space) are
        skipped.  Moves happen at allocation granularity, so this is the
        ranking the tiering balancer actually acts on.
        """
        heat: Dict[int, float] = {}
        owner: Dict[int, object] = {}
        for page, score in self.ranked():
            if score <= 0.0:
                continue
            page_base = page << PAGE_SHIFT
            allocation = table.find_containing(page_base)
            if allocation is None:
                # Page start falls in untracked space (an allocation may
                # still start mid-page): charge the first overlapper.
                overlapping = table.overlapping(page_base, page_base + (1 << PAGE_SHIFT))
                if not overlapping:
                    continue
                allocation = overlapping[0]
            key = id(allocation)
            owner[key] = allocation
            heat[key] = heat.get(key, 0.0) + score
        return sorted(
            ((owner[key], total) for key, total in heat.items()),
            key=lambda item: (-item[1], item[0].address),
        )
