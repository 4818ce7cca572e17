"""Redundant escape-map metadata (the CryptSan trick).

Most of the checker's rules cross-validate two live structures against
each other, but a *dropped* escape record has no second structure to
disagree with — the map simply forgets the cell and the next move leaves
a dangling pointer behind.  :class:`ShadowedEscapeMap` closes that hole:
it is a transparent proxy that replays every mutation on an independent
shadow copy, so any out-of-band corruption of the primary (a lost record,
a missed rekey) shows up as a primary/shadow divergence the checker's
``escape-shadow`` rule reports.
"""

from __future__ import annotations

from typing import List

from repro.runtime.escape_map import AllocationToEscapeMap

__all__ = ["ShadowedEscapeMap", "install_escape_shadow"]


class ShadowedEscapeMap:
    """Proxy around an :class:`AllocationToEscapeMap` that mirrors every
    mutation into a second, independent map.

    All reads and any method not listed below fall through to the primary
    untouched, so the proxy is drop-in wherever the raw map is used.
    """

    def __init__(self, primary: AllocationToEscapeMap) -> None:
        self._primary = primary
        self.shadow = primary.copy()

    # -- mutators: replayed on both copies ------------------------------

    def record(self, location: int) -> None:
        self._primary.record(location)
        self.shadow.record(location)

    def flush(self, table, read_pointer) -> int:
        resolved = self._primary.flush(table, read_pointer)
        self.shadow.flush(table, read_pointer)
        return resolved

    def rekey(self, old_address: int, new_address: int) -> None:
        self._primary.rekey(old_address, new_address)
        self.shadow.rekey(old_address, new_address)

    def rekey_all(self, moves) -> None:
        moves = list(moves)
        self._primary.rekey_all(moves)
        self.shadow.rekey_all(moves)

    def drop_allocation(self, address: int) -> None:
        self._primary.drop_allocation(address)
        self.shadow.drop_allocation(address)

    def rewrite_range(self, lo: int, hi: int, delta: int) -> int:
        rewritten = self._primary.rewrite_range(lo, hi, delta)
        self.shadow.rewrite_range(lo, hi, delta)
        return rewritten

    def rewrite_locations(self, moves) -> int:
        moves = list(moves)
        rewritten = self._primary.rewrite_locations(moves)
        self.shadow.rewrite_locations(moves)
        return rewritten

    # -- everything else reads the primary ------------------------------

    def __getattr__(self, name: str):
        return getattr(self._primary, name)

    # -- divergence check ------------------------------------------------

    def divergences(self) -> List[str]:
        """Primary/shadow disagreements, as human-readable messages."""
        problems: List[str] = []
        primary = dict(self._primary.resolved_items())
        shadow = dict(self.shadow.resolved_items())
        for base in sorted(set(primary) | set(shadow)):
            mine = primary.get(base, set())
            theirs = shadow.get(base, set())
            if mine == theirs:
                continue
            lost = sorted(theirs - mine)
            extra = sorted(mine - theirs)
            detail = []
            if lost:
                detail.append(
                    "lost " + ", ".join(f"{loc:#x}" for loc in lost)
                )
            if extra:
                detail.append(
                    "extra " + ", ".join(f"{loc:#x}" for loc in extra)
                )
            problems.append(
                f"escape set of allocation {base:#x} diverged from its "
                f"shadow ({'; '.join(detail)})"
            )
        if sorted(self._primary.pending_locations()) != sorted(
            self.shadow.pending_locations()
        ):
            problems.append("pending escape queue diverged from its shadow")
        return problems


def install_escape_shadow(runtime) -> ShadowedEscapeMap:
    """Wrap a :class:`~repro.runtime.runtime.CaratRuntime`'s escape map in
    a shadow proxy, rebinding every reference the runtime holds (the
    patcher captured the map at construction)."""
    if isinstance(runtime.escapes, ShadowedEscapeMap):
        return runtime.escapes
    proxy = ShadowedEscapeMap(runtime.escapes)
    runtime.escapes = proxy
    runtime.patcher.escapes = proxy
    return proxy
