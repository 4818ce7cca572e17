"""CryptSan-style memory safety on top of the allocation table.

The same metadata CARAT keeps to *move* memory can police it: every
guard already proves an access lands in a kernel-permitted region, and
safety mode (``--safety``) adds the CryptSan question — does it land in
memory the program currently *owns*?  The allocation table answers
liveness; HMAC provenance tags (from :mod:`repro.carat.signing`'s
toolchain keys) ride on every allocation so violation reports carry
cryptographic provenance rather than a bare address.

Detection matrix (checked only after the ordinary region guard passed,
so every verdict concerns *region-legal* memory):

========================  =====================================  =========
access lands in…          meaning                                verdict
========================  =====================================  =========
a live allocation         the program owns those bytes           ok
a live allocation's       index ran off the end of a             oob
start, but overruns it    heap/global block (``a[n]`` of
(heap/global kinds)       ``a[0..n)``)
a tombstone (freed        dangling pointer dereference           uaf
allocation's old range)
none of the above         wild pointer into free heap space      oob
========================  =====================================  =========

Stack and code blocks are exempt from the overrun refinement: the stack
is tracked as machine-managed block(s) that legal frames may straddle
(stack growth appends a second block), so only containment is enforced
there — which the region guard already did.

Why this is zero-false-positive by construction: the loader primes the
table with every global, the stack block, and the code block, and every
``malloc`` is tracked — so each access a *legal* program makes starts
inside a live tracked allocation and stays inside it, short-circuiting
at the first (cheap) probe.  The expensive tombstone scan runs only on
accesses that already miss every live allocation, i.e. actual bugs.
"""

from __future__ import annotations

import hmac
import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.carat.signing import DEFAULT_TOOLCHAIN, toolchain_key

#: Verdict strings carried by :class:`SafetyViolation`.
KIND_UAF = "use-after-free"
KIND_OOB = "out-of-bounds"

#: How many freed-allocation tombstones the checker retains.  Bounded:
#: a tombstone only ever *adds* detection (live allocations are checked
#: first), so evicting old ones degrades UAF coverage gracefully
#: instead of growing without bound.
TOMBSTONE_LIMIT = 4096


@dataclass(frozen=True)
class SafetyViolation:
    """One structured safety verdict — everything a report needs."""

    kind: str           # KIND_UAF | KIND_OOB
    address: int
    size: int
    access: str
    #: The allocation the verdict is about: the freed one (uaf), the
    #: overrun one (oob off a live block), or ``None`` (wild oob).
    allocation_base: Optional[int] = None
    allocation_size: Optional[int] = None
    allocation_kind: Optional[str] = None
    #: Provenance: the allocation's HMAC tag and birth sequence number.
    tag: Optional[str] = None
    seq: Optional[int] = None

    def describe(self) -> str:
        where = f"{self.access} of {self.size} byte(s) at {self.address:#x}"
        if self.kind == KIND_UAF:
            return (
                f"use-after-free: {where} hits freed allocation "
                f"#{self.seq} [{self.allocation_base:#x}, "
                f"{self.allocation_base + self.allocation_size:#x}) "
                f"(tag {self.tag})"
            )
        if self.allocation_base is not None:
            return (
                f"out-of-bounds: {where} overruns live "
                f"{self.allocation_kind} allocation #{self.seq} "
                f"[{self.allocation_base:#x}, "
                f"{self.allocation_base + self.allocation_size:#x}) "
                f"(tag {self.tag})"
            )
        return (
            f"out-of-bounds: {where} lands in region-legal memory no "
            f"live allocation owns (wild pointer)"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "address": self.address,
            "size": self.size,
            "access": self.access,
            "allocation_base": self.allocation_base,
            "allocation_size": self.allocation_size,
            "allocation_kind": self.allocation_kind,
            "tag": self.tag,
            "seq": self.seq,
        }


class _Tombstone:
    """A freed allocation's ghost: range + provenance, for UAF verdicts."""

    __slots__ = ("lo", "hi", "kind", "seq", "tag")

    def __init__(self, lo: int, hi: int, kind: str, seq: int, tag: str):
        self.lo = lo
        self.hi = hi
        self.kind = kind
        self.seq = seq
        self.tag = tag


class SafetyChecker:
    """The ``--safety`` oracle one runtime consults at guard time.

    Attached as ``runtime.safety`` by
    :meth:`~repro.runtime.runtime.CaratRuntime.enable_safety`; the three
    guard entry points call :meth:`scan` on every *allowed* access and
    raise :class:`~repro.errors.SafetyFault` on a verdict.  With safety
    off (``runtime.safety is None``) no guard path changes by a single
    cycle, which is what keeps fingerprints bit-identical.
    """

    def __init__(self, runtime, toolchain: str = DEFAULT_TOOLCHAIN) -> None:
        self.runtime = runtime
        self.toolchain = toolchain
        self._key = toolchain_key(toolchain)
        #: Extra cycles per safety-checked access: the liveness probe is
        #: a second walk of the same rb-tree the guard's region check
        #: models, plus the end-bound comparison.
        self.check_cycles = 2 * runtime.costs.binary_search_probe
        self._next_seq = 0
        self.tombstones: Deque[_Tombstone] = deque(maxlen=TOMBSTONE_LIMIT)
        #: Every violation this checker found, in order (the structured
        #: report the session and tests consume).
        self.violations: List[SafetyViolation] = []
        self.checks = 0
        # Allocations that predate safety (globals, stack, code — primed
        # at load) get their provenance tags now.
        for allocation in runtime.table:
            self._ensure_tag(allocation)

    # -- provenance --------------------------------------------------------

    def _sign(self, seq: int, size: int, kind: str) -> str:
        message = f"{seq}:{size}:{kind}".encode()
        return hmac.new(self._key, message, hashlib.sha256).hexdigest()[:16]

    def _ensure_tag(self, allocation) -> None:
        if getattr(allocation, "safety_seq", None) is not None:
            return
        seq = self._next_seq
        self._next_seq += 1
        # Deliberately address-independent: the tag survives a page move
        # (``AllocationTable.rebase`` mutates the address in place, and
        # these attributes travel with the object).
        allocation.safety_seq = seq
        allocation.safety_tag = self._sign(
            seq, allocation.size, allocation.kind
        )

    # -- allocation lifecycle hooks ---------------------------------------

    def note_alloc(self, allocation) -> None:
        self._ensure_tag(allocation)

    def note_free(self, allocation) -> None:
        self._ensure_tag(allocation)
        self.tombstones.append(
            _Tombstone(
                allocation.address,
                allocation.address + allocation.size,
                allocation.kind,
                allocation.safety_seq,
                allocation.safety_tag,
            )
        )

    # -- the guard-time oracle --------------------------------------------

    def scan(
        self, address: int, size: int, access: str
    ) -> Optional[SafetyViolation]:
        """Classify one region-legal access; records and returns the
        violation (``None`` when the program owns the bytes)."""
        self.checks += 1
        table = self.runtime.table
        size = max(1, size)
        containing = table.find_containing(address, size)
        if containing is not None and containing.live:
            return None
        violation = self._classify(table, address, size, access)
        if violation is not None:
            self.violations.append(violation)
        return violation

    def _classify(
        self, table, address: int, size: int, access: str
    ) -> Optional[SafetyViolation]:
        start = table.find_containing(address, 1)
        if start is not None and start.live:
            if start.kind in ("stack", "code"):
                # Machine-managed blocks: legal frames may straddle the
                # boundary stack growth introduces.  Containment there
                # is the region guard's job, already done.
                return None
            return SafetyViolation(
                kind=KIND_OOB,
                address=address,
                size=size,
                access=access,
                allocation_base=start.address,
                allocation_size=start.size,
                allocation_kind=start.kind,
                tag=getattr(start, "safety_tag", None),
                seq=getattr(start, "safety_seq", None),
            )
        for tomb in reversed(self.tombstones):
            if address < tomb.hi and tomb.lo < address + size:
                return SafetyViolation(
                    kind=KIND_UAF,
                    address=address,
                    size=size,
                    access=access,
                    allocation_base=tomb.lo,
                    allocation_size=tomb.hi - tomb.lo,
                    allocation_kind=tomb.kind,
                    tag=tomb.tag,
                    seq=tomb.seq,
                )
        return SafetyViolation(
            kind=KIND_OOB, address=address, size=size, access=access
        )

    def describe(self) -> str:
        if not self.violations:
            return f"safety: {self.checks} check(s), clean"
        return (
            f"safety: {self.checks} check(s), "
            f"{len(self.violations)} violation(s); first: "
            f"{self.violations[0].describe()}"
        )
