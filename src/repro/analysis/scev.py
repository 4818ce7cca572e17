"""Scalar evolution (SCEV) analysis.

Recognizes *add recurrences*: values of the form ``{start, +, step}`` that
advance by a loop-invariant step on every iteration of a loop.  CARAT's
Optimization 2 (guard merging, Section 4.1.1) uses this to prove that a
guarded address sweeps a contiguous range during a loop, so one range
check in the preheader can replace the per-iteration guard.

The expression language is deliberately small: constants, unknowns
(loop-invariant opaque values), add recurrences, and n-ary add/mul with
constant folding.  ``SCEVExpander`` materializes expressions back into IR
at a given insertion point (the preheader).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.loops import Loop, LoopInfo
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    BinaryInst,
    BranchInst,
    CastInst,
    GEPInst,
    ICmpInst,
    Instruction,
    PhiInst,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable
from repro.ir.types import I64, IntType, PointerType, stride_of, struct_field_offset
from repro.ir.values import Argument, Constant, ConstantInt, Value


class SCEV:
    """Base class of scalar-evolution expressions."""

    def is_constant(self) -> bool:
        return isinstance(self, SCEVConstant)

    def constant_value(self) -> Optional[int]:
        return self.value if isinstance(self, SCEVConstant) else None


class SCEVConstant(SCEV):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SCEVConstant) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("scev-const", self.value))


class SCEVUnknown(SCEV):
    """An opaque value treated as a symbol (argument, global address, call
    result, or any instruction SCEV cannot see through)."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"unknown({self.value.ref()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SCEVUnknown) and other.value is self.value

    def __hash__(self) -> int:
        return hash(("scev-unknown", id(self.value)))


class SCEVAdd(SCEV):
    __slots__ = ("operands",)

    def __init__(self, operands: List[SCEV]) -> None:
        self.operands = operands

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.operands)) + ")"


class SCEVMul(SCEV):
    __slots__ = ("operands",)

    def __init__(self, operands: List[SCEV]) -> None:
        self.operands = operands

    def __repr__(self) -> str:
        return "(" + " * ".join(map(repr, self.operands)) + ")"


class SCEVAddRec(SCEV):
    """``{start, +, step}<loop>``: value on iteration i is start + i*step."""

    __slots__ = ("start", "step", "loop")

    def __init__(self, start: SCEV, step: SCEV, loop: Loop) -> None:
        self.start = start
        self.step = step
        self.loop = loop

    def __repr__(self) -> str:
        return f"{{{self.start!r}, +, {self.step!r}}}<%{self.loop.header.name}>"


class TripCount:
    """Symbolic iteration count of a loop: ``ceil((bound - start) / step)``
    for an exit condition ``iv <cmp> bound``.

    ``minimum_one`` records whether the loop body is guaranteed to run at
    least once (bottom-tested loop), which guard merging requires.
    """

    __slots__ = ("start", "bound", "step", "predicate", "minimum_one")

    def __init__(
        self, start: SCEV, bound: SCEV, step: int, predicate: str, minimum_one: bool
    ) -> None:
        self.start = start
        self.bound = bound
        self.step = step
        self.predicate = predicate
        self.minimum_one = minimum_one

    def constant_trip_count(self) -> Optional[int]:
        start = self.start.constant_value()
        bound = self.bound.constant_value()
        if start is None or bound is None:
            return None
        if self.predicate in ("slt", "ult"):
            span = bound - start
        elif self.predicate in ("sle", "ule"):
            span = bound - start + 1
        elif self.predicate == "ne":
            span = bound - start
            if span % self.step != 0:
                return None
        else:
            return None
        if span <= 0:
            return 0
        return (span + self.step - 1) // self.step

    def __repr__(self) -> str:
        return (
            f"<TripCount ({self.bound!r} {self.predicate} from {self.start!r} "
            f"step {self.step})>"
        )


class ScalarEvolution:
    def __init__(self, fn: Function, loop_info: Optional[LoopInfo] = None) -> None:
        self.function = fn
        self.loop_info = loop_info or LoopInfo.compute(fn)
        self._cache: Dict[int, SCEV] = {}
        self._in_progress: set = set()

    # -- construction ---------------------------------------------------------------

    def analyze(self, value: Value) -> SCEV:
        cached = self._cache.get(id(value))
        if cached is not None:
            return cached
        if id(value) in self._in_progress:
            return SCEVUnknown(value)
        self._in_progress.add(id(value))
        try:
            result = self._analyze(value)
        finally:
            self._in_progress.discard(id(value))
        self._cache[id(value)] = result
        return result

    def _analyze(self, value: Value) -> SCEV:
        if isinstance(value, ConstantInt):
            return SCEVConstant(value.value)
        if isinstance(value, (Argument, GlobalVariable)):
            return SCEVUnknown(value)
        if isinstance(value, PhiInst):
            rec = self._analyze_header_phi(value)
            if rec is not None:
                return rec
            return SCEVUnknown(value)
        if isinstance(value, BinaryInst):
            lhs = self.analyze(value.lhs)
            rhs = self.analyze(value.rhs)
            if value.opcode == "add":
                return self.add(lhs, rhs)
            if value.opcode == "sub":
                return self.add(lhs, self.mul(SCEVConstant(-1), rhs))
            if value.opcode == "mul":
                return self.mul(lhs, rhs)
            if value.opcode == "shl":
                shift = rhs.constant_value()
                if shift is not None:
                    return self.mul(lhs, SCEVConstant(1 << shift))
            return SCEVUnknown(value)
        if isinstance(value, CastInst) and value.opcode in ("sext", "zext", "bitcast"):
            # Widths are modelled as unbounded Python ints, so extensions are
            # transparent; bitcasts do not change the address.
            return self.analyze(value.value)
        if isinstance(value, GEPInst):
            return self._analyze_gep(value)
        return SCEVUnknown(value)

    def _analyze_gep(self, gep: GEPInst) -> SCEV:
        base = self.analyze(gep.pointer)
        total: SCEV = base
        current = gep.source_type
        from repro.ir.types import ArrayType, StructType

        for i, index in enumerate(gep.indices):
            if i == 0:
                scale = stride_of(current)
                total = self.add(
                    total, self.mul(self.analyze(index), SCEVConstant(scale))
                )
                continue
            if isinstance(current, ArrayType):
                scale = stride_of(current.element)
                total = self.add(
                    total, self.mul(self.analyze(index), SCEVConstant(scale))
                )
                current = current.element
            elif isinstance(current, StructType):
                assert isinstance(index, ConstantInt)
                total = self.add(
                    total,
                    SCEVConstant(struct_field_offset(current, index.value)),
                )
                current = current.fields[index.value]
            else:
                return SCEVUnknown(gep)
        return total

    def _analyze_header_phi(self, phi: PhiInst) -> Optional[SCEVAddRec]:
        block = phi.parent
        if block is None:
            return None
        loop = self.loop_info.loop_for(block)
        if loop is None or loop.header is not block:
            return None
        incoming = phi.incoming
        if len(incoming) != 2:
            return None
        start_value = None
        latch_value = None
        for value, pred in incoming:
            if pred in loop.blocks:
                latch_value = value
            else:
                start_value = value
        if start_value is None or latch_value is None:
            return None
        # latch_value must be phi + step with step loop-invariant.
        if not isinstance(latch_value, BinaryInst):
            return None
        if latch_value.opcode == "add":
            if latch_value.lhs is phi:
                step_value = latch_value.rhs
            elif latch_value.rhs is phi:
                step_value = latch_value.lhs
            else:
                return None
            sign = 1
        elif latch_value.opcode == "sub" and latch_value.lhs is phi:
            step_value = latch_value.rhs
            sign = -1
        else:
            return None
        if not self.is_loop_invariant(step_value, loop):
            return None
        step = self.analyze(step_value)
        if sign < 0:
            step = self.mul(SCEVConstant(-1), step)
        start = self.analyze(start_value)
        return SCEVAddRec(start, step, loop)

    # -- algebra ---------------------------------------------------------------------

    def add(self, a: SCEV, b: SCEV) -> SCEV:
        ca, cb = a.constant_value(), b.constant_value()
        if ca is not None and cb is not None:
            return SCEVConstant(ca + cb)
        if ca == 0:
            return b
        if cb == 0:
            return a
        if isinstance(a, SCEVAddRec) and isinstance(b, SCEVAddRec):
            if a.loop is b.loop:
                return SCEVAddRec(
                    self.add(a.start, b.start), self.add(a.step, b.step), a.loop
                )
            return SCEVAdd([a, b])
        if isinstance(b, SCEVAddRec):
            a, b = b, a
        if isinstance(a, SCEVAddRec):
            return SCEVAddRec(self.add(a.start, b), a.step, a.loop)
        return SCEVAdd([a, b])

    def mul(self, a: SCEV, b: SCEV) -> SCEV:
        ca, cb = a.constant_value(), b.constant_value()
        if ca is not None and cb is not None:
            return SCEVConstant(ca * cb)
        if ca == 1:
            return b
        if cb == 1:
            return a
        if ca == 0 or cb == 0:
            return SCEVConstant(0)
        if isinstance(b, SCEVAddRec):
            a, b = b, a
        if isinstance(a, SCEVAddRec) and not isinstance(b, SCEVAddRec):
            return SCEVAddRec(self.mul(a.start, b), self.mul(a.step, b), a.loop)
        return SCEVMul([a, b])

    # -- loop facts -----------------------------------------------------------------

    def is_loop_invariant(self, value: Value, loop: Loop) -> bool:
        if isinstance(value, (Constant, Argument, GlobalVariable, Function)):
            return True
        if isinstance(value, Instruction):
            return value.parent is not None and value.parent not in loop.blocks
        return False

    def scev_is_invariant(self, scev: SCEV, loop: Loop) -> bool:
        if isinstance(scev, SCEVConstant):
            return True
        if isinstance(scev, SCEVUnknown):
            return self.is_loop_invariant(scev.value, loop)
        if isinstance(scev, (SCEVAdd, SCEVMul)):
            return all(self.scev_is_invariant(op, loop) for op in scev.operands)
        if isinstance(scev, SCEVAddRec):
            return scev.loop is not loop and not self._addrec_in(scev, loop)
        return False

    @staticmethod
    def _addrec_in(scev: SCEVAddRec, loop: Loop) -> bool:
        return scev.loop is loop or loop.contains(scev.loop.header)

    def trip_count(self, loop: Loop) -> Optional[TripCount]:
        """Recognize the canonical exit ``br (icmp pred iv, bound), body, exit``
        on the header or latch, with ``iv`` an addrec of this loop with a
        positive constant step."""
        candidates: List[BasicBlock] = []
        if loop.header in loop.exiting_blocks():
            candidates.append(loop.header)
        for latch in loop.latches:
            if latch in loop.exiting_blocks() and latch not in candidates:
                candidates.append(latch)
        for block in candidates:
            term = block.terminator
            if not isinstance(term, BranchInst) or not term.is_conditional:
                continue
            cond = term.condition
            if not isinstance(cond, ICmpInst):
                continue
            then_bb, else_bb = term.targets
            # The loop continues while cond is true and then-target is inside.
            if then_bb in loop.blocks and else_bb not in loop.blocks:
                predicate = cond.predicate
            elif else_bb in loop.blocks and then_bb not in loop.blocks:
                predicate = _negate_predicate(cond.predicate)
            else:
                continue
            iv_scev = self.analyze(cond.lhs)
            bound_value = cond.rhs
            if not isinstance(iv_scev, SCEVAddRec) or iv_scev.loop is not loop:
                # Try the swapped orientation: bound < iv.
                iv_scev2 = self.analyze(cond.rhs)
                if isinstance(iv_scev2, SCEVAddRec) and iv_scev2.loop is loop:
                    iv_scev = iv_scev2
                    bound_value = cond.lhs
                    predicate = _swap_predicate(predicate)
                else:
                    continue
            step = iv_scev.step.constant_value()
            if step is None or step <= 0:
                continue
            if predicate not in ("slt", "ult", "sle", "ule", "ne"):
                continue
            if not self.is_loop_invariant(bound_value, loop):
                continue
            bound = self.analyze(bound_value)
            if not self.scev_is_invariant(iv_scev.start, loop):
                continue
            minimum_one = block is not loop.header
            return TripCount(iv_scev.start, bound, step, predicate, minimum_one)
        return None

    def symbolic_trip_count(self, trip: TripCount) -> Optional[SCEV]:
        """The iteration count as a loop-invariant SCEV.

        Constant when possible; otherwise only unit-step inductions have a
        division-free symbolic form (``bound - start`` and friends).  The
        result may be negative/zero at run time for top-tested loops — the
        consumer must clamp (guard merging emits a select for this).
        """
        n = trip.constant_trip_count()
        if n is not None:
            return SCEVConstant(n)
        neg_start = self.mul(SCEVConstant(-1), trip.start)
        if trip.step == 1 and trip.predicate in ("slt", "ult", "ne"):
            return self.add(trip.bound, neg_start)
        if trip.step == 1 and trip.predicate in ("sle", "ule"):
            return self.add(self.add(trip.bound, SCEVConstant(1)), neg_start)
        return None

    def affine_range(
        self, address: Value, loop: Loop
    ) -> Optional[Tuple[SCEV, int, SCEV]]:
        """For an address that evolves as ``{start, +, step}`` over ``loop``
        with constant ``step``, return ``(start, step, iterations)`` with
        ``start`` and ``iterations`` loop-invariant SCEVs.

        The addresses touched are ``start + i*step`` for ``0 <= i < n``.
        """
        scev = self.analyze(address)
        if not isinstance(scev, SCEVAddRec) or scev.loop is not loop:
            return None
        step = scev.step.constant_value()
        if step is None:
            return None
        if not self.scev_is_invariant(scev.start, loop):
            return None
        # Early exits (break) make the canonical trip count an over-
        # approximation of the iterations that actually run; a merged
        # guard built from it could fault on addresses the program never
        # touches.  Require the canonical exit to be the only one.
        if len(loop.exiting_blocks()) != 1:
            return None
        trip = self.trip_count(loop)
        if trip is None:
            return None
        n_scev = self.symbolic_trip_count(trip)
        if n_scev is None:
            return None
        if not self.scev_is_invariant(n_scev, loop):
            return None
        return (scev.start, step, n_scev)


def _negate_predicate(pred: str) -> str:
    table = {
        "eq": "ne",
        "ne": "eq",
        "slt": "sge",
        "sge": "slt",
        "sgt": "sle",
        "sle": "sgt",
        "ult": "uge",
        "uge": "ult",
        "ugt": "ule",
        "ule": "ugt",
    }
    return table[pred]


def _swap_predicate(pred: str) -> str:
    table = {
        "eq": "eq",
        "ne": "ne",
        "slt": "sgt",
        "sgt": "slt",
        "sle": "sge",
        "sge": "sle",
        "ult": "ugt",
        "ugt": "ult",
        "ule": "uge",
        "uge": "ule",
    }
    return table[pred]


def scev_is_expandable(scev: SCEV) -> bool:
    """Can :class:`SCEVExpander` materialize this expression?  Add
    recurrences cannot be expanded as straight-line code (their value is
    iteration-dependent), even when they are invariant with respect to an
    *inner* loop."""
    if isinstance(scev, (SCEVConstant, SCEVUnknown)):
        return True
    if isinstance(scev, (SCEVAdd, SCEVMul)):
        return all(scev_is_expandable(op) for op in scev.operands)
    return False


class SCEVExpander:
    """Materialize loop-invariant SCEV expressions as IR at a builder's
    insertion point (typically a loop preheader)."""

    def __init__(self, builder: IRBuilder) -> None:
        self.builder = builder

    def expand(self, scev: SCEV) -> Value:
        if isinstance(scev, SCEVConstant):
            return ConstantInt(I64, scev.value)
        if isinstance(scev, SCEVUnknown):
            value = scev.value
            if value.type.is_pointer:
                return self.builder.ptrtoint(value, I64)
            if isinstance(value.type, IntType) and value.type.bits < 64:
                return self.builder.sext(value, I64)
            return value
        if isinstance(scev, SCEVAdd):
            result = self.expand(scev.operands[0])
            for op in scev.operands[1:]:
                result = self.builder.add(result, self.expand(op))
            return result
        if isinstance(scev, SCEVMul):
            result = self.expand(scev.operands[0])
            for op in scev.operands[1:]:
                result = self.builder.mul(result, self.expand(op))
            return result
        raise ValueError(f"cannot expand non-invariant SCEV: {scev!r}")
