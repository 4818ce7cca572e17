"""One code template per instruction form, shared by both tiers.

The block tier (:mod:`repro.machine.fastexec`) compiles every
instruction into its own op; the trace tier
(:mod:`repro.machine.tracejit`) inlines a whole superblock into one
closure.  Both must charge the cost model in the reference engine's
order and compute its exact results, so every instruction form has
exactly one emitter here: the value forms — integer and float binary
ops (division, remainder, shifts and ``frem`` included), ``icmp``,
``fcmp``, the casts, GEPs, loads, stores, ``select``, ``alloca`` and
pure unary math builtins — and the control forms: branch edges with
their phi parallel copy, conditional and unconditional branches, calls
of defined functions (the frame push with its argument moves),
returns, the generic ``carat.guard.*`` check, the tracking intrinsics,
and the lazy fault forms (a GEP through a non-aggregate, a load or
store of a non-scalar type).  :func:`emit_op` writes the op's body
lines into a :class:`Writer` at a given indent: the base charge, the
operand reads whose ``KeyError`` reaches :func:`_raise_undefined`, the
wrap arithmetic, and the fault messages.  Only builtin calls and the
one-line faults (phi, unreachable, indirect call, unknown opcode) have
no template; the block tier keeps them as closures, which the trace
tier calls.

The lines read a fixed vocabulary: ``interp``, ``frame``, ``values`` and
``stats``; the per-interpreter names of :data:`BINDINGS` and
:data:`KNOWN_FACT_BINDINGS`; the constants of :data:`GLOBALS`; and
``_FF``, the block tier's frame class.  The trace tier inlines them into
a superblock whose instantiation binds every name once.  The block tier
wraps them in a ``def`` behind a prologue that binds the names the body
reads, and shares one compiled stencil among all ops of identical text.
So what identifies one op — its operand and destination slots,
constants, global names, blocks and guard site — goes into ``ns`` under
names tagged by ``t``, never into the text.

An emitter branches only on the instruction and on facts its caller
may know: the addressing mode (``is_carat``) and whether the kernel has
a fast/slow tier boundary (``has_tier``) — ``None``, what the
module-shared block tier passes, makes the fact a run-time test in the
emitted code — and, in a trace, the block a branch continues into
(``nxt``: the other arm becomes a side exit) and the call whose frame a
return pops (``paired``: without it the return reads
``frame.result_target`` and keeps the program-exit arm).  The trace tier
also passes a segment's register map (:data:`Regs`; see :func:`expr`),
which the block tier never does.
"""

from __future__ import annotations

import math
import struct
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.carat.intrinsics import (
    GUARD_CALL,
    GUARD_LOAD,
    GUARD_RANGE,
    GUARD_STORE,
    TRACK_ALLOC,
    TRACK_ESCAPE,
    TRACK_FREE,
)
from repro.errors import InterpError, ProtectionFault
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    ReturnInst,
    SelectInst,
    StoreInst,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    size_of,
    stride_of,
    struct_field_offset,
)
from repro.ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)
from repro.kernel.pagetable import (
    PAGE_SHIFT, PAGE_SIZE, PTE_DIRTY, PTE_PRESENT, PTE_WRITE,
)
from repro.machine.interp import _MATH_BUILTINS, ExitProgram
from repro.transform.simplify import fold_int_binop

_MASK64 = (1 << 64) - 1

#: A trace segment's register map: SSA id -> (the Python local holding
#: the value the segment computed, its Python type name).
Regs = Dict[int, Tuple[str, str]]
#: The Python type name of each scalar constant's value.
_CONST_TYPES = {
    ConstantInt: "int", ConstantNull: "int", UndefValue: "int",
    ConstantFloat: "float",
}

#: Never-faulting integer and float ops, by infix symbol.
_INT_OP_SYMBOL = {
    "add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^",
}
_FLOAT_OP_SYMBOL = {"fadd": "+", "fsub": "-", "fmul": "*"}
_ICMP_SIGNED = {
    "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
}
_ICMP_UNSIGNED = {"ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}
_FCMP_SYMBOL = {
    "oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">=",
}


def _raise_undefined(interp, values, *operands: Value) -> None:
    """Slow path behind an inlined operand read's KeyError: report the
    first unset operand, in evaluation order, with the reference
    wording."""
    for value in operands:
        if isinstance(value, (Argument, Instruction)) and id(value) not in values:
            raise InterpError(
                f"use of undefined value %{value.name} in "
                f"@{interp.frames[-1].function.name}"
            ) from None
        if (
            isinstance(value, GlobalVariable)
            and value.name not in interp.process.globals_map
        ):
            raise InterpError(f"global @{value.name} was not loaded") from None
    raise InterpError("undefined value in compiled op") from None


#: Module-level names every emitted body may read.
GLOBALS: Dict[str, object] = {
    "_raise_undefined": _raise_undefined,
    "_ifb": int.from_bytes,
    "_inf": math.inf,
    "_nan": math.nan,
    "_ierr": InterpError,
    "_pfault": ProtectionFault,
    "_Exit": ExitProgram,
    "_fmod": math.fmod,
}

#: Per-interpreter names the emitted bodies read, as attribute paths on
#: the interpreter.  Move transactions patch ``_gm`` in place, so a bound
#: reference always sees the current global addresses.
BINDINGS: Dict[str, str] = {
    "_ci": "_cost_instruction",
    "_cm": "_cost_memory",
    "_cc": "_cost_call",
    "_gm": "process.globals_map",
    "_cells": "_guard_cells",
    "_rt": "process.runtime",
}
#: Names only the forms emitted with the addressing mode or the tiering
#: known read.  ``_pm``/``_pmd``/``_pms`` give CARAT loads and stores (and
#: paging ones past the inline translation) raw physical-memory access:
#: the backing buffer is allocated once per kernel and never reassigned,
#: and the out-of-range path delegates to the real accessor
#: (``_rdb``/``_wrb``) for its exact error.
KNOWN_FACT_BINDINGS: Dict[str, str] = {
    "_tb": "_tier_boundary",
    "_cft": "costs.fast_tier_access",
    "_cst": "costs.slow_tier_access",
    "_pm": "memory",
    "_pmd": "memory._data",
    "_pms": "memory.size",
    "_rdb": "memory.read_bytes",
    "_wrb": "memory.write_bytes",
    "_rmem": "_read_mem",
    "_wmem": "_write_mem",
}
#: Names only paging loads and stores read (see :func:`_paging`).
PAGING_BINDINGS: Dict[str, str] = {
    "_dts": "process.mmu.dtlb.sets",
    "_dtn": "process.mmu.dtlb.num_sets",
    "_dt": "process.mmu.dtlb.stats",
    "_ms": "process.mmu.stats",
    "_tlh": "process.mmu.costs.tlb_hit",
}
_GETTERS = {
    name: attrgetter(path)
    for name, path in {**BINDINGS, **KNOWN_FACT_BINDINGS}.items()
}
_PAGING_GETTERS = {**_GETTERS, **{n: attrgetter(p) for n, p in PAGING_BINDINGS.items()}}


def bind(interp) -> Dict[str, object]:
    """Every binding name, resolved against ``interp`` (paging: with an MMU)."""
    getters = _GETTERS if interp.process.mmu is None else _PAGING_GETTERS
    return {name: get(interp) for name, get in getters.items()}


class Writer:
    """Indented-source accumulator for generated code."""

    __slots__ = ("lines",)

    def __init__(self) -> None:
        self.lines: List[str] = []

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def reject(value: Value):
    """Getter for an operand no engine can evaluate (an aggregate
    constant): like the reference, it faults only when evaluated, so
    dead blocks holding one still compile."""
    rep = repr(value)

    def read(interp, values):
        raise InterpError(f"cannot evaluate operand {rep}")

    return read


def expr(
    value: Value, ns: Dict[str, object], tag: str,
    regs: Optional[Regs] = None, conv: str = "",
) -> str:
    """Source reading ``value`` inside a template (``interp`` and
    ``values`` in scope), storing what it needs in ``ns`` under names
    made unique by ``tag``.  Slot and global reads are raw dict lookups
    whose KeyError the template routes to :func:`_raise_undefined`.

    ``regs`` is a trace segment's register map (``None`` in the block
    tier): a value in it reads as its local.  ``conv`` (``"int"`` or
    ``"float"``) wraps the read — unless ``regs`` is given and the
    Python type is known to be that already (see :func:`_convert`)."""
    if regs is not None and id(value) in regs:
        text = regs[id(value)][0]
    elif isinstance(value, (Argument, Instruction)):
        ns[f"_k{tag}"] = id(value)
        text = f"values[_k{tag}]"
    elif isinstance(value, GlobalVariable):
        ns[f"_n{tag}"] = value.name
        text = f"_gm[_n{tag}]"
    elif isinstance(value, (ConstantInt, ConstantFloat)):
        ns[f"_c{tag}"] = value.value
        text = f"_c{tag}"
    elif isinstance(value, (ConstantNull, UndefValue)):
        ns[f"_c{tag}"] = 0
        text = f"_c{tag}"
    else:
        ns[f"_g{tag}"] = reject(value)
        text = f"_g{tag}(interp, values)"
    return _convert(text, value, conv, regs)


def _convert(text: str, value: Value, conv: str, regs: Optional[Regs]) -> str:
    """``text``, a read of ``value``, wrapped in ``conv`` — bare in a
    trace (``regs`` given) when ``value``'s Python type is known to be
    ``conv``: a register's (its template's result type), or a scalar
    constant's."""
    if conv and regs is not None:
        reg = regs.get(id(value))
        if (reg[1] if reg else _CONST_TYPES.get(type(value))) == conv:
            return text
    return f"{conv}({text})" if conv else text


def operand_reads(
    w: Writer, ind: int, reads: Sequence[str], operands: Sequence[Value], t: int,
    ns, defined: Optional[Set[int]] = None,
) -> bool:
    """Write the operand-reading lines ``reads`` at ``ind`` inside a
    ``try:`` whose KeyError takes the undefined-value path and return
    True — or bare, returning False, when every operand is a scalar
    constant or a slot in ``defined``, the ids the caller knows were
    written earlier in the same frame (so the read cannot miss)."""
    if defined is not None and all(
        isinstance(v, (ConstantInt, ConstantFloat, ConstantNull, UndefValue))
        or (isinstance(v, (Argument, Instruction)) and id(v) in defined)
        for v in operands
    ):
        for text in reads:
            w.line(ind, text)
        return False
    w.line(ind, "try:")
    for text in reads:
        w.line(ind + 1, text)
    ns[f"_v{t}"] = tuple(operands)
    w.line(ind, "except KeyError:")
    w.line(ind + 1, f"_raise_undefined(interp, values, *_v{t})")
    return True


def gep_plan(inst: GEPInst) -> Tuple[int, List[Tuple[Value, int]], Optional[str]]:
    """Walk the indexed type once, at compile time: each index contributes
    either a static offset (constant index) or a dynamic ``(value, stride)``
    term.  Struct indices are constant by construction.  Returns
    ``(const_offset, dynamic_terms, bad_type_rep)``; a non-``None`` third
    element names the non-aggregate type the walk hit, and the caller must
    then emit the lazy reference fault with that exact wording."""
    const_offset = 0
    dynamic: List[Tuple[Value, int]] = []
    current: Type = inst.source_type
    for i, index in enumerate(inst.indices):
        if i == 0:
            stride = stride_of(current)
        elif isinstance(current, ArrayType):
            stride = stride_of(current.element)
            current = current.element
        elif isinstance(current, StructType):
            if not isinstance(index, ConstantInt):
                raise InterpError("struct gep index must be constant")
            const_offset += struct_field_offset(current, index.value)
            current = current.fields[index.value]
            continue
        else:
            return 0, [], str(current)
        if isinstance(index, ConstantInt):
            const_offset += index.value * stride
        else:
            dynamic.append((index, stride))
    return const_offset, dynamic, None


def is_math_call(inst: Instruction) -> bool:
    """A call of a pure unary math builtin — the one call form with a
    template (every other call is frame or runtime work)."""
    if not isinstance(inst, CallInst):
        return False
    callee = inst.callee
    return (
        isinstance(callee, Function)
        and callee.is_declaration
        and callee.name in _MATH_BUILTINS
        and len(inst.args) == 1
        and not inst.type.is_void
    )


class _Op:
    """One emission: the writer, indent, name tag, facts in effect, the
    slots known to be defined (see :func:`operand_reads`), the trace
    segment's register map ``regs`` (see :func:`expr`), and ``code``,
    the module's compiled form (its block op lists ``ops_by_block``,
    guard sites ``guard_site_of`` and side-exit ``edge_op`` maker).
    ``out`` is the register the result lands in, ``raises`` whether the
    op can raise or call out."""

    __slots__ = (
        "w", "ind", "t", "ns", "is_carat", "has_tier", "defined", "regs",
        "code", "nxt", "paired", "out", "raises",
    )

    def __init__(
        self, w, ind, t, ns, is_carat=None, has_tier=None, defined=None,
        regs=None, code=None, nxt=None, paired=None,
    ) -> None:
        self.w = w
        self.ind = ind
        self.t = t
        self.ns = ns
        self.is_carat = is_carat
        self.has_tier = has_tier
        self.defined = defined
        self.regs = regs
        self.code = code
        self.nxt = nxt
        self.paired = paired
        self.out = None
        self.raises = False

    def line(self, text: str, depth: int = 0) -> None:
        self.w.lines.append("    " * (self.ind + depth) + text)

    def lines(self, texts: Sequence[str]) -> None:
        """Write ``texts``, each carrying its indent relative to the op's."""
        for text in texts:
            body = text.lstrip(" ")
            self.line(body, (len(text) - len(body)) // 4)

    def read(self, value: Value, suffix: str, conv: str = "") -> str:
        return expr(value, self.ns, f"{self.t}{suffix}", self.regs, conv)

    def reads(
        self, lines: Sequence[str], operands: Sequence[Value],
        depth: int = 0, sub: str = "",
    ) -> None:
        """``lines`` under the undefined-value handler (tagged ``sub``)."""
        if lines:
            self.raises |= operand_reads(
                self.w, self.ind + depth, lines, operands, f"{self.t}{sub}",
                self.ns, self.defined,
            )

    def head(self, reads: Sequence[str], operands: Sequence[Value], *pre: str) -> None:
        """The base charge, then ``reads`` under the undefined-value
        handler.  Every template opens this way, so the charge is the
        op's first top-level line and precedes anything that can raise
        (the trace tier batches it per segment)."""
        self.line("stats.cycles += _ci")
        for text in pre:
            self.line(text)
        self.reads(reads, operands)

    def fault(self, message: str) -> bool:
        """Raise ``message`` (through ``ns``: it names the instruction)."""
        self.ns[f"_msg{self.t}"] = message
        self.line(f"raise _ierr(_msg{self.t})")
        self.raises = True
        return True

    def dest(self, inst: Instruction, kind: str = "int") -> str:
        """The result slot, named through ``ns`` like every operand, so
        the text of an op depends on its shape alone.  In a trace the
        store writes through to the register ``_r<t>`` too, whose Python
        type the template fixes as ``kind``."""
        self.ns[f"_d{self.t}"] = id(inst)
        if self.regs is None:
            return f"values[_d{self.t}]"
        self.out = (f"_r{self.t}", kind)
        return f"values[_d{self.t}] = _r{self.t}"

    def wrap(self, out: str, ty: IntType) -> None:
        """Store ``_m`` re-signed to ``ty`` (IntType.wrap, inlined)."""
        self.line(f"{out} = _m - {ty.max_unsigned + 1} if _m > {ty.max_signed} else _m")

    def mode(
        self, carat: Sequence[str], paging: Sequence[str], either: Sequence[str]
    ) -> None:
        """The memory access for the addressing mode, or — with the mode
        unknown — ``either``: a run-time test between the interpreter's
        own accessors.  Lines carry their relative indent."""
        if self.is_carat is None:
            self.lines(either)
        else:
            self.lines(carat if self.is_carat else paging)

    def tier(self) -> None:
        """Tier-cost accounting for the access at ``_a``.  Known tiered:
        Interpreter._charge_tier inlined (adding a possibly-zero cost
        unconditionally is value-identical to its ``if extra:`` test).
        Unknown: a run-time test and the call."""
        if self.has_tier is None:
            self.line("if interp._tier_boundary is not None:")
            self.line("interp._charge_tier(_a)", 1)
        elif self.has_tier:
            self.line("if _a < _tb:")
            self.line("stats.fast_tier_accesses += 1", 1)
            self.line("stats.cycles += _cft", 1)
            self.line("stats.tier_cycles += _cft", 1)
            self.line("else:")
            self.line("stats.slow_tier_accesses += 1", 1)
            self.line("stats.cycles += _cst", 1)
            self.line("stats.tier_cycles += _cst", 1)


def _int_binary(e: _Op, inst: BinaryInst) -> bool:
    op = inst.opcode
    ty = inst.type
    out = e.dest(inst)
    lhs_v, rhs_v = inst.lhs, inst.rhs
    if isinstance(lhs_v, ConstantInt) and isinstance(rhs_v, ConstantInt):
        folded = fold_int_binop(op, ty, lhs_v.value, rhs_v.value)
        if folded is not None:
            e.line("stats.cycles += _ci")
            e.line(f"{out} = {folded}")
            return True
    mask = ty.max_unsigned
    symbol = _INT_OP_SYMBOL.get(op)
    if symbol is not None:
        lhs, rhs = e.read(lhs_v, "a", "int"), e.read(rhs_v, "b", "int")
        e.head([f"_m = ({lhs} {symbol} {rhs}) & {mask}"], (lhs_v, rhs_v))
        e.wrap(out, ty)
        return True
    # Division, remainder and shifts.  Signed quotients truncate toward
    # zero: for operands of opposite sign that is the exact ceiling
    # division -(-a // b) (a float quotient loses precision past 2**53).
    division = op in ("sdiv", "srem", "udiv", "urem")
    b = rhs_v.value if isinstance(rhs_v, ConstantInt) else None
    if b is not None and (b != 0 if division else 0 <= b < ty.bits):
        # A constant that can never fault: no check, constant operands.
        e.head([f"_m = {e.read(lhs_v, 'a', 'int')}"], (lhs_v,))
        if op in ("sdiv", "srem"):
            cond = "_m < 0" if b > 0 else "_m >= 0"
            quot = f"-(-_m // ({b})) if {cond} else _m // ({b})"
            if op == "sdiv":
                e.line(f"_m = {quot}")
            else:
                e.line(f"_b = {quot}")
                e.line(f"_m = _m - _b * ({b})")
        elif division:
            sym = "//" if op == "udiv" else "%"
            e.line(f"_m = (_m & {mask}) {sym} {b & mask}")
        elif op == "shl":
            e.line(f"_m = _m << {b}")
        elif op == "lshr":
            e.line(f"_m = (_m & {mask}) >> {b}")
        else:
            e.line(f"_m = _m >> {b}")
    else:
        lhs, rhs = e.read(lhs_v, "a", "int"), e.read(rhs_v, "b", "int")
        e.head([f"_a = {lhs}", f"_b = {rhs}"], (lhs_v, rhs_v))
        e.raises = True
        e.line("if _b == 0:" if division else f"if not 0 <= _b < {ty.bits}:")
        e.line(
            f"raise _ierr(f'integer fault: {op} "
            "{_a}, {_b} (division by zero or invalid shift)')",
            1,
        )
        if op in ("sdiv", "srem"):
            quot = "-(-_a // _b) if (_a < 0) != (_b < 0) else _a // _b"
            if op == "sdiv":
                e.line(f"_m = {quot}")
            else:
                e.line(f"_c = {quot}")
                e.line("_m = _a - _c * _b")
        elif division:
            sym = "//" if op == "udiv" else "%"
            e.line(f"_m = (_a & {mask}) {sym} (_b & {mask})")
        elif op == "shl":
            e.line("_m = _a << _b")
        elif op == "lshr":
            e.line(f"_m = (_a & {mask}) >> _b")
        else:
            e.line("_m = _a >> _b")
    e.line(f"_m = _m & {mask}")
    e.wrap(out, ty)
    return True


def _binary(e: _Op, inst: BinaryInst) -> bool:
    if isinstance(inst.type, IntType):
        return _int_binary(e, inst)
    op = inst.opcode
    out = e.dest(inst, "float")
    lhs, rhs = e.read(inst.lhs, "a", "float"), e.read(inst.rhs, "b", "float")
    operands = (inst.lhs, inst.rhs)
    if op in _FLOAT_OP_SYMBOL:
        symbol = _FLOAT_OP_SYMBOL[op]
        e.head([f"{out} = {lhs} {symbol} {rhs}"], operands)
        return True
    e.head([f"_a = {lhs}", f"_b = {rhs}"], operands)
    if op == "frem":
        # fmod of an infinity raises ValueError, as in the reference.
        e.raises = True
        e.line(f"{out} = _fmod(_a, _b) if _b != 0 else _nan")
        return True
    e.line("if _b == 0.0:")
    e.line(f"{out} = _inf if _a > 0 else (-_inf if _a < 0 else _nan)", 1)
    e.line("else:")
    e.line(f"{out} = _a / _b", 1)
    return True


def _icmp(e: _Op, inst: ICmpInst) -> bool:
    pred = inst.predicate
    lhs, rhs = e.read(inst.lhs, "a", "int"), e.read(inst.rhs, "b", "int")
    symbol = _ICMP_SIGNED.get(pred)
    if symbol is not None:
        compare = f"{lhs} {symbol} {rhs}"
    else:
        bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
        mask = (1 << bits) - 1
        symbol = _ICMP_UNSIGNED[pred]
        compare = f"({lhs} & {mask}) {symbol} ({rhs} & {mask})"
    e.head([f"{e.dest(inst)} = 1 if {compare} else 0"], (inst.lhs, inst.rhs))
    return True


def _fcmp(e: _Op, inst: FCmpInst) -> bool:
    symbol = _FCMP_SYMBOL[inst.predicate]
    lhs, rhs = e.read(inst.lhs, "a", "float"), e.read(inst.rhs, "b", "float")
    e.head([f"_a = {lhs}", f"_b = {rhs}"], (inst.lhs, inst.rhs))
    # Ordered compares are false on NaN; x != x is the call-free isnan.
    e.line(
        f"{e.dest(inst)} = 0 if (_a != _a or _b != _b)"
        f" else (1 if _a {symbol} _b else 0)"
    )
    return True


def _cast(e: _Op, inst: CastInst) -> bool:
    op = inst.opcode
    out = e.dest(inst, "float" if op == "sitofp" else "int")
    value = e.read(inst.value, "v", "float" if op == "fptosi" else "int")
    ty = inst.type
    if op in ("bitcast", "ptrtoint", "inttoptr", "sext"):
        body = [f"{out} = {value}"]
    elif op == "trunc":
        body = [
            f"_m = {value} & {ty.max_unsigned}",
            f"{out} = _m - {ty.max_unsigned + 1} if _m > {ty.max_signed} else _m",
        ]
    elif op == "zext":
        body = [f"{out} = {value} & {inst.value.type.max_unsigned}"]
    elif op == "sitofp":
        body = [f"{out} = float({value})"]
    else:
        # fptosi: nan and inf collapse to 0; anything else truncates and
        # wraps to the target width.
        e.raises = True
        body = [
            f"_a = {value}",
            "_m = 0 if (_a != _a or _a == _inf or _a == -_inf)"
            f" else int(_a) & {ty.max_unsigned}",
            f"{out} = _m - {ty.max_unsigned + 1} if _m > {ty.max_signed} else _m",
        ]
    e.head(body, (inst.value,))
    return True


def _gep(e: _Op, inst: GEPInst) -> bool:
    const_offset, dynamic, bad_type = gep_plan(inst)
    if bad_type is not None:
        # The reference's lazy fault: an error only if it executes.
        e.head([], ())
        return e.fault(f"gep into non-aggregate {bad_type}")
    operands: List[Value] = [inst.pointer]
    terms = [e.read(inst.pointer, "p", "int")]
    if const_offset:
        terms.append(str(const_offset))
    for n, (index, stride) in enumerate(dynamic):
        operands.append(index)
        term = e.read(index, f"i{n}", "int")
        if stride != 1:
            term += f" * {stride}"
        terms.append(term)
    e.head([f"{e.dest(inst)} = {' + '.join(terms)}"], operands)
    return True


def _bad_access(e: _Op, inst: Instruction, kind: str, ty: Type) -> bool:
    """A load or store of a non-scalar type: its reads and memory charge,
    then the fault."""
    operands = [inst.pointer] + ([inst.value] if kind == "store" else [])
    reads = [f"_a = {e.read(inst.pointer, 'p', 'int')}"]
    if kind == "store":
        reads.append(f"_v = {e.read(inst.value, 'v')}")
    e.head(reads, operands)
    e.line("stats.cycles += _cm")
    e.line(f"stats.{kind}s += 1")
    return e.fault(f"cannot {kind} a value of type {ty}")


def _paging(size: int, write: bool, access: List[str], slow: str) -> List[str]:
    """A paging access: MMU.translate's DTLB hit inlined for a hit on the
    set's most recent entry (one :meth:`TLB.lookup` leaves in place) —
    count what translate would, set the dirty bit on a store, and run
    ``access`` at the translated ``_a`` (the counters mirror translate's
    hit path: change both together).  Anything else takes ``slow``, the
    MMU call chain, the only path that faults, demand-pages or changes
    the TLBs."""
    need = PTE_PRESENT | PTE_WRITE if write else PTE_PRESENT
    return [
        f"_n = _a >> {PAGE_SHIFT}",
        "_s = _dts[_n % _dtn]",
        f"if (_s and (_e := _s[-1])[0] == _n and (_e := _e[1]).flags & {need}"
        f" == {need} and _a & {PAGE_SIZE - 1} <= {PAGE_SIZE - size}):",
        "    _dt.lookups += 1",
        "    _dt.hits += 1",
        "    _ms.accesses += 1",
        "    _ms.translation_cycles += _tlh",
        "    stats.cycles += _tlh",
        "    stats.translation_cycles += _tlh",
        *([f"    _e.flags |= {PTE_DIRTY}"] if write else []),
        f"    _a = _e.pfn << {PAGE_SHIFT} | _a & {PAGE_SIZE - 1}",
        *(f"    {text}" for text in access),
        "else:",
        f"    {slow}",
    ]


def _load(e: _Op, inst: LoadInst) -> bool:
    ty = inst.type
    size = size_of(ty)
    if not isinstance(ty, (IntType, FloatType, PointerType)):
        return _bad_access(e, inst, "load", ty)
    out = e.dest(inst, "float" if isinstance(ty, FloatType) else "int")
    if isinstance(ty, IntType):
        decode = [
            "_m = _ifb(_v, 'little')",
            f"{out} = _m - {ty.max_unsigned + 1} if _m > {ty.max_signed} else _m",
        ]
    elif isinstance(ty, FloatType):
        e.ns[f"_up{e.t}"] = struct.Struct("<d" if ty.bits == 64 else "<f").unpack
        decode = [f"{out} = _up{e.t}(_v)[0]"]
    else:
        decode = [f"{out} = _ifb(_v, 'little')"]
    e.head([f"_a = {e.read(inst.pointer, 'p', 'int')}"], (inst.pointer,))
    e.raises = True
    e.line("stats.cycles += _cm")
    e.line("stats.loads += 1")
    e.tier()
    e.line("if interp.heat_window is not None:")
    e.line(f"interp.heat_window[_a >> {PAGE_SHIFT}] += 1", 1)
    # CARAT: read_bytes, unrolled — bounds check (the real accessor
    # raises the exact error), bandwidth accounting, slice.  An mmap
    # slice decodes the same as the bytes copy read_bytes returns.
    access = [
        f"if _a < 0 or _a + {size} > _pms:",
        f"    _rdb(_a, {size})",
        f"_pm.bytes_read += {size}",
        f"_v = _pmd[_a:_a + {size}]",
    ]
    e.mode(
        access,
        _paging(size, False, access, f"_v = _rmem(_a, {size}, 'read')")
        if e.is_carat is False else (),
        [
            "if interp.is_carat:",
            f"    _v = interp.memory.read_bytes(_a, {size})",
            "else:",
            f"    _v = interp._read_mem(_a, {size}, 'read')",
        ],
    )
    for text in decode:
        e.line(text)
    return True


def _store(e: _Op, inst: StoreInst) -> bool:
    ty = inst.value.type
    size = size_of(ty)
    if isinstance(ty, IntType):
        v = _convert("_v", inst.value, "int", e.regs)
        encode = f"({v} & {ty.max_unsigned}).to_bytes({size}, 'little')"
    elif isinstance(ty, FloatType):
        e.ns[f"_pa{e.t}"] = struct.Struct("<d" if ty.bits == 64 else "<f").pack
        encode = f"_pa{e.t}({_convert('_v', inst.value, 'float', e.regs)})"
    elif isinstance(ty, PointerType):
        v = _convert("_v", inst.value, "int", e.regs)
        encode = f"({v} & {_MASK64}).to_bytes(8, 'little')"
    else:
        return _bad_access(e, inst, "store", ty)
    pointer, value = e.read(inst.pointer, "p", "int"), e.read(inst.value, "v")
    e.head([f"_a = {pointer}", f"_v = {value}"], (inst.pointer, inst.value))
    e.raises = True
    e.line("stats.cycles += _cm")
    e.line("stats.stores += 1")
    e.tier()
    e.line("if interp.heat_window is not None:")
    e.line(f"interp.heat_window[_a >> {PAGE_SHIFT}] += 1", 1)
    # CARAT: write_bytes, unrolled like the load's read_bytes; the
    # encoders always produce exactly ``size`` bytes, so the slice
    # assignment never resizes.
    access = [
        f"if _a < 0 or _a + {size} > _pms:",
        "    _wrb(_a, _b)",
        f"_pm.bytes_written += {size}",
        f"_pmd[_a:_a + {size}] = _b",
    ]
    e.mode(
        [f"_b = {encode}", *access],
        [f"_b = {encode}", *_paging(size, True, access, "_wmem(_a, _b)")]
        if e.is_carat is False else (),
        [
            f"_b = {encode}",
            "if interp.is_carat:",
            "    interp.memory.write_bytes(_a, _b)",
            "else:",
            "    interp._write_mem(_a, _b)",
        ],
    )
    return True


def _select(e: _Op, inst: SelectInst) -> bool:
    # Only the chosen arm is read, so each arm has its own handler: an
    # undefined value is reported only if the reference evaluates it.
    # The result's Python type is its arm's, so the register's is unknown.
    out = e.dest(inst, "")
    e.head([f"_c = {e.read(inst.condition, 'c')}"], (inst.condition,))
    arms = (("if _c:", "t", inst.true_value), ("else:", "f", inst.false_value))
    for test, sub, value in arms:
        e.line(test)
        e.reads([f"{out} = {e.read(value, sub)}"], (value,), 1, sub)
    return True


def _alloca(e: _Op, inst: AllocaInst) -> bool:
    # The size goes through ``ns``: allocas of any size share one text.
    t, count = e.t, inst.count
    stride = stride_of(inst.allocated_type)
    out = e.dest(inst)
    if isinstance(count, ConstantInt):
        e.ns[f"_z{t}"] = stride * max(0, count.value)
        e.head([], (), f"_s = _z{t}")
    else:
        e.ns[f"_z{t}"] = stride
        e.head([f"_s = _z{t} * max(0, {e.read(count, 'n', 'int')})"], (count,))
    # 16-byte aligned, growing down; on overflow sp is left untouched so
    # the kernel can grow the stack and retry the instruction.
    e.raises = True
    e.lines([
        "_a = (interp.sp - _s) & -16",
        "if _a <= interp.stack_base:",
        "    raise _pfault(_a, _s, 'stack')",
        "interp.sp = _a",
        f"{out} = _a",
    ])
    return True


def _edge(e: _Op, src: BasicBlock, dst: BasicBlock, depth: int, sub: str) -> None:
    """Enter ``dst`` from ``src``: the phi parallel copy in the reference
    order for this edge (every incoming value read, then one instruction
    charged per phi, then the slots assigned), then the block switch to
    ``dst``'s op list, which the module pre-creates."""
    t, ns = f"{e.t}{sub}", e.ns
    phis = dst.phis()
    lines = []
    if phis:
        vals = [phi.incoming_for_block(src) for phi in phis]
        e.reads(
            [f"_h{k} = {e.read(v, f'{sub}h{k}')}" for k, v in enumerate(vals)],
            vals, depth, sub,
        )
        n = len(phis)
        lines += [
            f"stats.cycles += _ci * {n}" if n > 1 else "stats.cycles += _ci",
            f"stats.instructions += {n}",
        ]
        for k, phi in enumerate(phis):
            ns[f"_d{t}h{k}"] = id(phi)
            lines.append(f"values[_d{t}h{k}] = _h{k}")
    ns[f"_s{t}"], ns[f"_b{t}"] = src, dst
    ns[f"_o{t}"] = e.code.ops_by_block[id(dst)]
    lines += [
        f"frame.prev_block = _s{t}",
        f"frame.block = _b{t}",
        f"frame.ops = _o{t}",
        f"frame.index = {len(phis)}",
    ]
    for text in lines:
        e.line(text, depth)


def _branch(e: _Op, inst: BranchInst) -> bool:
    # A trace passes the arm it continues on as ``nxt``: that edge is
    # inlined, and the other becomes a side exit — a call of the edge
    # op, after which ``_of<t>`` tells the trace to return.
    src, targets, nxt = inst.parent, inst.targets, e.nxt
    if not inst.is_conditional:
        e.head([], ())
        _edge(e, src, targets[0], 0, "t")
        return True
    e.head([f"_c = {e.read(inst.condition, 'c')}"], (inst.condition,))
    if nxt is not None and all(target is nxt for target in targets):
        # Both arms land on the trace; the condition was still read for
        # error parity, its value is moot.
        _edge(e, src, nxt, 0, "t")
        return True
    for test, sub, target in (("if _c:", "t", targets[0]), ("else:", "f", targets[1])):
        e.line(test)
        if nxt is None or target is nxt:
            _edge(e, src, target, 1, sub)
            if nxt is not None:
                e.line(f"_of{e.t} = False", 1)
        else:
            e.ns[f"_x{e.t}"] = e.code.edge_op(src, target)
            e.line(f"_x{e.t}(interp, frame)", 1)
            e.line(f"_of{e.t} = True", 1)
            e.raises = True
    return True


def _math(e: _Op, inst: CallInst) -> bool:
    # The builtin's charge order: instruction, calls, evaluate, compute
    # (a domain error yields nan), then the call cost.
    t = e.t
    e.ns[f"_fn{t}"] = _MATH_BUILTINS[inst.callee.name]
    out = e.dest(inst, "float")
    arg = e.read(inst.args[0], "a", "float")
    e.head([f"_a = {arg}"], inst.args, "stats.calls += 1")
    e.raises = True
    e.line("try:")
    e.line(f"{out} = float(_fn{t}(_a))", 1)
    e.line("except ValueError:")
    e.line(f"{out} = _nan", 1)
    e.line("stats.cycles += _cc")
    return True


def _push(e: _Op, inst: CallInst) -> bool:
    # A call of a defined function, in the reference's order: the depth
    # check between the instruction and call costs, undefined arguments
    # raising before the push.  The frame is slotted directly, field for
    # field what ``_FF(callee, interp.sp)`` constructs.
    t, callee = e.t, inst.callee
    e.ns[f"_fu{t}"], e.ns[f"_b{t}"] = callee, callee.entry
    e.ns[f"_res{t}"] = None if inst.type.is_void else inst
    e.ns[f"_o{t}"] = e.code.ops_by_block[id(callee.entry)]
    e.raises = True
    e.head([], (), "stats.calls += 1")
    e.lines([
        "if len(interp.frames) >= interp.max_call_depth:",
        "    raise _ierr(f'call depth exceeded ({interp.max_call_depth})"
        f" calling @{{_fu{t}.name}}')",
        "stats.cycles += _cc",
        "_nf = _FF.__new__(_FF)",
        f"_nf.function = _fu{t}",
        f"_nf.block = _b{t}",
        "_nf.index = 0",
        "_nv = {}",
        "_nf.values = _nv",
        "_nf.sp_on_entry = interp.sp",
        f"_nf.result_target = _res{t}",
        "_nf.prev_block = None",
        f"_nf.ops = _o{t}",
    ])
    moves = []
    for j, (formal, actual) in enumerate(zip(callee.args, inst.args)):
        e.ns[f"_d{t}a{j}"] = id(formal)
        moves.append(f"_nv[_d{t}a{j}] = {e.read(actual, f'a{j}')}")
    e.reads(moves, inst.args)
    e.line("interp.frames.append(_nf)")
    return True


def _return(e: _Op, inst: ReturnInst) -> bool:
    # With the paired call known (a trace), the popped frame is never the
    # last and the result slot is that call's; otherwise the op reads
    # ``frame.result_target`` and may end the program.
    rv, call = inst.return_value, e.paired
    e.raises = True
    e.head([] if rv is None else [f"_v = {e.read(rv, 'r')}"], (rv,))
    e.line("interp.sp = frame.sp_on_entry")
    e.line("interp.frames.pop()")
    if call is not None:
        if rv is not None and not call.type.is_void:
            e.ns[f"_d{e.t}"] = id(call)
            e.line(f"interp.frames[-1].values[_d{e.t}] = _v")
    elif rv is None:
        e.lines(["if not interp.frames:", "    raise _Exit(interp.exit_code)"])
    else:
        e.lines([
            "if not interp.frames:",
            "    if isinstance(_v, int):",
            "        interp.exit_code = _v",
            "    raise _Exit(interp.exit_code)",
            "if frame.result_target is not None:",
            "    interp.frames[-1].values[id(frame.result_target)] = _v",
        ])
    return True


def _runtime_head(e: _Op) -> None:
    """The charge, then the rest of the intrinsic only with a runtime (a
    traditional process's intrinsics are inert)."""
    e.raises = True
    e.head([], ())
    e.line("if _rt is not None:")
    e.ind += 1


def _guard(e: _Op, inst: CallInst, name: str) -> bool:
    # The generic check through the site's region-cache cell; the trace
    # tier specializes its own unless it cannot bake the parameters.
    t, args = e.t, inst.args
    e.ns[f"_q{t}"] = e.code.guard_site_of[id(inst)]
    reads = [f"_s = {e.read(args[0 if name == GUARD_CALL else 1], 's', 'int')}"]
    if name == GUARD_CALL:
        check = "guard_call(interp.sp, _s"
    else:
        reads.insert(0, f"_a = {e.read(args[0], 'a', 'int')}")
        if name != GUARD_RANGE:
            access = "'read'" if name == GUARD_LOAD else "'write'"
            check = f"guard_access(_a, _s, {access}"
        elif len(args) > 2:
            reads.append(f"_c = 'write' if {e.read(args[2], 'f', 'int')} else 'read'")
            check = "guard_range(_a, _s, _c"
        else:
            check = "guard_range(_a, _s, 'read'"
    _runtime_head(e)
    e.reads(reads, args[: len(reads)])
    e.lines([
        f"_gc = _rt.{check}, _cells[_q{t}])",
        "stats.guard_cycles += _gc",
        "stats.cycles += _gc",
    ])
    return True


#: Each tracking intrinsic's runtime callback.
_TRACK_CALLS = {
    TRACK_ALLOC: "on_alloc(_a, _b, 'heap')",
    TRACK_FREE: "on_free(_a)",
    TRACK_ESCAPE: "on_escape(_a)",
}


def _intrinsic(e: _Op, inst: CallInst, name: str) -> bool:
    # No ``calls`` counter and no call cost: only the tracking cycles the
    # runtime reports.
    args = inst.args
    call = _TRACK_CALLS.get(name)
    _runtime_head(e)
    if call is None:
        e.reads([f"_a = {e.read(a, f'a{j}')}" for j, a in enumerate(args)], args)
        return e.fault(f"unknown CARAT intrinsic {name!r}")
    used = args[: 2 if name == TRACK_ALLOC else 1]
    e.reads([f"_{v} = {e.read(a, v, 'int')}" for v, a in zip("ab", used)], used)
    e.lines([
        "_x = _rt.stats",
        "_g = _x.guard_cycles + _x.tracking_cycles",
        f"_rt.{call}",
        "_g = _x.guard_cycles + _x.tracking_cycles - _g",
        "stats.tracking_cycles += _g",
        "stats.cycles += _g",
    ])
    return True


_GUARDS = (GUARD_LOAD, GUARD_STORE, GUARD_CALL, GUARD_RANGE)


def guard_name(inst: Instruction) -> Optional[str]:
    """The ``carat.guard.*`` intrinsic ``inst`` calls, if any."""
    if isinstance(inst, CallInst) and isinstance(inst.callee, Function):
        if inst.callee.name in _GUARDS:
            return inst.callee.name
    return None


def _call(e: _Op, inst: CallInst) -> bool:
    # A builtin (frame or runtime work of its own) or an indirect call has
    # no template.
    callee = inst.callee
    if is_math_call(inst):
        return _math(e, inst)
    if not isinstance(callee, Function):
        return False
    if callee.name in _GUARDS:
        return _guard(e, inst, callee.name)
    if callee.name.startswith("carat."):
        return _intrinsic(e, inst, callee.name)
    return not callee.is_declaration and _push(e, inst)


_EMITTERS = {
    BinaryInst: _binary,
    ICmpInst: _icmp,
    FCmpInst: _fcmp,
    CastInst: _cast,
    GEPInst: _gep,
    LoadInst: _load,
    StoreInst: _store,
    SelectInst: _select,
    AllocaInst: _alloca,
    CallInst: _call,
    BranchInst: _branch,
    ReturnInst: _return,
}


def emit_op(
    w: Writer,
    ind: int,
    inst: Instruction,
    t: int,
    ns: Dict[str, object],
    is_carat: Optional[bool] = None,
    has_tier: Optional[bool] = None,
    defined: Optional[Set[int]] = None,
    regs: Optional[Regs] = None,
    code=None,
    nxt: Optional[BasicBlock] = None,
    paired: Optional[CallInst] = None,
) -> Optional[bool]:
    """Write ``inst``'s body into ``w`` at indent ``ind`` and return
    whether it can raise or call out; or write nothing and return
    ``None`` for a form with no template (a builtin call, and the
    one-line faults: phi, unreachable, indirect call, unknown opcode).
    ``t`` makes the body's ``ns`` names unique within one scope;
    ``is_carat``/``has_tier``/``nxt``/``paired`` are the facts above;
    ``defined`` is passed to :func:`operand_reads`; a trace segment's
    register map ``regs`` gains the result's register (see
    :func:`expr`); ``code`` is the module's compiled form (see
    :class:`_Op`), which control forms and guards need."""
    emitter = _EMITTERS.get(type(inst))
    if emitter is None:
        return None
    op = _Op(w, ind, t, ns, is_carat, has_tier, defined, regs, code, nxt, paired)
    if not emitter(op, inst):
        return None
    if op.out is not None:
        regs[id(inst)] = op.out
    return op.raises


def emit_edge(w: Writer, ind: int, src: BasicBlock, dst: BasicBlock, ns, code) -> None:
    """The edge ``src`` -> ``dst`` of a branch op alone (tag 0), the op a
    trace's side exit calls."""
    _edge(_Op(w, ind, 0, ns, code=code), src, dst, 0, "t")
