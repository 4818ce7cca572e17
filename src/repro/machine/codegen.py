"""One code template per instruction form, shared by both tiers.

The block tier (:mod:`repro.machine.fastexec`) compiles each
straight-line segment of a block into one op (the fast engine) or every
instruction into its own op (the trace engine's block tier); the trace
tier (:mod:`repro.machine.tracejit`) inlines a whole superblock into one
closure.  Both must charge the cost model in the reference engine's
order and compute its exact results, so every instruction form has
exactly one emitter here: the value forms — integer and float binary
ops (division, remainder, shifts and ``frem`` included), ``icmp``,
``fcmp``, the casts, GEPs, loads, stores, ``select``, ``alloca``, the
pure unary math builtins and the heap builtins (``malloc``, ``calloc``,
``realloc``, ``free``) — and the control forms: branch edges with
their phi parallel copy, conditional and unconditional branches, calls
of defined functions (the frame push with its argument moves),
returns, the ``carat.guard.*`` checks (specialized: see :func:`_guard`),
the tracking intrinsics, and the lazy fault forms (a GEP through a
non-aggregate, a load or store of a non-scalar type).  :func:`emit_op` writes the op's body
lines into a :class:`Writer` at a given indent: the base charge, the
operand reads whose ``KeyError`` reaches :func:`_raise_undefined`, the
wrap arithmetic, and the fault messages — minus, in a trace, the static
charges its segment settles at once (see :data:`SETTLED`).  Only the I/O builtins
(``print_*``, ``abort``, unknown externals) and the one-line faults
(phi, unreachable, indirect call, unknown opcode) have no template; the
block tier keeps them as closures of their own, which the trace tier
calls.

The lines read a fixed vocabulary: ``interp``, ``frame``, ``values``,
``stats`` and ``_hw`` (the interpreter's heat window, which the trace
tier keeps in a local); the per-interpreter names of :data:`BINDINGS`,
:data:`GUARD_BINDINGS` and :data:`PAGING_BINDINGS`; the constants of
:data:`GLOBALS`; and ``_FF``, the block tier's frame class, and
``_respec``, the tier's :func:`respecialize`.  The trace tier inlines them into
a superblock whose instantiation binds every name once.  The block tier
wraps one body, or a segment's bodies, in a ``def`` behind a prologue
that binds the names the text reads, by whole identifier, and shares
one compiled stencil among all ops of identical text.
So what identifies one op — its operand and destination slots,
constants, global names, blocks and guard site — goes into ``ns`` under
names tagged by ``t``, never into the text.

An emitter branches only on the instruction and on facts its caller
knows, each a bool or a name and never a run-time test: the addressing
mode (``is_carat``), whether the kernel has a fast/slow tier boundary
(``has_tier``) and the guard mechanism whose hits a guard site settles
itself (``mech``; ``""`` when guards never specialize).  Both tiers know
all three: the block tier compiles one copy of a module per set of them
(see :func:`~repro.machine.fastexec.compile_module`).  In a trace the
emitter also knows the block a branch continues into (``nxt``: the
other arm becomes a side exit) and the call whose frame a return pops
(``paired``: without it the return reads ``frame.result_target`` and
keeps the program-exit arm).  The trace tier passes a segment's register
map (:data:`Regs`; see :func:`expr`), which also marks an emission as a
trace's, and each guard's specialization cell (see :func:`_guard`),
which the block tier never does.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
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

#: A trace segment's register map: SSA id -> the Python local holding
#: the value the segment computed.
Regs = Dict[int, str]
#: The Python type every engine gives a value of each scalar IR type: a
#: frame slot, a global address and a scalar constant (``undef``
#: included) all hold exactly this type (the typed-slot invariant).
_PY_TYPES = {IntType: "int", PointerType: "int", FloatType: "float"}

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


def _unclocked(stats, later: int, check, *args):
    """``check(*args)``, a guard's runtime check inside a settled trace
    segment, with the clock as the reference has it there: less
    ``later``, the later ops' static charges the segment already made
    (a fault stamps its telemetry with the clock)."""
    stats.cycles -= later
    try:
        return check(*args)
    finally:
        stats.cycles += later


#: Module-level names every emitted body may read.
GLOBALS: Dict[str, object] = {
    "_raise_undefined": _raise_undefined,
    "_unclocked": _unclocked,
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
#: reference always sees the current global addresses.  Only tiered
#: accesses read ``_tb``/``_cft``/``_cst``.  ``_pm``/``_pmd``/``_pms``
#: give CARAT loads and stores (and paging ones past a trace's inline
#: translation) raw physical-memory access: the backing buffer is
#: allocated once per kernel and never reassigned, and the out-of-range
#: path calls the real accessor on ``_pm`` for its exact error.
BINDINGS: Dict[str, str] = {
    "_ci": "_cost_instruction",
    "_cm": "_cost_memory",
    "_cc": "_cost_call",
    "_gm": "process.globals_map",
    "_cells": "_guard_cells",
    "_rt": "process.runtime",
    "_hp": "process.heap",
    "_tb": "_tier_boundary",
    "_cft": "costs.fast_tier_access",
    "_cst": "costs.slow_tier_access",
    "_pm": "memory",
    "_pmd": "memory._data",
    "_pms": "memory.size",
}
#: Names only guard sites read: the runtime's parts (``None`` without a
#: runtime, whose guards never run), by attribute on the runtime.  The
#: window list is never reassigned, so a bound one sees every window.
#: The block tier's guards also read ``_specs``, its spec cells.
GUARD_BINDINGS: Dict[str, str] = {
    "_rs": "stats",
    "_regions": "regions",
    "_windows": "_move_windows",
    "_mech": "guard",
}
#: Names only paging loads and stores read (see :func:`_paging`).
PAGING_BINDINGS: Dict[str, str] = {
    "_dts": "process.mmu.dtlb.sets",
    "_dtn": "process.mmu.dtlb.num_sets",
    "_dt": "process.mmu.dtlb.stats",
    "_ms": "process.mmu.stats",
    "_tlh": "process.mmu.costs.tlb_hit",
}
_GETTERS = {name: attrgetter(path) for name, path in BINDINGS.items()}
_PAGING_GETTERS = {**_GETTERS, **{n: attrgetter(p) for n, p in PAGING_BINDINGS.items()}}


def bind(interp) -> Dict[str, object]:
    """Every binding name, resolved against ``interp`` (paging: with an MMU)."""
    getters = _GETTERS if interp.process.mmu is None else _PAGING_GETTERS
    rt = interp.process.runtime
    scope = {name: get(interp) for name, get in getters.items()}
    scope.update((name, rt and getattr(rt, a)) for name, a in GUARD_BINDINGS.items())
    return scope


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
    A float-typed ``undef`` reads as ``0.0``, as in the reference.

    ``regs`` is a trace segment's register map (``None`` in the block
    tier): a value in it reads as its local.  ``conv`` (``"int"`` or
    ``"float"``) is the Python type the template needs (see
    :func:`_convert`)."""
    if regs is not None and id(value) in regs:
        text = regs[id(value)]
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
        ns[f"_c{tag}"] = 0.0 if isinstance(value.type, FloatType) else 0
        text = f"_c{tag}"
    else:
        ns[f"_g{tag}"] = reject(value)
        text = f"_g{tag}(interp, values)"
    return _convert(text, value, conv)


def _convert(text: str, value: Value, conv: str) -> str:
    """``text``, a read of ``value``, wrapped in ``conv`` only where the
    Python type of ``value``'s IR type differs from it.  Both compiled
    tiers keep every frame slot at the Python type of its IR type (a
    template's result, a load's decode, a phi's or argument's copy of a
    typed read), so a slot, global or constant read of the right IR type
    is already a ``conv``; only a cross-type read (``bitcast`` of a
    float, say) and an aggregate keep the wrapper."""
    if conv and _PY_TYPES.get(type(value.type)) != conv:
        return f"{conv}({text})"
    return text


def operand_reads(
    w: Writer, ind: int, reads: Sequence[str], operands: Sequence[Value], t: int,
    ns, defined: Optional[Set[int]] = None, undo: Sequence[str] = (),
) -> bool:
    """Write the operand-reading lines ``reads`` at ``ind`` inside a
    ``try:`` whose KeyError runs ``undo`` and takes the undefined-value
    path, and return True — or bare, returning False, when every operand
    is a scalar constant or a slot in ``defined``, the ids the caller
    knows were written earlier in the same frame (so the read cannot
    miss)."""
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
    for text in undo:
        w.line(ind + 1, text)
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


#: The heap builtins: name -> (arity, the body after the argument reads
#: ``_a``/``_b``, leaving any result in ``_m``).  The heap op runs on the
#: process heap ``_hp``; calloc and realloc move bytes through the
#: interpreter's own accessors, in either addressing mode.
_HEAP_BUILTINS: Dict[str, Tuple[int, List[str]]] = {
    "malloc": (1, ["_m = _hp.malloc(_a)"]),
    "calloc": (2, [
        "_t = _a * _b",
        "_m = _hp.malloc(max(1, _t))",
        "interp._memset(_m, 0, _t)",
    ]),
    "realloc": (2, [
        "_m = _hp.malloc(max(1, _b))",
        "if _a:",
        "    _n = min(_hp.size_of(_a) or 0, _b)",
        "    interp._write_mem(_m, interp._read_mem(_a, _n, 'read'))",
        "    _hp.free(_a)",
    ]),
    "free": (1, ["if _a:", "    _hp.free(_a)"]),
}


def builtin_template(inst: Instruction) -> Optional[str]:
    """The builtin a call runs through a template — a pure unary math
    function or a heap call of the right shape — or ``None``.  These
    calls run no runtime code, so they read no clock and write no frame
    slot but their result's."""
    if not isinstance(inst, CallInst):
        return None
    callee = inst.callee
    if not isinstance(callee, Function) or not callee.is_declaration:
        return None
    name, void = callee.name, inst.type.is_void
    if name in _MATH_BUILTINS:
        return name if len(inst.args) == 1 and not void else None
    if name in _HEAP_BUILTINS:
        shaped = len(inst.args) == _HEAP_BUILTINS[name][0]
        return name if shaped and (name == "free" or not void) else None
    return None


#: A settlement row: the static charges an op leaves to its trace
#: segment's single settlement — base charges (``_ci``), memory charges
#: (``_cm``), loads, stores, bytes read and bytes written.
SETTLED = ("ci", "cm", "loads", "stores", "read", "written")


class _Op:
    """One emission: the writer, indent, name tag, facts in effect, the
    slots known to be defined (see :func:`operand_reads`), the trace
    segment's register map ``regs`` (see :func:`expr`), ``code``, the
    module's compiled form (its guard sites ``guard_site_of`` and
    side-exit ``edge_op`` maker), and ``lists``, the block op lists the
    edges, side exits and calls bind.
    ``settle`` is the op's settlement row (see :data:`SETTLED`) in a
    trace segment, which charges once at its top, else ``None``; with
    ``clock`` set, foreign code in the segment may read the cycle clock,
    so the op's cycles stay in place and only its counts settle.
    ``undo`` are lines the undefined-value handler runs first.  ``out`` is the
    register the result lands in, ``raises`` whether the op can raise
    or call out."""

    __slots__ = (
        "w", "ind", "t", "ns", "is_carat", "has_tier", "mech", "defined",
        "regs", "code", "lists", "nxt", "paired", "spec", "settle", "clock",
        "undo", "out", "raises",
    )

    def __init__(
        self, w, ind, t, ns, is_carat, has_tier, mech,
        defined=None, regs=None, code=None, nxt=None, paired=None, spec=None,
        settle=None, clock=False, lists=None,
    ) -> None:
        self.w = w
        self.ind = ind
        self.t = t
        self.ns = ns
        self.is_carat = is_carat
        self.has_tier = has_tier
        self.mech = mech
        self.defined = defined
        self.regs = regs
        self.code = code
        self.lists = lists
        self.nxt = nxt
        self.paired = paired
        self.spec = spec
        self.settle = settle
        self.clock = clock
        self.undo = ()
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
                self.ns, self.defined, self.undo,
            )

    def head(self, reads: Sequence[str], operands: Sequence[Value], *pre: str) -> None:
        """The base charge, then ``reads`` under the undefined-value
        handler.  Every template opens this way, so the charge precedes
        anything that can raise — which lets a trace segment settle it
        at its top instead."""
        if self.settle is None or self.clock:
            self.line("stats.cycles += _ci")
        else:
            self.settle[0] += 1
        for text in pre:
            self.line(text)
        self.reads(reads, operands)

    def fault(self, message: str) -> bool:
        """Raise ``message`` (through ``ns``: it names the instruction)."""
        self.ns[f"_msg{self.t}"] = message
        self.line(f"raise _ierr(_msg{self.t})")
        self.raises = True
        return True

    def dest(self, inst: Instruction) -> str:
        """The result slot, named through ``ns`` like every operand, so
        the text of an op depends on its shape alone.  In a trace the
        store writes through to the register ``_r<t>`` too."""
        self.ns[f"_d{self.t}"] = id(inst)
        if self.regs is None:
            return f"values[_d{self.t}]"
        self.out = f"_r{self.t}"
        return f"values[_d{self.t}] = _r{self.t}"

    def wrap(self, out: str, ty: IntType) -> None:
        """Store ``_m`` re-signed to ``ty`` (IntType.wrap, inlined)."""
        self.line(f"{out} = _m - {ty.max_unsigned + 1} if _m > {ty.max_signed} else _m")

    def counted(self, kind: str, size: int) -> Tuple[List[str], List[str]]:
        """A load's or store's charge lines (``kind`` is ``loads`` or
        ``stores``): the memory charge and count, which the reference
        makes once the operands are read, and the byte count of the
        inline physical access.  Called before the head: in a trace
        segment the op adds what settles to its row instead and takes it
        back on an undefined operand (the segment reconciler takes back a
        faulting access's bytes).  Paging bytes and the memory charge
        while the segment's ``clock`` is read keep their lines."""
        count = [f"_pm.bytes_{'read' if kind == 'loads' else 'written'} += {size}"]
        if self.settle is None:
            return ["stats.cycles += _cm", f"stats.{kind} += 1"], count
        row, charge, undo = self.settle, [], [f"stats.{kind} -= 1"]
        if self.clock:
            charge.append("stats.cycles += _cm")
        else:
            row[1] += 1
            undo.append("stats.cycles -= _cm")
        row[2 if kind == "loads" else 3] += 1
        self.undo = tuple(undo)
        if not self.is_carat:
            return charge, count
        row[4 if kind == "loads" else 5] += size
        return charge, []

    def access(self, size: int, write: bool, carat: List[str], slow: str) -> None:
        """The memory access at ``_a`` in the addressing mode: ``carat``,
        the raw physical access; or paging's ``slow`` accessor call, behind
        a trace's inline DTLB probe (see :func:`_paging`).  The block tier
        calls the accessor directly, so its prologue binds no MMU names
        (on paper-tiny the probe there read slower set-up and medians)."""
        if self.is_carat:
            self.lines(carat)
        elif self.regs is not None:
            self.lines(_paging(size, write, carat, slow))
        else:
            self.line(slow)

    def tier(self) -> None:
        """Tier-cost accounting for the access at ``_a`` on a tiered
        kernel: Interpreter._charge_tier inlined (adding a possibly-zero
        cost unconditionally is value-identical to its ``if extra:``
        test)."""
        if self.has_tier:
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
            e.head([], ())
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
    out = e.dest(inst)
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
    out = e.dest(inst)
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
        # Through a local, so no slot read sits inside a conversion.
        body = [f"_m = {value}", f"{out} = float(_m)"]
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
    """A load or store of a non-scalar type, in the reference's order:
    its reads, memory charge and count, tier charge and heat bump; then
    a load reads (under paging: translates) its bytes before the type
    faults, while a store faults before it encodes anything."""
    operands = [inst.pointer] + ([inst.value] if kind == "store" else [])
    reads = [f"_a = {e.read(inst.pointer, 'p', 'int')}"]
    if kind == "store":
        reads.append(f"_v = {e.read(inst.value, 'v')}")
    e.head(reads, operands)
    e.line("stats.cycles += _cm")
    e.line(f"stats.{kind}s += 1")
    e.tier()
    e.line("if _hw is not None:")
    e.line(f"_hw[_a >> {PAGE_SHIFT}] += 1", 1)
    if kind == "load":
        e.line(f"interp._read_mem(_a, {size_of(ty)}, 'read')")
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
    out = e.dest(inst)
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
    charge, count = e.counted("loads", size)
    e.head([f"_a = {e.read(inst.pointer, 'p', 'int')}"], (inst.pointer,))
    e.lines(charge)
    e.raises = True
    e.tier()
    e.line("if _hw is not None:")
    e.line(f"_hw[_a >> {PAGE_SHIFT}] += 1", 1)
    # CARAT: read_bytes, unrolled — bounds check (the real accessor
    # raises the exact error), bandwidth accounting, slice.  An mmap
    # slice decodes the same as the bytes copy read_bytes returns.
    e.access(size, False, [
        f"if _a < 0 or _a + {size} > _pms:",
        f"    _pm.read_bytes(_a, {size})",
        *count,
        f"_v = _pmd[_a:_a + {size}]",
    ], f"_v = interp._read_mem(_a, {size}, 'read')")
    for text in decode:
        e.line(text)
    return True


def _store(e: _Op, inst: StoreInst) -> bool:
    ty = inst.value.type
    size = size_of(ty)
    if isinstance(ty, IntType):
        v = _convert("_v", inst.value, "int")
        encode = f"({v} & {ty.max_unsigned}).to_bytes({size}, 'little')"
    elif isinstance(ty, FloatType):
        e.ns[f"_pa{e.t}"] = struct.Struct("<d" if ty.bits == 64 else "<f").pack
        encode = f"_pa{e.t}({_convert('_v', inst.value, 'float')})"
    elif isinstance(ty, PointerType):
        v = _convert("_v", inst.value, "int")
        encode = f"({v} & {_MASK64}).to_bytes(8, 'little')"
    else:
        return _bad_access(e, inst, "store", ty)
    pointer, value = e.read(inst.pointer, "p", "int"), e.read(inst.value, "v")
    charge, count = e.counted("stores", size)
    e.head([f"_a = {pointer}", f"_v = {value}"], (inst.pointer, inst.value))
    e.lines(charge)
    e.raises = True
    e.tier()
    e.line("if _hw is not None:")
    e.line(f"_hw[_a >> {PAGE_SHIFT}] += 1", 1)
    # CARAT: write_bytes, unrolled like the load's read_bytes; the
    # encoders always produce exactly ``size`` bytes, so the slice
    # assignment never resizes.
    e.line(f"_b = {encode}")
    e.access(size, True, [
        f"if _a < 0 or _a + {size} > _pms:",
        "    _pm.write_bytes(_a, _b)",
        *count,
        f"_pmd[_a:_a + {size}] = _b",
    ], "interp._write_mem(_a, _b)")
    return True


def _select(e: _Op, inst: SelectInst) -> bool:
    # Only the chosen arm is read, so each arm has its own handler: an
    # undefined value is reported only if the reference evaluates it.
    out = e.dest(inst)
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
    ns[f"_o{t}"] = e.lists[id(dst)]
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
    # op, after which ``_stop`` tells the trace to return.
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
        else:
            # The side exit trips the trace's safepoint test (see
            # tracejit._build_trace).
            e.ns[f"_x{e.t}"] = e.code.edge_op(src, target, e.lists)
            e.line(f"_x{e.t}(interp, frame)", 1)
            e.line("_stop = -1", 1)
            e.raises = True
    return True


def _math(e: _Op, inst: CallInst) -> bool:
    # The builtin's charge order: instruction, calls, evaluate, compute
    # (a domain error yields nan), then the call cost.
    t = e.t
    e.ns[f"_fn{t}"] = _MATH_BUILTINS[inst.callee.name]
    out = e.dest(inst)
    arg = e.read(inst.args[0], "a", "float")
    e.head([f"_a = {arg}"], inst.args, "stats.calls += 1")
    e.raises = True
    e.line("try:")
    e.line(f"{out} = float(_fn{t}(_a))", 1)
    e.line("except ValueError:")
    e.line(f"{out} = _nan", 1)
    e.line("stats.cycles += _cc")
    return True


def _heap(e: _Op, inst: CallInst, name: str) -> bool:
    # The builtin's charge order, as _math's: instruction, calls, every
    # argument evaluated, the heap op, the result, then the call cost.
    args = inst.args
    reads = [f"_{v} = {e.read(a, v, 'int')}" for v, a in zip("ab", args)]
    e.head(reads, args, "stats.calls += 1")
    e.raises = True
    e.lines(_HEAP_BUILTINS[name][1])
    if name != "free":
        e.line(f"{e.dest(inst)} = _m")
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
    e.ns[f"_o{t}"] = e.lists[id(callee.entry)]
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


#: Guard mechanisms whose hit costs a specialized check can bake (see
#: :meth:`~repro.runtime.regions.GuardMechanism.steady_cycles`).
SPECIALIZABLE = frozenset({"mpx", "binary_search", "if_tree"})


def specializes(interp) -> bool:
    """Whether ``interp``'s guard sites may run specialized checks: the
    region cache is on, the mechanism has baked costs, and nothing needs
    every check to reach the runtime — a fine tracer (one instant per
    check), safety mode (the liveness scan) or a profiler (its per-site
    attribution wraps the runtime's guard calls)."""
    rt = interp.process.runtime
    return (
        rt is not None
        and rt.region_cache_enabled
        and rt.guard.name in SPECIALIZABLE
        and not (rt.tracer is not None and rt.tracer.fine)
        and rt.safety is None
        and interp.profiler is None
    )


class SpecCell:
    """One specialized guard site: the resolved check's baked parameters.

    ``gen`` is the region generation the parameters were derived under;
    ``-1`` means "not specialized": it never equals a real
    ``RegionSet.version`` (which starts at 0 and only grows), so the site
    takes the runtime path until it re-specializes.  ``costs`` pairs the
    charge of a hit whose mechanism predictor state misses ``region``
    (:meth:`~repro.runtime.regions.GuardMechanism.miss_cycles`) with the
    steady one; ``base`` is also if-tree's leaf for ``region``.
    """

    __slots__ = ("gen", "base", "end", "costs", "region", "access")

    def __init__(self) -> None:
        self.gen = -1
        self.base = 0
        self.end = 0
        self.costs = (0, 0)
        self.region = None
        self.access = "read"


def respecialize(spec: SpecCell, cell, interp, access: str) -> bool:
    """Re-derive a site's baked parameters after a generation bump and
    return whether it is specialized now.

    Called right after an *allowed* pass through the runtime, which
    filled the site's :class:`~repro.runtime.runtime.GuardSiteCell` with
    the serving region under the current generation.  The predicate
    (:func:`specializes`) is read here, not at compile time, because ops
    outlive the attachment of a profiler, tracer or safety checker.  Any
    doubt — predicate off, stale cell, foreign RegionSet, permission
    mismatch — leaves the site unspecialized, which costs speed only."""
    spec.gen = -1
    if not specializes(interp):
        return False
    rt = interp.process.runtime
    regions, mech, region = rt.regions, rt.guard, cell.region
    if (
        region is None
        or cell.regions is not regions
        or cell.gen != regions.version
        or not region.allows(access)
    ):
        return False
    spec.region = region
    spec.base = region.base
    spec.end = region.end
    spec.costs = (mech.miss_cycles(regions), mech.steady_cycles(regions))
    spec.access = access
    spec.gen = cell.gen
    return True


#: A specialized hit's charge for each mechanism, after what
#: ``check_known`` writes of its predictor state: MPX's bounds register
#: and if-tree's last leaf select between the site's ``costs``.
_HIT_CHARGE = {
    "mpx": [
        "_gc = _sc.costs[_mech._bound is _sc.region]",
        "_mech._bound = _sc.region",
    ],
    "if_tree": [
        "_gc = _sc.costs[_mech.stride_hint or _mech._last_leaf == _sc.base]",
        "_mech._last_leaf = _sc.base",
    ],
    "binary_search": ["_gc = _sc.costs[1]"],
}


@lru_cache(maxsize=None)
def _guard_hit(mech: str, ind: int) -> Tuple[str, ...]:
    """The lines, at indent ``ind``, of an allowed access the site's cell
    settles: exactly what the runtime path would charge and write
    (``guards_executed``, ``guard_cycles`` on both stats objects, the
    mechanism's predictor state), minus the call, plus the
    engine-descriptive ``guard_checks_elided``."""
    body = _HIT_CHARGE[mech] + [
        "_rs.guards_executed += 1",
        "_rs.guard_cycles += _gc",
        "stats.guard_cycles += _gc",
        "stats.cycles += _gc",
        "stats.guard_checks_elided += 1",
    ]
    return tuple("    " * ind + text for text in body)


def _guard(e: _Op, inst: CallInst, name: str) -> bool:
    # The runtime check through the site's region-cache cell, behind a
    # specialized check against the site's spec cell.  ``mech`` "" (no
    # runtime, a mechanism without baked costs, or a trace that does not
    # specialize) leaves the runtime check alone.
    # The block tier's cell is ``_specs[site]``; a trace passes ``spec``:
    # its cell's name, whether the hit skips the operands (a covering
    # guard ran on the same address this iteration) and whether the cell
    # is the site's own, which it re-specializes.
    t, args = e.t, inst.args
    e.ns[f"_q{t}"] = e.code.guard_site_of[id(inst)]
    size = args[0 if name == GUARD_CALL else 1]
    reads = [f"_s = {e.read(size, 's', 'int')}"]
    if name == GUARD_CALL:
        access, call = "'write'", "guard_call(interp.sp, _s"
    else:
        reads.insert(0, f"_a = {e.read(args[0], 'a', 'int')}")
        if name != GUARD_RANGE:
            access = "'read'" if name == GUARD_LOAD else "'write'"
        elif len(args) > 2 and not isinstance(args[2], ConstantInt):
            reads.append(f"_c = 'write' if {e.read(args[2], 'f', 'int')} else 'read'")
            access = "_c"
        else:
            access = "'write'" if len(args) > 2 and args[2].value else "'read'"
        check = "guard_range" if name == GUARD_RANGE else "guard_access"
        call = f"{check}(_a, _s, {access}"
    operands = args[: len(reads)]
    runtime = [
        f"_gc = _rt.{call}, _cells[_q{t}])",
        "stats.guard_cycles += _gc",
        "stats.cycles += _gc",
    ]
    if not e.mech:
        _runtime_head(e)
        e.reads(reads, operands)
        e.lines(runtime)
        return True
    if e.settle is not None and not e.clock:
        # In a settled trace segment the clock already holds the later
        # ops' static charges (``_l<t>``, bound by the trace), which the
        # runtime must not see.
        e.ns[f"_l{t}"] = 0
        method, _, rest = call.partition("(")
        runtime[0] = (
            f"_gc = _unclocked(stats, _l{t}, _rt.{method}, {rest}, _cells[_q{t}])"
        )
    e.raises = True
    e.head([], ())
    cell, elide, own = e.spec or (f"_specs[_q{t}]", False, True)
    if name == GUARD_CALL:
        reads.append("_a = interp.sp - _s")
    test = "_sc.gen == _regions.version and not _windows"
    sized = isinstance(size, ConstantInt) and size.value > 0
    if not elide:
        e.reads(reads, operands)
        # A non-positive size never hits: MPX's bounds register can
        # cover an empty access at a neighbouring region's end.
        if not sized:
            test = f"0 < _s and {test}"
        if access == "_c":
            test += " and _c == _sc.access"
        test += " and _sc.base <= _a and _a + _s <= _sc.end"
    e.line(f"_sc = {cell}")
    e.line(f"if {test}:")
    e.w.lines.extend(_guard_hit(e.mech, e.ind + 1))
    e.line("else:")
    if elide:
        e.reads(reads, operands, 1)
    e.lines(f"    {text}" for text in runtime)
    if own:
        e.line(f"if {'' if sized else '0 < _s and '}_sc.gen != _regions.version:", 1)
        e.line(f"_respec(_sc, _cells[_q{t}], interp, {access})", 2)
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


def pushes_frame(inst: Instruction) -> bool:
    """Whether ``inst`` calls a defined function: its op pushes a frame."""
    if not isinstance(inst, CallInst):
        return False
    callee = inst.callee
    return (
        isinstance(callee, Function)
        and not callee.is_declaration
        and not callee.name.startswith("carat.")
    )


def _call(e: _Op, inst: CallInst) -> bool:
    # An I/O builtin or an indirect call has no template.
    callee = inst.callee
    builtin = builtin_template(inst)
    if builtin in _HEAP_BUILTINS:
        return _heap(e, inst, builtin)
    if builtin is not None:
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
    is_carat: bool,
    has_tier: bool,
    mech: str,
    defined: Optional[Set[int]] = None,
    regs: Optional[Regs] = None,
    code=None,
    nxt: Optional[BasicBlock] = None,
    paired: Optional[CallInst] = None,
    spec: Optional[Tuple[str, bool, bool]] = None,
    settle: Optional[List[int]] = None,
    clock: bool = False,
    lists: Optional[Dict[int, list]] = None,
) -> Optional[bool]:
    """Write ``inst``'s body into ``w`` at indent ``ind`` and return
    whether it can raise or call out; or write nothing and return
    ``None`` for a form with no template (an I/O builtin call, and the
    one-line faults: phi, unreachable, indirect call, unknown opcode).
    ``t`` makes the body's ``ns`` names unique within one scope;
    ``is_carat``/``has_tier``/``mech``/``nxt``/``paired`` are the facts
    above; ``defined`` is passed to :func:`operand_reads`; a trace
    segment's register map ``regs`` gains the result's register (see
    :func:`expr`); ``code`` is the module's compiled form (see
    :class:`_Op`), which control forms and guards need; ``spec`` is a
    trace guard's specialization (see :func:`_guard`); ``settle`` is the
    op's settlement row in a trace segment and ``clock`` whether its
    cycles stay in place; ``lists`` are the op lists its edges and calls
    bind (see :class:`_Op`)."""
    emitter = _EMITTERS.get(type(inst))
    if emitter is None:
        return None
    op = _Op(
        w, ind, t, ns, is_carat, has_tier, mech, defined, regs, code, nxt,
        paired, spec, settle, clock, lists,
    )
    if not emitter(op, inst):
        return None
    if op.out is not None:
        regs[id(inst)] = op.out
    return op.raises


def emit_edge(
    w: Writer, ind: int, src: BasicBlock, dst: BasicBlock, ns, code, lists,
) -> None:
    """The edge ``src`` -> ``dst`` of a branch op alone (tag 0), into
    ``lists``: the op a trace's side exit calls."""
    _edge(_Op(w, ind, 0, ns, *code.facts, code=code, lists=lists), src, dst, 0, "t")
