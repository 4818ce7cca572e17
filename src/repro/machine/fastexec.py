"""The fast execution engine: pre-compiled instruction dispatch.

The reference :class:`~repro.machine.interp.Interpreter` re-discovers
everything about an instruction on every tick: an isinstance chain picks
the opcode, ``_eval`` re-classifies each operand, and every guard walks
``RegionSet.find``.  This module removes that per-tick work without
changing a single observable number:

* each :class:`~repro.ir.module.BasicBlock` is compiled **once** into a
  list of per-instruction closures ("ops") with operands resolved at
  compile time — constants are captured, SSA values become direct
  ``frame.values`` slot reads, branch edges carry their phi parallel-copy
  pre-staged, and the opcode is dispatched by *which closure was built*,
  not by isinstance at run time.  Every value form (arithmetic,
  compares, casts, GEPs, loads/stores, unary math builtins) is the one
  source template of :mod:`repro.machine.codegen` — the lines the trace
  tier inlines — so operand reads, wrap arithmetic and NaN checks are
  inline in the op itself.  Ops are built by copy-and-patch from a
  process-wide *stencil library* keyed by the op's text: everything that
  identifies one op (operand and destination slots, constants, its
  guard site) is a name, so every op of one shape shares one stencil,
  compiled once, and the op is that stencil applied to its operands;
  guards are generated the same way, while control flow, calls and the
  rare fault forms stay ordinary closures;
* the compiled form is cached on the module (``Module.metadata``) and
  shared by every subsequent run of the same binary;
* every ``carat.guard.*`` call site gets a numbered
  :class:`~repro.runtime.runtime.GuardSiteCell` so the runtime's
  epoch-invalidated region cache can memoize the last region *per site*
  (cells live on the interpreter, never in the shared compiled code —
  a cached region is only trusted while the RegionSet identity **and**
  generation still match).

Parity is a hard contract, enforced by the differential tests: the fast
engine must produce bit-identical program output, memory, and exit codes
*and* semantically identical stats.  Every op therefore charges the
cost model in exactly the order ``Interpreter._execute`` does; the guard
cache changes wall-clock only, because
:meth:`~repro.runtime.regions.GuardMechanism.check_known` reproduces each
mechanism's cost/predictor state machine on a hit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, Union

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
    GEPInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.types import stride_of
from repro.ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.codegen import (
    BINDINGS,
    GLOBALS,
    Writer,
    _raise_undefined,
    emit_value_op,
    expr,
    gep_plan,
    operand_reads,
    reject,
)
from repro.machine.interp import ExitProgram, Interpreter, _Frame
from repro.runtime.runtime import GuardSiteCell

#: A compiled operand: ``getter(interp, frame.values) -> value``.
Getter = Callable[["FastInterpreter", Dict[int, Union[int, float]]], Union[int, float]]
#: A compiled instruction: ``op(interp, frame) -> None``.
Op = Callable[["FastInterpreter", "_FastFrame"], None]


class _FastFrame(_Frame):
    """A frame that also carries the current block's compiled ops,
    index-aligned with ``block.instructions`` so ``retry`` / snapshot
    machinery from the reference interpreter keeps working unchanged."""

    __slots__ = ("ops",)

    def __init__(self, function: Function, sp_on_entry: int) -> None:
        super().__init__(function, sp_on_entry)
        self.ops: List[Tuple[Op, bool]] = []


# ----------------------------------------------------------------------
# Operand compilation
# ----------------------------------------------------------------------


def _operand(value: Value) -> Getter:
    """Classify an operand once, at compile time (what ``_eval`` does per
    use), and return a minimal getter for it."""
    if isinstance(value, (ConstantInt, ConstantFloat)):
        constant = value.value
        return lambda interp, values: constant
    if isinstance(value, (Argument, Instruction)):
        key = id(value)
        name = value.name

        def read_slot(interp, values, _key=key, _name=name):
            try:
                return values[_key]
            except KeyError:
                raise InterpError(
                    f"use of undefined value %{_name} in "
                    f"@{interp.frames[-1].function.name}"
                ) from None

        return read_slot
    if isinstance(value, (ConstantNull, UndefValue)):
        return lambda interp, values: 0
    if isinstance(value, GlobalVariable):
        gname = value.name

        def read_global(interp, values, _name=gname):
            try:
                return interp.process.globals_map[_name]
            except KeyError:
                raise InterpError(f"global @{_name} was not loaded") from None

        return read_global

    # Aggregate constants and other oddities: the reference interpreter
    # faults when (and only when) such an operand is *evaluated*.
    return reject(value)


def _slot_key(value: Value) -> Optional[int]:
    """Frame-slot id for SSA operands (arguments, instruction results)."""
    return id(value) if isinstance(value, (Argument, Instruction)) else None


# ----------------------------------------------------------------------
# Source-template ops
# ----------------------------------------------------------------------

#: Prologue line for each name a block-tier body may read (the facts a
#: known-fact binding serves are never known here).
_PROLOGUE = {
    "stats": "        stats = interp.stats\n",
    "values": "        values = frame.values\n",
}
_PROLOGUE.update(
    (name, f"        {name} = interp.{path}\n") for name, path in BINDINGS.items()
)

#: The stencil library: stencil text -> its maker.  Process-wide and keyed
#: by the text alone, which holds no id, slot or position — those are the
#: maker's arguments — so every op of one shape, in any block of any
#: module, shares one ``compile`` call and one code object.  A maker is
#: a pure function of its text, so sharing it across modules is safe.
_STENCILS: Dict[str, Callable[..., Op]] = {}
_STENCIL_SCOPE: Dict[str, object] = dict(GLOBALS)


def _stencil_op(w: Writer, ns: Dict[str, object]) -> Op:
    """The op for a body written at indent 2 with the fixed tag 0: its
    stencil ``_mk(<ns names>)`` returns ``_op(interp, frame)``, a prologue
    binding the names the body reads plus the body, and the op is the
    stencil applied to this instruction's ``ns`` values (copy-and-patch:
    the operands become closure cells)."""
    body = w.source()
    text = "".join([
        f"def _mk({', '.join(ns)}):\n    def _op(interp, frame):\n",
        *(line for var, line in _PROLOGUE.items() if var in body),
        body,
        "    return _op\n",
    ])
    make = _STENCILS.get(text)
    if make is None:
        exec(compile(text, "<stencil>", "exec"), _STENCIL_SCOPE)
        make = _STENCILS[text] = _STENCIL_SCOPE.pop("_mk")
    return make(*ns.values())


# ----------------------------------------------------------------------
# Branch edges (phi parallel copy resolved at compile time)
# ----------------------------------------------------------------------


class _Edge:
    """One CFG edge: the target block with its phi moves pre-resolved for
    this specific source block, and the target's ops late-bound (blocks in
    a loop forward-reference each other)."""

    __slots__ = ("code", "target", "moves", "first_index", "ops")

    def __init__(self, code: "ModuleCode", source: BasicBlock, target: BasicBlock):
        self.code = code
        self.target = target
        self.moves: Tuple[Tuple[int, Getter], ...] = tuple(
            (id(phi), _operand(phi.incoming_for_block(source)))
            for phi in target.phis()
        )
        self.first_index = target.first_non_phi_index()
        self.ops: Optional[List[Tuple[Op, bool]]] = None

    def resolve(self) -> List[Tuple[Op, bool]]:
        ops = self.code.ops_by_block[id(self.target)]
        self.ops = ops
        return ops


def _edge_enter(edge: _Edge) -> Callable[["FastInterpreter", _FastFrame], None]:
    """Build the "take this edge" closure, specialized by phi-move count
    (loop latches almost always carry exactly one).  The phi parallel copy
    keeps the reference order: evaluate every incoming value first, then
    charge n instructions, then assign."""
    moves = edge.moves
    target = edge.target
    first_index = edge.first_index
    if not moves:

        def enter0(interp, frame):
            frame.prev_block = frame.block
            frame.block = target
            frame.index = first_index
            ops = edge.ops
            frame.ops = ops if ops is not None else edge.resolve()

        return enter0
    if len(moves) == 1:
        ((phi_key, get_in),) = moves

        def enter1(interp, frame):
            values = frame.values
            value = get_in(interp, values)
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            stats.instructions += 1
            values[phi_key] = value
            frame.prev_block = frame.block
            frame.block = target
            frame.index = first_index
            ops = edge.ops
            frame.ops = ops if ops is not None else edge.resolve()

        return enter1

    n = len(moves)

    def entern(interp, frame):
        values = frame.values
        staged = [(key, getter(interp, values)) for key, getter in moves]
        stats = interp.stats
        stats.cycles += interp._cost_instruction * n
        stats.instructions += n
        for key, value in staged:
            values[key] = value
        frame.prev_block = frame.block
        frame.block = target
        frame.index = first_index
        ops = edge.ops
        frame.ops = ops if ops is not None else edge.resolve()

    return entern


# ----------------------------------------------------------------------
# Per-instruction compilation
# ----------------------------------------------------------------------

def _fallback_op(inst: Instruction) -> Op:
    """The op for a value form with no template: frem, a GEP through a
    non-aggregate, or a load/store of a non-scalar type.  Rare enough to
    stay closures; the trace tier calls them as they are."""
    if isinstance(inst, BinaryInst):  # frem
        key = id(inst)
        get_l = _operand(inst.lhs)
        get_r = _operand(inst.rhs)

        def frem_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            lhs_val = float(get_l(interp, values))
            rhs_val = float(get_r(interp, values))
            values[key] = math.fmod(lhs_val, rhs_val) if rhs_val != 0 else math.nan

        return frem_op
    if isinstance(inst, GEPInst):
        # Mirror the reference fault lazily: the bad index is only an
        # error if the instruction actually executes.
        rep = gep_plan(inst)[2]

        def bad_gep_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            raise InterpError(f"gep into non-aggregate {rep}")

        return bad_gep_op
    is_store = isinstance(inst, StoreInst)
    get_ptr = _operand(inst.pointer)
    get_val = _operand(inst.value) if is_store else None
    kind = "store" if is_store else "load"
    rep = str(inst.value.type if is_store else inst.type)

    def bad_memory_op(interp, frame):
        stats = interp.stats
        stats.cycles += interp._cost_instruction
        values = frame.values
        int(get_ptr(interp, values))
        if is_store:
            get_val(interp, values)
            stats.cycles += interp._cost_memory
            stats.stores += 1
        else:
            stats.cycles += interp._cost_memory
            stats.loads += 1
        raise InterpError(f"cannot {kind} a value of type {rep}")

    return bad_memory_op


def _compile_select(inst: SelectInst) -> Op:
    key = id(inst)
    get_cond = _operand(inst.condition)
    get_true = _operand(inst.true_value)
    get_false = _operand(inst.false_value)

    def select_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        values = frame.values
        chosen = get_true if get_cond(interp, values) else get_false
        values[key] = chosen(interp, values)

    return select_op


def _compile_alloca(inst: AllocaInst) -> Op:
    key = id(inst)
    stride = stride_of(inst.allocated_type)
    if isinstance(inst.count, ConstantInt):
        size = stride * max(0, inst.count.value)

        def static_alloca_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            new_sp = (interp.sp - size) & ~0xF
            if new_sp <= interp.stack_base:
                raise ProtectionFault(new_sp, size, "stack")
            interp.sp = new_sp
            frame.values[key] = new_sp

        return static_alloca_op
    get_count = _operand(inst.count)

    def alloca_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        size = stride * max(0, int(get_count(interp, frame.values)))
        new_sp = (interp.sp - size) & ~0xF
        if new_sp <= interp.stack_base:
            raise ProtectionFault(new_sp, size, "stack")
        interp.sp = new_sp
        frame.values[key] = new_sp

    return alloca_op


def _compile_branch(inst: BranchInst, code: "ModuleCode") -> Op:
    source = inst.parent
    if not inst.is_conditional:
        edge = _Edge(code, source, inst.targets[0])
        if not edge.moves:
            target = edge.target
            first_index = edge.first_index

            def jump_op(interp, frame):
                interp.stats.cycles += interp._cost_instruction
                frame.prev_block = frame.block
                frame.block = target
                frame.index = first_index
                ops = edge.ops
                frame.ops = ops if ops is not None else edge.resolve()

            return jump_op
        if len(edge.moves) == 1:
            # The canonical loop latch: one phi move, fully inlined.
            ((phi_key, get_in),) = edge.moves
            target = edge.target
            first_index = edge.first_index

            def jump_phi1_op(interp, frame):
                stats = interp.stats
                stats.cycles += interp._cost_instruction
                values = frame.values
                value = get_in(interp, values)
                stats.cycles += interp._cost_instruction
                stats.instructions += 1
                values[phi_key] = value
                frame.prev_block = frame.block
                frame.block = target
                frame.index = first_index
                ops = edge.ops
                frame.ops = ops if ops is not None else edge.resolve()

            return jump_phi1_op
        enter = _edge_enter(edge)

        def jump_phi_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            enter(interp, frame)

        return jump_phi_op
    edge_true = _Edge(code, source, inst.targets[0])
    edge_false = _Edge(code, source, inst.targets[1])
    cond_v = inst.condition
    cond_key = _slot_key(cond_v)
    if cond_key is not None and not edge_true.moves and not edge_false.moves:

        def branch_slot_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            try:
                cond = values[cond_key]
            except KeyError:
                _raise_undefined(interp, values, cond_v)
            edge = edge_true if cond else edge_false
            frame.prev_block = frame.block
            frame.block = edge.target
            frame.index = edge.first_index
            ops = edge.ops
            frame.ops = ops if ops is not None else edge.resolve()

        return branch_slot_op
    enter_true = _edge_enter(edge_true)
    enter_false = _edge_enter(edge_false)
    if cond_key is not None:

        def branch_slot_phi_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            values = frame.values
            try:
                cond = values[cond_key]
            except KeyError:
                _raise_undefined(interp, values, cond_v)
            if cond:
                enter_true(interp, frame)
            else:
                enter_false(interp, frame)

        return branch_slot_phi_op
    get_cond = _operand(cond_v)

    def branch_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        if get_cond(interp, frame.values):
            enter_true(interp, frame)
        else:
            enter_false(interp, frame)

    return branch_op


def _compile_return(inst: ReturnInst) -> Op:
    get_v = _operand(inst.return_value) if inst.return_value is not None else None

    def return_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        value = get_v(interp, frame.values) if get_v is not None else None
        interp.sp = frame.sp_on_entry
        frames = interp.frames
        frames.pop()
        if not frames:
            if value is not None and isinstance(value, int):
                interp.exit_code = value
            raise ExitProgram(interp.exit_code)
        target = frame.result_target
        if target is not None and value is not None:
            frames[-1].values[id(target)] = value

    return return_op


def _compile_phi(inst: PhiInst) -> Op:
    block_name = inst.parent.name

    def phi_op(interp, frame, _name=block_name):
        interp.stats.cycles += interp._cost_instruction
        raise InterpError(f"phi executed out of band in %{_name}")

    return phi_op


def _compile_unreachable(inst: UnreachableInst) -> Op:
    fn_name = inst.parent.parent.name

    def unreachable_op(interp, frame, _name=fn_name):
        interp.stats.cycles += interp._cost_instruction
        raise InterpError(
            f"reached 'unreachable' in @{_name} "
            f"(undefined behavior at run time)"
        )

    return unreachable_op


# ----------------------------------------------------------------------
# Calls and intrinsics
# ----------------------------------------------------------------------


def _compile_guard(inst: CallInst, name: str, site: int) -> Op:
    """A ``carat.guard.*`` site: the generic runtime check through the
    site's region-cache cell (the trace tier specializes its own)."""
    args = inst.args
    ns: Dict[str, object] = {}
    reads = [f"_s = int({expr(args[0 if name == GUARD_CALL else 1], ns, '0s')})"]
    if name == GUARD_CALL:
        check = "guard_call(interp.sp, _s"
    else:
        reads.insert(0, f"_a = int({expr(args[0], ns, '0a')})")
        if name != GUARD_RANGE:
            access = "'read'" if name == GUARD_LOAD else "'write'"
            check = f"guard_access(_a, _s, {access}"
        elif len(args) > 2:
            flag = expr(args[2], ns, "0f")
            reads.append(f"_c = 'write' if int({flag}) else 'read'")
            check = "guard_range(_a, _s, _c"
        else:
            check = "guard_range(_a, _s, 'read'"
    ns["_q0"] = site
    w = Writer()
    w.line(2, "stats.cycles += _ci")
    w.line(2, "runtime = interp.process.runtime")
    w.line(2, "if runtime is None:")
    w.line(3, "return")
    operand_reads(w, 2, reads, args[: len(reads)], 0, ns)
    w.line(2, f"_gc = runtime.{check}, _cells[_q0])")
    w.line(2, "stats.guard_cycles += _gc")
    w.line(2, "stats.cycles += _gc")
    return _stencil_op(w, ns)


def _compile_intrinsic(inst: CallInst, name: str, code: "ModuleCode") -> Op:
    """CARAT intrinsics: no ``calls`` counter, no call cost — only the
    guard/tracking cycles the runtime reports (matches ``_exec_intrinsic``).
    Guard sites get a numbered memoization cell for the region cache."""
    args = inst.args
    if name in (GUARD_LOAD, GUARD_STORE, GUARD_CALL, GUARD_RANGE):
        return _compile_guard(inst, name, code.new_guard_site(inst))
    if name in (TRACK_ALLOC, TRACK_FREE, TRACK_ESCAPE):
        getters = tuple(_operand(a) for a in args)
        if name == TRACK_ALLOC:
            get_a, get_b = getters[0], getters[1]

            def dispatch(interp, runtime, values):
                runtime.on_alloc(
                    int(get_a(interp, values)), int(get_b(interp, values)), "heap"
                )

        elif name == TRACK_FREE:
            get_a = getters[0]

            def dispatch(interp, runtime, values):
                runtime.on_free(int(get_a(interp, values)))

        else:
            get_a = getters[0]

            def dispatch(interp, runtime, values):
                runtime.on_escape(int(get_a(interp, values)))

        def track_op(interp, frame):
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            runtime = interp.process.runtime
            if runtime is None:
                return
            rstats = runtime.stats
            before = rstats.guard_cycles + rstats.tracking_cycles
            dispatch(interp, runtime, frame.values)
            delta = rstats.guard_cycles + rstats.tracking_cycles - before
            stats.tracking_cycles += delta
            stats.cycles += delta

        return track_op
    getters = tuple(_operand(a) for a in args)

    def unknown_intrinsic_op(interp, frame, _name=name):
        interp.stats.cycles += interp._cost_instruction
        if interp.process.runtime is None:
            return
        for getter in getters:
            getter(interp, frame.values)
        raise InterpError(f"unknown CARAT intrinsic {_name!r}")

    return unknown_intrinsic_op


def _compile_call(inst: CallInst, code: "ModuleCode") -> Op:
    callee = inst.callee
    if not isinstance(callee, Function):

        def indirect_op(interp, frame):
            interp.stats.cycles += interp._cost_instruction
            raise InterpError("indirect calls are rejected by CARAT restrictions")

        return indirect_op
    name = callee.name
    if name.startswith("carat."):
        return _compile_intrinsic(inst, name, code)
    if callee.is_declaration:
        want_result = not inst.type.is_void
        key = id(inst)

        def builtin_op(interp, frame):
            stats = interp.stats
            stats.cycles += interp._cost_instruction
            stats.calls += 1
            result = interp._exec_builtin(frame, inst, name)
            if want_result and result is not None:
                frame.values[key] = result
            stats.cycles += interp._cost_call

        return builtin_op
    arg_moves = tuple(
        (id(formal), _operand(actual))
        for formal, actual in zip(callee.args, inst.args)
    )
    result_target = inst if not inst.type.is_void else None
    entry_cell: List[List[Tuple[Op, bool]]] = []

    def call_op(interp, frame):
        stats = interp.stats
        stats.cycles += interp._cost_instruction
        stats.calls += 1
        frames = interp.frames
        if len(frames) >= interp.max_call_depth:
            raise InterpError(
                f"call depth exceeded ({interp.max_call_depth}) calling @{name}"
            )
        stats.cycles += interp._cost_call
        new_frame = _FastFrame(callee, interp.sp)
        values = frame.values
        new_values = new_frame.values
        for formal_key, getter in arg_moves:
            new_values[formal_key] = getter(interp, values)
        new_frame.result_target = result_target
        if entry_cell:
            new_frame.ops = entry_cell[0]
        else:
            ops = code.ops_by_block[id(callee.entry)]
            entry_cell.append(ops)
            new_frame.ops = ops
        frames.append(new_frame)

    return call_op


# ----------------------------------------------------------------------
# Whole-module compilation, cached on the module
# ----------------------------------------------------------------------

_METADATA_KEY = "fastexec.code"


class ModuleCode:
    """The compiled form of one module: per-block op lists plus guard-site
    numbering.  Cached in ``Module.metadata`` and shared across every run
    of the binary — per-run state (guard cells) lives on the interpreter,
    keyed by the site indices assigned here."""

    def __init__(self, module: Module) -> None:
        self.module = module
        #: block id -> list of (op, is_terminator), index-aligned with
        #: ``block.instructions``.  The terminator flag rides along so the
        #: dispatch loop's safepoint check costs one tuple unpack.
        self.ops_by_block: Dict[int, List[Tuple[Op, bool]]] = {}
        self.guard_sites = 0
        #: instruction id -> guard-site index, so the trace tier can find
        #: the memoization cell belonging to a guard it re-compiles.
        self.guard_site_of: Dict[int, int] = {}
        #: (anchor id, chain ids, variant) -> compiled trace code, shared
        #: across interpreters of the same binary (see machine.tracejit).
        self.trace_codes: Dict[tuple, object] = {}
        self.compiled_blocks = 0
        self.compiled_functions = 0
        for function in module.functions.values():
            if function.is_declaration:
                continue
            self.compiled_functions += 1
            for block in function.blocks:
                self.ops_by_block[id(block)] = [
                    (self._compile(inst), inst.is_terminator)
                    for inst in block.instructions
                ]
                self.compiled_blocks += 1

    def new_guard_site(self, inst: Instruction) -> int:
        site = self.guard_sites
        self.guard_sites += 1
        self.guard_site_of[id(inst)] = site
        return site

    def _compile(self, inst: Instruction) -> Op:
        # Module-shared code knows neither the addressing mode nor the
        # tiering, so the template leaves both as run-time tests.
        w, ns = Writer(), {}
        if emit_value_op(w, 2, inst, 0, ns) is not None:
            return _stencil_op(w, ns)
        if isinstance(inst, (BinaryInst, GEPInst, LoadInst, StoreInst)):
            return _fallback_op(inst)
        if isinstance(inst, SelectInst):
            return _compile_select(inst)
        if isinstance(inst, AllocaInst):
            return _compile_alloca(inst)
        if isinstance(inst, BranchInst):
            return _compile_branch(inst, self)
        if isinstance(inst, PhiInst):
            return _compile_phi(inst)
        if isinstance(inst, CallInst):
            return _compile_call(inst, self)
        if isinstance(inst, ReturnInst):
            return _compile_return(inst)
        if isinstance(inst, UnreachableInst):
            return _compile_unreachable(inst)
        opcode = inst.opcode

        def unknown_op(interp, frame, _opcode=opcode):
            interp.stats.cycles += interp._cost_instruction
            raise InterpError(f"unknown instruction {_opcode!r}")

        return unknown_op


def compile_module(module: Module) -> Tuple[ModuleCode, bool]:
    """Get-or-build the compiled code for ``module``.  Returns
    ``(code, was_cached)``."""
    cached = module.metadata.get(_METADATA_KEY)
    if isinstance(cached, ModuleCode) and cached.module is module:
        return cached, True
    code = ModuleCode(module)
    module.metadata[_METADATA_KEY] = code
    return code, False


# ----------------------------------------------------------------------
# The fast interpreter
# ----------------------------------------------------------------------


class FastInterpreter(Interpreter):
    """Drop-in Interpreter that executes compiled ops.

    Inherits every slow-path helper (translation, builtins, snapshots,
    retry) from the reference; only the dispatch loop and the frame
    construction differ.  Stats parity is bit-exact for all modeled
    counters; the ``dispatch_cache_*``/``compiled_blocks`` fields and the
    runtime's ``region_cache_*`` counters are the only additions.
    """

    def __init__(
        self,
        process: Process,
        kernel: Kernel,
        max_call_depth: int = 512,
        stack_range: Optional[Tuple[int, int]] = None,
        thread_id: int = 0,
    ) -> None:
        super().__init__(process, kernel, max_call_depth, stack_range, thread_id)
        code, was_cached = compile_module(self.module)
        self._code = code
        self.stats.compiled_blocks = code.compiled_blocks
        # Hit/miss accounting is in *block* units, matching
        # ``compiled_blocks``: a cold run compiles every block (all
        # misses), a warm run reuses every block (all hits).  Counting
        # functions here — or nothing on the cold path — made the hit
        # rate unrelatable to the cache's actual unit of work.
        if was_cached:
            self.stats.dispatch_cache_hits = code.compiled_blocks
        else:
            self.stats.dispatch_cache_misses = code.compiled_blocks
        #: Per-site region-cache cells — per interpreter, NOT in the
        #: shared compiled code: a fresh RegionSet could coincidentally
        #: repeat a stale (generation, geometry) pair across runs.
        self._guard_cells = [GuardSiteCell() for _ in range(code.guard_sites)]
        # Cost-model constants snapshotted for the hot loop.
        self._cost_instruction = self.costs.instruction
        self._cost_memory = self.costs.memory_access
        self._cost_call = self.costs.call
        runtime = process.runtime
        if runtime is not None:
            runtime.enable_region_cache()

    def start(self, entry: str = "main", args: Tuple = ()) -> None:
        function = self.module.get_function(entry)
        if function.is_declaration:
            raise InterpError(f"entry point @{entry} has no body")
        frame = _FastFrame(function, self.sp)
        frame.ops = self._code.ops_by_block[id(frame.block)]
        for formal, actual in zip(function.args, args):
            frame.values[id(formal)] = actual
        self.frames.append(frame)
        self.finished = False

    def run_steps(self, max_steps: int) -> str:
        """Same contract and safepoint semantics as the reference loop —
        only the per-instruction work is the pre-compiled op."""
        if self.profiler is not None:
            return self._run_steps_profiled(max_steps)
        steps = 0
        at_safepoint = False
        frames = self.frames
        stats = self.stats
        hard_stop = max_steps + 100_000
        while frames:
            if steps >= max_steps and (at_safepoint or steps >= hard_stop):
                break  # pause at a safepoint (or give up on alignment)
            frame = frames[-1]
            index = frame.index
            try:
                op, is_terminator = frame.ops[index]
            except IndexError:
                raise InterpError(
                    f"fell off block %{frame.block.name} in "
                    f"@{frame.function.name}"
                ) from None
            frame.index = index + 1
            try:
                op(self, frame)
            except ExitProgram as exit_request:
                self.exit_code = exit_request.code
                frames.clear()
                break
            steps += 1
            stats.instructions += 1
            at_safepoint = is_terminator
            if is_terminator and stats.instructions >= self._next_tick:
                self._next_tick = stats.instructions + self.tick_interval
                if self.tick_hook is not None:
                    self.tick_hook(self)
        if not frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"

    def _run_steps_profiled(self, max_steps: int) -> str:
        """The dispatch loop with per-op cycle-delta capture.

        A mirror of :meth:`run_steps` — the reference engine profiles by
        wrapping ``_execute``, but here the op call *is* the hot loop, so
        the profiled variant lives in its own method and the unprofiled
        loop stays untouched.  The snapshot/account pair brackets exactly
        the op call (cycles are only ever charged inside ops), and
        ``account`` runs in a ``finally`` so faulting instructions still
        reconcile.  No simulated cycles are charged by any of this.
        """
        profiler = self.profiler
        steps = 0
        at_safepoint = False
        frames = self.frames
        stats = self.stats
        hard_stop = max_steps + 100_000
        while frames:
            if steps >= max_steps and (at_safepoint or steps >= hard_stop):
                break  # pause at a safepoint (or give up on alignment)
            frame = frames[-1]
            index = frame.index
            try:
                op, is_terminator = frame.ops[index]
            except IndexError:
                raise InterpError(
                    f"fell off block %{frame.block.name} in "
                    f"@{frame.function.name}"
                ) from None
            frame.index = index + 1
            name = frame.function.name
            profiler.current_function = name
            before = profiler.snap(stats)
            try:
                try:
                    op(self, frame)
                finally:
                    profiler.account(name, stats, before)
            except ExitProgram as exit_request:
                self.exit_code = exit_request.code
                frames.clear()
                break
            steps += 1
            stats.instructions += 1
            at_safepoint = is_terminator
            if is_terminator and stats.instructions >= self._next_tick:
                self._next_tick = stats.instructions + self.tick_interval
                if self.tick_hook is not None:
                    self.tick_hook(self)
        if not frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"
