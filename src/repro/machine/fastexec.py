"""The fast execution engine: pre-compiled instruction dispatch.

The reference :class:`~repro.machine.interp.Interpreter` re-discovers
everything about an instruction on every tick: an isinstance chain picks
the opcode, ``_eval`` re-classifies each operand, and every guard walks
``RegionSet.find``.  This module removes that per-tick work without
changing a single observable number:

* each :class:`~repro.ir.module.BasicBlock` is compiled **once** into a
  list of closures ("ops") with operands resolved at compile time —
  constants are captured, SSA values become direct ``frame.values``
  slot reads, branch edges carry their phi parallel-copy pre-staged and
  bind their target's op list, and the opcode is dispatched by *which
  op was built*, not by isinstance at run time.  Every instruction form
  — value ops, ``select``, ``alloca``, branches, calls, returns, guards
  and tracking intrinsics — is the one source template of
  :mod:`repro.machine.codegen`, the lines the trace tier inlines, so
  operand reads, wrap arithmetic and NaN checks are inline in the op
  itself.  An op runs a whole **segment**: the templates of a
  straight-line run of instructions up to a terminator, a call of a
  defined function, an instruction with no template or the engine's
  ``segment_cap`` instructions (16 for the fast engine; the trace
  engine's block tier, at cap 1, keeps one op per instruction), with
  ``instructions`` and ``frame.index`` where a per-instruction dispatch
  loop would leave them wherever anything can read them (see
  :meth:`ModuleCode.build`).  Ops are
  built by copy-and-patch from a process-wide *stencil library* keyed
  by the op's parameter list and body: everything that identifies one op
  (operand and destination slots, constants, blocks, positions, its
  guard site) is a name, so every op of one shape shares one stencil,
  compiled once, and the op is that stencil applied to its operands.
  Only the I/O builtin calls and the one-line faults (phi, unreachable,
  indirect call, unknown opcode) stay ordinary closures, each its own
  op;
* the facts a run holds throughout — the addressing mode, whether the
  kernel is tiered, and the guard mechanism whose hits guard sites settle
  themselves — are known when an op is built, so no op tests one at run
  time: a load or store has exactly one memory arm.  One compiled form
  per set of facts is cached on the module (``Module.metadata``) and
  shared by every run of the binary with those facts;
* every ``carat.guard.*`` call site gets a numbered
  :class:`~repro.runtime.runtime.GuardSiteCell` so the runtime's
  epoch-invalidated region cache can memoize the last region *per site*
  (cells live on the interpreter, never in the shared compiled code —
  a cached region is only trusted while the RegionSet identity **and**
  generation still match);
* beside it, each site has a :class:`~repro.machine.codegen.SpecCell`
  (``interp._guard_specs``): the guard op settles an access inside the
  cell's region itself, with the trace tier's specialized check — the
  same template, for the same known mechanism — and calls the
  runtime only on a miss, a stale generation or an open move window,
  then re-specializes the cell if
  :func:`~repro.machine.codegen.specializes` still holds (no profiler,
  safety checker or fine tracer).

Parity is a hard contract, enforced by the differential tests: the fast
engine must produce bit-identical program output, memory, and exit codes
*and* semantically identical stats.  Every op therefore charges the
cost model in exactly the order ``Interpreter._execute`` does; the guard
cache and the specialized checks change wall-clock only, because
:meth:`~repro.runtime.regions.GuardMechanism.check_known` reproduces each
mechanism's cost/predictor state machine on a hit, and a specialized hit
charges and writes exactly what ``check_known`` would.
"""

from __future__ import annotations

import re
from hashlib import blake2b
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import InterpError
from repro.ir.instructions import (
    CallInst,
    Instruction,
    PhiInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.codegen import (
    BINDINGS,
    GLOBALS,
    GUARD_BINDINGS,
    SPECIALIZABLE,
    SpecCell,
    Writer,
    emit_edge,
    emit_op,
    guard_name,
    pushes_frame,
    respecialize,
)
from repro.machine.interp import ExitProgram, Interpreter, _Frame
from repro.runtime.runtime import GuardSiteCell

#: A compiled instruction or segment: ``op(interp, frame) -> None``.
Op = Callable[["FastInterpreter", "_FastFrame"], None]
#: An op-list entry: the op, whether its last instruction is a
#: terminator (a safepoint), and how many instructions it runs.
Entry = Tuple[Op, bool, int]
#: One form of a module's op lists: block id -> its entries.
Lists = Dict[int, List[Entry]]


class _FastFrame(_Frame):
    """A frame that also carries the current block's op list,
    index-aligned with ``block.instructions`` so ``retry`` / snapshot
    machinery from the reference interpreter keeps working unchanged."""

    __slots__ = ("ops",)

    def __init__(self, function: Function, sp_on_entry: int) -> None:
        super().__init__(function, sp_on_entry)
        self.ops: List[Entry] = []


# ----------------------------------------------------------------------
# Stencils
# ----------------------------------------------------------------------

#: The value each name a block-tier body may read is bound to, in binding
#: order: a value reads ``interp``, ``frame`` or a name above it (a body
#: reads guard bindings only with a runtime).
_PROLOGUE: Dict[str, str] = {
    "stats": "interp.stats",
    "values": "frame.values",
    "_specs": "interp._guard_specs",
    "_hw": "interp.heat_window",
}
_PROLOGUE.update((name, f"interp.{path}") for name, path in BINDINGS.items())
_PROLOGUE.update(_pmd="_pm._data", _pms="_pm.size")
_PROLOGUE.update((name, f"_rt.{attr}") for name, attr in GUARD_BINDINGS.items())
#: A whole identifier that is not an attribute name.
_NAME = re.compile(r"(?<![.\w])[A-Za-z_]\w*")


def _prologue(body: str) -> str:
    """The lines binding every name ``body`` reads, matched by whole
    identifier (``_msg0`` is not ``_ms``), with the names their values
    read."""
    need = set(_NAME.findall(body))
    for name, value in reversed(_PROLOGUE.items()):
        if name in need:
            need.add(value.partition(".")[0])
    return "".join(
        f"        {name} = {value}\n"
        for name, value in _PROLOGUE.items()
        if name in need
    )


#: The stencil library: (parameter list, body) -> its maker.  Process-wide
#: and keyed by text alone, which holds no id, slot or position — those
#: are the maker's arguments — so every op of one shape, in any block of
#: any module, shares one ``compile`` call and one code object.  A
#: segment's key is its text's digest: segments rarely share a shape,
#: and their texts would stay alive as keys alone.
_STENCILS: Dict[object, Callable[..., Op]] = {}
#: The names every emitted body may read besides its bindings: the
#: codegen constants and the frame class a call pushes.
_STENCIL_SCOPE: Dict[str, object] = dict(
    GLOBALS, _FF=_FastFrame, _respec=respecialize
)


def _stencil_op(w: Writer, ns: Dict[str, object], digest: bool = False) -> Op:
    """The op for a body written at indent 2 (one instruction's with the
    tag 0, or a segment's with its position as each one's tag): its
    stencil ``_mk(<ns names>)`` returns ``_op(interp, frame)``, a prologue
    binding the names the body reads plus the body, and the op is the
    stencil applied to this instruction's ``ns`` values (copy-and-patch:
    the operands become closure cells).  The prologue is built only on a
    library miss; ``digest`` keys the library by the text's digest."""
    params, body = ", ".join(ns), w.source()
    key: object = (params, body)
    if digest:
        key = blake2b(f"{params}\n{body}".encode(), digest_size=16).digest()
    make = _STENCILS.get(key)
    if make is None:
        text = (
            f"def _mk({params}):\n    def _op(interp, frame):\n"
            f"{_prologue(body)}{body}    return _op\n"
        )
        exec(compile(text, "<stencil>", "exec"), _STENCIL_SCOPE)
        make = _STENCILS[key] = _STENCIL_SCOPE.pop("_mk")
    return make(*ns.values())


def _closure_op(inst: Instruction) -> Op:
    """The op for a form with no template: an I/O builtin call (the
    interpreter's own builtins do the work), or a one-line fault."""
    if isinstance(inst, CallInst) and isinstance(inst.callee, Function):
        name = inst.callee.name
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
    if isinstance(inst, PhiInst):
        message = f"phi executed out of band in %{inst.parent.name}"
    elif isinstance(inst, UnreachableInst):
        message = (
            f"reached 'unreachable' in @{inst.parent.parent.name} "
            f"(undefined behavior at run time)"
        )
    elif isinstance(inst, CallInst):
        message = "indirect calls are rejected by CARAT restrictions"
    else:
        message = f"unknown instruction {inst.opcode!r}"

    def fault_op(interp, frame):
        interp.stats.cycles += interp._cost_instruction
        raise InterpError(message)

    return fault_op


def _resume(interp: "FastInterpreter", frame: _FastFrame) -> None:
    """The op at a segment's interior index, entered only to resume the
    segment mid-way (a fault retry — a CoW break, a stack growth —
    rewinds ``frame.index`` to the faulting instruction): run that
    instruction alone."""
    interp._code.single(frame.block, frame.index - 1, interp._ops)(interp, frame)


# ----------------------------------------------------------------------
# Whole-module compilation, cached on the module
# ----------------------------------------------------------------------

_METADATA_KEY = "fastexec.code"


#: A run's facts: ``(is_carat, has_tier, mech)`` (see repro.machine.codegen).
Facts = Tuple[bool, bool, str]


class ModuleCode:
    """The compiled form of one module under one set of ``facts``:
    per-block op lists plus guard-site numbering.  Cached in
    ``Module.metadata`` and shared across every run of the binary with
    those facts — per-run state (guard cells) lives on the interpreter,
    keyed by the site indices assigned here.

    ``forms`` holds the op lists in one form per segment cap, each built
    on first use (:meth:`build`): the fast engine runs cap 16, the trace
    engine's block tier cap 1, one op per instruction.  A form maps a
    block id to its entries ``(op, is_terminator, n)``, index-aligned
    with ``block.instructions``; the terminator flag rides along so the
    dispatch loop's safepoint check costs one tuple unpack.  Each form's
    edge and call ops bind that form's lists, and every op built outside
    a form (:meth:`single`, :meth:`edge_op`) is told the lists to bind."""

    def __init__(self, module: Module, facts: Facts) -> None:
        self.module = module
        self.facts = facts
        self.blocks = [
            block
            for function in module.functions.values()
            if not function.is_declaration
            for block in function.blocks
        ]
        self.compiled_blocks = len(self.blocks)
        #: segment cap -> the op lists of that form.
        self.forms: Dict[int, Lists] = {}
        #: (lists id, instruction id) -> its op alone (see :meth:`single`).
        self._singles: Dict[Tuple[int, int], Op] = {}
        #: instruction id -> guard-site index: its memoization cell.
        self.guard_site_of: Dict[int, int] = {}
        #: (anchor id, chain ids, variant) -> compiled trace code, shared
        #: across interpreters of the same binary (see machine.tracejit).
        self.trace_codes: Dict[tuple, object] = {}
        for block in self.blocks:
            for inst in block.instructions:
                if guard_name(inst) is not None:
                    self.guard_site_of[id(inst)] = len(self.guard_site_of)

    def build(self, cap: int) -> bool:
        """Build the form of segment cap ``cap`` unless it exists, and
        return whether it did.  Every list exists before any op is built,
        so an edge or call op binds its target's list directly.

        A segment is a maximal run of instructions with templates,
        ending at a terminator, a call of a defined function (the frame
        push) or after ``cap`` of them; an instruction with no template
        is an op of its own.  The segment's op is one stencil of the
        instructions' bodies (each tagged by its position; a read of a
        slot an earlier one wrote has no undefined-value handler).
        Before each op that can raise or call out, and before the last,
        it brings ``stats.instructions`` and ``frame.index`` to where the
        dispatch loop leaves them between two ops, so faults, retries,
        register snapshots and the profiler see the counters and the
        frame as per-instruction dispatch leaves them; nothing else reads
        them mid-segment.  The heat window is re-read after a call, whose
        foreign code may have installed one.  The segment's entry sits at
        its first index; each interior index holds :func:`_resume`.  At
        cap 1 each instruction's op is compiled alone (:meth:`_compile`),
        which builds blocks faster than one-instruction segments."""
        if cap in self.forms:
            return False
        lists: Lists = {id(block): [] for block in self.blocks}
        self.forms[cap] = lists
        for block in self.blocks:
            if cap > 1:
                lists[id(block)].extend(self._segments(block, lists, cap))
            else:
                lists[id(block)].extend(
                    (self._compile(inst, lists), inst.is_terminator, 1)
                    for inst in block.instructions
                )
        return True

    def _segments(self, block: BasicBlock, lists: Lists, cap: int) -> Iterator[Entry]:
        insts = block.instructions
        k = 0
        while k < len(insts):
            # Each op's body and whether it can raise or call out; a slot
            # an earlier op of the segment wrote cannot miss.
            ns: Dict[str, object] = {}
            parts: List[Tuple[List[str], bool]] = []
            defined: Set[int] = set()
            while k + len(parts) < len(insts) and len(parts) < cap:
                inst = insts[k + len(parts)]
                body = Writer()
                raises = emit_op(
                    body, 2, inst, len(parts), ns, *self.facts,
                    defined=defined, code=self, lists=lists,
                )
                if raises is None:
                    break
                defined.add(id(inst))
                parts.append((body.lines, raises))
                if inst.is_terminator or pushes_frame(inst):
                    break
            n = len(parts)
            if not n:
                yield _closure_op(insts[k]), insts[k].is_terminator, 1
                k += 1
                continue
            w, counted = Writer(), 0
            for p, (lines, raises) in enumerate(parts):
                if p and isinstance(insts[k + p - 1], CallInst):
                    w.line(2, "_hw = interp.heat_window")
                if p and (raises or p == n - 1):
                    # Counters and index as the dispatch loop leaves
                    # them, where anything can read them.
                    w.line(2, f"stats.instructions += {p - counted}")
                    ns[f"_i{p}"] = k + p + 1
                    w.line(2, f"frame.index = _i{p}")
                    counted = p
                w.lines += lines
            yield _stencil_op(w, ns, n > 1), insts[k + n - 1].is_terminator, n
            for j in range(k + 1, k + n):
                yield _resume, insts[j].is_terminator, 1
            k += n

    def _compile(self, inst: Instruction, lists: Lists) -> Op:
        w, ns = Writer(), {}
        if emit_op(w, 2, inst, 0, ns, *self.facts, code=self, lists=lists) is None:
            return _closure_op(inst)
        return _stencil_op(w, ns)

    def single(self, block: BasicBlock, k: int, lists: Lists) -> Op:
        """The op running instruction ``k`` of ``block`` alone, its edges
        and calls binding ``lists``, built on first use: what
        :func:`_resume` runs, and what the dispatch loop runs in place of
        a segment that would cross its give-up bound."""
        inst = block.instructions[k]
        key = (id(lists), id(inst))
        op = self._singles.get(key)
        if op is None:
            op = self._singles[key] = self._compile(inst, lists)
        return op

    def edge_op(self, source: BasicBlock, target: BasicBlock, lists: Lists) -> Op:
        """The op taking the edge ``source`` -> ``target`` alone, into
        ``lists``: a trace's side exit."""
        w, ns = Writer(), {}
        emit_edge(w, 2, source, target, ns, self, lists)
        return _stencil_op(w, ns)


def compile_module(
    module: Module, facts: Facts, cap: int,
) -> Tuple[ModuleCode, bool]:
    """Get-or-build the compiled code for ``module`` under ``facts`` — one
    code per set of facts its runs use — with its op lists in the form of
    segment cap ``cap``.  Returns ``(code, was_cached)``: whether that
    form existed."""
    codes = module.metadata.setdefault(_METADATA_KEY, {})
    code = codes.get(facts)
    if code is None:
        code = codes[facts] = ModuleCode(module, facts)
    return code, not code.build(cap)


# ----------------------------------------------------------------------
# The fast interpreter
# ----------------------------------------------------------------------


class FastInterpreter(Interpreter):
    """Drop-in Interpreter that executes compiled ops.

    Inherits every slow-path helper (translation, builtins, snapshots,
    retry) from the reference; only the dispatch loop and the frame
    construction differ.  Stats parity is bit-exact for all modeled
    counters; the ``dispatch_cache_*``/``compiled_blocks`` and
    ``guard_checks_elided`` fields and the runtime's ``region_cache_*``
    counters are the only additions.
    """

    #: The most instructions one op of the block tier runs (see
    #: :meth:`ModuleCode.build`).  Uncapped, a module's longest blocks
    #: (64 instructions in the tiny workloads) each compile a stencil of
    #: their own, whose compile-time memory shows in a run's peak.
    segment_cap = 16
    #: The trace tier's entry point at a block entered through a
    #: terminator (see :meth:`run_steps`); the fast engine has none.
    _enter_block = None

    def __init__(
        self,
        process: Process,
        kernel: Kernel,
        max_call_depth: int = 512,
        stack_range: Optional[Tuple[int, int]] = None,
        thread_id: int = 0,
    ) -> None:
        super().__init__(process, kernel, max_call_depth, stack_range, thread_id)
        # The facts this run holds throughout select its code.
        runtime = process.runtime
        mech = runtime.guard.name if runtime is not None else ""
        code, was_cached = compile_module(self.module, (
            self.is_carat,
            self._tier_boundary is not None,
            mech if mech in SPECIALIZABLE else "",
        ), self.segment_cap)
        self._code = code
        self._ops = code.forms[self.segment_cap]
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
        self._guard_cells = [GuardSiteCell() for _ in code.guard_site_of]
        #: Per-site specialized checks, beside the cells they derive from.
        self._guard_specs = [SpecCell() for _ in code.guard_site_of]
        # Cost-model constants snapshotted for the hot loop.
        self._cost_instruction = self.costs.instruction
        self._cost_memory = self.costs.memory_access
        self._cost_call = self.costs.call
        if runtime is not None:
            runtime.enable_region_cache()

    def start(self, entry: str = "main", args: Tuple = ()) -> None:
        function = self.module.get_function(entry)
        if function.is_declaration:
            raise InterpError(f"entry point @{entry} has no body")
        frame = _FastFrame(function, self.sp)
        frame.ops = self._ops[id(frame.block)]
        for formal, actual in zip(function.args, args):
            frame.values[id(formal)] = actual
        self.frames.append(frame)
        self.finished = False

    def run_steps(self, max_steps: int) -> str:
        """Same contract and safepoint semantics as the reference loop —
        only the work is the pre-compiled op, which counts the
        instructions it runs but its last.  Segments end at terminators,
        so they pause where the reference does; a segment that would run
        past the give-up bound (100 000 steps past the quota without a
        safepoint) runs one instruction at a time instead, so that bound
        falls where the reference's does too.  This is the one loop of
        both compiled engines: after a terminator that leaves its frame
        in place, the trace engine's :meth:`_enter_block` sees the block
        entered and may run traces from it."""
        steps = 0
        at_safepoint = False
        frames = self.frames
        stats = self.stats
        hard_stop = max_steps + 100_000
        enter = self._enter_block
        try:
            while frames:
                if steps >= max_steps and (at_safepoint or steps >= hard_stop):
                    break  # pause at a safepoint (or give up on alignment)
                frame = frames[-1]
                index = frame.index
                try:
                    op, is_terminator, n = frame.ops[index]
                except IndexError:
                    raise InterpError(
                        f"fell off block %{frame.block.name} in "
                        f"@{frame.function.name}"
                    ) from None
                if steps + n > hard_stop:
                    # A multi-instruction segment's first is no terminator.
                    op = self._code.single(frame.block, index, self._ops)
                    is_terminator, n = False, 1
                frame.index = index + 1
                op(self, frame)
                steps += n
                stats.instructions += 1
                at_safepoint = is_terminator
                if is_terminator:
                    if stats.instructions >= self._next_tick:
                        self._next_tick = stats.instructions + self.tick_interval
                        if self.tick_hook is not None:
                            self.tick_hook(self)
                    if enter is not None and frames and frames[-1] is frame:
                        steps = enter(frame, steps, max_steps)
        except ExitProgram as exit_request:
            self.exit_code = exit_request.code
            frames.clear()
        if not frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"
