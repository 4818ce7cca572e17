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
  pre-staged and bind their target's op list, and the opcode is
  dispatched by *which op was built*, not by isinstance at run time.
  Every instruction form — value ops, ``select``, ``alloca``, branches,
  calls, returns, guards and tracking intrinsics — is the one source
  template of :mod:`repro.machine.codegen`, the lines the trace tier
  inlines, so operand reads, wrap arithmetic and NaN checks are inline
  in the op itself.  Ops are built by copy-and-patch from a
  process-wide *stencil library* keyed by the op's text: everything that
  identifies one op (operand and destination slots, constants, blocks,
  its guard site) is a name, so every op of one shape shares one
  stencil, compiled once, and the op is that stencil applied to its
  operands.  Only the I/O builtin calls and the one-line faults (phi,
  unreachable, indirect call, unknown opcode) stay ordinary closures;
* the compiled form is cached on the module (``Module.metadata``) and
  shared by every subsequent run of the same binary;
* every ``carat.guard.*`` call site gets a numbered
  :class:`~repro.runtime.runtime.GuardSiteCell` so the runtime's
  epoch-invalidated region cache can memoize the last region *per site*
  (cells live on the interpreter, never in the shared compiled code —
  a cached region is only trusted while the RegionSet identity **and**
  generation still match);
* beside it, each site has a :class:`~repro.machine.codegen.SpecCell`
  (``interp._guard_specs``): the guard op settles an access inside the
  cell's region itself, with the trace tier's specialized check — the
  same template, with the mechanism a run-time test — and calls the
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

from typing import Callable, Dict, List, Optional, Tuple

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
    SpecCell,
    Writer,
    emit_edge,
    emit_op,
    guard_name,
    respecialize,
)
from repro.machine.interp import ExitProgram, Interpreter, _Frame
from repro.runtime.runtime import GuardSiteCell

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
# Stencils
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
#: A block-tier guard op reads its spec cells and every guard binding,
#: so one probe (and one entry, after ``_rt``'s) binds them all.
_PROLOGUE["_specs"] = "        _specs = interp._guard_specs\n" + "".join(
    f"        {name} = _rt and _rt.{attr}\n" for name, attr in GUARD_BINDINGS.items()
)

#: The stencil library: stencil text -> its maker.  Process-wide and keyed
#: by the text alone, which holds no id, slot or position — those are the
#: maker's arguments — so every op of one shape, in any block of any
#: module, shares one ``compile`` call and one code object.  A maker is
#: a pure function of its text, so sharing it across modules is safe.
_STENCILS: Dict[str, Callable[..., Op]] = {}
#: The names every emitted body may read besides its bindings: the
#: codegen constants and the frame class a call pushes.
_STENCIL_SCOPE: Dict[str, object] = dict(
    GLOBALS, _FF=_FastFrame, _respec=respecialize
)


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
        #: dispatch loop's safepoint check costs one tuple unpack.  Every
        #: list exists before any op is built, so an edge or call op binds
        #: its target's list directly.
        self.ops_by_block: Dict[int, List[Tuple[Op, bool]]] = {}
        #: instruction id -> guard-site index: its memoization cell.
        self.guard_site_of: Dict[int, int] = {}
        #: (anchor id, chain ids, variant) -> compiled trace code, shared
        #: across interpreters of the same binary (see machine.tracejit).
        self.trace_codes: Dict[tuple, object] = {}
        blocks = [
            block
            for function in module.functions.values()
            if not function.is_declaration
            for block in function.blocks
        ]
        self.compiled_blocks = len(blocks)
        for block in blocks:
            self.ops_by_block[id(block)] = []
            for inst in block.instructions:
                if guard_name(inst) is not None:
                    self.guard_site_of[id(inst)] = len(self.guard_site_of)
        for block in blocks:
            self.ops_by_block[id(block)].extend(
                (self._compile(inst), inst.is_terminator)
                for inst in block.instructions
            )

    def _compile(self, inst: Instruction) -> Op:
        # Module-shared code knows neither the addressing mode nor the
        # tiering, so the template leaves both as run-time tests.
        w, ns = Writer(), {}
        if emit_op(w, 2, inst, 0, ns, code=self) is None:
            return _closure_op(inst)
        return _stencil_op(w, ns)

    def edge_op(self, source: BasicBlock, target: BasicBlock) -> Op:
        """The op taking the edge ``source`` -> ``target`` alone: a trace's
        side exit."""
        w, ns = Writer(), {}
        emit_edge(w, 2, source, target, ns, self)
        return _stencil_op(w, ns)


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
    counters; the ``dispatch_cache_*``/``compiled_blocks`` and
    ``guard_checks_elided`` fields and the runtime's ``region_cache_*``
    counters are the only additions.
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
        self._guard_cells = [GuardSiteCell() for _ in code.guard_site_of]
        #: Per-site specialized checks, beside the cells they derive from.
        self._guard_specs = [SpecCell() for _ in code.guard_site_of]
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
