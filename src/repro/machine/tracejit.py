"""The second-tier trace JIT: superblock compilation of hot paths.

The fast engine (:mod:`repro.machine.fastexec`) removes per-tick operand
classification but still pays one Python call, one tuple unpack, and one
safepoint check per instruction.  This module removes *that* — without
changing a single observable number:

* per-block hotness counters (bumped at block entry, i.e. at every
  taken branch) promote hot blocks to **anchors**: the next entry starts
  a recording, which captures the dynamic sequence of blocks executed
  until the anchor is re-entered — one superblock, the path a loop
  iteration actually takes;
* superblocks **span call frames**: a call to a defined function stays
  on the trace (the call op's body is inlined — a *real* frame is still
  pushed, so snapshots, faults and depth limits see the true stack —
  then the callee's blocks inline right behind it, and its return pops
  back to the caller mid-block), up to a recursion cap — so a loop
  whose body calls helpers compiles into one closure instead of
  bouncing through the dispatch loop at every call boundary;
* the superblock is compiled into a **single Python closure**: every
  instruction body is inlined into one generated source (the one
  per-instruction template of :mod:`repro.machine.codegen` that the
  block tier wraps per op, emitted with the trace's known addressing
  mode and tiering), interior branch edges collapse their phi
  parallel-copies into direct slot assignments, and ``steps`` /
  ``instructions`` — plus the uniform per-op base cycle charge — are
  batched per block segment, with a fault reconciler that restores the
  exact per-op totals on any raise (the cost model never sees the
  difference);
* conditional branches keep both arms: the off-trace arm is a **side
  exit** that re-enters the block tier mid-loop (``trace_exits``
  counts them), with frame state — ``block``/``ops``/``index`` — kept
  consistent at every instruction boundary so faults, retries, register
  snapshots and world-stop patching all keep working unchanged;
* recordings **join** compiled code instead of unrolling it: one that
  reaches a block with an installed trace in the anchor's own frame
  finishes there as a **linear trace**, a one-shot run that hands
  straight to the trace it joins, and one that reaches an inner loop's
  trace inside a callee ends at that loop's header, at that call depth
  — the nested-loop rule of trace trees, so an outer loop calls its
  inner loop's trace rather than unrolling a data-dependent trip count.
  Inside a callee only *loop* traces are joined: joining a helper's
  return trace there would cut the caller's loop into a linear trace.
  Exits bump their target's hotness (the dispatch loop's notification
  never sees them), so hot off-trace arms record and join back too —
  workloads whose hot loop branches on data (an accept/reject split)
  stay in compiled code on both arms;
* a recording whose anchor frame **returns** closes as a **return
  trace**, ending in the block tier's return op — so a hot function
  with no loop of its own (a request handler) runs compiled from its
  hot block to its return;
* ``carat.guard.*`` sites are **parameter-specialized** à la a
  branch-free translator: the trace bakes a per-site cell holding the
  resolved region's ``base``/``end`` and the mechanism's steady-state
  hit cost, guarded by one generation check against
  ``RegionSet.version`` — a page move, CoW break, or any region
  mutation bumps the generation and demotes the site to the generic
  runtime path, which re-specializes after its next allowed pass
  (``trace_respecializations``);
* the guard optimizer's coverage lattice
  (:func:`repro.carat.guard_opt.guard_tag` /
  :func:`~repro.carat.guard_opt.guard_covered`) is re-run over the
  recorded path at compile time: a guard dominated *on this path* by a
  covering guard (same address value, larger-or-equal constant size,
  write-covers-read) skips even the specialized bounds check and charges
  the steady cost directly (``guard_checks_elided``).  Availability is
  intra-iteration only and is killed by any ``alloca`` and by any
  redefinition of the address value (which includes phis at segment
  heads) — the block tier can run arbitrary code between trace
  invocations, so nothing proven in one iteration survives into the
  next.

Parity contract (enforced by the three-way differential tests): the
trace tier must produce bit-identical program output, memory, and exit
codes to *both* other engines, and semantically identical stats.  The
only fields that may differ are the engine-descriptive counters
(``dispatch_cache_*``, ``region_cache_*``, ``traces_compiled``,
``trace_exits``, ``trace_respecializations``, ``guard_checks_elided``,
``trace_instructions``, ``trace_aborts``).

Compiled trace code is cached on the module
(:attr:`~repro.machine.fastexec.ModuleCode.trace_codes`) keyed by the
recorded chain, where it ends, and the specialization variant, and
*instantiated* per interpreter — specialization cells, cost constants,
and runtime bindings are per-tenant, so multi-tenant schedulers sharing
one binary get per-process generations and isolation for free.  Trace
text names every slot, block and constant through the build-time
namespace, so it depends on the trace's shape alone, and
:data:`_LIBRARY` compiles each text once per process (copy-and-patch):
any module, session or tenant with the same shape reuses the code object
and binds its own operands.
"""

from __future__ import annotations

import hashlib
import marshal
import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.carat.guard_opt import guard_covered, guard_tag
from repro.carat.intrinsics import (
    GUARD_CALL,
    GUARD_LOAD,
    GUARD_RANGE,
    GUARD_STORE,
)
from repro.errors import InterpError
from repro.ir.instructions import (
    AllocaInst,
    BranchInst,
    CallInst,
    Instruction,
    PhiInst,
    ReturnInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import ConstantInt
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.codegen import (
    GLOBALS,
    Writer,
    bind,
    emit_value_op,
    expr,
    is_math_call,
    operand_reads,
)
from repro.machine.fastexec import (
    _Edge,
    _edge_enter,
    _FastFrame,
    FastInterpreter,
    ModuleCode,
)
from repro.machine.interp import ExitProgram

#: Guard mechanisms whose steady-state hit cost can be baked into a
#: specialized check (all three model one — see
#: :meth:`~repro.runtime.regions.GuardMechanism.steady_cycles`).
_SPECIALIZABLE = frozenset({"mpx", "binary_search", "if_tree"})

#: Consecutive recording aborts before an anchor is blacklisted.
_ABORT_LIMIT = 3

_UNBUILT = object()


class _SpecCell:
    """One specialized guard site: the resolved check's baked parameters.

    ``gen`` is the region generation the parameters were derived under;
    ``gen == -1`` means "not specialized" and every comparison against a
    real ``RegionSet.version`` (which starts at 0 and only grows) fails,
    so the site takes the generic runtime path until it re-specializes.
    """

    __slots__ = ("gen", "base", "end", "cycles", "leaf", "region", "access")

    def __init__(self) -> None:
        self.gen = -1
        self.base = 0
        self.end = 0
        self.cycles = 0
        self.leaf = -1
        self.region = None
        self.access = "read"


def _respecialize(spec, cell, regions, mech, access, stats, tracer) -> None:
    """Re-derive a site's baked parameters after a generation bump.

    Called from a trace's generic-guard path right after an *allowed*
    pass through the runtime: the site's
    :class:`~repro.runtime.runtime.GuardSiteCell` was just filled with
    the serving region under the current generation, so a valid cell is
    the common case.  Any doubt — stale cell, foreign RegionSet,
    permission mismatch, or a mechanism with no constant hit cost —
    leaves the site unspecialized (``gen = -1``), which only costs speed,
    never correctness.
    """
    spec.gen = -1
    region = cell.region
    if (
        region is None
        or cell.regions is not regions
        or cell.gen != regions.version
        or not region.allows(access)
    ):
        return
    cycles = mech.steady_cycles(regions)
    if cycles is None:
        return
    spec.region = region
    spec.base = region.base
    spec.end = region.end
    spec.cycles = cycles
    spec.leaf = region.base
    spec.access = access
    spec.gen = cell.gen
    stats.trace_respecializations += 1
    if tracer is not None:
        tracer.instant(
            "trace.respecialize", "trace",
            {"base": region.base, "end": region.end, "gen": cell.gen},
        )


class _Recorder:
    """An in-flight superblock recording: the anchor and the blocks
    entered since, in order, each with its frame depth *relative to the
    anchor frame* (0 = the anchor's own frame, 1 = a callee it pushed,
    ...).  Lives until the path loops back to the anchor, joins an
    installed trace, or leaves the anchor frame through its return."""

    __slots__ = ("frame", "anchor", "chain", "base_len")

    def __init__(self, frame, anchor: BasicBlock, base_len: int) -> None:
        self.frame = frame
        self.anchor = anchor
        self.base_len = base_len
        self.chain: List[Tuple[int, BasicBlock]] = [(0, anchor)]


#: The process-wide trace code library: 16-byte BLAKE2b digest of a trace
#: source -> its code object, marshalled and compressed (live code objects
#: and source-text keys would cost several times the memory).
_LIBRARY: Dict[bytes, bytes] = {}


class _TraceCode:
    """The compiled form of one superblock variant: its code object, from
    the library, and the build-time namespace (slot ids, edge closures,
    fallback ops — all interpreter-independent).  Cached in
    :attr:`ModuleCode.trace_codes`; :meth:`instantiate` binds the
    per-interpreter state (cost constants, guard cells, runtime, fresh
    specialization cells) and returns the executable closure."""

    __slots__ = (
        "code_obj", "ns", "n_spec", "n_blocks", "n_guards", "specialize",
    )

    def __init__(
        self,
        source: str,
        ns: Dict[str, object],
        n_spec: int,
        n_blocks: int,
        n_guards: int,
        specialize: bool,
    ) -> None:
        self.ns = ns
        self.n_spec = n_spec
        self.n_blocks = n_blocks
        self.n_guards = n_guards
        self.specialize = specialize
        key = hashlib.blake2b(source.encode(), digest_size=16).digest()
        blob = _LIBRARY.get(key)
        if blob is None:
            self.code_obj = compile(source, "<tracejit>", "exec")
            _LIBRARY[key] = zlib.compress(marshal.dumps(self.code_obj))
        else:
            self.code_obj = marshal.loads(zlib.decompress(blob))

    def instantiate(self, interp: "TraceInterpreter"):
        scope: Dict[str, object] = dict(GLOBALS)
        scope.update(self.ns)
        scope.update(bind(interp))
        scope["_respec"] = _respecialize
        runtime = interp.process.runtime
        if runtime is not None:
            scope["_rt"] = runtime
            scope["_rs"] = runtime.stats
            scope["_regions"] = runtime.regions
            scope["_windows"] = runtime._move_windows
            scope["_mech"] = runtime.guard
            scope["_tracer"] = runtime.tracer
        else:
            scope["_rt"] = None
            scope["_rs"] = None
            scope["_regions"] = None
            scope["_windows"] = ()
            scope["_mech"] = None
            scope["_tracer"] = None
        for j in range(self.n_spec):
            scope[f"_spec{j}"] = _SpecCell()
        exec(self.code_obj, scope)
        return scope["trace"]


#: Deepest call nesting a trace may inline.  Recording aborts past it
#: (recursion would otherwise unroll without bound) and the layout
#: walker re-checks it when replaying the chain statically.
_MAX_INLINE_DEPTH = 8

#: Straight-line instructions the layout walker will visit before
#: declaring a chain degenerate (chains of single-block callees consume
#: no recorded entries, so the walk needs its own bound).
_LAYOUT_OP_BUDGET = 5000


def _layout(
    chain: List[Tuple[int, BasicBlock]],
    end: Optional[BasicBlock],
    end_depth: int,
):
    """Replay a recorded ``(depth, block)`` chain as a *static* walk from
    the anchor, linearizing it into emission segments.

    Each segment is ``(block, start, end, kind, data)``: body ops
    ``start..end-1`` followed by the control op at ``end`` — a ``"term"``
    (branch; ``data`` is ``(inst, on_trace_target)``), a ``"call"``
    (defined non-carat callee: the trace runs the block tier's call op,
    which pushes a real frame, then continues *inside* the callee's
    entry block), or a ``"return"`` (the block tier's return op pops the
    frame; at depth > 0 ``data`` is ``(inst, paired_call)`` and the walk
    resumes in the caller right after the call).  Calls and returns
    consume no chain entries — recording only observes branch
    terminators, and a callee's entry is statically known from the call
    — so single-block callees inline for free.  Branches consume the
    next entry, which must sit at the walker's depth and be a target of
    the branch.  Once the chain is used up, the walk must close the way
    the recording did:

    * a *loop* trace (``end`` is ``None``, ``end_depth`` 0) re-enters
      the anchor at depth 0;
    * a *linear* trace (``end`` set) enters ``end``, the block whose
      installed trace the recording joined, at depth ``end_depth``;
    * a *return* trace (``end_depth`` -1) leaves the anchor frame
      through a return at depth 0, the last segment (``data`` is
      ``None``).

    Any mismatch — a return at depth 0 anywhere else, mid-block
    terminators, phis or unreachables in a body, depth or target
    disagreement, recursion past :data:`_MAX_INLINE_DEPTH` — returns
    ``None`` (the chain is not a static path; the caller strikes the
    anchor)."""
    anchor = chain[0][1]
    final = anchor if end is None else end
    if chain[0][0] != 0:
        return None
    segments = []
    stack: List[Tuple[BasicBlock, int, CallInst]] = []
    cursor = 1
    block = anchor
    k = block.first_non_phi_index()
    budget = _LAYOUT_OP_BUDGET
    while True:
        insts = block.instructions
        start = k
        while True:
            if k >= len(insts):
                return None
            inst = insts[k]
            if isinstance(
                inst, (BranchInst, ReturnInst, UnreachableInst, PhiInst)
            ):
                break
            if isinstance(inst, CallInst):
                callee = inst.callee
                if (
                    isinstance(callee, Function)
                    and not callee.is_declaration
                    and not callee.name.startswith("carat.")
                ):
                    break
            k += 1
            budget -= 1
            if budget <= 0:
                return None
        inst = insts[k]
        if isinstance(inst, CallInst):
            if len(stack) >= _MAX_INLINE_DEPTH:
                return None
            segments.append((block, start, k, "call", inst))
            stack.append((block, k + 1, inst))
            block = inst.callee.entry
            k = block.first_non_phi_index()
            continue
        if isinstance(inst, ReturnInst):
            if k != len(insts) - 1:
                return None
            if not stack:
                if end_depth != -1 or cursor < len(chain):
                    return None
                segments.append((block, start, k, "return", None))
                return segments
            # The paired call rides along: the return's result lands in
            # the caller slot of the call that pushed this frame, which
            # the walk knows statically.
            segments.append((block, start, k, "return", (inst, stack[-1][2])))
            block, k, _call = stack.pop()
            continue
        if not isinstance(inst, BranchInst) or k != len(insts) - 1:
            return None
        depth = len(stack)
        if cursor < len(chain):
            want_depth, target = chain[cursor]
            cursor += 1
            if want_depth != depth:
                return None
        else:
            if depth != end_depth:
                return None
            target = final
        if not any(t is target for t in inst.targets):
            return None
        segments.append((block, start, k, "term", (inst, target)))
        if cursor >= len(chain) and target is final and depth == end_depth:
            return segments
        block = target
        k = target.first_non_phi_index()


def _trace_guard_tag(inst: CallInst) -> Optional[tuple]:
    """The coverage tag a guard generates *at run time*.  Stricter than
    the static pass: only constant-size address tags participate — a
    dynamic size folds to 0 in the tag, and ``covered`` treats 0 as
    "any size suffices", which is unsound when the actual size varies."""
    tag = guard_tag(inst)
    if tag is None:
        return None
    if tag[0] == "addr" and not isinstance(inst.args[1], ConstantInt):
        return None
    return tag


def _covering_index(available: Dict[tuple, int], tag: tuple) -> Optional[int]:
    """Specialization-cell index of an available guard covering ``tag``."""
    for seen, j in available.items():
        if guard_covered((seen,), tag):
            return j
    return None


def _apply_kills(available: Dict[tuple, int], inst: Instruction) -> None:
    """Runtime availability kills, strictly stronger than the static
    pass's: *any* alloca clears everything (it moves SP out from under
    frame tags, and the static pass's is-static exemption relies on
    whole-function placement the trace cannot see), and defining an SSA
    id kills address tags keyed on it — on a trace, the same block can
    repeat (nested loop unrolled into the chain), so "SSA values are
    never redefined" does not hold for slot contents."""
    if isinstance(inst, AllocaInst):
        available.clear()
        return
    key = id(inst)
    dead = [t for t in available if t[0] == "addr" and t[1] == key]
    for t in dead:
        del available[t]


# ----------------------------------------------------------------------
# Superblock compilation
# ----------------------------------------------------------------------


def _build_trace(
    code: ModuleCode,
    chain: List[Tuple[int, BasicBlock]],
    specialize: bool,
    mech_name: str,
    is_carat: bool,
    has_tier: bool,
    end: Optional[BasicBlock] = None,
    end_depth: int = 0,
) -> Optional[_TraceCode]:
    """Compile one recorded chain into a :class:`_TraceCode`, or ``None``
    if the chain is not linearizable.

    With ``end`` set the result is a *linear trace*: a one-shot run of
    the chain that finishes by entering ``end`` at call depth
    ``end_depth`` — a block that already has an installed trace — and
    returning to the dispatch loop, which chains straight into that
    trace.  Linear traces compile the hot off-trace paths of a parent
    trace (its side-exit targets) and the stretch of an outer loop up to
    an inner loop's trace, so data-dependent branches and trip counts
    stay in compiled code instead of bridging through the block tier.
    With ``end_depth`` -1 the result is a *return trace*: its last
    segment runs the block tier's return op verbatim (the frame pop, the
    caller's result slot, and the program exit when ``main`` returns),
    then hands back to the dispatch loop in the caller.

    The generated source inlines the shared per-instruction templates
    (:func:`~repro.machine.codegen.emit_value_op`, the lines the block
    tier wraps per op) minus the per-op dispatch: one ``while True:``
    walks the segments :func:`_layout` derives from the chain, each a
    ``try:`` region whose ``steps`` / ``instructions`` are batched at its
    control op.  Tick and pause checks are emitted only after terminator
    segments (branches and returns — the safepoints of both other
    engines), never after calls, so safepoint alignment is preserved
    exactly.  Call and return segments end in an inlined copy of the
    block tier's call / return op — the real frame push/pop, with the
    same charges and error states — after which the generated code
    rebinds its ``frame`` / ``values`` locals to ``interp.frames[-1]``;
    guard availability is cleared at those boundaries (the stack pointer
    and the live slot dict both change).  The ``except BaseException``
    reconciler re-derives how many ops of the segment completed from
    ``frame.index`` — which is kept current before every op precisely so
    faults, CoW retries, and register snapshots see the same frame state
    the block tier would show.
    """
    segments = _layout(chain, end, end_depth)
    if segments is None:
        return None

    w = Writer()
    ns: Dict[str, object] = {}
    block_names: Dict[int, str] = {}

    def bref(block: BasicBlock) -> str:
        name = block_names.get(id(block))
        if name is None:
            name = f"_blk{len(block_names)}"
            block_names[id(block)] = name
            ns[name] = block
            ns["_ops" + name[4:]] = code.ops_by_block[id(block)]
        return name

    tag = 0
    spec_count = 0
    guard_count = 0
    available: Dict[tuple, int] = {}
    # Per inlined frame, the slots this iteration has already written
    # there: a read of one cannot miss, so it needs no undefined-value
    # handler.  Phis assigned by the previous iteration's closing edge
    # are deliberately absent.
    defined: List[Set[int]] = [set()]

    def reads(ind: int, lines: List[str], operands, t: int) -> None:
        operand_reads(w, ind, lines, operands, t, ns, defined[-1])

    if mech_name == "mpx":
        mc = " and _mech._bound is _sc.region"
    elif mech_name == "if_tree":
        mc = " and (_mech.stride_hint or _mech._last_leaf == _sc.leaf)"
    else:
        mc = ""

    def fallback(block: BasicBlock, k: int) -> None:
        # The block tier's compiled op, verbatim: it charges its own
        # costs and handles its own errors, so parity is free.
        nonlocal tag
        t = tag
        tag += 1
        ns[f"_op{t}"] = code.ops_by_block[id(block)][k][0]
        w.line(3, f"_op{t}(interp, frame)")

    def emit_hit(ind: int) -> None:
        # The steady-state hit: replicate exactly what the generic path
        # would have charged and written (guards_executed, guard_cycles
        # on both stats objects, the if-tree leaf predictor), minus the
        # call.  `guard_checks_elided` is the only extra write, and it
        # is an engine-descriptive counter outside the parity set.
        if mech_name == "if_tree":
            w.line(ind, "_mech._last_leaf = _sc.leaf")
        w.line(ind, "_rs.guards_executed += 1")
        w.line(ind, "_gc = _sc.cycles")
        w.line(ind, "_rs.guard_cycles += _gc")
        w.line(ind, "stats.guard_cycles += _gc")
        w.line(ind, "stats.cycles += _gc")
        w.line(ind, "stats.guard_checks_elided += 1")

    def emit_guard_access(inst: CallInst, name: str) -> None:
        nonlocal tag, spec_count
        t = tag
        tag += 1
        site = code.guard_site_of[id(inst)]
        access = "read" if name == GUARD_LOAD else "write"
        addr_e = expr(inst.args[0], ns, f"{t}a")
        size_e = expr(inst.args[1], ns, f"{t}s")
        tg = _trace_guard_tag(inst)
        jdom = _covering_index(available, tg) if tg is not None else None
        w.line(3, "stats.cycles += _ci")
        if jdom is not None and mech_name == "binary_search":
            # Full elision: the dominating guard ran this iteration on
            # the same (unredefined) address with a covering size and
            # permission, under this generation; binary search charges
            # by region count alone, so neither the operands nor the
            # bounds need re-checking.
            w.line(3, f"_sc = _spec{jdom}")
            w.line(3, "if _sc.gen == _regions.version and not _windows:")
            emit_hit(4)
            w.line(3, "else:")
            reads(4, [f"_a = int({addr_e})", f"_s = int({size_e})"], inst.args[:2], t)
            w.line(4, f"_gc = _rt.guard_access(_a, _s, '{access}', _cells[{site}])")
            w.line(4, "stats.guard_cycles += _gc")
            w.line(4, "stats.cycles += _gc")
            available.setdefault(tg, jdom)
            return
        reads(3, [f"_a = int({addr_e})", f"_s = int({size_e})"], inst.args[:2], t)
        if jdom is not None:
            # Predictor-dependent mechanisms keep the bounds test (it is
            # what makes the hit provably steady) but share the
            # dominator's cell, inheriting its re-specializations.
            j = jdom
        else:
            j = spec_count
            spec_count += 1
        w.line(3, f"_sc = _spec{j}")
        w.line(
            3,
            "if _sc.gen == _regions.version and not _windows"
            f" and _sc.base <= _a < _sc.end and _a + _s <= _sc.end{mc}:",
        )
        emit_hit(4)
        w.line(3, "else:")
        w.line(4, f"_gc = _rt.guard_access(_a, _s, '{access}', _cells[{site}])")
        w.line(4, "stats.guard_cycles += _gc")
        w.line(4, "stats.cycles += _gc")
        if jdom is None:
            w.line(4, "if _sc.gen != _regions.version:")
            w.line(
                5,
                f"_respec(_sc, _cells[{site}], _regions, _mech, "
                f"'{access}', stats, _tracer)",
            )
        if tg is not None:
            available.setdefault(tg, j)

    def emit_guard_call(inst: CallInst) -> None:
        nonlocal tag, spec_count
        t = tag
        tag += 1
        site = code.guard_site_of[id(inst)]
        size_e = expr(inst.args[0], ns, f"{t}s")
        tg = _trace_guard_tag(inst)
        # A zero-size frame probes exactly the stack pointer, which can
        # sit one past the region the dominator validated — find() would
        # miss there, so never elide it blindly.
        if tg is not None and tg[1] < 1:
            jdom = None
        else:
            jdom = _covering_index(available, tg) if tg is not None else None
        w.line(3, "stats.cycles += _ci")
        if jdom is not None and mech_name == "binary_search":
            size_lit = inst.args[0].value  # tag requires a constant
            w.line(3, f"_sc = _spec{jdom}")
            w.line(3, "if _sc.gen == _regions.version and not _windows:")
            emit_hit(4)
            w.line(3, "else:")
            w.line(4, f"_gc = _rt.guard_call(interp.sp, {size_lit}, _cells[{site}])")
            w.line(4, "stats.guard_cycles += _gc")
            w.line(4, "stats.cycles += _gc")
            available.setdefault(tg, jdom)
            return
        reads(3, [f"_s = int({size_e})"], inst.args[:1], t)
        w.line(3, "_a = interp.sp - _s")
        if jdom is not None:
            j = jdom
        else:
            j = spec_count
            spec_count += 1
        w.line(3, f"_sc = _spec{j}")
        w.line(
            3,
            "if _sc.gen == _regions.version and not _windows"
            f" and _sc.base <= _a < _sc.end and _a + _s <= _sc.end{mc}:",
        )
        emit_hit(4)
        w.line(3, "else:")
        w.line(4, f"_gc = _rt.guard_call(interp.sp, _s, _cells[{site}])")
        w.line(4, "stats.guard_cycles += _gc")
        w.line(4, "stats.cycles += _gc")
        if jdom is None:
            w.line(4, "if _sc.gen != _regions.version:")
            w.line(
                5,
                f"_respec(_sc, _cells[{site}], _regions, _mech, "
                f"'write', stats, _tracer)",
            )
        if tg is not None:
            available.setdefault(tg, j)

    def emit_guard_range(inst: CallInst) -> None:
        nonlocal tag, spec_count
        t = tag
        tag += 1
        site = code.guard_site_of[id(inst)]
        args = inst.args
        addr_e = expr(args[0], ns, f"{t}a")
        len_e = expr(args[1], ns, f"{t}n")
        w.line(3, "stats.cycles += _ci")
        lines = [f"_a = int({addr_e})", f"_s = int({len_e})"]
        if len(args) > 2 and not isinstance(args[2], ConstantInt):
            flag_e = expr(args[2], ns, f"{t}f")
            lines.append(f"_c = 'write' if int({flag_e}) else 'read'")
            acc = "_c"
        elif len(args) > 2:
            acc = "'write'" if args[2].value else "'read'"
        else:
            acc = "'read'"
        reads(3, lines, args[: len(lines)], t)
        j = spec_count
        spec_count += 1
        w.line(3, f"_sc = _spec{j}")
        w.line(
            3,
            "if 0 < _s and _sc.gen == _regions.version and not _windows"
            f" and {acc} == _sc.access"
            f" and _sc.base <= _a < _sc.end and _a + _s <= _sc.end{mc}:",
        )
        emit_hit(4)
        w.line(3, "else:")
        w.line(4, f"_gc = _rt.guard_range(_a, _s, {acc}, _cells[{site}])")
        w.line(4, "stats.guard_cycles += _gc")
        w.line(4, "stats.cycles += _gc")
        w.line(4, "if 0 < _s and _sc.gen != _regions.version:")
        w.line(
            5,
            f"_respec(_sc, _cells[{site}], _regions, _mech, "
            f"{acc}, stats, _tracer)",
        )

    def emit_op(block: BasicBlock, k: int, inst: Instruction) -> None:
        nonlocal tag, guard_count
        if isinstance(inst, CallInst):
            callee = inst.callee
            name = callee.name if isinstance(callee, Function) else ""
            if name in (GUARD_LOAD, GUARD_STORE, GUARD_CALL, GUARD_RANGE):
                guard_count += 1
                if specialize:
                    if name in (GUARD_LOAD, GUARD_STORE):
                        emit_guard_access(inst, name)
                    elif name == GUARD_CALL:
                        emit_guard_call(inst)
                    else:
                        emit_guard_range(inst)
                    return
            if not is_math_call(inst):
                fallback(block, k)
                return
        t = tag
        tag += 1
        if emit_value_op(w, 3, inst, t, ns, is_carat, has_tier, defined[-1]):
            # A template writes its result whenever it completes (a
            # builtin call op, say, may not).
            defined[-1].add(id(inst))
        else:
            # frem, select, alloca and the rare fault forms: the block
            # tier's op already charges and faults exactly right.
            fallback(block, k)

    def emit_edge_inline(src: BasicBlock, dst: BasicBlock, ind: int) -> None:
        nonlocal tag
        t = tag
        tag += 1
        phis = dst.phis()
        if phis:
            vals = [phi.incoming_for_block(src) for phi in phis]
            lines = [f"_hv{k2} = {expr(v, ns, f'{t}h{k2}')}" for k2, v in enumerate(vals)]
            reads(ind, lines, vals, t)
            nmv = len(phis)
            if nmv > 1:
                w.line(ind, f"stats.cycles += _ci * {nmv}")
            else:
                w.line(ind, "stats.cycles += _ci")
            w.line(ind, f"stats.instructions += {nmv}")
            for k2, phi in enumerate(phis):
                ns[f"_d{t}h{k2}"] = id(phi)
                w.line(ind, f"values[_d{t}h{k2}] = _hv{k2}")
                defined[-1].add(id(phi))
        w.line(ind, f"frame.prev_block = {bref(src)}")
        w.line(ind, f"frame.block = {bref(dst)}")
        w.line(ind, f"frame.ops = _ops{bref(dst)[4:]}")
        w.line(ind, f"frame.index = {dst.first_non_phi_index()}")

    def emit_terminator(
        si: int, block: BasicBlock, term: BranchInst, nxt: BasicBlock
    ) -> Optional[str]:
        nonlocal tag
        w.line(3, "stats.cycles += _ci")
        if not term.is_conditional:
            emit_edge_inline(block, nxt, 3)
            return None
        t = tag
        tag += 1
        reads(3, [f"_c = {expr(term.condition, ns, f'{t}c')}"], (term.condition,), t)
        on_true = term.targets[0] is nxt
        on_false = term.targets[1] is nxt
        if on_true and on_false:
            # Both arms land on the trace (same block); the condition was
            # still evaluated for error parity, its value is moot.
            emit_edge_inline(block, nxt, 3)
            return None
        off_target = term.targets[1] if on_true else term.targets[0]
        ns[f"_x{t}"] = _edge_enter(_Edge(code, block, off_target))
        ns[f"_e{si}"] = {
            "anchor": chain[0][1].name,
            "function": block.parent.name,
            "from": block.name,
            "to": off_target.name,
        }
        flag = f"_of{si}"
        if on_true:
            w.line(3, "if _c:")
            emit_edge_inline(block, nxt, 4)
            w.line(4, f"{flag} = False")
            w.line(3, "else:")
            w.line(4, f"_x{t}(interp, frame)")
            w.line(4, f"{flag} = True")
        else:
            w.line(3, "if _c:")
            w.line(4, f"_x{t}(interp, frame)")
            w.line(4, f"{flag} = True")
            w.line(3, "else:")
            emit_edge_inline(block, nxt, 4)
            w.line(4, f"{flag} = False")
        return flag

    def emit_call_inline(inst: CallInst) -> None:
        # The frame push of the block tier's call op, inlined so the
        # trace continues inside the callee: same charge order (depth
        # check between the instruction and call costs), same error
        # states (undefined args raise before the push), and a
        # directly-slotted frame that is field-for-field what
        # _FastFrame(...) constructs, without the constructor chain.
        nonlocal tag
        t = tag
        tag += 1
        callee = inst.callee
        ns["_FF"] = _FastFrame
        ns[f"_fu{t}"] = callee
        ns[f"_rt{t}"] = inst if not inst.type.is_void else None
        eb = bref(callee.entry)
        w.line(3, "stats.cycles += _ci")
        w.line(3, "stats.calls += 1")
        w.line(3, "if len(interp.frames) >= interp.max_call_depth:")
        w.line(
            4,
            "raise _ierr(f'call depth exceeded "
            f"({{interp.max_call_depth}}) calling @{callee.name}')",
        )
        w.line(3, "stats.cycles += _cc")
        w.line(3, "_nf = _FF.__new__(_FF)")
        w.line(3, f"_nf.function = _fu{t}")
        w.line(3, f"_nf.block = {eb}")
        w.line(3, "_nf.index = 0")
        w.line(3, "_nv = {}")
        w.line(3, "_nf.values = _nv")
        w.line(3, "_nf.sp_on_entry = interp.sp")
        w.line(3, f"_nf.result_target = _rt{t}")
        w.line(3, "_nf.prev_block = None")
        w.line(3, f"_nf.ops = _ops{eb[4:]}")
        if inst.args:
            lines = []
            for j, (formal, actual) in enumerate(zip(callee.args, inst.args)):
                ns[f"_d{t}a{j}"] = id(formal)
                lines.append(f"_nv[_d{t}a{j}] = {expr(actual, ns, f'{t}a{j}')}")
            reads(3, lines, inst.args, t)
        w.line(3, "interp.frames.append(_nf)")
        # The callee frame starts with only its formals set.
        defined.append({id(formal) for formal in callee.args[: len(inst.args)]})

    def emit_return_inline(inst: ReturnInst, call: CallInst) -> None:
        # The frame pop of the block tier's return op, inlined: inside a
        # trace the popped frame is never the last (the matching call
        # segment's caller is below it), so the program-exit arm is
        # statically dead, and the result slot is the paired call's,
        # known from the layout walk.
        nonlocal tag
        t = tag
        tag += 1
        w.line(3, "stats.cycles += _ci")
        rv = inst.return_value
        if rv is not None:
            reads(3, [f"_v = {expr(rv, ns, f'{t}r')}"], (rv,), t)
        w.line(3, "interp.sp = frame.sp_on_entry")
        w.line(3, "interp.frames.pop()")
        defined.pop()
        if rv is not None and not call.type.is_void:
            ns[f"_d{t}"] = id(call)
            w.line(3, f"interp.frames[-1].values[_d{t}] = _v")
            defined[-1].add(id(call))

    w.line(0, "def trace(interp, frame, steps, max_steps):")
    w.line(1, "stats = interp.stats")
    w.line(1, "values = frame.values")
    w.line(1, "while True:")
    ci_line = "    " * 3 + "stats.cycles += _ci"
    for si, (block, start, stop, kind, data) in enumerate(segments):
        insts = block.instructions
        w.line(2, "try:")
        mark = len(w.lines)
        for k in range(start, stop):
            inst = insts[k]
            w.line(3, f"frame.index = {k + 1}")
            emit_op(block, k, inst)
            _apply_kills(available, inst)
        # Batch the uniform per-op base charge: every inline op opens
        # with exactly one top-level `stats.cycles += _ci` *before*
        # anything that can raise, so when the count matches the op
        # count (i.e. no fallback op charged internally), the sum can
        # be hoisted to the segment top and the fault reconciler below
        # subtracts the ops that never ran.  Mid-segment observers see
        # cycles only through the ops' own extra charges (memory, tier,
        # guard), which stay in place; ticks and pauses run at segment
        # boundaries, where the batched total is the exact total.
        n_ci = 0
        if stop > start:
            body = w.lines[mark:]
            n_ci = body.count(ci_line)
            if n_ci == stop - start and n_ci > 1:
                w.lines[mark:] = [ln for ln in body if ln != ci_line]
                w.lines.insert(mark, "    " * 3 + f"stats.cycles += {n_ci} * _ci")
            else:
                n_ci = 0
        w.line(3, f"frame.index = {stop + 1}")
        exit_flag = None
        if kind == "term":
            term, target = data
            exit_flag = emit_terminator(si, block, term, target)
            # The on-trace edge assigned the target's phis: any
            # availability tag keyed on a phi's SSA id refers to the
            # previous iteration's value now.
            for phi in target.phis():
                pid = id(phi)
                for tg in [
                    tg
                    for tg in available
                    if tg[0] == "addr" and tg[1] == pid
                ]:
                    del available[tg]
        elif kind == "call":
            emit_call_inline(data)
        elif data is None:
            fallback(block, stop)
        else:
            emit_return_inline(*data)
        w.line(2, "except BaseException:")
        if n_ci:
            # Un-charge the batched base cost of the body ops that never
            # ran: the faulting op (at frame.index - 1) and everything
            # before it did charge theirs in the reference engine.
            w.line(3, f"_done = frame.index - {start}")
            w.line(3, f"if _done < {n_ci}:")
            w.line(4, f"stats.cycles -= ({n_ci} - _done) * _ci")
        w.line(3, f"stats.instructions += frame.index - 1 - {start}")
        w.line(3, "raise")
        nops = stop + 1 - start
        w.line(2, f"steps += {nops}")
        w.line(2, f"stats.instructions += {nops}")
        last = si == len(segments) - 1
        if kind != "term" and not last:
            # The frame just changed (push on call, pop on return):
            # rebind the locals every inlined template reads, and forget
            # guard availability — the stack pointer moved and the slot
            # dict is a different frame's.
            w.line(2, "frame = interp.frames[-1]")
            w.line(2, "values = frame.values")
            available.clear()
        if kind == "call":
            # A call is not a safepoint in either other engine: no tick,
            # no pause check.
            continue
        w.line(2, "if stats.instructions >= interp._next_tick:")
        w.line(3, "interp._next_tick = stats.instructions + interp.tick_interval")
        w.line(3, "_hook = interp.tick_hook")
        w.line(3, "if _hook is not None:")
        w.line(4, "_hook(interp)")
        if exit_flag is not None:
            w.line(2, f"if {exit_flag}:")
            w.line(3, "stats.trace_exits += 1")
            w.line(3, "if _tracer is not None and _tracer.fine:")
            w.line(4, f"_tracer.instant('trace.exit', 'trace', _e{si})")
            w.line(3, "return steps")
        if last and (end is not None or end_depth < 0):
            # A linear trace's closing edge just entered ``end`` (its
            # phis assigned, index at first_non_phi); a return trace's
            # return just popped the anchor frame.  Either way hand
            # control back: the dispatch loop chains into the trace
            # installed at ``end``, or resumes the caller mid-block.
            w.line(2, "return steps")
        else:
            w.line(2, "if steps >= max_steps:")
            w.line(3, "return steps")

    return _TraceCode(
        w.source(), ns, spec_count, len(chain), guard_count, specialize
    )


# ----------------------------------------------------------------------
# The trace-tier interpreter
# ----------------------------------------------------------------------


class TraceInterpreter(FastInterpreter):
    """The block tier plus a recording trace tier.

    Execution starts in the inherited fast dispatch loop.  Every block
    *entered through a branch* (i.e. every loop back-edge or join) bumps
    a hotness counter; at ``trace_threshold`` the block becomes an
    anchor and the next entry records the dynamic block chain until the
    anchor recurs, which is then compiled by :func:`_build_trace` and
    installed.  From then on, entering the anchor at a safepoint runs
    the compiled superblock until it side-exits, pauses at the step
    quota, or faults back to the block tier.  Side exits bump the
    hotness of the block they land on, so hot off-trace arms anchor
    recordings too.  A recording also finishes as a *linear* trace when
    it reaches an installed trace it may join (any, in the anchor's own
    frame; a loop trace, inside a callee), and as a *return* trace when
    the anchor frame returns — so a hot request handler compiles from
    its hot block to its return, and an outer loop hands its inner
    loop's iterations to that loop's trace.

    Compiled trace *code* is shared across interpreters of the same
    module (``ModuleCode.trace_codes``); the per-interpreter
    ``instantiate`` binds cost constants, guard cells, and fresh
    specialization cells, so tenants never see each other's generations.

    Limitations, by design: no tracing under an attached profiler (the
    profiled loop needs per-op cycle attribution, which batching
    destroys — ``run_steps`` falls back to the inherited profiled block
    tier), and no exit-ratio demotion (a compiled trace stays installed
    even if its side exits dominate; the side exits themselves are
    cheap, and the block tier it lands in is the engine everything else
    runs on anyway).
    """

    #: Block entries before a block is promoted to a trace anchor.
    trace_threshold = 16
    #: Longest chain a recording may span before it aborts (counted in
    #: branch-entered blocks; inlined callee entries ride along free).
    trace_max_blocks = 48

    def __init__(
        self,
        process: Process,
        kernel: Kernel,
        max_call_depth: int = 512,
        stack_range: Optional[Tuple[int, int]] = None,
        thread_id: int = 0,
    ) -> None:
        super().__init__(process, kernel, max_call_depth, stack_range, thread_id)
        self._hot: Dict[int, int] = {}
        self._traces: Dict[int, object] = {}
        #: Anchors whose installed trace is a loop trace: the only ones a
        #: recording may join from inside a callee.
        self._loops: Set[int] = set()
        self._trace_blacklist: set = set()
        self._trace_aborts: Dict[int, int] = {}
        self._recorder: Optional[_Recorder] = None

    def set_trace_tuning(
        self,
        threshold: Optional[int] = None,
        max_blocks: Optional[int] = None,
    ) -> None:
        """Override promotion threshold / chain cap (CLI plumbing)."""
        if threshold is not None:
            if threshold < 1:
                raise ValueError("trace threshold must be >= 1")
            self.trace_threshold = threshold
        if max_blocks is not None:
            if max_blocks < 1:
                raise ValueError("trace max blocks must be >= 1")
            self.trace_max_blocks = max_blocks

    # -- promotion / recording ------------------------------------------

    def _note_hot_entry(self, frame) -> None:
        key = id(frame.block)
        if key in self._trace_blacklist:
            return
        count = self._hot.get(key, 0) + 1
        if count >= self.trace_threshold:
            self._hot[key] = 0
            self._recorder = _Recorder(frame, frame.block, len(self.frames))
        else:
            self._hot[key] = count

    def _note_recorded_entry(self, frame):
        """One branch-entered block while recording; returns the
        installed trace closure to run now, else ``None``.

        Entries are recorded with their frame depth relative to the
        anchor frame: calls push frames without notifying (call ops are
        not terminators), so a callee's interior branches arrive at
        depth > 0 and the layout walker re-derives the call/return
        structure statically.  The recording closes in one of three ways:

        * back at the anchor, at depth 0: a *loop* trace;
        * at a block with an installed trace it may join — any trace at
          depth 0, only a *loop* trace at depth > 0: a *linear* trace
          ending there, at that depth, and the joined trace runs now;
        * with the anchor frame gone from the stack (it returned; the
          stack may since have re-grown through other calls): a
          *return* trace.  The chain is complete — nothing after the
          return was recorded.

        It aborts on recursion past the inline cap, which would
        otherwise unroll without bound, and on a chain past
        ``trace_max_blocks``."""
        rec = self._recorder
        frames = self.frames
        base = rec.base_len
        if len(frames) < base or frames[base - 1] is not rec.frame:
            self._recorder = None
            self._finish_trace(rec, end_depth=-1)
            return None
        depth = len(frames) - base
        if depth > _MAX_INLINE_DEPTH:
            self._abort_recording("depth")
            return None
        block = frame.block
        if depth == 0 and block is rec.anchor:
            self._recorder = None
            return self._finish_trace(rec)
        joined = self._traces.get(id(block))
        if joined is not None and (depth == 0 or id(block) in self._loops):
            self._recorder = None
            self._finish_trace(rec, block, depth)
            return joined
        if len(rec.chain) >= self.trace_max_blocks:
            self._abort_recording("length")
            return None
        rec.chain.append((depth, block))
        return None

    def _abort_recording(self, reason: str) -> None:
        rec = self._recorder
        self._recorder = None
        self._strike(id(rec.anchor), reason)

    def _strike(self, key: int, reason: str) -> None:
        self.stats.trace_aborts[reason] += 1
        count = self._trace_aborts.get(key, 0) + 1
        self._trace_aborts[key] = count
        if count >= _ABORT_LIMIT:
            self._trace_blacklist.add(key)

    def _finish_trace(
        self,
        rec: _Recorder,
        end: Optional[BasicBlock] = None,
        end_depth: int = 0,
    ):
        runtime = self.process.runtime
        tracer = runtime.tracer if runtime is not None else None
        # Specialization bakes per-site region parameters; it must sit
        # out when there is nothing to bake (no runtime), when the
        # mechanism has no steady-state cost to bake, when a
        # fine-detail tracer expects one instant per guard check (the
        # specialized hit emits none), or in safety mode — the
        # specialized hit elides the runtime call that performs the
        # liveness check, so safety falls back to generic guards.
        specialize = (
            runtime is not None
            and runtime.region_cache_enabled
            and runtime.guard.name in _SPECIALIZABLE
            and not (tracer is not None and tracer.fine)
            and runtime.safety is None
        )
        mech_name = runtime.guard.name if specialize else ""
        has_tier = self._tier_boundary is not None
        anchor_key = id(rec.anchor)
        key = (
            anchor_key,
            tuple((d, id(b)) for d, b in rec.chain[1:]),
            specialize,
            mech_name,
            self.is_carat,
            has_tier,
            0 if end is None else id(end),
            end_depth,
        )
        tcode = self._code.trace_codes.get(key, _UNBUILT)
        if tcode is _UNBUILT:
            # A chain the compiler cannot linearize comes back as None;
            # an exception is a compiler bug and propagates.
            tcode = _build_trace(
                self._code, rec.chain, specialize, mech_name,
                self.is_carat, has_tier, end, end_depth,
            )
            self._code.trace_codes[key] = tcode  # None caches the reject
        if tcode is None:
            self._strike(anchor_key, "reject")
            return None
        fn = tcode.instantiate(self)
        self._traces[anchor_key] = fn
        if end is None and end_depth == 0:
            self._loops.add(anchor_key)
        self.stats.traces_compiled += 1
        if tracer is not None:
            tracer.instant(
                "trace.compile", "trace",
                {
                    "anchor": rec.anchor.name,
                    "function": rec.anchor.parent.name,
                    "blocks": tcode.n_blocks,
                    "guards": tcode.n_guards,
                    "specialized": tcode.specialize,
                    "inline_depth": max(d for d, _b in rec.chain),
                    "linear": end is not None,
                    "end_depth": end_depth,
                },
            )
        return fn

    # -- dispatch --------------------------------------------------------

    def run_steps(self, max_steps: int) -> str:
        """The fast dispatch loop plus the trace tier at safepoints.

        Identical contract to :meth:`FastInterpreter.run_steps`; the only
        added work per terminator is one dict probe.  Under a profiler
        the inherited per-op profiled loop runs instead (traces batch
        step accounting, which would wreck per-function attribution).
        """
        if self.profiler is not None:
            return self._run_steps_profiled(max_steps)
        steps = 0
        at_safepoint = False
        frames = self.frames
        stats = self.stats
        hard_stop = max_steps + 100_000
        traces = self._traces
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
            if is_terminator:
                if stats.instructions >= self._next_tick:
                    self._next_tick = stats.instructions + self.tick_interval
                    if self.tick_hook is not None:
                        self.tick_hook(self)
                if frames and frames[-1] is frame:
                    if self._recorder is not None:
                        fn = self._note_recorded_entry(frame)
                    else:
                        fn = traces.get(id(frame.block))
                        if fn is None:
                            self._note_hot_entry(frame)
                    if fn is not None:
                        try:
                            while fn is not None and steps < max_steps:
                                depth = len(frames)
                                entered = stats.instructions
                                try:
                                    steps = fn(self, frame, steps, max_steps)
                                finally:
                                    stats.trace_instructions += (
                                        stats.instructions - entered
                                    )
                                if len(frames) > depth:
                                    # The trace stopped inside a callee,
                                    # at a block entry: a linear trace
                                    # that joined an inner loop's trace,
                                    # or a side exit there.
                                    frame = frames[-1]
                                elif frames[-1] is not frame:
                                    break  # a return trace: caller mid-block
                                fn = traces.get(id(frame.block))
                                if (
                                    fn is None
                                    and steps < max_steps
                                    and self._recorder is None
                                ):
                                    # Exits bypass the terminator
                                    # notification above, so bump the
                                    # target's hotness here or the exit
                                    # path can never promote.
                                    self._note_hot_entry(frame)
                        except ExitProgram as exit_request:
                            self.exit_code = exit_request.code
                            frames.clear()
                            break
        if not frames:
            self.finished = True
            self.kernel.exit_process(self.process, self.exit_code)
            return "done"
        return "running"
