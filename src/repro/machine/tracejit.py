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
  on the trace (the call template is inlined — a *real* frame is still
  pushed, so snapshots, faults and depth limits see the true stack —
  then the callee's blocks inline right behind it, and its return pops
  back to the caller mid-block), up to a recursion cap — so a loop
  whose body calls helpers compiles into one closure instead of
  bouncing through the dispatch loop at every call boundary;
* the superblock is compiled into a **single Python closure**: every
  instruction body is inlined into one generated source (the one
  per-instruction template of :mod:`repro.machine.codegen` that the
  block tier wraps per op or per segment, emitted with the trace's known
  addressing mode, tiering, on-trace branch targets and paired calls —
  there is no fallback for ``select``, ``alloca``, ``frem`` or the heap
  builtins; only I/O builtin calls and one-line faults call the block
  tier's op),
  interior branch edges collapse their phi parallel-copies into direct
  slot assignments, and ``instructions`` and every static charge (base
  and memory cycles, loads, stores, bytes) are settled once per block
  segment, with a fault reconciler that restores the exact per-op totals
  on any raise (the cost model never sees the difference); the safepoint
  after a segment is one compare against ``_stop``, and ``steps`` is
  derived from ``instructions`` (see :func:`_build_trace`);
* within a segment, template results are **registers**: the store
  writes through to a Python local (``values[_d<t>] = _r<t> = ...``) and
  later reads use the local (slots hold their IR type's Python type, so
  no read needs an ``int()``/``float()`` wrapper but a cross-type one:
  see :func:`~repro.machine.codegen._convert`).  The map is cleared at every *invalidation
  point* — segment start (a tick hook may have patched any slot; calls
  and returns end segments) and after a fallback op; mid-segment, only
  the guards' runtime path, tracking callbacks and ``_respec`` run foreign code
  (the heat-window bump of a load or store is inline), and none writes
  a frame slot.  ``frame.index`` is stored
  only before an op that can raise or call out (loads, stores, guards,
  tracking intrinsics, fallbacks, calls, allocas, ``frem``, checked
  div/rem/shift, ``fptosi``, math and heap builtins, reads under the
  undefined-value handler, side-exiting branches): everything that
  reads it runs after such a store;
* conditional branches keep both arms: the off-trace arm is a **side
  exit** — a call of the block tier's op for that edge, stenciled from
  the same edge template — that re-enters the block tier mid-loop
  (``trace_exits`` counts them), with frame state — ``block``/``ops``/``index`` — kept
  consistent wherever it can be observed, so faults, retries, register
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
  trace**, ending in the return template as the block tier runs it
  (no paired call: the program-exit arm stays) — so a hot function
  with no loop of its own (a request handler) runs compiled from its
  hot block to its return;
* ``carat.guard.*`` sites are **parameter-specialized** à la a
  branch-free translator, with the block tier's own check
  (:func:`repro.machine.codegen._guard`), told the mechanism: the trace
  bakes a per-site :class:`~repro.machine.codegen.SpecCell` holding the
  resolved region's ``base``/``end`` and the mechanism's hit costs,
  guarded by one generation check against ``RegionSet.version`` — a
  page move, CoW break, or any region mutation bumps the generation and
  demotes the site to the runtime path, which re-specializes after its
  next allowed pass (``trace_respecializations``).  The cell pairs the
  steady hit cost with the one a predictor miss pays (MPX's bounds
  register holding another region, if-tree's last leaf being another
  one), selected and updated inline exactly as ``check_known`` would,
  so code that alternates between regions (globals, heap, stack) stays
  on the trace.  Only the runtime path searches, faults or
  re-specializes;
* the guard optimizer's coverage lattice
  (:func:`repro.carat.guard_opt.guard_tag` /
  :func:`~repro.carat.guard_opt.guard_covered`) is re-run over the
  recorded path at compile time: a guard dominated *on this path* by a
  covering guard (same address value, larger-or-equal constant size,
  write-covers-read) shares the dominator's cell, and under binary
  search, which charges by region count alone, skips even the bounds
  check and its operand reads.  This coverage elision is the trace
  tier's only guard logic of its own.  Availability is
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

Compiled trace code is cached beside the block code of the run's facts
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
from repro.carat.intrinsics import GUARD_CALL, GUARD_RANGE
from repro.ir.instructions import (
    AllocaInst,
    BranchInst,
    CallInst,
    Instruction,
    PhiInst,
    ReturnInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock
from repro.ir.values import ConstantInt
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.codegen import (
    SETTLED,
    Regs,
    SpecCell,
    Writer,
    bind,
    builtin_template,
    emit_op,
    guard_name,
    pushes_frame,
    respecialize,
    specializes,
)
from repro.machine.fastexec import _STENCIL_SCOPE, FastInterpreter, Lists, ModuleCode

#: Consecutive recording aborts before an anchor is blacklisted.
_ABORT_LIMIT = 3

_UNBUILT = object()


def _respecialize(spec, cell, interp, access) -> None:
    """:func:`~repro.machine.codegen.respecialize`, counted: a trace's
    re-specializations are ``trace_respecializations`` and instants."""
    if respecialize(spec, cell, interp, access):
        interp.stats.trace_respecializations += 1
        tracer = interp.process.runtime.tracer
        if tracer is not None:
            tracer.instant(
                "trace.respecialize", "trace",
                {"base": spec.base, "end": spec.end, "gen": spec.gen},
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
    the library, and the build-time namespace (slot ids, blocks, side-exit
    edge ops, fallback ops, settlement rows — all interpreter-independent)
    and ``settled``, each settled segment's base and memory charge
    counts.  Cached in :attr:`ModuleCode.trace_codes`; :meth:`instantiate`
    binds the per-interpreter state (cost constants and the segments'
    settled cycle charges, guard cells, runtime, fresh specialization
    cells) and returns the executable closure."""

    __slots__ = (
        "code_obj", "ns", "n_spec", "n_blocks", "n_guards", "specialize",
        "settled",
    )

    def __init__(
        self,
        source: str,
        ns: Dict[str, object],
        n_spec: int,
        n_blocks: int,
        n_guards: int,
        specialize: bool,
        settled: List[Tuple[str, int, int]],
    ) -> None:
        self.ns = ns
        self.settled = settled
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
        scope: Dict[str, object] = dict(_STENCIL_SCOPE)
        scope.update(self.ns)
        scope.update(bind(interp))
        scope["_respec"] = _respecialize
        scope["_unsettle"] = _unsettle
        scope["_safepoint"] = _safepoint
        ci, cm = interp._cost_instruction, interp._cost_memory
        for name, n_ci, n_cm in self.settled:
            scope[name] = n_ci * ci + n_cm * cm
        for j in range(self.n_spec):
            scope[f"_spec{j}"] = SpecCell()
        exec(self.code_obj, scope)
        return scope["trace"]


#: Deepest call nesting a trace may inline.  Recording aborts past it
#: (recursion would otherwise unroll without bound) and the layout
#: walker re-checks it when replaying the chain statically.
_MAX_INLINE_DEPTH = 8

#: Longest chain a recording may span before it aborts (counted in
#: branch-entered blocks; inlined callee entries ride along free).
_MAX_TRACE_BLOCKS = 48

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
    (branch; ``data`` is the on-trace target), a ``"call"`` (defined
    non-carat callee: the call template pushes a real frame, then the
    trace continues *inside* the callee's entry block), or a
    ``"return"`` (the return template pops the frame; at depth > 0
    ``data`` is the paired call and the walk resumes in the caller right
    after it).  Calls and returns
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
            if pushes_frame(inst):
                break
            k += 1
            budget -= 1
            if budget <= 0:
                return None
        inst = insts[k]
        if isinstance(inst, CallInst):
            if len(stack) >= _MAX_INLINE_DEPTH:
                return None
            segments.append((block, start, k, "call", None))
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
            segments.append((block, start, k, "return", stack[-1][2]))
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
        segments.append((block, start, k, "term", target))
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
    lists: Lists,
    chain: List[Tuple[int, BasicBlock]],
    specialize: bool,
    mech_name: str,
    end: Optional[BasicBlock] = None,
    end_depth: int = 0,
) -> Optional[_TraceCode]:
    """Compile one recorded chain into a :class:`_TraceCode`, or ``None``
    if the chain is not linearizable.  ``lists`` are the run's block op
    lists, one op per instruction: its fallback ops, side exits and
    pushed frames run them.

    With ``end`` set the result is a *linear trace*: a one-shot run of
    the chain that finishes by entering ``end`` at call depth
    ``end_depth`` — a block that already has an installed trace — and
    returning to the dispatch loop, which chains straight into that
    trace.  Linear traces compile the hot off-trace paths of a parent
    trace (its side-exit targets) and the stretch of an outer loop up to
    an inner loop's trace, so data-dependent branches and trip counts
    stay in compiled code instead of bridging through the block tier.
    With ``end_depth`` -1 the result is a *return trace*: its last
    segment is the return template with no paired call, as the block
    tier runs it (the frame pop, the caller's result slot from
    ``frame.result_target``, and the program exit when ``main``
    returns), then hands back to the dispatch loop in the caller.

    The generated source inlines the shared per-instruction templates
    (:func:`~repro.machine.codegen.emit_op`, the lines the block tier
    wraps per op) minus the per-op dispatch: one ``while True:``
    walks the segments :func:`_layout` derives from the chain, each a
    ``try:`` region whose ``instructions`` are counted at its control op
    (a call or return counts its body before the push or pop, so the
    count is exact at every frame switch).  Each segment settles its
    ops' static charges once, at its top (:func:`_settlement`): the base
    and memory cycles — unless an op runs foreign code, which may read
    the clock — and the loads, stores and CARAT bytes.  Tick and pause
    checks are emitted only after terminator segments (branches and
    returns — the safepoints of both other engines), never after calls,
    so safepoint alignment is preserved exactly; each is one compare,
    ``stats.instructions >= _stop``, which a side exit trips by setting
    ``_stop`` to -1.  ``steps`` is never counted: the slow path and every
    return derive it from the instructions since entry, less the phis
    the on-trace edges assigned (a static count per pass of the
    segments).  A branch segment ends in the branch template told its
    on-trace target, whose other arm calls the block tier's edge op (a
    side exit); call and return segments end in the call / return
    template — the real frame push/pop, with the return told its paired
    call — after which the generated code
    rebinds its ``frame`` / ``values`` locals to ``interp.frames[-1]``;
    guard availability is cleared at those boundaries (the stack pointer
    and the live slot dict both change).  The ``except BaseException``
    reconciler re-derives how many ops of the segment completed from
    ``frame.index`` — stored before every op that can raise or call out,
    so faults, CoW retries and register snapshots see the same frame
    state the block tier would show — and takes back the settled charges
    the reference had not made by then (a faulting load's or store's
    undefined-value handler takes back its own memory charge and count).
    """
    segments = _layout(chain, end, end_depth)
    if segments is None:
        return None
    is_carat, has_tier, _ = code.facts

    w = Writer()
    ns: Dict[str, object] = {}

    tag = 0
    spec_count = 0
    guard_count = 0
    available: Dict[tuple, int] = {}
    # Per inlined frame, the slots this iteration has already written
    # there: a read of one cannot miss, so it needs no undefined-value
    # handler.  Phis assigned by the previous iteration's closing edge
    # are deliberately absent.
    defined: List[Set[int]] = [set()]
    # The segment's register map (codegen.Regs): reset at every segment
    # start (calls and returns end one) and after every fallback op.
    regs: Regs = {}
    # Each settled segment's cycle charge, bound per interpreter:
    # (name, base charges, memory charges); and the settlement rows.
    settled: List[Tuple[str, int, int]] = []
    seen: Dict[tuple, tuple] = {}

    def own_code(inst: Instruction) -> bool:
        # Whether a body op runs its template alone: not a fallback op
        # and no runtime code (a tracking callback, an unspecialized
        # guard), which may read the clock or the tick and heat state.
        if not isinstance(inst, CallInst):
            return True
        return bool(builtin_template(inst)) or (specialize and bool(guard_name(inst)))

    def fallback(block: BasicBlock, k: int) -> None:
        # The block tier's compiled op, verbatim: it charges its own
        # costs and handles its own errors, so parity is free.
        nonlocal tag
        t = tag
        tag += 1
        ns[f"_op{t}"] = lists[id(block)][k][0]
        w.line(3, f"_op{t}(interp, frame)")
        regs.clear()

    def guard_spec(inst: CallInst, name: str) -> Tuple[str, bool, bool]:
        # The elision decision: a guard dominated on this path by a
        # covering guard shares the dominator's cell (inheriting its
        # re-specializations) and keeps the bounds test that makes its
        # hit provably steady — except under binary search, which
        # charges by region count alone, so the hit skips even the
        # operands.  Any other guard gets its own cell.
        nonlocal spec_count
        tg = _trace_guard_tag(inst) if name != GUARD_RANGE else None
        jdom = _covering_index(available, tg) if tg is not None else None
        # A zero-size frame probes exactly the stack pointer, which can
        # sit one past the region the dominator validated — find()
        # would miss there, so never elide it blindly.
        if name == GUARD_CALL and tg is not None and tg[1] < 1:
            jdom = None
        j = spec_count if jdom is None else jdom
        if jdom is None:
            spec_count += 1
        if tg is not None:
            available.setdefault(tg, j)
        elide = jdom is not None and mech_name == "binary_search"
        return f"_spec{j}", elide, jdom is None

    def emit_body(
        block: BasicBlock, k: int, inst: Instruction, row: List[int], clock: bool,
    ) -> bool:
        """Emit one body op; True if it can raise or call out.  A guard
        whose runtime call takes back the later ops' settled charges
        (``_l<t>``, see :func:`~repro.machine.codegen._guard`) is noted
        in ``takebacks`` with its index."""
        nonlocal tag, guard_count
        name = guard_name(inst)
        spec = None
        if name is not None:
            guard_count += 1
            if specialize:
                spec = guard_spec(inst, name)
        t = tag
        tag += 1
        raises = emit_op(
            w, 3, inst, t, ns, is_carat, has_tier, mech_name, defined[-1],
            regs, code, spec=spec, settle=row, clock=clock, lists=lists,
        )
        if f"_l{t}" in ns:
            takebacks.append((f"_l{t}", k))
        if raises is None:
            # An I/O builtin call or a one-line fault: the block tier's op
            # already charges and faults exactly right.
            fallback(block, k)
            raises = True
        else:
            # A template writes its result whenever it completes (a
            # builtin call op, say, may not).
            defined[-1].add(id(inst))
        if not own_code(inst):
            # Foreign code may have installed a heat window or brought
            # the next tick forward.
            w.line(3, "_hw = interp.heat_window")
            w.line(3, "_stop = min(_stop, interp._next_tick)")
        return raises

    # Steps retire ops; ``instructions`` also counts the phis an on-trace
    # edge assigns.  Per segment, the running totals of both through one
    # pass of the segments (one iteration of a loop trace) let
    # :func:`_safepoint` derive the step count from ``instructions``.
    ops_through = phis_through = 0
    for _b, start, stop, kind, data in segments:
        ops_through += stop + 1 - start
        phis_through += len(data.phis()) if kind == "term" else 0
    loop = end is None and end_depth == 0
    pass_shape = (ops_through + phis_through, phis_through if loop else 0)
    ops_through = phis_through = 0

    w.line(0, "def trace(interp, frame, steps, max_steps):")
    w.line(1, "stats = interp.stats")
    w.line(1, "values = frame.values")
    w.line(1, "_hw = interp.heat_window")
    # One compare per safepoint: ``_stop`` is the next tick or, earlier,
    # the instruction count at which the step quota could run out
    # (instructions grow at least as fast as steps).
    w.line(1, "_i0 = stats.instructions")
    w.line(1, "_stop = min(interp._next_tick, _i0 + max_steps - steps)")
    w.line(1, "while True:")
    for si, (block, start, stop, kind, data) in enumerate(segments):
        insts = block.instructions
        nops = stop + 1 - start
        # Every segment charges its static costs once, at its top:
        # nothing in it reads the counts before its safepoint, where the
        # settled totals are exact.  Foreign code may read the cycle
        # clock, so a segment running any keeps its cycles in place.
        clock = not all(own_code(insts[k]) for k in range(start, stop))
        rows = [[0] * len(SETTLED) for _ in range(nops)]
        takebacks: List[Tuple[str, int]] = []
        w.line(2, "try:")
        mark = len(w.lines)
        # A tick hook at the segment boundary may have patched any slot.
        regs.clear()
        for k in range(start, stop):
            inst = insts[k]
            at = len(w.lines)
            if emit_body(block, k, inst, rows[k - start], clock):
                # Only an op that can raise or call out needs the index
                # current: the reconciler, faults and anything called
                # read it there, and nothing else runs mid-segment.
                w.lines.insert(at, "    " * 3 + f"frame.index = {k + 1}")
            _apply_kills(available, inst)
        at = len(w.lines)
        inst = insts[stop]
        t = tag
        tag += 1
        raises = emit_op(
            w, 3, inst, t, ns, is_carat, has_tier, mech_name, defined[-1],
            regs, code, nxt=data if kind == "term" else None,
            paired=data if kind == "return" else None,
            settle=rows[-1], clock=clock, lists=lists,
        )
        ops_through += nops
        exit_extra, exit_args = 0, None
        if kind == "term":
            phis_through += len(data.phis())
            off = [target for target in inst.targets if target is not data]
            if inst.is_conditional and off:
                # The exit edge op counts the off-trace target's phis
                # instead of the on-trace ones.
                exit_extra = len(off[0].phis()) - len(data.phis())
                exit_args = {
                    "anchor": chain[0][1].name,
                    "function": block.parent.name,
                    "from": block.name,
                    "to": off[0].name,
                }
            # The on-trace edge assigned the target's phis: any
            # availability tag keyed on a phi's SSA id refers to the
            # previous iteration's value now.
            for phi in data.phis():
                defined[-1].add(id(phi))
                _apply_kills(available, phi)
        elif kind == "call":
            # The callee frame starts with only its formals set.
            defined.append({id(f) for f in inst.callee.args[: len(inst.args)]})
        elif data is not None:
            defined.pop()
            if inst.return_value is not None and not data.type.is_void:
                defined[-1].add(id(data))
        # A call or return switches frames, and at every push and pop
        # ``instructions`` must count every op retired before it (the
        # profiler's spans read it there): its body ops are counted just
        # before the control op, the control op itself after it.
        split = kind != "term" and nops > 1
        if raises:
            w.lines.insert(at, "    " * 3 + f"frame.index = {stop + 1}")
        if split:
            w.lines.insert(at, "    " * 3 + f"stats.instructions += {nops - 1}")
        top = _settlement(si, rows, settled, ns, seen)
        w.lines[mark:mark] = top
        for name, k in takebacks:
            del ns[name]
            later = rows[k + 1 - start:]
            settled.append((name, *(sum(r[j] for r in later) for j in (0, 1))))
        w.line(2, "except BaseException:")
        if top:
            # Take back what the reference had not charged when the op
            # at frame.index - 1 faulted.
            w.line(3, f"_unsettle(interp, _u{si}, frame.index - {start})")
        if split:
            # A raise in the control op comes after its body's count.
            w.line(3, f"if frame.index <= {stop}:")
        w.line(3 + split, f"stats.instructions += frame.index - 1 - {start}")
        w.line(3, "raise")
        w.line(2, f"stats.instructions += {1 if split else nops}")
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
        # A linear trace's closing edge just entered ``end`` (its phis
        # assigned, index at first_non_phi); a return trace's return just
        # popped the anchor frame.  Either way its last safepoint hands
        # control back: the dispatch loop chains into the trace installed
        # at ``end``, or resumes the caller mid-block.
        hand_back = last and (end is not None or end_depth < 0)
        ns[f"_g{si}"] = (
            ops_through, phis_through, *pass_shape, exit_extra, exit_args,
            hand_back,
        )
        call = f"_safepoint(interp, steps, max_steps, _stop, _i0, _g{si})"
        if hand_back:
            w.line(2, f"return ~{call}")
            continue
        # One compare: a tick is due, the quota may be spent, or a side
        # exit set ``_stop`` to -1.
        w.line(2, "if stats.instructions >= _stop:")
        w.line(3, f"_stop = {call}")
        w.line(3, "if _stop < 0:")
        w.line(4, "return ~_stop")
        w.line(3, "_hw = interp.heat_window")

    return _TraceCode(
        w.source(), ns, spec_count, len(chain), guard_count, specialize,
        settled,
    )


def _settlement(
    si: int, rows: List[List[int]], settled, ns, seen: Dict[tuple, tuple],
) -> List[str]:
    """The top lines of segment ``si``, whose ops left their static
    charges in ``rows`` (one :data:`~repro.machine.codegen.SETTLED` row
    per op, the control op last) — none if they left none; records its
    cycle charge in ``settled`` and its rows, for :func:`_unsettle`, as
    ``_u<si>`` in ``ns`` (each row once per trace, through ``seen``:
    a trace's ops leave few distinct rows)."""
    totals = [sum(column) for column in zip(*rows)]
    if not any(totals):
        return []
    ns[f"_u{si}"] = tuple(seen.setdefault(tuple(row), tuple(row)) for row in rows)
    lines = []
    if totals[0] or totals[1]:
        settled.append((f"_w{si}", totals[0], totals[1]))
        lines.append(f"stats.cycles += _w{si}")
    for n, counter in zip(totals[2:], (
        "stats.loads", "stats.stores", "_pm.bytes_read", "_pm.bytes_written",
    )):
        if n:
            lines.append(f"{counter} += {n}")
    return ["    " * 3 + text for text in lines]


def _safepoint(interp, steps: int, max_steps: int, stop: int, i0: int, seg) -> int:
    """A trace safepoint's slow path, entered once ``instructions``
    reaches the trace's ``stop``: the tick if due, then the side exit
    (``stop`` -1), then the pause, in the block tier's order.  Returns
    the next stop, or ``~steps`` (negative) when the trace must return
    ``steps``.

    ``seg`` holds the segment's running op and on-trace phi counts
    through one pass, a pass's instructions and its phis (0 unless the
    trace loops), the instructions its side exit counts beyond the
    on-trace edge, the exit's telemetry arguments, and whether the
    segment hands control back.  ``steps`` and ``i0`` are the step and
    instruction counts at trace entry.  A tick hook never retires guest
    instructions, so after ``m`` whole passes the instructions since
    entry are ``m * per_pass + ops + phis`` and the steps ``m *
    (per_pass - pass_phis) + ops``."""
    ops, phis, per_pass, pass_phis, exit_extra, exit_args, hand_back = seg
    stats = interp.stats
    if stats.instructions >= interp._next_tick:
        interp._next_tick = stats.instructions + interp.tick_interval
        hook = interp.tick_hook
        if hook is not None:
            hook(interp)
    since = stats.instructions - i0 - phis - (exit_extra if stop < 0 else 0)
    if pass_phis:
        since -= (since - ops) // per_pass * pass_phis
    steps += since
    if stop < 0:
        stats.trace_exits += 1
        tracer = interp.process.runtime and interp.process.runtime.tracer
        if tracer is not None and tracer.fine:
            tracer.instant("trace.exit", "trace", exit_args)
        return ~steps
    if hand_back or steps >= max_steps:
        return ~steps
    return min(interp._next_tick, stats.instructions + max_steps - steps)


def _unsettle(interp, rows: Tuple[Tuple[int, ...], ...], done: int) -> None:
    """Take back what a segment settled and the reference had not
    charged when the op at position ``done - 1`` of its ``rows`` faulted:
    every later op's charges, and the faulting op's bytes (an access that
    faults moves none)."""
    ci, cm, loads, stores, read, written = (
        sum(column) for column in zip(*rows[done:], (0,) * len(SETTLED))
    )
    if done:
        read += rows[done - 1][4]
        written += rows[done - 1][5]
    stats = interp.stats
    stats.cycles -= ci * interp._cost_instruction + cm * interp._cost_memory
    stats.loads -= loads
    stats.stores -= stores
    interp.memory.bytes_read -= read
    interp.memory.bytes_written -= written


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

    Limitation, by design: no exit-ratio demotion (a compiled trace
    stays installed even if its side exits dominate; the side exits
    themselves are cheap, and the block tier it lands in is the engine
    everything else runs on anyway).
    """

    #: Block entries before a block is promoted to a trace anchor.
    trace_threshold = 16
    #: The block tier runs one op per instruction: a trace run compiles
    #: fresh modules often, and almost all of its instructions run in
    #: traces, so segments would cost compile time and win nothing.
    segment_cap = 1

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

    def set_trace_tuning(self, threshold: Optional[int] = None) -> None:
        """Override the promotion threshold (CLI plumbing)."""
        if threshold is not None:
            if threshold < 1:
                raise ValueError("trace threshold must be >= 1")
            self.trace_threshold = threshold

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
        :data:`_MAX_TRACE_BLOCKS`."""
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
        if len(rec.chain) >= _MAX_TRACE_BLOCKS:
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
        specialize = specializes(self)
        mech_name = runtime.guard.name if specialize else ""
        anchor_key = id(rec.anchor)
        key = (
            anchor_key,
            tuple((d, id(b)) for d, b in rec.chain[1:]),
            specialize,
            mech_name,
            0 if end is None else id(end),
            end_depth,
        )
        tcode = self._code.trace_codes.get(key, _UNBUILT)
        if tcode is _UNBUILT:
            # A chain the compiler cannot linearize comes back as None;
            # an exception is a compiler bug and propagates.
            tcode = _build_trace(
                self._code, self._ops, rec.chain, specialize, mech_name,
                end, end_depth,
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

    #: The loop is the fast engine's, which calls :meth:`_enter_block`.
    #: Named here as well, so a per-class wrapper of ``run_steps`` (the
    #: host benchmark's ledger, ``benchmarks/perf/perf_layers.py``) sees
    #: the trace engine's runs apart from the fast engine's.
    run_steps = FastInterpreter.run_steps

    def _enter_block(self, frame, steps: int, max_steps: int) -> int:
        """The trace tier at a block ``frame`` entered through a
        terminator, at a safepoint: note the entry (hotness, or the
        recording), then run the installed traces from it while the quota
        lasts, and return the step count.  At a block with no trace and
        no recording in flight that is one dict probe and the hotness
        count.  Traces run under a profiler too:
        it attributes at frame switches, where the trace's counters are
        as exact as the block tier's."""
        traces = self._traces
        if self._recorder is not None:
            fn = self._note_recorded_entry(frame)
        else:
            fn = traces.get(id(frame.block))
            if fn is None:
                self._note_hot_entry(frame)
                return steps
        frames = self.frames
        stats = self.stats
        while fn is not None and steps < max_steps:
            depth = len(frames)
            entered = stats.instructions
            try:
                steps = fn(self, frame, steps, max_steps)
            finally:
                stats.trace_instructions += stats.instructions - entered
            if len(frames) > depth:
                # The trace stopped inside a callee, at a block entry: a
                # linear trace that joined an inner loop's trace, or a
                # side exit there.
                frame = frames[-1]
            elif frames[-1] is not frame:
                break  # a return trace: caller mid-block
            fn = traces.get(id(frame.block))
            if fn is None and steps < max_steps and self._recorder is None:
                # Exits bypass the terminator notification above, so bump
                # the target's hotness here or the exit path can never
                # promote.
                self._note_hot_entry(frame)
        return steps
