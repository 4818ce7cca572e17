"""Targeted tests for the trace tier (:mod:`repro.machine.tracejit`).

The differential suite (``test_fastexec_differential``,
``test_fault_campaign``, ``test_multiproc``) proves the trace engine is
observably the reference engine; this file tests the tier's own
machinery — promotion thresholds, side exits, return traces and the join
rule, recording aborts and the blacklist, guard respecialization on
region-generation bumps, the counters, and per-interpreter isolation of
compiled traces.
"""

import re
import sys
import traceback

import pytest

from repro.carat.pipeline import CompileOptions, compile_carat
from repro.ir import parse_module
from repro.kernel import PAGE_SIZE, Kernel
from tests.support import run_carat
from repro.machine import tracejit
from repro.machine.interp import ExitProgram
from repro.machine.session import CaratSession, RunConfig
from repro.telemetry.metrics import run_snapshot
from repro.workloads import get_workload, workload_names
from repro.workloads.service import service_source
from tests.test_fastexec_differential import _MATRIX_DECLS, SEMANTIC_FIELDS

#: A nested hot loop over heap memory — the bread-and-butter promotion
#: case: the inner loop's back-edge target gets hot and its body (loads,
#: arithmetic, compare, branch) compiles into one superblock.  The
#: permuted index ``(i * 7) % 64`` defeats the static affine-range
#: merge (guard_opt Opt2), so the load guard stays inside the loop and
#: exercises per-site specialization; the permutation sums the same
#: elements, keeping the expected output easy to state.
HOT_SOURCE = """
void main() {
  long *a = (long*)malloc(64 * 8);
  long i;
  long r;
  long acc;
  acc = 0;
  for (i = 0; i < 64; i++) { a[i] = i * 3; }
  for (r = 0; r < 30; r++) {
    for (i = 0; i < 64; i++) { acc = acc + a[(i * 7) % 64]; }
  }
  print_long(acc);
  free(a);
}
"""
HOT_OUTPUT = [str(3 * (63 * 64 // 2) * 30)]

#: A loop whose uncommon arm (every 10th iteration) is off-trace: the
#: superblock records the common arm, so one side exit per multiple of
#: ten re-enters the block tier mid-loop.
BRANCHY_SOURCE = """
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 400; i++) {
    if (i % 10 == 0) { acc = acc + 100; } else { acc = acc + 1; }
  }
  print_long(acc);
}
"""
BRANCHY_OUTPUT = [str(40 * 100 + 360)]

#: A hot loop whose body calls a defined function: the superblock spans
#: the call — the block tier's call op pushes the real frame and the
#: callee's body inlines right behind it on the trace.
CALLY_SOURCE = """
long helper(long x) { return x + 1; }
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 100; i++) { acc = helper(acc); }
  print_long(acc);
}
"""
CALLY_OUTPUT = ["100"]

#: Deep recursion in the loop body: every recording that starts above
#: the base case hits the inline depth cap, so those anchors blacklist;
#: only the base case, which returns at once, compiles (a return trace).
RECURSIVE_SOURCE = """
long down(long n) {
  long r;
  if (n <= 0) { return 0; }
  r = down(n - 1);
  return r + 1;
}
void main() {
  long i;
  long acc;
  acc = 0;
  for (i = 0; i < 50; i++) { acc = acc + down(40); }
  print_long(acc);
}
"""
RECURSIVE_OUTPUT = ["2000"]


def _calls(template, count):
    """``count`` straight-line copies of ``template`` (``{k}`` = copy
    number): a caller with no branch of its own, so the callee's hot
    blocks promote through the block tier rather than a caller's trace."""
    return "\n".join("  " + template.format(k=k) for k in range(count))


#: A hot callee with no loop, returning a value into the caller's slot:
#: its join block anchors a recording that ends in the return.
VALUE_SOURCE = """
long pick(long x) {
  long y;
  if (x % 3 == 0) { y = x * 2; } else { y = x + 7; }
  return y * 3 + 1;
}
void main() {
  long acc;
  acc = 0;
  CALLS
  print_long(acc);
}
""".replace("  CALLS", _calls("acc = acc + pick({k});", 12))

#: The same shape with a void callee: the return writes no slot.
VOID_SOURCE = """
long total;
long count;
void bump(long x) {
  if (x % 2 == 0) { total = total + x; } else { total = total - 1; }
  count = count + 1;
}
void main() {
  CALLS
  print_long(total);
  print_long(count);
}
""".replace("  CALLS", _calls("bump({k});", 12))

#: ``main`` recursing into itself past the inline cap: the recordings
#: anchored at the call block abort on depth, the nested returns compile
#: a return trace at the join block, and the outermost ``main`` leaves
#: the program through it (exit code 40 + 20).
MAIN_SOURCE = """
long level;
long main() {
  long r;
  level = level + 1;
  if (level < 20) { r = main(); } else { r = 40; }
  return r + 1;
}
"""

#: The last call divides by zero inside the callee's return trace.
FAULT_SOURCE = """
long frac(long x, long d) {
  long y;
  if (x % 2 == 0) { y = x; } else { y = x + 1; }
  return y / d;
}
void main() {
  long acc;
  acc = 0;
  CALLS
  acc = acc + frac(7, 0);
  print_long(acc);
}
""".replace("  CALLS", _calls("acc = acc + frac({k}, 1);", 6))

#: The ep shape: a loop calls a branchy leaf helper whose return trace
#: already exists (the warm-up calls compile it).  The loop must still
#: compile as a loop trace that inlines the helper, not stop at it.
EP_SOURCE = """
long state;
long next(long bound) {
  state = (state * 1103515245 + 12345) % 2147483648;
  if (state < 0) { state = -state; }
  return state % bound;
}
void main() {
  long acc;
  long i;
  long u;
  state = 271828;
  acc = 0;
  CALLS
  for (i = 0; i < 200; i++) {
    u = next(1000);
    if (u < 500) { acc = acc + u; } else { acc = acc - 1; }
  }
  print_long(acc);
}
""".replace("  CALLS", _calls("acc = acc + next(10);", 4))


def _run(source, engine="trace", threshold=2, **kwargs):
    def setup(interpreter):
        if hasattr(interpreter, "set_trace_tuning"):
            interpreter.set_trace_tuning(threshold=threshold)

    return run_carat(source, setup=setup, engine=engine, **kwargs)


# ---------------------------------------------------------------------------
# Promotion
# ---------------------------------------------------------------------------


class TestPromotion:
    def test_hot_loop_promotes_and_elides(self):
        result = _run(HOT_SOURCE)
        assert result.output == HOT_OUTPUT
        assert result.exit_code == 0
        assert result.stats.traces_compiled > 0
        # Specialized per-site guard checks served on the fast path.
        assert result.stats.guard_checks_elided > 0
        # Every compiled trace with specialized guards respecializes its
        # cells at least once (gen starts at -1, the first execution
        # resolves it against the live region map).
        assert result.stats.trace_respecializations > 0

    def test_trace_output_matches_reference(self):
        reference = run_carat(HOT_SOURCE, engine="reference")
        trace = _run(HOT_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions

    def test_cold_threshold_never_promotes(self):
        result = _run(HOT_SOURCE, threshold=10**9)
        assert result.output == HOT_OUTPUT
        assert result.stats.traces_compiled == 0
        assert result.stats.trace_exits == 0
        assert result.stats.guard_checks_elided == 0

    def test_fast_engine_keeps_trace_counters_zero(self):
        result = _run(HOT_SOURCE, engine="fast")
        assert result.output == HOT_OUTPUT
        assert result.stats.traces_compiled == 0
        assert result.stats.trace_exits == 0
        assert result.stats.trace_respecializations == 0
        assert result.stats.guard_checks_elided == 0

    def test_max_blocks_caps_recording(self, monkeypatch):
        # A one-block loop still fits in a one-block superblock; the cap
        # only rejects longer chains, so output and parity are unchanged.
        roomy = _run(BRANCHY_SOURCE)
        monkeypatch.setattr(tracejit, "_MAX_TRACE_BLOCKS", 1)
        capped = _run(BRANCHY_SOURCE)
        assert capped.output == BRANCHY_OUTPUT
        assert roomy.output == BRANCHY_OUTPUT
        assert capped.stats.cycles == roomy.stats.cycles


# ---------------------------------------------------------------------------
# Side exits
# ---------------------------------------------------------------------------


class TestSideExits:
    def test_uncommon_arm_side_exits(self):
        result = _run(BRANCHY_SOURCE)
        assert result.output == BRANCHY_OUTPUT
        assert result.stats.traces_compiled > 0
        # ~40 of 400 iterations take the off-trace arm.
        assert result.stats.trace_exits > 0

    def test_side_exits_preserve_semantics(self):
        reference = run_carat(BRANCHY_SOURCE, engine="reference")
        trace = _run(BRANCHY_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles

    def test_hot_exit_path_compiles_linear_side_trace(self):
        # The uncommon arm runs 40 times — far past the threshold — so
        # its block promotes *via side exits* (the dispatch loop never
        # notifies for exit landings) and the recording finishes as a
        # linear side trace when it re-reaches the already-traced loop
        # header: at least the loop trace plus one side trace compile.
        result = _run(BRANCHY_SOURCE)
        assert result.output == BRANCHY_OUTPUT
        assert result.stats.traces_compiled >= 2


# ---------------------------------------------------------------------------
# Recording aborts and the blacklist
# ---------------------------------------------------------------------------


class TestAbortsAndBlacklist:
    def test_deep_recursion_aborts_and_blacklists(self):
        result = _run(RECURSIVE_SOURCE)
        assert result.output == RECURSIVE_OUTPUT
        # Recordings anchored above the base case blow the inline depth
        # cap, and after repeated aborts those anchors stop being
        # recorded: the loop in main and the recursive call's block.
        assert result.stats.trace_aborts["depth"] > 0
        interp = result.interpreter
        blocks = {
            id(block): block
            for function in interp.module.functions.values()
            for block in function.blocks
        }
        blacklisted = {blocks[key].parent.name for key in interp._trace_blacklist}
        assert blacklisted == {"down", "main"}
        # Whatever did compile (the base case's return) stays within
        # the inline cap.
        for key, tcode in interp._code.trace_codes.items():
            if tcode is not None:
                assert all(
                    depth <= tracejit._MAX_INLINE_DEPTH
                    for depth, _block in key[1]
                )

    def test_trace_compiler_bug_propagates(self, monkeypatch):
        # Only a chain the compiler cannot linearize is a reject (None);
        # an exception from the compiler must fail the run, not quietly
        # switch the trace tier off.
        def broken(*args, **kwargs):
            raise RuntimeError("trace compiler bug")

        monkeypatch.setattr(tracejit, "_build_trace", broken)
        session = CaratSession(RunConfig(engine="trace", trace_threshold=2))
        with pytest.raises(RuntimeError, match="trace compiler bug"):
            session.run(HOT_SOURCE)

    def test_recursion_keeps_parity(self):
        reference = run_carat(RECURSIVE_SOURCE, engine="reference")
        trace = _run(RECURSIVE_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions


# ---------------------------------------------------------------------------
# Return traces and the join rule
# ---------------------------------------------------------------------------


def _outcome(source, engine, setup=None):
    """Run ``source`` at ``trace_threshold=2``: the observable outcome
    (exit code, output, modeled stats, memory — or, on a fault, the
    exception and the stats at the fault), the interpreter, and the
    exception."""
    seen = []

    def hook(interp):
        seen.append(interp)
        if setup is not None:
            setup(interp)

    session = CaratSession(RunConfig(engine=engine, trace_threshold=2), setup=hook)
    try:
        result = session.run(source)
    except Exception as exc:  # the fault itself is the observation
        interp = seen[0]
        stats = {f: getattr(interp.stats, f) for f in SEMANTIC_FIELDS}
        return (
            ("fault", type(exc).__name__, str(exc), tuple(interp.output), stats),
            interp,
            exc,
        )
    stats = {f: getattr(result.stats, f) for f in SEMANTIC_FIELDS}
    outcome = (
        "ok", result.exit_code, tuple(result.output), stats,
        bytes(result.kernel.memory._data),
    )
    return outcome, result.interpreter, None


def _three_way(source, setup=None):
    """Assert reference, fast and trace agree; return the trace run's
    interpreter and exception."""
    reference, _, _ = _outcome(source, "reference", setup)
    fast, _, _ = _outcome(source, "fast", setup)
    trace, interp, exc = _outcome(source, "trace", setup)
    assert fast == reference
    assert trace == reference
    return interp, exc


def _kinds(interp):
    """Every trace the interpreter's module compiled, as ``(anchor
    function, kind, end depth)``."""
    blocks = {
        id(block): block
        for function in interp.module.functions.values()
        for block in function.blocks
    }
    kinds = set()
    for key, tcode in interp._code.trace_codes.items():
        if tcode is None:
            continue
        end, end_depth = key[-2:]
        kind = "return" if end_depth < 0 else "linear" if end else "loop"
        kinds.add((blocks[key[0]].parent.name, kind, end_depth))
    return kinds


class TestReturnTraces:
    def test_value_callee_returns_into_caller_slot(self):
        interp, _ = _three_way(VALUE_SOURCE)
        assert interp.output == [str(sum(
            (k * 2 if k % 3 == 0 else k + 7) * 3 + 1 for k in range(12)
        ))]
        assert ("pick", "return", -1) in _kinds(interp)
        assert interp.stats.trace_instructions > 0
        assert interp.stats.trace_aborts == {"depth": 0, "length": 0, "reject": 0}

    def test_void_callee(self):
        interp, _ = _three_way(VOID_SOURCE)
        assert interp.output == [str(sum(range(0, 12, 2)) - 6), "12"]
        assert ("bump", "return", -1) in _kinds(interp)
        assert interp.stats.trace_instructions > 0

    def test_main_exits_through_a_return_trace(self, monkeypatch):
        exits = []
        instantiate = tracejit._TraceCode.instantiate

        def logged(self, interp):
            trace = instantiate(self, interp)

            def run(interp, frame, steps, max_steps):
                try:
                    return trace(interp, frame, steps, max_steps)
                except ExitProgram as exc:
                    exits.append(exc.code)
                    raise

            return run

        monkeypatch.setattr(tracejit._TraceCode, "instantiate", logged)
        interp, _ = _three_way(MAIN_SOURCE)
        assert interp.exit_code == 60
        assert ("main", "return", -1) in _kinds(interp)
        assert exits == [60]

    def test_fault_inside_a_return_trace(self):
        interp, exc = _three_way(FAULT_SOURCE)
        assert "division by zero" in str(exc)
        assert ("frac", "return", -1) in _kinds(interp)
        frames = traceback.extract_tb(exc.__traceback__)
        assert "<tracejit>" in [frame.filename for frame in frames]

    def test_quota_pause_on_the_return(self):
        # Drive each run in quota-sized slices and log every pause; a
        # pause in main (which has no branch) lands exactly on a return.
        on_traced_return = 0
        for quota in range(1, 16):
            logs = {}
            for engine in ("reference", "fast", "trace"):
                log = logs[engine] = []

                def setup(interp, log=log, quota=quota):
                    run_steps = interp.run_steps

                    def sliced(max_steps):
                        while run_steps(quota) != "done":
                            top = interp.frames[-1]
                            log.append((
                                (interp.stats.instructions, len(interp.frames),
                                 top.function.name, top.block.name, top.index),
                                interp.stats.trace_instructions,
                            ))
                        return "done"

                    interp.run_steps = sliced

                _outcome(VALUE_SOURCE, engine, setup)
            states = [state for state, _ in logs["reference"]]
            assert [state for state, _ in logs["fast"]] == states
            assert [state for state, _ in logs["trace"]] == states
            # A pause in main whose slice ran trace instructions: the
            # return it follows ran in the return trace.
            on_traced_return += sum(
                state[2] == "main" and now > before
                for (state, now), (_, before)
                in zip(logs["trace"][1:], logs["trace"])
            )
        assert on_traced_return > 0

    def test_tick_hook_fires_at_the_return(self):
        on_traced_return = 0
        for interval in range(1, 10):
            logs = {}
            for engine in ("reference", "fast", "trace"):
                log = logs[engine] = []

                def setup(interp, log=log, interval=interval):
                    def hook(interp):
                        top = interp.frames[-1]
                        caller = sys._getframe(1).f_code.co_filename
                        log.append((
                            (interp.stats.instructions, interp.stats.cycles,
                             len(interp.frames), top.function.name, top.index),
                            caller == "<tracejit>",
                        ))

                    interp.set_tick_interval(interval)
                    interp.tick_hook = hook

                _outcome(VALUE_SOURCE, engine, setup)
            states = [state for state, _ in logs["reference"]]
            assert [state for state, _ in logs["fast"]] == states
            assert [state for state, _ in logs["trace"]] == states
            # A hook called from trace code with main on top: the return
            # trace's tick check, right after its return.
            on_traced_return += sum(
                in_trace and state[3] == "main"
                for state, in_trace in logs["trace"]
            )
        assert on_traced_return > 0


class TestJoinRule:
    def test_loop_calling_a_traced_helper_stays_a_loop_trace(self):
        # Joining the helper's return trace from inside the call would
        # cut main's loop into a linear trace (ep ran 2x slower so).
        interp, _ = _three_way(EP_SOURCE)
        kinds = _kinds(interp)
        assert ("next", "return", -1) in kinds
        assert ("main", "loop", 0) in kinds
        assert not any(
            kind == "linear" and depth > 0 for _fn, kind, depth in kinds
        )
        share = interp.stats.trace_instructions / interp.stats.instructions
        assert share > 0.8

    def test_outer_loop_joins_the_inner_loop_trace(self, monkeypatch):
        # The request-server shape: main's loop calls serve(), whose own
        # loop has a data-dependent trip count.  Main's recording ends
        # at that loop's header, one call deep, instead of unrolling it.
        sources = []

        def recording(source, filename, mode):
            sources.append(source)
            return compile(source, filename, mode)

        monkeypatch.setattr(tracejit, "_LIBRARY", {})
        monkeypatch.setattr(tracejit, "compile", recording, raising=False)
        interp, _ = _three_way(service_source(120))
        kinds = _kinds(interp)
        assert ("main", "linear", 1) in kinds
        assert ("serve", "loop", 0) in kinds
        assert ("serve", "return", -1) in kinds
        longest = max(source.count("\n") for source in sources)
        print(f"longest trace text: {longest} lines")
        assert longest <= _SERVICE_TEXT_BOUND
        share = interp.stats.trace_instructions / interp.stats.instructions
        assert share > 0.8


#: Longest trace text the service program may compile to.  Measured:
#: 1 131 lines (main's linear trace into serve's loop); when main's loop
#: trace still unrolled serve's blob loop, its texts reached 2 537.
_SERVICE_TEXT_BOUND = 1500


# ---------------------------------------------------------------------------
# Trace-local registers and elided index stores
# ---------------------------------------------------------------------------

#: ``t`` is computed in the loop body's block and read in both arms —
#: later segments of the same trace, behind a tick check.
LIVE_SLOT_SOURCE = """
void main() {
  long i;
  long t;
  long acc;
  acc = 0;
  for (i = 0; i < 300; i++) {
    t = i * 5 + 7;
    if (i % 3 == 0) { acc = acc + t; } else { acc = acc - t * 2; }
  }
  print_long(acc);
}
"""
LIVE_SLOT_OUTPUT = [str(sum(
    i * 5 + 7 if i % 3 == 0 else -2 * (i * 5 + 7) for i in range(300)
))]

#: Fallback ops (frem, select, alloca) mid-segment, each result feeding
#: later template ops that also read values computed before them.
FALLBACK_IR = _MATRIX_DECLS + """
define void @main() {
entry:
  br label %loop
loop:
  %i = phi i64 [0, %entry], [%next, %loop]
  %acc = phi f64 [0.0, %entry], [%acc2, %loop]
  %n = phi i64 [0, %entry], [%n2, %loop]
  %x = sitofp i64 %i to f64
  %y = fmul f64 %x, 1.5
  %r = frem f64 %y, 4.0
  %s = fadd f64 %r, %y
  %k = icmp sgt i64 %i, 3
  %z = select i1 %k, f64 %s, f64 %y
  %w = fmul f64 %z, %y
  %acc2 = fadd f64 %acc, %w
  %p = alloca i64, i64 1
  %j = mul i64 %i, 3
  store i64 %j, i64* %p
  %q = load i64* %p
  %n2 = add i64 %n, %q
  %m = add i64 %n2, %j
  call void @print_long(i64 %m)
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, 12
  br i1 %c, label %loop, label %exit
exit:
  call void @print_double(f64 %acc2)
  ret void
}
"""

#: A hot loop of pure int and float ops whose last iteration faults in
#: the op ``{fault}``: ``%d`` reaches 0 on iteration 6, long after the
#: loop compiled, and ``%slot`` then points 2**43 bytes past the table.
PURE_LOOP_IR = _MATRIX_DECLS + """
define void @main() {{
entry:
  %raw = call i8* @malloc(i64 64)
  %tab = bitcast i8* %raw to i64*
  br label %loop
loop:
  %i = phi i64 [0, %entry], [%next, %loop]
  %acc = phi i64 [1, %entry], [%acc2, %loop]
  %f = phi f64 [0.5, %entry], [%f2, %loop]
  %a = mul i64 %i, 7
  %b = add i64 %a, %acc
  %e = xor i64 %b, 12345
  %fi = sitofp i64 %e to f64
  %g = fmul f64 %fi, 0.25
  %h = fsub f64 %g, 3.0
  %f2 = fadd f64 %f, %h
  %acc2 = and i64 %e, 65535
  %d = sub i64 6, %i
  %zero = icmp eq i64 %d, 0
  %far = zext i1 %zero to i64
  %off = shl i64 %far, 40
  %slot = getelementptr i64* %tab, i64 %off
  %u = mul i64 %acc2, 3
  %v = sub i64 %u, %e
  {fault}
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, 9
  br i1 %c, label %loop, label %exit
exit:
  call void @print_long(i64 %acc2)
  call void @print_double(f64 %f2)
  ret void
}}
"""
_PURE_LOOP_FAULTS = {
    "division": ("%r = sdiv i64 %v, %d", True, "integer fault: sdiv"),
    "load": ("%r = load i64* %slot", False, ""),
    "guard": ("%r = load i64* %slot", True, "protection fault: read"),
}


def _ir_outcome(text, engine, guards=True):
    """Run CARAT-compiled IR text at ``trace_threshold=2``: the outcome,
    the frame the fault left on top (block and ``index``) and whether the
    fault passed through trace code."""
    options = CompileOptions(optimize=False, guards=guards, tracking=True)
    binary = compile_carat(parse_module(text), options, module_name="ir")
    seen = []
    session = CaratSession(
        RunConfig(engine=engine, trace_threshold=2), setup=seen.append
    )
    try:
        result = session.run(binary)
    except Exception as exc:  # the fault itself is the observation
        interp = seen[0]
        top = interp.frames[-1]
        frames = traceback.extract_tb(exc.__traceback__)
        return (
            ("fault", type(exc).__name__, str(exc),
             interp.stats.instructions, interp.stats.cycles,
             {f: getattr(interp.stats, f) for f in SEMANTIC_FIELDS},
             top.block.name, top.index),
            "<tracejit>" in [frame.filename for frame in frames],
        )
    stats = {f: getattr(result.stats, f) for f in SEMANTIC_FIELDS}
    return ("ok", tuple(result.output), stats), False


def _segment_reads_of_defined_slots(source, ns):
    """``values[...]`` reads, in ``source``, of a slot the same segment
    already defined with no invalidation point between: a fallback op,
    or an inlined call or return."""
    found = []
    defined = set()
    for line in source.splitlines():
        text = line.strip()
        if line == "        try:":
            defined = set()  # a segment starts (behind a tick check)
        elif text.startswith("_op") or "interp.frames." in text:
            defined = set()
        for name in re.findall(r"values\[(_k\w+)\]", text):
            if ns[name] in defined:
                found.append(text)
        target = re.match(r"values\[(_d\w+)\] = ", text)
        if target is not None:
            defined.add(ns[target.group(1)])
    return found


class TestRegisters:
    def test_tick_hook_rewrite_reaches_later_segments(self):
        # The hook adds 1000 to ``t``'s slot between its definition and
        # its use: every engine must read the patched value, so no trace
        # may carry a register for it across the segment boundary.
        patched = []

        def setup(interp):
            body = next(
                block for block in interp.module.functions["main"].blocks
                if block.name.startswith("for.body")
            )
            t = next(inst for inst in body.instructions if inst.opcode == "add")

            def hook(interp):
                frame = interp.frames[-1]
                if frame.block.name.startswith("if.") and id(t) in frame.values:
                    frame.values[id(t)] += 1000
                    caller = sys._getframe(1).f_code.co_filename
                    patched.append((type(interp).__name__, caller))

            interp.set_tick_interval(3)
            interp.tick_hook = hook

        interp, exc = _three_way(LIVE_SLOT_SOURCE, setup)
        assert exc is None
        assert interp.output != LIVE_SLOT_OUTPUT  # the rewrites were read
        assert interp.stats.traces_compiled > 0
        assert ("TraceInterpreter", "<tracejit>") in patched

    def test_fallback_results_feed_later_ops(self):
        outcomes = [_ir_outcome(FALLBACK_IR, engine)[0]
                    for engine in ("reference", "fast", "trace")]
        assert outcomes[0][0] == "ok"
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]
        assert len(outcomes[0][1]) == 13

    @pytest.mark.parametrize("kind", list(_PURE_LOOP_FAULTS))
    def test_fault_after_elided_index_stores(self, kind):
        fault, guards, message = _PURE_LOOP_FAULTS[kind]
        text = PURE_LOOP_IR.format(fault=fault)
        reference, _ = _ir_outcome(text, "reference", guards)
        fast, _ = _ir_outcome(text, "fast", guards)
        trace, in_trace = _ir_outcome(text, "trace", guards)
        assert reference[0] == "fault" and message in reference[2]
        assert fast == reference
        assert trace == reference
        assert in_trace  # raised inside a trace
        assert reference[6] == "loop"  # the faulting frame's block

    def test_no_slot_read_after_its_definition_in_a_segment(self, monkeypatch):
        texts = []
        build = tracejit._TraceCode.__init__

        def capture(self, source, ns, *args):
            texts.append((source, ns))
            build(self, source, ns, *args)

        monkeypatch.setattr(tracejit._TraceCode, "__init__", capture)
        for name in ("hpccg", "cg", "ep", "mcf", "lbm"):
            binary = compile_carat(get_workload(name, "small").source)
            CaratSession(RunConfig(engine="trace", name=name)).run(binary)
        assert len(texts) > 20
        for source, ns in texts:
            assert _segment_reads_of_defined_slots(source, ns) == []
        joined = "\n".join(source for source, _ns in texts)
        # Registers are read, and most conversions are gone.  Without
        # registers these traces held 536 slot reads, 595 int()/float()
        # calls and 539 index stores.
        assert re.search(r"[^.\w]_r\d+\b(?! =)", joined)
        assert joined.count("values[_k") < 300
        assert len(re.findall(r"\b(?:int|float)\(", joined)) < 300
        assert joined.count("frame.index = ") < 500


# ---------------------------------------------------------------------------
# Frame-spanning traces (call inlining)
# ---------------------------------------------------------------------------


class TestCallInlining:
    def test_call_in_loop_traces_through_the_frame(self):
        result = _run(CALLY_SOURCE)
        assert result.output == CALLY_OUTPUT
        assert result.stats.traces_compiled > 0
        assert len(result.interpreter._trace_blacklist) == 0

    def test_inlined_call_keeps_parity(self):
        reference = run_carat(CALLY_SOURCE, engine="reference")
        trace = _run(CALLY_SOURCE)
        assert trace.output == reference.output
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions
        assert trace.stats.calls == reference.stats.calls


# ---------------------------------------------------------------------------
# Respecialization on region-generation bumps
# ---------------------------------------------------------------------------


class TestRespecialization:
    def _moving_run(self, engine, move):
        kernel = Kernel()
        moved = []

        def setup(interpreter):
            interpreter.set_tick_interval(200)
            if hasattr(interpreter, "set_trace_tuning"):
                interpreter.set_trace_tuning(threshold=2)
            if not move:
                return

            def hook(interp):
                if moved or interp.stats.instructions < 2_000:
                    return
                moved.append(True)
                process = interp.process
                victim = process.runtime.worst_case_allocation()
                snaps = interp.register_snapshots()
                kernel.request_page_move(
                    process,
                    victim.address & ~(PAGE_SIZE - 1),
                    register_snapshots=snaps,
                )
                interp.apply_snapshots(snaps)

            interpreter.tick_hook = hook

        return run_carat(HOT_SOURCE, kernel=kernel, setup=setup, engine=engine)

    def test_mid_run_move_respecializes(self):
        still = self._moving_run("trace", move=False)
        moved = self._moving_run("trace", move=True)
        assert still.output == HOT_OUTPUT
        assert moved.output == HOT_OUTPUT
        assert moved.stats.traces_compiled > 0
        # The generation bump forces the live trace's guard cells back
        # through the generic path, which re-bakes them — strictly more
        # respecializations than the undisturbed run.
        assert (
            moved.stats.trace_respecializations
            > still.stats.trace_respecializations
        )

    def test_mid_run_move_keeps_parity(self):
        reference = self._moving_run("reference", move=True)
        trace = self._moving_run("trace", move=True)
        assert trace.output == reference.output
        assert trace.exit_code == reference.exit_code
        assert trace.stats.cycles == reference.stats.cycles
        assert trace.stats.instructions == reference.stats.instructions
        assert bytes(trace.kernel.memory._data) == bytes(
            reference.kernel.memory._data
        )


#: A hot loop alternating a heap array and a global array.  Once the
#: heap array's page moves away from the one region the loader installs,
#: the two arrays sit in different regions, so the MPX bounds register
#: holds the wrong one at every other guard: the specialized check must
#: charge the reload inline, exactly as ``MPXGuard.check_known`` would.
ALTERNATING_SOURCE = """
long g[64];
void main() {
  long *a = (long*)malloc(64 * 8);
  long i;
  long r;
  long acc;
  acc = 0;
  for (i = 0; i < 64; i++) { a[i] = i * 3; g[i] = i; }
  for (r = 0; r < 40; r++) {
    for (i = 0; i < 64; i++) {
      acc = acc + a[(i * 7) % 64] + g[(i * 5) % 64];
      g[(i * 3) % 64] = acc % 1000;
    }
  }
  print_long(acc);
  free(a);
}
"""


class TestBoundsRegisterReload:
    def _split_run(self, engine):
        """Run :data:`ALTERNATING_SOURCE` under MPX, moving the heap
        array's page out of the loader's region early in the hot loop."""
        kernel = Kernel()
        moved = []

        def setup(interpreter):
            interpreter.set_tick_interval(200)
            if hasattr(interpreter, "set_trace_tuning"):
                interpreter.set_trace_tuning(threshold=2)

            def hook(interp):
                if moved or interp.stats.instructions < 2_000:
                    return
                moved.append(True)
                process = interp.process
                array = next(
                    x for x in process.runtime.table
                    if x.kind == "heap" and x.size == 64 * 8
                )
                snaps = interp.register_snapshots()
                kernel.request_page_move(
                    process,
                    array.address & ~(PAGE_SIZE - 1),
                    register_snapshots=snaps,
                )
                interp.apply_snapshots(snaps)

            interpreter.tick_hook = hook

        result = run_carat(
            ALTERNATING_SOURCE, kernel=kernel, setup=setup, engine=engine
        )
        assert moved
        return result

    @staticmethod
    def _observed(result):
        runtime = result.process.runtime
        bound = runtime.guard._bound
        return (
            result.exit_code,
            tuple(result.output),
            {f: getattr(result.stats, f) for f in SEMANTIC_FIELDS},
            bytes(result.kernel.memory._data),
            runtime.stats.guards_executed,
            runtime.stats.guard_cycles,
            None if bound is None else (bound.base, bound.length, bound.perms),
        )

    def test_reloads_keep_three_engine_parity(self):
        reference = self._split_run("reference")
        regions = reference.process.regions
        assert len(regions) >= 2
        # The register really does reload: the guards cost more than a
        # run of bounds-register hits would.
        mpx = reference.process.runtime.costs.mpx_guard
        executed = reference.process.runtime.stats.guards_executed
        assert reference.stats.guard_cycles > executed * mpx
        expected = self._observed(reference)
        assert self._observed(self._split_run("fast")) == expected
        trace = self._split_run("trace")
        assert self._observed(trace) == expected
        assert trace.stats.traces_compiled > 0

    def test_trace_charges_reloads_without_the_runtime(self):
        trace = self._split_run("trace")
        executed = trace.process.runtime.stats.guards_executed
        # Every guard the trace settles itself counts as elided; the
        # rest went through the runtime's generic path (first passes,
        # re-specializations after the move).
        generic = executed - trace.stats.guard_checks_elided
        assert 0 < generic * 100 < executed


# ---------------------------------------------------------------------------
# Tuning validation
# ---------------------------------------------------------------------------


class TestTuningValidation:
    def test_interpreter_rejects_bad_tuning(self):
        result = _run(HOT_SOURCE)
        interp = result.interpreter
        with pytest.raises(ValueError):
            interp.set_trace_tuning(threshold=0)

    @pytest.mark.parametrize("field", ["trace_threshold"])
    def test_config_rejects_bad_tuning(self, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: 0})


# ---------------------------------------------------------------------------
# Counters in the telemetry snapshot
# ---------------------------------------------------------------------------


class TestCountersSurface:
    def test_run_snapshot_carries_trace_counters(self):
        result = _run(HOT_SOURCE)
        document = run_snapshot(result)
        interp = document["interp"]
        assert interp["traces_compiled"] == result.stats.traces_compiled > 0
        assert interp["trace_exits"] == result.stats.trace_exits
        assert (
            interp["trace_respecializations"]
            == result.stats.trace_respecializations
        )
        assert (
            interp["guard_checks_elided"]
            == result.stats.guard_checks_elided
            > 0
        )
        assert (
            0
            < interp["trace_instructions"]
            == result.stats.trace_instructions
            <= result.stats.instructions
        )
        assert interp["trace_aborts"] == result.stats.trace_aborts

    def test_to_dict_carries_trace_counters(self):
        result = _run(RECURSIVE_SOURCE)
        stats = result.stats.to_dict()
        for key in (
            "traces_compiled",
            "trace_exits",
            "trace_respecializations",
            "guard_checks_elided",
            "trace_instructions",
        ):
            assert key in stats
        assert stats["trace_aborts"] == result.stats.trace_aborts
        assert set(stats["trace_aborts"]) == {"depth", "length", "reject"}
        assert stats["trace_aborts"]["depth"] > 0

    def test_other_engines_keep_coverage_counters_zero(self):
        for engine in ("reference", "fast"):
            stats = _run(HOT_SOURCE, engine=engine).stats
            assert stats.trace_instructions == 0
            assert set(stats.trace_aborts.values()) == {0}


# ---------------------------------------------------------------------------
# Per-interpreter isolation (shared trace-code cache, private closures)
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_trace_code_cached_but_counted_per_run(self):
        binary = compile_carat(
            HOT_SOURCE, CompileOptions(), module_name="hot"
        )
        first = _run(binary)
        second = _run(binary)
        # The second run reuses the module's compiled trace sources but
        # still instantiates and counts its own traces — stats never
        # leak between interpreters.
        assert first.stats.traces_compiled > 0
        assert second.stats.traces_compiled == first.stats.traces_compiled
        assert first.output == second.output == HOT_OUTPUT
        key_count = len(first.interpreter._code.trace_codes)
        assert len(second.interpreter._code.trace_codes) == key_count

    def _count_compiles(self, monkeypatch):
        """A fresh, empty code library plus a log of trace ``compile``
        calls."""
        calls = []

        def counting(source, filename, mode):
            calls.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(tracejit, "_LIBRARY", {})
        monkeypatch.setattr(tracejit, "compile", counting, raising=False)
        return calls

    def test_second_session_compiles_no_trace(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        first = _run(HOT_SOURCE)
        compiled = len(calls)
        second = _run(HOT_SOURCE)
        # A fresh session compiles its source into a new module, so its
        # trace *instances* are new — but every trace text is already in
        # the library.
        assert compiled == len(tracejit._LIBRARY) > 0
        assert len(calls) == compiled
        assert first.output == second.output == HOT_OUTPUT
        assert first.stats.to_dict() == second.stats.to_dict()

    def test_shared_code_binds_each_instance(self, monkeypatch):
        # Two programs differing only in constants have identical trace
        # text: the second reuses the first's code object, yet each run
        # computes with its own constants, slots and guard cells.
        calls = self._count_compiles(monkeypatch)
        three = _run(HOT_SOURCE)
        compiled = len(calls)
        five = _run(HOT_SOURCE.replace("i * 3", "i * 5"))
        assert compiled > 0 and len(calls) == compiled
        assert three.output == HOT_OUTPUT
        assert five.output == [str(5 * (63 * 64 // 2) * 30)]
        assert five.stats.traces_compiled == three.stats.traces_compiled
        assert five.stats.guard_checks_elided > 0

    def test_workloads_fold_into_a_compact_library(self, monkeypatch):
        calls = self._count_compiles(monkeypatch)
        traces = 0
        for name in workload_names():
            source = get_workload(name, "tiny").source
            for mode in ("carat", "traditional"):
                config = RunConfig(mode=mode, engine="trace", name=name)
                traces += CaratSession(config).run(source).stats.traces_compiled
        entries = len(tracejit._LIBRARY)
        size = sum(map(len, tracejit._LIBRARY.values()))
        print(f"library: {traces} traces, {entries} entries, {size} bytes")
        assert entries == len(calls)
        # Measured: 386 traces fold into 311 entries of 1 398 644 bytes.
        # Text bearing a per-module slot id would make nearly every
        # trace its own entry.
        assert entries * 10 <= traces * 9
        assert entries <= 2 * 311
        assert size <= 2 * 1_398_644
