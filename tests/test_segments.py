"""The fast engine's segment ops: one op per straight-line run of
instructions must leave every counter and the frame exactly where
per-instruction dispatch leaves them."""

import pytest

from repro.carat.pipeline import CompileOptions, compile_carat
from repro.ir import parse_module
from repro.machine import fastexec
from repro.machine.fastexec import compile_module
from repro.machine.session import CaratSession, RunConfig
from repro.workloads import get_workload
from tests.test_fastexec_differential import (
    _MATRIX_DECLS,
    CARAT_FACTS,
    SEMANTIC_FIELDS,
    _matrix_run,
)

ENGINES = ("reference", "fast", "trace")

#: ``@seg``'s ``body`` block is one segment; ``{ops}`` inserts a faulting
#: instruction at a chosen position.  It faults on the call with ``%i``
#: 5: ``%d`` is 0, ``%far`` is 2**43 bytes past the table and ``%u``,
#: defined only in ``def``, is unset in that call's fresh frame.
SEGMENT_IR = _MATRIX_DECLS + """
define void @seg(i64* %tab, i64 %i) {{
entry:
  %d = sub i64 5, %i
  %z = icmp eq i64 %d, 0
  %zz = zext i1 %z to i64
  %off = shl i64 %zz, 40
  %far = getelementptr i64* %tab, i64 %off
  br i1 %z, label %body, label %def
def:
  %u = add i64 %i, 1
  br label %body
body:
{ops}
  ret void
}}

define void @main() {{
entry:
  %raw = call i8* @malloc(i64 64)
  %tab = bitcast i8* %raw to i64*
  br label %loop
loop:
  %i = phi i64 [0, %entry], [%n, %loop]
  call void @seg(i64* %tab, i64 %i)
  %n = add i64 %i, 1
  %c = icmp slt i64 %n, 9
  br i1 %c, label %loop, label %exit
exit:
  ret void
}}
"""

_BODY = [
    "  %x0 = add i64 %i, 7",
    "  %x1 = load i64* %tab",
    "  %x2 = mul i64 %x1, %x0",
    "  store i64 %x2, i64* %tab",
    "  %x4 = sub i64 %x2, %i",
    "  store i64 %x4, i64* %tab",
]

_FAULTS = {
    "undefined": ("  %f = add i64 %u, 1", "use of undefined value %u"),
    "division": ("  %f = sdiv i64 %i, %d", "integer fault: sdiv"),
    "load": ("  %f = load i64* %far", "out of range"),
    "store": ("  store i64 %i, i64* %far", "out of range"),
}


def _segment_outcome(kind, position, engine):
    ops = list(_BODY)
    ops.insert(position, _FAULTS[kind][0])
    text = SEGMENT_IR.format(ops="\n".join(ops))
    options = CompileOptions(
        optimize=False, guards=False, tracking=True, verify=False
    )
    binary = compile_carat(parse_module(text), options, module_name="seg")
    seen = []
    session = CaratSession(
        RunConfig(engine=engine, trace_threshold=2), setup=seen.append
    )
    with pytest.raises(Exception) as info:
        session.run(binary)
    interp = seen[0]
    top = interp.frames[-1]
    if engine == "fast":
        # The body really ran as one multi-instruction op.
        assert interp._ops[id(top.block)][0][2] == len(ops) + 1
    return (
        type(info.value).__name__, str(info.value),
        {f: getattr(interp.stats, f) for f in SEMANTIC_FIELDS},
        interp.memory.bytes_read, interp.memory.bytes_written,
        top.block.name, top.index,
    )


@pytest.mark.parametrize("position", range(len(_BODY) + 1))
@pytest.mark.parametrize("kind", list(_FAULTS))
def test_fault_at_each_position_of_a_segment(kind, position):
    reference = _segment_outcome(kind, position, "reference")
    assert _FAULTS[kind][1] in reference[1]
    assert reference[5] == "body" and reference[6] == position + 1
    for engine in ("fast", "trace"):
        assert _segment_outcome(kind, position, engine) == reference, engine


def test_recompiling_a_program_adds_no_segment_stencils(monkeypatch):
    source = get_workload("hpccg", "tiny").source
    compile_module(
        compile_carat(source, CompileOptions()).module, CARAT_FACTS, 16
    )
    size = len(fastexec._STENCILS)
    compiles = []

    def counting_compile(*args, **kwargs):
        compiles.append(args)
        return compile(*args, **kwargs)

    monkeypatch.setattr(fastexec, "compile", counting_compile, raising=False)
    code, was_cached = compile_module(
        compile_carat(source, CompileOptions()).module, CARAT_FACTS, 16
    )
    assert not was_cached and code.compiled_blocks > 0
    segments = code.forms[16].values()
    assert any(entry[2] > 1 for ops in segments for entry in ops)
    assert list(code.forms) == [16]  # one form only
    assert len(fastexec._STENCILS) == size
    assert compiles == []


@pytest.mark.parametrize("engine, cap", [("fast", 16), ("trace", 1)])
def test_a_run_builds_its_engine_form_only(engine, cap):
    # The trace engine's block tier runs one op per instruction, the
    # fast engine's segments; neither builds the other's form.
    binary = compile_carat(
        get_workload("hpccg", "tiny").source, CompileOptions(),
        module_name="hpccg",
    )
    seen = []
    CaratSession(RunConfig(engine=engine), setup=seen.append).run(binary)
    assert seen[0].segment_cap == cap
    codes = binary.module.metadata[fastexec._METADATA_KEY].values()
    assert [list(code.forms) for code in codes] == [[cap]]


BAD_LOAD_IR = """
@g = global [2 x i64] zeroinitializer
define void @main() {
entry:
  %x = load [2 x i64]* @g
  ret void
}
"""


#: The same load through a heap pointer.
BAD_HEAP_LOAD_IR = _MATRIX_DECLS + """
define void @main() {
entry:
  %raw = call i8* @malloc(i64 64)
  %p = bitcast i8* %raw to [2 x i64]*
  %x = load [2 x i64]* %p
  ret void
}
"""


@pytest.mark.parametrize(
    "text, clock",
    [(BAD_LOAD_IR, (51, 47)), (BAD_HEAP_LOAD_IR, (655, 47))],
    ids=["global", "heap"],
)
def test_bad_load_translates_before_it_faults(text, clock):
    outcomes = {
        engine: _matrix_run(text, "traditional", engine, verify=False)
        for engine in ENGINES
    }
    reference = outcomes["reference"]
    assert reference[2] == "cannot load a value of type [2 x i64]"
    # The reference translates the access before it rejects the type.
    counters = reference[4]
    assert (counters["cycles"], counters["translation_cycles"]) == clock
    for engine in ("fast", "trace"):
        assert outcomes[engine][:5] == reference[:5], engine


def test_bad_access_on_a_tiered_kernel_charges_the_tier():
    from repro.kernel.kernel import Kernel

    def run(engine, store):
        access = (
            "store [2 x i64] undef, [2 x i64]* @g" if store
            else "%x = load [2 x i64]* @g"
        )
        text = BAD_LOAD_IR.replace("%x = load [2 x i64]* @g", access)
        options = CompileOptions(
            optimize=False, guards=False, tracking=False, verify=False
        )
        binary = compile_carat(parse_module(text), options, module_name="bad")
        seen = []
        session = CaratSession(
            RunConfig(engine=engine), setup=seen.append,
            kernel=Kernel(memory_size=16 << 20, fast_memory=1 << 20),
        )
        with pytest.raises(Exception) as info:
            session.run(binary)
        interp = seen[0]
        return (
            str(info.value),
            {f: getattr(interp.stats, f) for f in SEMANTIC_FIELDS},
            interp.memory.bytes_read,
        )

    for store in (False, True):
        reference = run("reference", store)
        tiers = reference[1]["fast_tier_accesses"] + reference[1]["slow_tier_accesses"]
        assert tiers == 1
        for engine in ("fast", "trace"):
            assert run(engine, store) == reference, (engine, store)


def test_guard_fault_is_stamped_at_the_reference_clock():
    from tests.test_tracejit import _PURE_LOOP_FAULTS, PURE_LOOP_IR

    text = PURE_LOOP_IR.format(fault=_PURE_LOOP_FAULTS["guard"][0])
    options = CompileOptions(optimize=False, guards=True, tracking=True)
    stamps = {}
    for engine in ENGINES:
        binary = compile_carat(parse_module(text), options, module_name="ir")
        session = CaratSession(
            RunConfig(engine=engine, trace=True, trace_threshold=2)
        )
        with pytest.raises(Exception):
            session.run(binary)
        stamps[engine] = [
            event.ts for event in session.tracer.events
            if event.name == "guard.fault"
        ]
    assert stamps["reference"] == [229]
    assert stamps["fast"] == stamps["trace"] == stamps["reference"]


#: ``@rec``'s entry block is one segment with an ``alloca`` at index 2:
#: on an 8 KiB stack the recursion faults there, mid-segment.
STACK_IR = _MATRIX_DECLS + """
define i64 @rec(i64 %n) {
entry:
  %a = add i64 %n, 1
  %b = mul i64 %a, 2
  %p = alloca i64, i64 64
  %q = getelementptr i64* %p, i64 3
  store i64 %b, i64* %q
  %z = icmp eq i64 %n, 0
  br i1 %z, label %done, label %more
more:
  %m = sub i64 %n, 1
  %r = call i64 @rec(i64 %m)
  %v = load i64* %q
  %s = add i64 %r, %v
  ret i64 %s
done:
  ret i64 %b
}
define void @main() {
entry:
  %t = call i64 @rec(i64 40)
  call void @print_long(i64 %t)
  ret void
}
"""


def _grown_run(engine):
    """Run STACK_IR, growing the stack and retrying at each stack fault:
    where each fault left the frame, the output and the counters."""
    from repro.errors import ProtectionFault
    from repro.kernel.kernel import Kernel
    from repro.kernel.pagetable import PAGE_SIZE
    from repro.machine.executor import ENGINES as CLASSES

    options = CompileOptions(optimize=False, guards=False, tracking=True)
    binary = compile_carat(parse_module(STACK_IR), options, module_name="deep")
    kernel = Kernel()
    # A free gap below the capsule lets the stack grow contiguously.
    spacer = kernel.frames.alloc_address(32)
    process = kernel.load_carat(binary, stack_size=8192)
    kernel.frames.free_address(spacer, 32)
    interp = CLASSES[engine](process, kernel)
    interp.start("main")
    retries = []
    while True:
        try:
            status = interp.run_steps(1_000_000)
        except ProtectionFault as fault:
            assert fault.access == "stack"
            top = interp.frames[-1]
            retries.append((top.block.name, top.index, interp.stats.instructions))
            assert len(retries) < 100  # each retry must make progress
            kernel.expand_stack(process, 16 * PAGE_SIZE)
            interp.retry_current_instruction()
            continue
        if status == "done":
            break
        # A run that neither ends nor faults has lost its place.
        assert interp.stats.instructions < 1_000_000
    if engine == "fast":
        entry = binary.module.get_function("rec").entry
        assert interp._ops[id(entry)][0][2] > 3  # the alloca is interior
    counters = {f: getattr(interp.stats, f) for f in SEMANTIC_FIELDS}
    return retries, interp.output, counters


def test_stack_growth_retries_mid_segment():
    reference = _grown_run("reference")
    assert reference[0] and all(r[:2] == ("entry", 3) for r in reference[0])
    for engine in ("fast", "trace"):
        assert _grown_run(engine) == reference, engine


#: A global store in the middle of one block: under sharing, its guard
#: faults mid-segment and the CoW break retries into the segment.
COW_SOURCE = """
long counter;
void main() {
  long i;
  long s = 0;
  for (i = 1; i <= 50; i++) {
    s = s + i * 3;
    counter = counter + s;
    s = s ^ i;
  }
  print_long(counter);
}
"""


def _cow_schedule(engine, quantum=123):
    from repro.multiproc import Scheduler, TenantSpec

    config = RunConfig(
        engine=engine, sanitize=True, quantum=quantum,
        heap_size=64 * 1024, stack_size=16 * 1024,
    )
    specs = [TenantSpec(COW_SOURCE, name=f"t{i}") for i in range(2)]
    scheduler = Scheduler(config, specs, share=True)
    scheduler.start()
    log = []
    for tenant in scheduler.tenants:
        interp = tenant.interpreter
        interp.set_tick_interval(13)
        interp.tick_hook = lambda i, pid=tenant.process.pid: log.append(
            ("tick", pid, i.stats.instructions)
        )
        run_steps = interp.run_steps

        def paused(max_steps, interp=interp, run_steps=run_steps):
            status = run_steps(max_steps)
            top = interp.frames[-1] if interp.frames else None
            log.append((
                "pause", interp.process.pid, interp.stats.instructions,
                top and (top.block.name, top.index),
            ))
            return status

        interp.run_steps = paused
    result = scheduler.run()
    tenants = [
        (r.output, r.exit_code, {f: getattr(r.stats, f) for f in SEMANTIC_FIELDS})
        for r in result.tenants.values()
    ]
    return log, tenants, result.dedup["cow_breaks"]


def test_cow_break_retries_mid_segment(monkeypatch):
    resumed = []
    single = fastexec.ModuleCode.single

    def counted(code, block, k, lists):
        resumed.append(k)
        return single(code, block, k, lists)

    monkeypatch.setattr(fastexec.ModuleCode, "single", counted)
    reference = _cow_schedule("reference")
    assert reference[2] == 2
    assert _cow_schedule("fast") == reference
    assert resumed  # each break resumed its segment mid-way


def test_fast_scheduler_quantum_sweep():
    for quantum in range(1, 41):
        assert _cow_schedule("fast", quantum) == _cow_schedule(
            "reference", quantum
        ), quantum


def test_profile_of_a_fast_run_equals_the_reference():
    source = get_workload("hpccg", "tiny").source
    profiles = {}
    for engine in ("reference", "fast"):
        session = CaratSession(RunConfig(engine=engine, profile=True))
        session.run(source)
        profiles[engine] = (
            session.profiler.functions(), session.profiler.buckets
        )
    assert profiles["fast"] == profiles["reference"]


def _hard_stopped(engine, stop):
    """Run COW_SOURCE in calls whose give-up bound falls ``stop`` steps
    in, far short of any block's end: each call's pause point."""
    from repro.kernel.kernel import Kernel
    from repro.machine.executor import ENGINES as CLASSES

    binary = compile_carat(COW_SOURCE, CompileOptions(), module_name="cow")
    kernel = Kernel()
    interp = CLASSES[engine](kernel.load_carat(binary), kernel)
    interp.start("main")
    pauses = []
    # The bound is 100 000 steps past the quota.
    while interp.run_steps(stop - 100_000) == "running":
        top = interp.frames[-1]
        pauses.append((interp.stats.instructions, top.block.name, top.index))
    counters = {f: getattr(interp.stats, f) for f in SEMANTIC_FIELDS}
    return pauses, interp.output, counters


@pytest.mark.parametrize("stop", [1, 2, 3, 7, 16])
def test_give_up_bound_pauses_where_the_reference_does(stop):
    reference = _hard_stopped("reference", stop)
    # Most pauses land mid-block, inside what the fast engine runs as
    # one segment.
    assert sum(1 for _, _, index in reference[0] if index > 1) > 10
    for engine in ("fast", "trace"):
        assert _hard_stopped(engine, stop) == reference, engine
