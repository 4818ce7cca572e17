"""Differential tests: the compiled engines are observably the reference.

The fast execution engine (:mod:`repro.machine.fastexec`) trades
per-tick interpretation for pre-compiled dispatch plus an
epoch-invalidated guard cache; the trace tier
(:mod:`repro.machine.tracejit`) further compiles hot superblocks with
parameter-specialized guards.  Their shared contract is that nothing
observable changes: bit-identical program output, exit codes, and memory
image, and semantically identical stats (the dispatch/region-cache and
trace counters are the only additions).  These tests check the contract
three ways — property-based random programs run under all three engines,
targeted cache-invalidation scenarios, and end-to-end runs under an
aggressive page-moving policy engine and the multi-tenant scheduler.
"""

from dataclasses import asdict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carat.pipeline import CompileOptions, compile_baseline, compile_carat
from repro.errors import ProtectionFault
from repro.ir import parse_module
from repro.ir.types import IntType
from repro.kernel.kernel import Kernel
from repro.kernel.pagetable import PTE
from repro.kernel.physmem import PhysicalMemory
from tests.support import run_carat, run_traditional
from repro.machine.codegen import GLOBALS, Writer, emit_op
from repro.machine import fastexec
from repro.machine.fastexec import compile_module
from repro.machine.session import CaratSession, RunConfig
from repro.resilience import MoveJournal
from repro.runtime import (
    PERM_RW,
    CaratRuntime,
    Region,
    RegionSet,
)
from repro.runtime.runtime import GuardSiteCell
from repro.transform.simplify import fold_int_binop
from repro.workloads import get_workload, workload_names

MB = 1024 * 1024

#: The stats fields that must match exactly between engines (everything
#: the cost model and the figures consume).  The dispatch-cache and
#: region-cache counters are deliberately absent: they describe the
#: engine, not the program.
SEMANTIC_FIELDS = [
    "cycles",
    "instructions",
    "loads",
    "stores",
    "calls",
    "translation_cycles",
    "guard_cycles",
    "tracking_cycles",
    "page_fault_cycles",
    "fast_tier_accesses",
    "slow_tier_accesses",
    "tier_cycles",
]

RUNTIME_FIELDS = [
    "guards_executed",
    "guard_cycles",
    "guard_faults",
    "tracking_events",
    "tracking_cycles",
]


def _modeled(stats, process):
    """The modeled counters of a run: :data:`SEMANTIC_FIELDS` and, in
    paging mode, the translation state — the MMU, DTLB and STLB counters,
    both TLBs' entries in LRU order, and every PTE's flags (its dirty
    bit)."""
    modeled = {f: getattr(stats, f) for f in SEMANTIC_FIELDS}
    mmu = process.mmu
    if mmu is not None:
        modeled["mmu"] = asdict(mmu.stats)
        modeled["dtlb"] = asdict(mmu.dtlb.stats)
        modeled["stlb"] = asdict(mmu.stlb.stats)
        modeled["tlb_entries"] = [
            [(vpn, pte.pfn, pte.flags) for vpn, pte in tlb.entries()]
            for tlb in (mmu.dtlb, mmu.stlb)
        ]
        modeled["pte_flags"] = [
            (vpn, pte.flags) for vpn, pte in process.page_table.entries()
        ]
    return modeled


def _snapshot(result):
    """Everything observable about a run, as a comparable value."""
    semantic = _modeled(result.stats, result.process)
    runtime = None
    if result.process.runtime is not None:
        runtime = {
            f: getattr(result.process.runtime.stats, f) for f in RUNTIME_FIELDS
        }
    return (
        result.exit_code,
        tuple(result.output),
        semantic,
        runtime,
        bytes(result.kernel.memory._data),
    )


def _hot_trace(interpreter):
    """Setup hook: promote at 2 back-edge executions so even the tiny
    property-test programs exercise the trace tier."""
    if hasattr(interpreter, "set_trace_tuning"):
        interpreter.set_trace_tuning(threshold=2)


# ---------------------------------------------------------------------------
# Property-based: random programs behave identically under both engines.
# ---------------------------------------------------------------------------

_STMT_TEMPLATES = [
    "for (j = 0; j < N; j++) {{ a[j] = a[j] {op} {c}; }}",
    "acc = helper(acc % 100000);",
    "if (acc % 2 == 0) {{ acc = acc + {c}; }} else {{ acc = acc - {c}; }}",
    "f = f * 1.25 + (double)(acc % 7); acc = acc + (long)f % 1000;",
    "a[{c} % N] = acc % 1000;",
    "acc = acc * 3 + a[{c} % N];",
]


@st.composite
def mini_c_programs(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=-1000, max_value=1000))
    statements = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_STMT_TEMPLATES),
                st.sampled_from(["+", "-", "*"]),
                st.integers(min_value=1, max_value=97),
            ),
            min_size=1,
            max_size=8,
        )
    )
    body = "\n  ".join(
        template.format(op=op, c=c) for template, op, c in statements
    )
    return f"""
long N = {n};
long acc;
long helper(long x) {{ return x * 7 + 3; }}
void main() {{
  long *a = (long*)malloc(N * 8);
  double f = 1.5;
  long i;
  long j;
  acc = {seed};
  for (i = 0; i < N; i++) {{ a[i] = i * 5 + 2; }}
  {body}
  for (i = 0; i < N; i++) {{ acc = acc + a[i]; }}
  print_long(acc % 1000000007);
  free(a);
}}
"""


class TestPropertyDifferential:
    @given(mini_c_programs())
    @settings(max_examples=15, deadline=None)
    def test_random_programs_identical_under_carat(self, source):
        binary = compile_carat(source, CompileOptions(), module_name="fuzz")
        reference = _snapshot(run_carat(binary, engine="reference"))
        fast = _snapshot(run_carat(binary, engine="fast"))
        trace = _snapshot(
            run_carat(binary, engine="trace", setup=_hot_trace)
        )
        assert reference == fast
        assert reference == trace

    @given(mini_c_programs())
    @settings(max_examples=8, deadline=None)
    def test_random_programs_identical_under_traditional(self, source):
        binary = compile_carat(
            source,
            CompileOptions(guards=False, tracking=False),
            module_name="fuzz",
        )
        reference = _snapshot(run_traditional(binary, engine="reference"))
        fast = _snapshot(run_traditional(binary, engine="fast"))
        config = RunConfig(
            mode="traditional", engine="trace", trace_threshold=2
        )
        trace = _snapshot(CaratSession(config).run(binary))
        assert reference == fast
        assert reference == trace


# ---------------------------------------------------------------------------
# Targeted: the guard cache and its invalidation rules.
# ---------------------------------------------------------------------------


class TestGuardCacheInvalidation:
    def _runtime(self):
        regions = RegionSet(
            [Region(0x1000, 0x1000, PERM_RW), Region(0x4000, 0x2000, PERM_RW)]
        )
        runtime = CaratRuntime(PhysicalMemory(MB), regions)
        runtime.enable_region_cache()
        return runtime, regions

    def test_repeat_hits_after_one_miss(self):
        runtime, _ = self._runtime()
        cell = GuardSiteCell()
        for _ in range(5):
            runtime.guard_access(0x1800, 8, "read", cell)
        assert runtime.stats.region_cache_misses == 1
        assert runtime.stats.region_cache_hits == 4
        assert runtime.stats.guards_executed == 5

    def test_region_mutation_invalidates(self):
        runtime, regions = self._runtime()
        cell = GuardSiteCell()
        runtime.guard_access(0x1800, 8, "read", cell)
        runtime.guard_access(0x1800, 8, "read", cell)
        assert runtime.stats.region_cache_hits == 1
        regions.add(Region(0x8000, 0x1000, PERM_RW))
        runtime.guard_access(0x1800, 8, "read", cell)
        # The mutation must demote the probe to a full search, never a
        # stale hit.
        assert runtime.stats.region_cache_invalidations == 1
        assert runtime.stats.region_cache_misses == 2

    def test_removed_region_faults_despite_cache(self):
        runtime, regions = self._runtime()
        cell = GuardSiteCell()
        runtime.guard_access(0x4100, 8, "write", cell)
        runtime.guard_access(0x4100, 8, "write", cell)
        regions.remove(0x4000)
        # A stale hit would let this through; the generation bump means
        # it must re-search and fault.
        with pytest.raises(ProtectionFault):
            runtime.guard_access(0x4100, 8, "write", cell)
        assert runtime.stats.guard_faults == 1

    def test_execute_move_bumps_generation(self):
        runtime, regions = self._runtime()
        cell = GuardSiteCell()
        runtime.on_alloc(0x4100, 64)
        runtime.guard_access(0x4100, 8, "read", cell)
        generation = regions.version
        plan = runtime.patcher.plan_move(0x4000, 0x5000)
        runtime.patcher.execute_move(plan, 0x9000, journal=MoveJournal())
        assert regions.version > generation
        runtime.guard_access(0x4100, 8, "read", cell)
        assert runtime.stats.region_cache_invalidations == 1

    def test_cell_from_other_region_set_is_ignored(self):
        runtime, _ = self._runtime()
        other = RegionSet([Region(0x1000, 0x1000, PERM_RW)])
        cell = GuardSiteCell()
        cell.fill(other, other.find(0x1800), other.version)
        runtime.guard_access(0x1800, 8, "read", cell)
        # Identity mismatch: a different landing zone can never hit, even
        # with matching geometry and generation.
        assert runtime.stats.region_cache_hits == 0
        assert runtime.stats.region_cache_misses == 1

    def test_disabled_cache_counts_nothing(self):
        regions = RegionSet([Region(0x1000, 0x1000, PERM_RW)])
        runtime = CaratRuntime(PhysicalMemory(MB), regions)
        cell = GuardSiteCell()
        runtime.guard_access(0x1800, 8, "read", cell)
        runtime.guard_access(0x1800, 8, "read", cell)
        assert runtime.stats.region_cache_hits == 0
        assert runtime.stats.region_cache_misses == 0


# ---------------------------------------------------------------------------
# Targeted: the dispatch cache.
# ---------------------------------------------------------------------------


class TestDispatchCache:
    def test_compiled_code_reused_across_runs(self):
        workload = get_workload("ep", "tiny")
        binary = compile_carat(
            workload.source, CompileOptions(), module_name="ep"
        )
        first = run_carat(binary, engine="fast")
        second = run_carat(binary, engine="fast")
        assert first.stats.compiled_blocks > 0
        # The unit of caching is the basic block: a cold run misses once
        # per block it compiles, and a warm run hits once per block it
        # reuses — never a per-function or per-module count.
        assert first.stats.dispatch_cache_misses == first.stats.compiled_blocks
        assert first.stats.dispatch_cache_hits == 0
        assert second.stats.dispatch_cache_hits == second.stats.compiled_blocks
        assert second.stats.dispatch_cache_misses == 0
        assert second.stats.compiled_blocks == first.stats.compiled_blocks

    def test_module_code_identity(self):
        workload = get_workload("ep", "tiny")
        binary = compile_carat(
            workload.source, CompileOptions(), module_name="ep"
        )
        code, was_cached = compile_module(binary.module)
        assert not was_cached
        again, was_cached = compile_module(binary.module)
        assert was_cached
        assert again is code

    def test_reference_engine_keeps_counters_zero(self):
        workload = get_workload("ep", "tiny")
        result = run_carat(workload.source, name="ep")
        assert result.stats.compiled_blocks == 0
        assert result.stats.dispatch_cache_hits == 0
        assert result.stats.dispatch_cache_misses == 0
        assert result.stats.traces_compiled == 0
        assert result.stats.trace_exits == 0
        assert result.stats.trace_respecializations == 0
        assert result.stats.guard_checks_elided == 0

    def test_unknown_engine_rejected(self):
        workload = get_workload("ep", "tiny")
        with pytest.raises(ValueError, match="unknown engine"):
            run_carat(workload.source, name="ep", engine="warp")

    # -- the stencil library: one compile per op shape, not per op ------

    @staticmethod
    def _two_adds(c_entry, c_next):
        """``add i64 <slot>, <const>`` in two blocks: one shape, with a
        different operand slot, constant and destination in each."""
        module = parse_module(
            "define i64 @f(i64 %x, i64 %y) {\nentry:\n"
            f"  %a = add i64 %x, {c_entry}\n  br label %next\n"
            f"next:\n  %b = add i64 %y, {c_next}\n  ret i64 %b\n}}\n"
        )
        function = module.get_function("f")
        code, _ = compile_module(module)
        ops = [code.ops_by_block[id(block)][0][0] for block in function.blocks]
        return function, ops

    def test_same_shape_ops_share_one_stencil(self):
        interp = SimpleNamespace(stats=SimpleNamespace(cycles=0), _cost_instruction=1)
        codes = set()
        for c_entry, c_next in ((5, 9), (-7, 1000)):
            function, ops = self._two_adds(c_entry, c_next)
            codes.update(op.__code__ for op in ops)
            x, y = function.args
            frame = SimpleNamespace(values={id(x): 40, id(y): 2})
            for op in ops:
                op(interp, frame)
            a, b = (block.instructions[0] for block in function.blocks)
            assert frame.values[id(a)] == 40 + c_entry
            assert frame.values[id(b)] == 2 + c_next
        # Two blocks of two modules: four ops, one code object.
        assert len(codes) == 1
        # Two latch branches of two modules, each carrying one phi move
        # on its back edge: one code object too.
        interp.stats.instructions = 0
        codes = set()
        for step in (1, 7):
            loop, ops = self._latch(step)
            branch = ops[-1][0]
            codes.add(branch.__code__)
            phi, j, c, _br = loop.instructions
            frame = SimpleNamespace(
                values={id(j): 40 + step, id(c): 1}, block=loop, prev_block=None
            )
            branch(interp, frame)
            assert frame.values[id(phi)] == 40 + step
            assert frame.block is loop and frame.prev_block is loop
            assert frame.ops is ops and frame.index == 1
        assert interp.stats.instructions == 2  # one phi move per latch
        assert len(codes) == 1

    @staticmethod
    def _latch(step):
        """A loop whose latch branch carries one phi move on its back
        edge and none on its exit edge; only the step differs."""
        module = parse_module(
            "define i64 @f(i64 %n) {\nentry:\n  br label %loop\n"
            "loop:\n  %i = phi i64 [0, %entry], [%j, %loop]\n"
            f"  %j = add i64 %i, {step}\n  %c = icmp slt i64 %j, %n\n"
            "  br i1 %c, label %loop, label %exit\nexit:\n  ret i64 %j\n}\n"
        )
        function = module.get_function("f")
        code, _ = compile_module(module)
        loop = function.blocks[1]
        return loop, code.ops_by_block[id(loop)]

    def test_recompiling_a_program_adds_no_stencils(self, monkeypatch):
        # Any id() or position that leaked into a stencil's text would
        # make the second module's ops miss the library.
        source = get_workload("hpccg", "tiny").source
        compile_module(compile_carat(source, CompileOptions()).module)
        size = len(fastexec._STENCILS)
        compiles = []

        def counting_compile(*args, **kwargs):
            compiles.append(args)
            return compile(*args, **kwargs)

        monkeypatch.setattr(fastexec, "compile", counting_compile, raising=False)
        code, was_cached = compile_module(compile_carat(source, CompileOptions()).module)
        assert not was_cached and code.compiled_blocks > 0
        assert len(fastexec._STENCILS) == size
        assert compiles == []

    def test_stencil_library_size_over_all_workloads(self, monkeypatch):
        # 25 workloads x carat/traditional at tiny scale fold into 160
        # stencils (93 before branches, calls, returns, select and the
        # tracking intrinsics had templates); the bound is 4x 93, far
        # below one stencil per op.
        monkeypatch.setattr(fastexec, "_STENCILS", {})
        blocks = 0
        for name in workload_names():
            source = get_workload(name, "tiny").source
            for binary in (
                compile_carat(source, CompileOptions(), module_name=name),
                compile_baseline(source, module_name=name),
            ):
                blocks += compile_module(binary.module)[0].compiled_blocks
        size = len(fastexec._STENCILS)
        print(f"stencil library: {size} stencils for {blocks} blocks")
        assert 0 < size <= 4 * 93


# ---------------------------------------------------------------------------
# End-to-end: mid-run page moves under both engines.
# ---------------------------------------------------------------------------


def _policy_run(workload, engine):
    """An aggressive policy config (small epochs, scatter, tiering) so the
    run performs unsolicited page moves *while* the guard cache is live."""
    from repro.policy import (
        CompactionDaemon,
        HeatTracker,
        PolicyEngine,
        TieringBalancer,
        scatter_capsule,
    )

    kernel = Kernel(memory_size=16 * MB, fast_memory=1 * MB)
    policy = None

    def setup(interpreter):
        nonlocal policy
        interpreter.set_tick_interval(1_000)
        process = interpreter.process
        scatter_capsule(kernel, process, interpreter=interpreter)
        heat = HeatTracker()
        policy = PolicyEngine(
            kernel,
            process,
            epoch_cycles=5_000,
            budget_cycles=500_000,
            heat=heat,
            compaction=CompactionDaemon(kernel, process, target_fragmentation=0.05),
            tiering=TieringBalancer(kernel, process, heat, max_allocation_pages=40),
        )
        policy.attach(interpreter)

    result = run_carat(
        workload.source,
        kernel=kernel,
        name=workload.name,
        heap_size=512 * 1024,
        stack_size=128 * 1024,
        setup=setup,
        engine=engine,
    )
    return result, policy


class TestMidRunMoveParity:
    @pytest.mark.parametrize("name", ["canneal", "mcf"])
    def test_policy_moves_identical_under_all_engines(self, name):
        workload = get_workload(name, "tiny")
        reference, ref_policy = _policy_run(workload, "reference")
        fast, fast_policy = _policy_run(workload, "fast")
        trace, trace_policy = _policy_run(workload, "trace")
        assert _snapshot(reference) == _snapshot(fast)
        assert _snapshot(reference) == _snapshot(trace)
        # The runs must actually have moved pages, and the moves must have
        # invalidated live guard-cache entries (else the test proves
        # nothing).
        assert ref_policy.stats.total_moves > 0
        assert fast_policy.stats.total_moves == ref_policy.stats.total_moves
        assert trace_policy.stats.total_moves == ref_policy.stats.total_moves
        rt_stats = fast.process.runtime.stats
        assert rt_stats.region_cache_hits > 0
        assert rt_stats.region_cache_invalidations > 0


# ---------------------------------------------------------------------------
# Paging translation: compiled paging loads and stores serve DTLB hits on
# the most recent entry inline, and must see every shootdown and every
# entry the TLB holds, however it got there.
# ---------------------------------------------------------------------------

#: A hot loop over four pages of a global array, every access a paging
#: load or store.
_HOT_PAGES = """
long a[2048];

void main() {
  long s = 0;
  long r;
  long i;
  for (r = 0; r < 8; r++) {
    for (i = 0; i < 2048; i++) {
      a[i] = a[i] + i + r;
      s = s + a[i];
    }
  }
  print_long(s);
}
"""


def _paging_run(engine, intervene):
    """Run :data:`_HOT_PAGES` in traditional mode; every 700 instructions
    ``intervene(kernel, process, vpns, tick)`` gets the mapped pages of
    ``a``."""
    ticks = []

    def setup(interp):
        def hook(interp):
            process = interp.process
            base = process.globals_map["a"] >> 12
            vpns = [
                vpn for vpn in range(base, base + 5)
                if process.page_table.lookup(vpn) is not None
            ]
            intervene(interp.kernel, process, vpns, len(ticks))
            ticks.append(vpns)

        interp.set_tick_interval(700)
        interp.tick_hook = hook

    config = RunConfig(mode="traditional", engine=engine, trace_threshold=2)
    return CaratSession(config, setup=setup).run(_HOT_PAGES)


class TestPagingTranslationParity:
    def _runs(self, intervene):
        runs = [
            _paging_run(engine, intervene)
            for engine in ("reference", "fast", "trace")
        ]
        reference, fast, trace = (_snapshot(r) for r in runs)
        assert reference == fast
        assert reference == trace
        assert runs[2].stats.traces_compiled > 0
        return runs

    def test_shootdowns_mid_trace(self):
        def move(kernel, process, vpns, tick):
            if vpns:
                kernel.move_page_traditional(
                    process, vpns[tick % len(vpns)] << 12
                )

        runs = self._runs(move)
        for run in runs:
            assert run.process.pages_moved > 20
            assert run.process.mmu.dtlb.stats.invalidations > 20

    def test_planted_stale_entry_is_used(self):
        # A missed shootdown, as FaultInjector.stale_tlb plants one: the
        # DTLB maps a hot page to the wrong frame, and every engine must
        # read and write through it alike until it is evicted.
        def plant(kernel, process, vpns, tick):
            if tick == 40 and vpns:
                pte = process.page_table.lookup(vpns[-1])
                process.mmu.dtlb.insert(
                    vpns[-1], PTE(pfn=pte.pfn + 1, flags=pte.flags)
                )

        runs = self._runs(plant)
        clean = _paging_run("reference", lambda *args: None)
        assert runs[0].output != clean.output  # the stale frame was used


# ---------------------------------------------------------------------------
# End-to-end: multi-tenant scheduling under all three engines.
# ---------------------------------------------------------------------------


class TestMultiTenantParity:
    def _schedule(self, engine):
        from repro.multiproc import Scheduler, TenantSpec

        specs = [
            TenantSpec(get_workload("ep", "tiny").source, name="ep"),
            TenantSpec(get_workload("cg", "tiny").source, name="cg"),
        ]
        config = RunConfig(
            engine=engine,
            quantum=400,
            heap_size=256 * 1024,
            stack_size=64 * 1024,
            trace_threshold=4,
        )
        return Scheduler(config, specs).run()

    def test_scheduled_tenants_fingerprint_identically(self):
        """Per-tenant fingerprints (output + every modeled counter) must
        match across engines even with quantum interleaving — tenant
        switches must invalidate per-site specialization correctly, and
        compiled traces must never leak across tenant interpreters."""
        reference = self._schedule("reference")
        fast = self._schedule("fast")
        trace = self._schedule("trace")
        assert reference.fingerprints() == fast.fingerprints()
        assert reference.fingerprints() == trace.fingerprints()
        # The trace run must actually have compiled traces in at least
        # one tenant, or this proves nothing about the trace tier.
        assert any(
            r.stats.traces_compiled > 0 for r in trace.tenants.values()
        )


# ---------------------------------------------------------------------------
# Opcode parity matrix: every compiled op form, in a loop hot enough to
# trace, with edge-case operands the Mini-C fuzzer never produces.
# ---------------------------------------------------------------------------

#: (x, y) operand pairs, one per loop iteration.  Every y is nonzero at
#: i8, i32 and i64, so the matrix program itself never faults; the pairs
#: cover INT_MIN / -1 at each width and quotients beyond 2**53.
_MATRIX_PAIRS = [
    (-(1 << 63), -1),
    (-4611686018427387905, 1),
    (-4611686018427387905, 3),
    (-(1 << 31), -1),
    (-128, -1),
    (-7, 2),
    (7, -2),
    (0, -129),
    (300, 13),
    ((1 << 63) - 1, -3),
    (2147483647, 255),
    (-1, (1 << 63) - 1),
]

_INT_OPS = ("add", "sub", "mul", "and", "or", "xor",
            "sdiv", "srem", "udiv", "urem")
_SHIFT_OPS = ("shl", "lshr", "ashr")
_ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge",
                    "ult", "ule", "ugt", "uge")
_FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")


class _IRText:
    """Numbered-SSA IR text builder for the matrix programs."""

    def __init__(self):
        self.lines = []
        self.n = 0

    def op(self, text):
        self.n += 1
        name = f"%v{self.n}"
        self.lines.append(f"  {name} = {text}")
        return name

    def emit(self, text):
        self.lines.append(f"  {text}")

    def print_int(self, ty, value):
        if ty != "i64":
            value = self.op(f"sext {ty} {value} to i64")
        self.emit(f"call void @print_long(i64 {value})")

    def print_float(self, value):
        self.emit(f"call void @print_double(f64 {value})")


_MATRIX_DECLS = """
declare i8* @malloc(i64)
declare void @print_long(i64)
declare void @print_double(f64)
declare f64 @sqrt(f64)
declare f64 @log(f64)
declare f64 @exp(f64)
declare f64 @fabs(f64)
declare f64 @floor(f64)
declare void @free(i8*)
"""

#: The matrix's callees: calls of 0, 1 and 3 arguments, void and
#: non-void, returning a constant, a slot and nothing; and the global a
#: phi reads.
_MATRIX_HELPERS = """
@g = global i64 77

define i64 @zero() {
entry:
  ret i64 42
}

define i64 @one(i64 %a) {
entry:
  %r = mul i64 %a, 3
  ret i64 %r
}

define void @three(i64 %a, i64 %b, i64* %p) {
entry:
  %s = add i64 %a, %b
  store i64 %s, i64* %p
  ret void
}
"""


def _table(ir, values):
    """Store ``values`` into a fresh heap table; return its i64* name."""
    raw = ir.op(f"call i8* @malloc(i64 {8 * len(values)})")
    table = ir.op(f"bitcast i8* {raw} to i64*")
    for k, value in enumerate(values):
        slot = ir.op(f"getelementptr i64* {table}, i64 {k}")
        ir.emit(f"store i64 {value}, i64* {slot}")
    return table


def _matrix_body(ir, x64, y64):
    """One iteration's worth of every value-op form over (x, y)."""
    for bits in (8, 32, 64):
        ty = f"i{bits}"
        if bits == 64:
            x, y = x64, y64
        else:
            x = ir.op(f"trunc i64 {x64} to {ty}")
            y = ir.op(f"trunc i64 {y64} to {ty}")
        for name in _INT_OPS:
            ir.print_int(ty, ir.op(f"{name} {ty} {x}, {y}"))
            ir.print_int(ty, ir.op(f"{name} {ty} {x}, -3"))
            ir.print_int(ty, ir.op(f"{name} {ty} {x}, 7"))
        ir.print_int(ty, ir.op(f"sdiv {ty} -7, 2"))
        amount = ir.op(f"and {ty} {y}, {bits - 1}")
        for name in _SHIFT_OPS:
            ir.print_int(ty, ir.op(f"{name} {ty} {x}, {amount}"))
            ir.print_int(ty, ir.op(f"{name} {ty} {x}, 1"))
            ir.print_int(ty, ir.op(f"{name} {ty} {x}, {bits - 1}"))
        for pred in _ICMP_PREDICATES:
            for rhs in (y, "-1"):
                flag = ir.op(f"icmp {pred} {ty} {x}, {rhs}")
                ir.print_int("i64", ir.op(f"zext i1 {flag} to i64"))
        if bits < 64:
            ir.print_int("i64", ir.op(f"zext {ty} {x} to i64"))
    fx = ir.op(f"sitofp i64 {x64} to f64")
    fy = ir.op(f"sitofp i64 {y64} to f64")
    zero = ir.op(f"fsub f64 {fx}, {fx}")
    negzero = ir.op(f"fmul f64 {zero}, -1.0")
    inf = ir.op(f"fdiv f64 {fx}, {zero}")
    nan = ir.op(f"fmul f64 {inf}, 0.0")
    for text in (
        f"fadd f64 {fx}, {fy}", f"fsub f64 {fx}, 0.5", f"fmul f64 {fx}, {fy}",
        f"fdiv f64 {fx}, {fy}", f"fdiv f64 {fx}, 0.0", f"fdiv f64 {fx}, {negzero}",
        f"fdiv f64 {fy}, -0.0", f"frem f64 {fx}, {fy}", f"frem f64 {fx}, 0.0",
    ):
        ir.print_float(ir.op(text))
    for pred in _FCMP_PREDICATES:
        for lhs, rhs in ((fx, fy), (fx, nan), (nan, nan), (fy, "2.0")):
            flag = ir.op(f"fcmp {pred} f64 {lhs}, {rhs}")
            ir.print_int("i64", ir.op(f"zext i1 {flag} to i64"))
    frac = ir.op(f"fdiv f64 {fx}, 3.0")
    big = ir.op(f"fmul f64 {fx}, 1.0e30")
    for value in (frac, big, inf, nan, fy):
        for ty in ("i8", "i32", "i64"):
            ir.print_int(ty, ir.op(f"fptosi f64 {value} to {ty}"))
    small = ir.op(f"fdiv f64 {fy}, 1.0e18")
    for fn in ("sqrt", "log", "exp", "fabs", "floor"):
        arg = small if fn == "exp" else fx
        ir.print_float(ir.op(f"call f64 @{fn}(f64 {arg})"))
    ir.print_float(ir.op(f"call f64 @sqrt(f64 -2.0)"))


def _matrix_control(ir, x, y):
    """Every control form over (x, y): selects with slot and constant
    arms, a static and a dynamic alloca, calls and returns, tracking
    intrinsics (around malloc and free), and branch edges carrying 0, 1
    and 3 phi moves with slot, constant and global incoming values on
    both arms of a conditional branch.  Falls into ``%latch``."""
    even = ir.op(f"icmp eq i64 {ir.op('and i64 %i, 1')}, 0")
    big = ir.op(f"icmp sgt i64 {x}, {y}")
    picked = ir.op(f"select i1 {even}, i64 {x}, i64 -5")
    ir.print_int("i64", picked)
    ir.print_int("i64", ir.op(f"select i1 {big}, i64 11, i64 {y}"))
    static = ir.op("alloca i64, i64 2")
    dynamic = ir.op(f"alloca i64, i64 {ir.op(f'and i64 {y}, 7')}")
    low = ir.op(f"ptrtoint i64* {dynamic} to i64")
    ir.print_int("i64", ir.op(f"sub i64 {ir.op(f'ptrtoint i64* {static} to i64')}, {low}"))
    ir.print_int("i64", ir.op("call i64 @zero()"))
    one = ir.op(f"call i64 @one(i64 {x})")
    ir.emit(f"call void @three(i64 {one}, i64 -4, i64* {static})")
    ir.emit("call i64 @one(i64 7)")  # the result discarded
    ir.print_int("i64", ir.op(f"load i64* {static}"))
    ir.emit(f"call void @free(i8* {ir.op('call i8* @malloc(i64 16)')})")
    ir.emit(f"br i1 {even}, label %left, label %right")
    ir.lines.append("left:")
    ir.emit(f"br i1 {big}, label %single, label %triple")
    ir.lines.append("right:")
    ir.emit(f"br i1 {big}, label %triple, label %single")
    ir.lines.append("single:")
    ir.emit(f"%q = phi i64 [{x}, %left], [13, %right]")
    ir.emit("br label %latch")
    ir.lines.append("triple:")
    ir.emit(f"%r1 = phi i64 [-2, %left], [{y}, %right]")
    ir.emit(f"%r2 = phi i64* [@g, %left], [{static}, %right]")
    ir.emit(f"%r3 = phi i64 [{picked}, %left], [{one}, %right]")
    ir.print_int("i64", "%r1")
    ir.print_int("i64", ir.op("load i64* %r2"))
    ir.emit("br label %latch")
    ir.lines.append("latch:")
    ir.emit("%acc = phi i64 [%q, %single], [%r3, %triple]")


def _matrix_ir():
    """The opcode matrix: a phi-counted loop over ``_MATRIX_PAIRS`` whose
    body evaluates every form, with loads, stores and GEPs through heap
    tables and a scratch buffer, then every control form; its back edge
    carries two phi moves."""
    ir = _IRText()
    n = len(_MATRIX_PAIRS)
    ir.lines.append("define i64 @main() {")
    ir.lines.append("entry:")
    xs = _table(ir, [x for x, _y in _MATRIX_PAIRS])
    ys = _table(ir, [y for _x, y in _MATRIX_PAIRS])
    raw = ir.op("call i8* @malloc(i64 64)")
    ir.emit("br label %loop")
    ir.lines.append("loop:")
    ir.emit("%i = phi i64 [0, %entry], [%next, %latch]")
    ir.emit("%k = phi i64 [5, %entry], [%acc, %latch]")
    ir.print_int("i64", "%k")
    x = ir.op(f"load i64* {ir.op(f'getelementptr i64* {xs}, i64 %i')}")
    y = ir.op(f"load i64* {ir.op(f'getelementptr i64* {ys}, i64 %i')}")
    ir.print_int("i64", ir.op(f"load i64* {ir.op(f'getelementptr i64* {ys}, i64 2')}"))
    _matrix_body(ir, x, y)
    # Loads and stores of every scalar width through the scratch buffer.
    x8 = ir.op(f"trunc i64 {x} to i8")
    x32 = ir.op(f"trunc i64 {x} to i32")
    fx = ir.op(f"sitofp i64 {x} to f64")
    for ty, value, offset in (
        ("i8", x8, 0), ("i32", x32, 8), ("i64", x, 16), ("f64", fx, 24),
    ):
        slot = ir.op(f"getelementptr i8* {raw}, i64 {offset}")
        typed = ir.op(f"bitcast i8* {slot} to {ty}*")
        ir.emit(f"store {ty} {value}, {ty}* {typed}")
        loaded = ir.op(f"load {ty}* {typed}")
        if ty == "f64":
            ir.print_float(loaded)
        else:
            ir.print_int(ty, loaded)
    slot = ir.op(f"getelementptr i8* {raw}, i64 32")
    cell = ir.op(f"bitcast i8* {slot} to i64**")
    ir.emit(f"store i64* {ys}, i64** {cell}")
    again = ir.op(f"load i64** {cell}")
    slot = ir.op(f"getelementptr i64* {again}, i64 %i")
    ir.print_int("i64", ir.op(f"load i64* {slot}"))
    _matrix_control(ir, x, y)
    ir.emit("%next = add i64 %i, 1")
    done = ir.op(f"icmp slt i64 %next, {n}")
    ir.emit(f"br i1 {done}, label %loop, label %exit")
    ir.lines.append("exit:")
    ir.emit(f"ret i64 {ir.op('and i64 %acc, 63')}")  # the exit code
    ir.lines.append("}")
    return _MATRIX_DECLS + _MATRIX_HELPERS + "\n".join(ir.lines) + "\n"


#: Faulting forms, each hit on iteration 5 (after the trace compiled):
#: ``%d`` counts down to 0, ``%w`` up to the width, ``%m`` below zero.
_FAULT_CASES = [
    "sdiv i64 %x, %d", "srem i64 %x, %d", "udiv i64 %x, %d",
    "urem i64 %x, %d", "sdiv i8 %x8, %d8",
    "shl i64 %x, %w", "lshr i64 %x, %w", "ashr i64 %x, %w",
    "shl i8 %x8, %w8", "shl i64 %x, %m", "ashr i32 %x32, %m32",
]


def _fault_ir(form):
    return _MATRIX_DECLS + f"""
define void @main() {{
entry:
  br label %loop
loop:
  %i = phi i64 [0, %entry], [%next, %loop]
  %x = mul i64 %i, -1000003
  %x8 = trunc i64 %x to i8
  %x32 = trunc i64 %x to i32
  %d = sub i64 5, %i
  %d8 = trunc i64 %d to i8
  %w = add i64 %i, 59
  %w8 = trunc i64 %i to i8
  %m = sub i64 4, %i
  %m32 = trunc i64 %m to i32
  %r = {form}
  %t = add i64 %i, 3
  call void @print_long(i64 %t)
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, 9
  br i1 %c, label %loop, label %exit
exit:
  ret void
}}
"""


#: Control-form faults, each raised after the loop holding it compiled:
#: a dynamic alloca overflowing the stack, and a call past the depth
#: limit from inside a loop of the deepest recursive frame.
_CONTROL_FAULTS = {
    "stack-overflow": (_MATRIX_DECLS + """
define void @main() {
entry:
  br label %loop
loop:
  %i = phi i64 [0, %entry], [%next, %loop]
  %n = mul i64 %i, 4096
  %p = alloca i64, i64 %n
  %next = add i64 %i, 1
  call void @print_long(i64 %next)
  %c = icmp slt i64 %next, 1000000
  br i1 %c, label %loop, label %exit
exit:
  ret void
}
""", "stack"),
    "call-depth": (_MATRIX_DECLS + """
define void @leaf() {
entry:
  ret void
}

define void @rec(i64 %d) {
entry:
  br label %loop
loop:
  %j = phi i64 [0, %entry], [%jn, %loop]
  call void @leaf()
  %jn = add i64 %j, 1
  %c = icmp slt i64 %jn, 3
  br i1 %c, label %loop, label %done
done:
  %d1 = add i64 %d, 1
  call void @rec(i64 %d1)
  ret void
}

define void @main() {
entry:
  call void @rec(i64 0)
  ret void
}
""", "call depth exceeded (512) calling @leaf"),
}


def _matrix_run(text, mode, engine, verify=True, **config):
    """Compile IR text for ``mode`` (unoptimized, so no fold hides a
    form) and run it, returning the observable outcome — including the
    exception, the stats and the top frame (block and ``index``) at the
    fault when the program faults.  ``config`` adds RunConfig fields."""
    options = CompileOptions(
        optimize=False,
        guards=mode == "carat",
        tracking=mode == "carat",
        verify=verify,
    )
    binary = compile_carat(parse_module(text), options, module_name="matrix")
    seen = []
    config = RunConfig(mode=mode, engine=engine, trace_threshold=2, **config)
    session = CaratSession(config, setup=seen.append)
    try:
        result = session.run(binary)
    except Exception as exc:  # the fault itself is the observation
        interp = seen[0]
        stats = _modeled(interp.stats, interp.process)
        top = interp.frames[-1]
        return ("fault", type(exc).__name__, str(exc),
                tuple(interp.output), stats, interp.stats.traces_compiled,
                (top.function.name, top.block.name, top.index))
    stats = _modeled(result.stats, result.process)
    return ("ok", result.exit_code, tuple(result.output), stats,
            result.stats.traces_compiled)


class TestOpcodeMatrix:
    """Every value-op form the engines compile, under reference, fast and
    trace, in both addressing modes: identical output, exit code and
    modeled stats — and, for faulting inputs, the identical exception."""

    @pytest.mark.parametrize("mode", ["carat", "traditional"])
    def test_matrix_identical(self, mode):
        text = _matrix_ir()
        reference = _matrix_run(text, mode, "reference")
        fast = _matrix_run(text, mode, "fast")
        trace = _matrix_run(text, mode, "trace")
        assert reference[:2] == ("ok", 13)
        assert reference[:4] == fast[:4]
        assert reference[:4] == trace[:4]
        assert trace[4] > 0  # the loop really ran as a trace

    @pytest.mark.parametrize("form", _FAULT_CASES)
    @pytest.mark.parametrize("mode", ["carat", "traditional"])
    def test_faults_identical(self, mode, form):
        text = _fault_ir(form)
        reference = _matrix_run(text, mode, "reference")
        fast = _matrix_run(text, mode, "fast")
        trace = _matrix_run(text, mode, "trace")
        assert reference[:2] == ("fault", "InterpError")
        assert "integer fault" in reference[2]
        assert reference[:5] == fast[:5]
        assert reference[:5] == trace[:5]
        assert trace[5] > 0  # the fault was raised inside a trace

    @pytest.mark.parametrize("form", list(_CONTROL_FAULTS))
    @pytest.mark.parametrize("mode", ["carat", "traditional"])
    def test_control_faults_identical(self, mode, form):
        text, message = _CONTROL_FAULTS[form]
        reference = _matrix_run(text, mode, "reference")
        fast = _matrix_run(text, mode, "fast")
        trace = _matrix_run(text, mode, "trace")
        assert reference[0] == "fault" and message in reference[2]
        for other in (fast, trace):
            assert other[:5] == reference[:5]
            assert other[6] == reference[6]  # the same top frame
        assert trace[5] > 0

    def test_fine_telemetry_identical(self):
        # A fine trace records every guard check and tracking callback,
        # stamped with the cycle clock: traces run the generic guard
        # template (no specialization under a fine tracer), and every
        # stamp must be the reference's.
        streams = []
        for engine in ("reference", "fast", "trace"):
            options = CompileOptions(optimize=False)
            binary = compile_carat(
                parse_module(_matrix_ir()), options, module_name="matrix"
            )
            config = RunConfig(
                engine=engine, trace_threshold=2, trace=True, trace_detail="fine"
            )
            session = CaratSession(config)
            result = session.run(binary)
            streams.append([
                (e.name, e.ph, e.ts, e.args)
                for e in session.tracer.events
                if e.cat not in ("trace", "session")
            ])
            traces = result.stats.traces_compiled
        assert traces > 0
        assert len(streams[0]) > 100
        assert streams[1] == streams[0]
        assert streams[2] == streams[0]


def _undefined_ir(last_limit):
    """IR the verifier would reject: in ``@g``'s loop, ``%u`` reads
    ``%v``, which is defined later in the loop body, so the read sees
    the previous iteration's value.  ``@g`` skips the read on its first
    iteration (``%j > %lim``) except in the last call, ``@g(9,
    last_limit)``: by then the loop header is a trace anchor, and the
    trace, entered from ``@g``'s entry, reads ``%v`` before this frame
    ever defined it."""
    return _MATRIX_DECLS + f"""
define void @g(i64 %n, i64 %lim) {{
entry:
  br label %loop
loop:
  %j = phi i64 [0, %entry], [%jn, %latch]
  %f = icmp sgt i64 %j, %lim
  br i1 %f, label %use, label %latch
use:
  %u = add i64 %v, %j
  call void @print_long(i64 %u)
  br label %latch
latch:
  %v = mul i64 %j, 10
  %jn = add i64 %j, 1
  %c = icmp slt i64 %jn, %n
  br i1 %c, label %loop, label %exit
exit:
  ret void
}}

define void @main() {{
entry:
  br label %loop
loop:
  %i = phi i64 [0, %entry], [%next, %loop]
  call void @g(i64 9, i64 0)
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, 4
  br i1 %c, label %loop, label %exit
exit:
  call void @g(i64 9, i64 {last_limit})
  ret void
}}
"""


class TestUndefinedOperand:
    """A use its definition does not dominate (only unverified IR has
    one): every engine reads the stale slot the same way, and a trace
    reading a slot its frame never wrote raises the reference's error."""

    @pytest.mark.parametrize("mode", ["carat", "traditional"])
    def test_stale_read_identical(self, mode):
        text = _undefined_ir(0)
        reference = _matrix_run(text, mode, "reference", verify=False)
        assert reference[0] == "ok"
        assert reference[2][:2] == ("1", "12")  # %v of the iteration before
        assert reference[:4] == _matrix_run(text, mode, "fast", verify=False)[:4]
        trace = _matrix_run(text, mode, "trace", verify=False)
        assert reference[:4] == trace[:4]
        assert trace[4] > 0

    @pytest.mark.parametrize("mode", ["carat", "traditional"])
    def test_undefined_read_identical(self, mode):
        text = _undefined_ir(-1)
        reference = _matrix_run(text, mode, "reference", verify=False)
        assert reference[:3] == (
            "fault", "InterpError", "use of undefined value %v in @g"
        )
        assert reference[:5] == _matrix_run(text, mode, "fast", verify=False)[:5]
        trace = _matrix_run(text, mode, "trace", verify=False)
        assert reference[:5] == trace[:5]
        assert trace[5] > 0  # raised inside a trace


# ---------------------------------------------------------------------------
# Signed division: exact for quotients beyond 2**53, on every engine.
# ---------------------------------------------------------------------------

_BIG_DIVISION = """
long big;
long one;
long three;
void main() {
  long i;
  big = -4611686018427387905;
  one = 1;
  three = 3;
  for (i = 0; i < 6; i++) {
    print_long(big / 1);
    print_long(big % 3);
    print_long(big / one);
    print_long(big % three);
  }
}
"""


def _exact_signed(a, b):
    """C semantics from magnitudes alone: truncate toward zero, and the
    remainder takes the dividend's sign."""
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q, a - q * b


def _template_divide(op, bits, a, b, constant_rhs):
    """Run the one shared sdiv/srem template on (a, b) directly."""
    ty = f"i{bits}"
    rhs = str(b) if constant_rhs else "%y"
    module = parse_module(
        f"define {ty} @f({ty} %x, {ty} %y) {{\nentry:\n"
        f"  %r = {op} {ty} %x, {rhs}\n  ret {ty} %r\n}}\n"
    )
    function = module.get_function("f")
    inst = function.entry.instructions[0]
    w, ns = Writer(), dict(GLOBALS)
    assert emit_op(w, 1, inst, 0, ns) is not None
    exec("def op(values, stats, _ci):\n" + w.source(), ns)
    x, y = function.args
    values = {id(x): a, id(y): b}
    ns["op"](values, SimpleNamespace(cycles=0), 1)
    return values[id(inst)]


def _signed_operands(bits):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    edges = st.sampled_from([lo, lo + 1, -1, 1, hi, -3, 3])
    value = st.one_of(edges, st.integers(min_value=lo, max_value=hi))
    return st.tuples(value, value.filter(lambda v: v != 0))


class TestSignedDivision:
    @pytest.mark.parametrize("engine", ["reference", "fast", "trace"])
    def test_large_quotients_are_exact(self, engine):
        config = RunConfig(engine=engine, trace_threshold=2)
        result = CaratSession(config).run(_BIG_DIVISION)
        assert result.output == ["-4611686018427387905", "-2"] * 12
        if engine == "trace":
            assert result.stats.traces_compiled > 0

    @given(st.sampled_from([8, 32, 64]).flatmap(
        lambda bits: st.tuples(st.just(bits), _signed_operands(bits))
    ), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sdiv_srem_match_exact_oracle(self, case, constant_rhs):
        bits, (a, b) = case
        ty = IntType(bits)
        quotient, remainder = _exact_signed(a, b)
        for op, exact in (("sdiv", quotient), ("srem", remainder)):
            want = ty.wrap(exact)
            assert fold_int_binop(op, ty, a, b) == want
            assert _template_divide(op, bits, a, b, constant_rhs) == want

    @pytest.mark.parametrize("bits", [8, 32, 64])
    def test_int_min_by_minus_one_wraps(self, bits):
        ty = IntType(bits)
        int_min = -(1 << (bits - 1))
        for constant_rhs in (False, True):
            assert _template_divide("sdiv", bits, int_min, -1, constant_rhs) == int_min
            assert _template_divide("srem", bits, int_min, -1, constant_rhs) == 0
        assert fold_int_binop("sdiv", ty, int_min, -1) == int_min
        assert fold_int_binop("srem", ty, int_min, -1) == 0
