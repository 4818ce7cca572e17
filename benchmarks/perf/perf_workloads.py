"""The four workloads of the host wall-clock benchmark.

Every timing wraps a call into a public entry point of the system:
``CaratSession.run`` (whose ``setup=`` hook fires just before the first
guest instruction), ``compile_carat``, ``Scheduler.start``/``step_round``/
``finish`` and ``SoakRunner.run``.  Each workload checks what it ran
against ``golden.json`` (exit code, last output line, digest of the whole
output) or, for the soak, against the soak's own verdicts, and records
every timed sample in a :class:`Ledger`.

Timed intervals are kept as ``(start, end)`` spans and turned into
reference seconds by :class:`perf_speed.Speed` when the metrics are
computed.

The seed only reorders work: programs within a round, tenants within a
schedule, chaos seeds within a pass.  Every run of a workload therefore
does the same work, whatever its seed, and runs with different seeds are
comparable.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
# The system under test is the checkout this file sits in.
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.carat.pipeline import compile_carat  # noqa: E402
from repro.cli import _build_parser  # noqa: E402
from repro.machine.session import CaratSession, RunConfig  # noqa: E402
from repro.multiproc import FairnessArbiter, Scheduler, TenantSpec  # noqa: E402
from repro.soak import SoakRunner  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

from perf_speed import Span, Speed  # noqa: E402

GOLDEN_PATH = HERE / "golden.json"
RESULTS = HERE / "results"

#: The paper suite, in the order its figures list it.  The benchmark keeps
#: its own copy so that nothing outside this directory can change what
#: it runs.
PAPER_SUITE = (
    "hpccg", "cg", "ep", "ft", "lu",
    "blackscholes", "bodytrack", "canneal", "fluidanimate", "freqmine",
    "streamcluster", "swaptions", "x264",
    "deepsjeng", "lbm", "mcf", "nab", "namd", "omnetpp", "x264_s",
    "xalancbmk", "xz",
)
MODES = ("baseline", "carat", "traditional")

#: Guard-dense, ~99% of guard checks elided, many side exits, pointer
#: chasing with heavy tracking, and a streaming loop with no guards in
#: its hot path.
HOT_SMALL = ("hpccg", "cg", "ep", "mcf", "lbm")
#: Set-up samples: each is the compile plus cache-filling run of all five
#: programs.
HOT_SMALL_SETUPS = 3

#: The guard-dense, the elided, the pointer-chasing and the random-swap
#: behaviour classes, 16 tenants each.
SMP_PROGRAMS = ("hpccg", "cg", "mcf", "canneal")
SMP_TENANTS_PER_PROGRAM = 16

#: One soak per chaos seed makes a pass.  A fixed pool keeps the fault mix
#: the same in every run; all of these serve every request with zero
#: verdicts.
SOAK_CHAOS_SEEDS = (77, 1, 2)
#: 10 000 requests is the smallest soak whose epochs fill the steady-state
#: monitor's leak-slope window after warm-up, so every verdict rule is live.
SOAK_FLAGS = (
    "--requests", "10000", "--tenants", "4", "--chaos-rate", "2",
    "--engine", "trace",
)


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def output_record(exit_code: int, output: List[str]) -> dict:
    """What ``golden.json`` stores for one program run."""
    return {
        "exit_code": exit_code,
        "last_line": output[-1] if output else "",
        "sha256": hashlib.sha256("\n".join(output).encode()).hexdigest(),
    }


class Mismatch(Exception):
    """A run finished but its outputs are wrong."""


@dataclass
class Ledger:
    """Everything measured in one process."""

    #: Each unit (session run, warm run, scheduler round).
    units: List[Span] = field(default_factory=list)
    #: Each set-up sample: the spans from source to first guest instruction.
    setups: List[List[Span]] = field(default_factory=list)
    #: Guest instructions, and the spans that executed them, of each
    #: repetition (of each soak).
    rates: List[Tuple[int, List[Span]]] = field(default_factory=list)
    #: Modeled cycles of each repetition.
    rep_cycles: List[int] = field(default_factory=list)
    #: Modeled p99 cycles per request of each soak (soak-chaos only).
    request_p99: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Per-layer counters read from the stats objects the system keeps.
    counts: Counter = field(default_factory=Counter)
    speed: Speed = field(default_factory=Speed)

    def attempt(self, label: str, fn, *args):
        """Run one checked operation; its value, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Mismatch as exc:
            print(f"# FAILED {label}: {exc}", file=sys.stderr)
        except Exception:
            print(f"# FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
        self.failed += 1
        return None


def _check(golden: dict, scale: str, name: str, result) -> None:
    got = output_record(result.exit_code, result.output)
    want = golden[scale][name]
    if got != want:
        raise Mismatch(f"{scale} {name}: got {got}, golden {want}")


def _absorb_run(counts: Counter, stats, runtime) -> None:
    counts["machine.instructions"] += stats.instructions
    counts["machine.compiled_blocks"] += stats.dispatch_cache_misses
    counts["machine.traces_compiled"] += stats.traces_compiled
    counts["machine.trace_exits"] += stats.trace_exits
    counts["machine.trace_respecializations"] += stats.trace_respecializations
    counts["dispatch_cache_hits"] += stats.dispatch_cache_hits
    counts["dispatch_cache_misses"] += stats.dispatch_cache_misses
    counts["guard_checks_elided"] += stats.guard_checks_elided
    if runtime is not None:
        counts["runtime.guards_executed"] += runtime.stats.guards_executed
        counts["runtime.tracking_events"] += runtime.stats.tracking_events
        counts["region_cache_hits"] += runtime.stats.region_cache_hits
        counts["region_cache_misses"] += runtime.stats.region_cache_misses


def _absorb_kernel(counts: Counter, kernel) -> None:
    counts["kernel.moves_attempted"] += kernel.stats.moves_attempted
    counts["moves_committed"] += kernel.stats.moves_committed
    counts["resilience.move_retries"] += kernel.stats.move_retries


def _absorb_binaries(counts: Counter, binaries) -> None:
    for binary in {id(b): b for b in binaries}.values():
        counts["carat.guards_remaining"] += binary.metadata["guards_remaining"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(ledger: Ledger) -> Dict[str, float]:
    """The count and ratio metrics of the per-layer ledger."""
    counts, request_p99 = ledger.counts, ledger.request_p99
    out = {
        name: counts[name]
        for name in (
            "carat.guards_remaining", "kernel.moves_attempted",
            "machine.compiled_blocks", "machine.instructions",
            "machine.traces_compiled", "machine.trace_exits",
            "machine.trace_respecializations", "runtime.guards_executed",
            "runtime.tracking_events", "resilience.move_retries",
            "multiproc.cow_breaks", "telemetry.events",
            "telemetry.dropped_events", "soak.epochs",
        )
    }
    out["machine.guard_elided_ratio"] = _ratio(
        counts["guard_checks_elided"], counts["runtime.guards_executed"]
    )
    out["machine.dispatch_cache_hit_ratio"] = _ratio(
        counts["dispatch_cache_hits"],
        counts["dispatch_cache_hits"] + counts["dispatch_cache_misses"],
    )
    out["runtime.region_cache_hit_ratio"] = _ratio(
        counts["region_cache_hits"],
        counts["region_cache_hits"] + counts["region_cache_misses"],
    )
    out["resilience.commit_ratio"] = _ratio(
        counts["moves_committed"], counts["kernel.moves_attempted"]
    )
    out["model.request_p99_cycles"] = (
        sorted(request_p99)[len(request_p99) // 2] if request_p99 else 0
    )
    return out


def timed_session(config: RunConfig, program):
    """One ``CaratSession.run``: (result, set-up span, whole span).  Set-up
    ends when the session's ``setup`` hook fires, just before the first
    guest instruction."""
    marks: List[float] = []
    start = perf_counter()
    session = CaratSession(config, setup=lambda _interp: marks.append(perf_counter()))
    result = session.run(program)
    end = perf_counter()
    return result, (start, marks[0]), (start, end)


class Workload:
    name = ""
    #: Repetitions a timed run makes at least.
    min_reps = 1

    def __init__(self, seed: int, golden: dict) -> None:
        self.rng = random.Random(seed)
        self.golden = golden

    def warm_up(self) -> None:
        """One untimed unit, so lazy imports and first-call costs are
        paid before anything is timed."""

    def prepare(self, ledger: Ledger) -> None:
        """One-time set-up before the repetitions (hot-small only)."""

    def repetition(self, ledger: Ledger) -> None:
        raise NotImplementedError


class PaperTiny(Workload):
    """The ``repro bench`` triple for every paper program, cold from source."""

    name = "paper-tiny"
    #: Three rounds put about 20 sessions beyond p90 in every run, rather
    #: than 13 in some runs and 20 in others.
    min_reps = 3

    def __init__(self, seed: int, golden: dict) -> None:
        super().__init__(seed, golden)
        self.sources = {n: get_workload(n, "tiny").source for n in PAPER_SUITE}

    def warm_up(self) -> None:
        for mode in MODES:
            CaratSession(RunConfig(mode=mode, engine="trace", name="ep")).run(
                self.sources["ep"]
            )

    def _run(self, ledger: Ledger, name: str, mode: str):
        config = RunConfig(mode=mode, engine="trace", name=name)
        result, setup, whole = timed_session(config, self.sources[name])
        _check(self.golden, "tiny", name, result)
        ledger.setups.append([setup])
        ledger.units.append(whole)
        _absorb_run(ledger.counts, result.stats, result.process.runtime)
        _absorb_kernel(ledger.counts, result.kernel)
        _absorb_binaries(ledger.counts, [result.binary])
        return result.stats.instructions, result.cycles, whole

    def repetition(self, ledger: Ledger) -> None:
        order = list(PAPER_SUITE)
        self.rng.shuffle(order)
        instructions = cycles = 0
        spans: List[Span] = []
        for name in order:
            for mode in MODES:
                ledger.speed.collect()
                done = ledger.attempt(f"{name} {mode}", self._run, ledger, name, mode)
                if done is not None:
                    instructions += done[0]
                    cycles += done[1]
                    spans.append(done[2])
        ledger.rates.append((instructions, spans))
        ledger.rep_cycles.append(cycles)


class HotSmall(Workload):
    """Warm ``CaratSession.run(binary)`` of five small programs."""

    name = "hot-small"

    def __init__(self, seed: int, golden: dict) -> None:
        super().__init__(seed, golden)
        self.sources = {n: get_workload(n, "small").source for n in HOT_SMALL}
        self.binaries: Dict[str, object] = {}

    @staticmethod
    def _config(name: str) -> RunConfig:
        return RunConfig(mode="carat", engine="trace", name=name)

    def warm_up(self) -> None:
        CaratSession(self._config("ep")).run(get_workload("ep", "tiny").source)

    def _set_up(self, name: str) -> Span:
        start = perf_counter()
        binary = compile_carat(self.sources[name], module_name=name)
        result = CaratSession(self._config(name)).run(binary)
        end = perf_counter()
        _check(self.golden, "small", name, result)
        self.binaries[name] = binary
        return start, end

    def prepare(self, ledger: Ledger) -> None:
        for _ in range(HOT_SMALL_SETUPS):
            spans = []
            for name in HOT_SMALL:
                ledger.speed.collect()
                span = ledger.attempt(f"{name} set-up", self._set_up, name)
                if span is not None:
                    spans.append(span)
            ledger.setups.append(spans)

    def _run(self, ledger: Ledger, name: str):
        binary = self.binaries[name]
        start = perf_counter()
        result = CaratSession(self._config(name)).run(binary)
        whole = (start, perf_counter())
        _check(self.golden, "small", name, result)
        ledger.units.append(whole)
        _absorb_run(ledger.counts, result.stats, result.process.runtime)
        _absorb_kernel(ledger.counts, result.kernel)
        _absorb_binaries(ledger.counts, [binary])
        return result.stats.instructions, result.cycles, whole

    def repetition(self, ledger: Ledger) -> None:
        order = list(HOT_SMALL)
        self.rng.shuffle(order)
        instructions = cycles = 0
        spans: List[Span] = []
        for name in order:
            ledger.speed.collect()
            done = ledger.attempt(f"{name} warm run", self._run, ledger, name)
            if done is not None:
                instructions += done[0]
                cycles += done[1]
                spans.append(done[2])
        ledger.rates.append((instructions, spans))
        ledger.rep_cycles.append(cycles)


class Smp64(Workload):
    """64 tenants of four tiny programs, configured as ``repro smp`` is."""

    name = "smp-64"

    def __init__(self, seed: int, golden: dict) -> None:
        super().__init__(seed, golden)
        tenants = len(SMP_PROGRAMS) * SMP_TENANTS_PER_PROGRAM
        # The CLI's own parser and defaults (CoW sharing on, quantum 400,
        # 64 KiB heap), turned into a config exactly as ``_cmd_smp`` does.
        self.args = _build_parser().parse_args(
            ["smp", self.name, "--tenants", str(tenants), "--engine", "fast"]
        )
        self.config = RunConfig.from_args(
            self.args,
            mode="carat",
            name=self.name,
            heap_size=self.args.heap_kb * 1024,
            stack_size=self.args.stack_kb * 1024,
        )
        self.sources = {n: get_workload(n, "tiny").source for n in SMP_PROGRAMS}
        self.placement = [
            name for name in SMP_PROGRAMS for _ in range(SMP_TENANTS_PER_PROGRAM)
        ]
        self.rng.shuffle(self.placement)

    def _scheduler(self, placement: List[str]) -> Scheduler:
        args = self.args
        specs = [
            TenantSpec(self.sources[name], name=f"{name}{index}")
            for index, name in enumerate(placement)
        ]
        return Scheduler(
            self.config,
            specs,
            share=args.cow,
            arbiter=FairnessArbiter() if args.arbiter else None,
            memory_size=args.memory_kb * 1024 or None,
            fast_memory=args.fast_kb * 1024 or None,
        )

    def warm_up(self) -> None:
        self._scheduler(list(SMP_PROGRAMS)).run()

    def _schedule(self, speed: Speed):
        scheduler = self._scheduler(self.placement)
        start = perf_counter()
        scheduler.start()
        setup = (start, perf_counter())
        rounds: List[Span] = []
        more = True
        while more:
            speed.sample()
            begin = perf_counter()
            more = scheduler.step_round()
            rounds.append((begin, perf_counter()))
        begin = perf_counter()
        result = scheduler.finish()
        finish = (begin, perf_counter())
        return scheduler, result, setup, rounds, finish

    def repetition(self, ledger: Ledger) -> None:
        done = ledger.attempt("smp-64 schedule", self._schedule, ledger.speed)
        if done is None:
            return
        scheduler, result, setup, rounds, finish = done
        ledger.setups.append([setup])
        ledger.units.extend(rounds)
        ledger.rates.append((result.total_instructions(), [setup, *rounds, finish]))
        ledger.rep_cycles.append(result.machine_cycles)
        for tenant, name in zip(scheduler.tenants, self.placement):
            run = result.tenants[tenant.process.pid]
            ledger.attempt(f"tenant {tenant.process.name}", _check,
                           self.golden, "tiny", name, run)
            _absorb_run(ledger.counts, run.stats, tenant.process.runtime)
        _absorb_kernel(ledger.counts, scheduler.kernel)
        _absorb_binaries(ledger.counts, [t.binary for t in scheduler.tenants])
        ledger.counts["multiproc.cow_breaks"] += result.dedup["cow_breaks"]


def soak_args(chaos_seed: int, flags=SOAK_FLAGS):
    """The ``repro soak`` namespace for ``flags`` and ``chaos_seed``."""
    return _build_parser().parse_args(
        ["soak", *flags, "--seed", str(chaos_seed),
         "--crash-dump", str(RESULTS / "soak-crash.json")]
    )


def soak_runner(args) -> SoakRunner:
    """The runner ``_cmd_soak`` builds from the same namespace."""
    config = RunConfig.from_args(
        args, mode="carat", name=args.workload, heap_size=args.heap_kb * 1024
    )
    return SoakRunner(
        config,
        workload=args.workload,
        fast_memory=args.fast_kb * 1024 or None,
        crash_dump_path=args.crash_dump,
    )


class SoakChaos(Workload):
    """``repro soak`` under chaos, once per chaos seed of the pool."""

    name = "soak-chaos"

    def __init__(self, seed: int, golden: dict) -> None:
        super().__init__(seed, golden)
        self.order = list(SOAK_CHAOS_SEEDS)
        self.rng.shuffle(self.order)
        #: Chaos seed -> soak fingerprint; a re-run must reproduce it.
        self.fingerprints: Dict[int, str] = {}

    def warm_up(self) -> None:
        flags = list(SOAK_FLAGS)
        flags[flags.index("--requests") + 1] = "400"
        soak_runner(soak_args(SOAK_CHAOS_SEEDS[0], flags)).run()

    def _soak(self, chaos_seed: int, speed: Speed):
        args = soak_args(chaos_seed)
        start = perf_counter()
        runner = soak_runner(args)
        runner.scheduler.start()
        setup = (start, perf_counter())
        rounds: List[Span] = []
        step = runner.scheduler.step_round

        def timed_step() -> bool:
            speed.sample(within_call=True)
            begin = perf_counter()
            more = step()
            rounds.append((begin, perf_counter()))
            return more

        runner.scheduler.step_round = timed_step
        report = runner.run()
        whole = (start, perf_counter())
        if not report.ok:
            names = [verdict["name"] for verdict in report.verdicts]
            raise Mismatch(
                f"chaos seed {chaos_seed}: completed_run="
                f"{report.completed_run}, verdicts {names}"
            )
        if report.requests_completed < report.requests_target:
            raise Mismatch(
                f"chaos seed {chaos_seed}: served {report.requests_completed}"
                f" of {report.requests_target} requests"
            )
        fingerprint = report.fingerprint()
        if self.fingerprints.setdefault(chaos_seed, fingerprint) != fingerprint:
            raise Mismatch(f"chaos seed {chaos_seed}: fingerprint changed")
        return runner, report, setup, rounds, whole

    def repetition(self, ledger: Ledger) -> None:
        cycles = 0
        for chaos_seed in self.order:
            ledger.speed.collect()
            done = ledger.attempt(
                f"soak chaos seed {chaos_seed}", self._soak, chaos_seed, ledger.speed
            )
            if done is None:
                continue
            runner, report, setup, rounds, whole = done
            scheduler = runner.scheduler
            instructions = sum(t.interpreter.stats.instructions for t in scheduler.tenants)
            ledger.setups.append([setup])
            ledger.units.extend(rounds)
            ledger.rates.append((instructions, [whole]))
            cycles += report.machine_cycles
            ledger.request_p99.append(report.latency_p99)
            seconds = ledger.speed.seconds(*whole)
            print(
                f"# soak chaos seed {chaos_seed}: {report.requests_completed} "
                f"requests in {seconds:.3f} reference s = "
                f"{report.requests_completed / seconds:.1f} requests/s",
                file=sys.stderr,
            )
            for tenant in scheduler.tenants:
                _absorb_run(ledger.counts, tenant.interpreter.stats, tenant.process.runtime)
            _absorb_kernel(ledger.counts, scheduler.kernel)
            _absorb_binaries(ledger.counts, [t.binary for t in scheduler.tenants])
            ledger.counts["telemetry.events"] += len(scheduler.tracer.events)
            ledger.counts["telemetry.dropped_events"] += report.dropped_events
            ledger.counts["soak.epochs"] += report.epochs
        ledger.rep_cycles.append(cycles)


WORKLOADS = {w.name: w for w in (PaperTiny, HotSmall, Smp64, SoakChaos)}


def make(name: str, seed: int, golden: Optional[dict] = None) -> Workload:
    return WORKLOADS[name](seed, golden if golden is not None else load_golden())
