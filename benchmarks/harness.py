"""Shared machinery for the experiment benchmarks.

Each ``test_*`` file under ``benchmarks/`` regenerates one table or
figure from the paper.  Results are printed and written under
``benchmarks/results/`` so EXPERIMENTS.md can cite them.

All workload executions go through a session-scoped :class:`RunCache`
keyed by (workload, configuration) — most figures share configurations,
and interpreting a workload is the expensive part.

Configurations (Section 3 / 4.4):

* ``baseline``       — no instrumentation, physical addressing (the
  denominator of every overhead figure);
* ``guards_general+<mech>`` — guard injection with general compiler
  optimizations only (Figure 3a);
* ``guards_carat+<mech>``   — guard injection plus the CARAT-specific
  optimizations (Figure 3b);
* ``tracking``       — allocation/escape tracking only (Figures 6, 7);
* ``full``           — the whole treatment (Figures 5, 9, Table 3);
* ``traditional``    — the paging model (Figure 2, Table 2).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.carat.pipeline import CaratBinary, CompileOptions, compile_carat
from repro.machine.executor import RunResult
from repro.machine.session import CaratSession, RunConfig
from repro.workloads import get_workload, workload_names

#: Scale tier for the whole benchmark run; override with
#: ``CARAT_BENCH_SCALE=small pytest benchmarks/``.
SCALE = os.environ.get("CARAT_BENCH_SCALE", "tiny")

#: Execution engine for the whole benchmark run; override with
#: ``CARAT_BENCH_ENGINE=fast pytest benchmarks/`` to regenerate every
#: figure at a multiple of the speed (identical numbers by contract).
ENGINE = os.environ.get("CARAT_BENCH_ENGINE", "reference")

#: The suite, in the order the paper's figures list it.
SUITE = [
    "hpccg", "cg", "ep", "ft", "lu",
    "blackscholes", "bodytrack", "canneal", "fluidanimate", "freqmine",
    "streamcluster", "swaptions", "x264",
    "deepsjeng", "lbm", "mcf", "nab", "namd", "omnetpp", "x264_s",
    "xalancbmk", "xz",
]

RESULTS_DIR = Path(__file__).parent / "results"


def _compile_options(config: str) -> Optional[CompileOptions]:
    if config == "baseline" or config == "traditional":
        return CompileOptions(guards=False, tracking=False)
    if config.startswith("guards_general"):
        return CompileOptions(guards=True, carat_guard_opts=False, tracking=False)
    if config.startswith("guards_carat"):
        return CompileOptions(guards=True, carat_guard_opts=True, tracking=False)
    if config == "tracking":
        return CompileOptions(guards=False, tracking=True)
    if config == "full":
        return CompileOptions()
    raise ValueError(f"unknown configuration {config!r}")


def _guard_mechanism(config: str) -> str:
    if "+" in config:
        return config.split("+", 1)[1]
    return "mpx"


def run_carat(
    program,
    kernel=None,
    guard_mechanism: str = "mpx",
    options: Optional[CompileOptions] = None,
    name: str = "program",
    heap_size: Optional[int] = None,
    stack_size: Optional[int] = None,
    setup=None,
    sanitize: bool = False,
    engine: str = "reference",
    safety: bool = False,
) -> RunResult:
    """The compact call shape the benchmark files use, as an explicit
    veneer over :class:`CaratSession`."""
    fields = dict(
        mode="carat", guard_mechanism=guard_mechanism, name=name,
        sanitize=sanitize, engine=engine, safety=safety,
    )
    if heap_size is not None:
        fields["heap_size"] = heap_size
    if stack_size is not None:
        fields["stack_size"] = stack_size
    session = CaratSession(RunConfig(**fields), kernel=kernel, setup=setup)
    return session.run(program, options=options)


class RunSummary:
    """The slice of a :class:`RunResult` the experiments consume.

    The cache keeps summaries, not results: a RunResult retains the whole
    kernel (a 64 MB physical memory image), and the figure-level benches
    perform hundreds of runs.
    """

    __slots__ = (
        "cycles", "instructions", "output", "exit_code",
        "dtlb_mpki", "pagewalks", "walks_per_1k", "mean_walk_cycles",
        "demand_page_allocs", "static_footprint_pages", "initial_pages",
        "guards_executed", "guard_cycles", "guard_faults",
        "tracking_events", "tracking_cycles", "escapes_recorded",
        "escapes_rewritten", "escape_histogram", "peak_tracking_bytes",
        "globals_size", "heap_peak_bytes", "stack_size",
    )

    def __init__(self, result: RunResult) -> None:
        self.cycles = result.cycles
        self.instructions = result.instructions
        self.output = list(result.output)
        self.exit_code = result.exit_code
        process = result.process
        mmu = process.mmu
        self.dtlb_mpki = result.dtlb_mpki()
        self.pagewalks = mmu.stats.pagewalks if mmu else 0
        self.walks_per_1k = (
            mmu.stats.walks_per_1k(self.instructions) if mmu else 0.0
        )
        self.mean_walk_cycles = mmu.stats.mean_walk_cycles() if mmu else 0.0
        self.demand_page_allocs = process.demand_page_allocs
        self.static_footprint_pages = process.static_footprint_pages
        self.initial_pages = process.initial_pages
        runtime = process.runtime
        if runtime is not None:
            self.guards_executed = runtime.stats.guards_executed
            self.guard_cycles = runtime.stats.guard_cycles
            self.guard_faults = runtime.stats.guard_faults
            self.tracking_events = runtime.stats.tracking_events
            self.tracking_cycles = runtime.stats.tracking_cycles
            self.escapes_recorded = runtime.escapes.stats.recorded
            self.escapes_rewritten = runtime.escapes.stats.rewritten
            self.escape_histogram = runtime.escape_histogram()
            self.peak_tracking_bytes = runtime.peak_tracking_bytes
        else:
            self.guards_executed = self.guard_cycles = self.guard_faults = 0
            self.tracking_events = self.tracking_cycles = 0
            self.escapes_recorded = self.escapes_rewritten = 0
            self.escape_histogram = {}
            self.peak_tracking_bytes = 0
        self.globals_size = process.layout.globals_size
        self.heap_peak_bytes = process.heap.peak_bytes if process.heap else 0
        self.stack_size = process.layout.stack_size


class RunCache:
    def __init__(self, scale: str = SCALE, engine: str = "reference") -> None:
        self.scale = scale
        #: Execution engine every cached run uses.  The engines are
        #: observably identical (the differential tests enforce it), so a
        #: figure regenerated under ``fast`` reports the same numbers —
        #: only the wall-clock changes.
        self.engine = engine
        self._binaries: Dict[Tuple[str, str], CaratBinary] = {}
        self._runs: Dict[Tuple[str, str], RunSummary] = {}

    def binary(self, workload: str, config: str) -> CaratBinary:
        options = _compile_options(config)
        key = (workload, _options_key(options))
        cached = self._binaries.get(key)
        if cached is None:
            source = get_workload(workload, self.scale).source
            cached = compile_carat(source, options, module_name=workload)
            self._binaries[key] = cached
        return cached

    def run_config(self, workload: str, config: str) -> RunConfig:
        """The :class:`RunConfig` one (workload, configuration) cell runs
        under — the same object the CLI builds from flags, round-tripped
        through ``to_dict``/``from_dict`` so serialized experiment
        configs and live ones provably agree."""
        run_config = RunConfig(
            mode="traditional" if config == "traditional" else "carat",
            guard_mechanism=_guard_mechanism(config),
            engine=self.engine,
            name=workload,
        )
        return RunConfig.from_dict(run_config.to_dict())

    def run(self, workload: str, config: str) -> RunSummary:
        key = (workload, config)
        cached = self._runs.get(key)
        if cached is not None:
            return cached
        binary = self.binary(workload, config)
        session = CaratSession(self.run_config(workload, config))
        summary = RunSummary(session.run(binary))
        self._runs[key] = summary
        return summary

    def overhead(self, workload: str, config: str) -> float:
        base = self.run(workload, "baseline").cycles
        other = self.run(workload, config).cycles
        return other / base if base else float("nan")


def _options_key(options: Optional[CompileOptions]) -> str:
    if options is None:
        return "default"
    return (
        f"g{int(options.guards)}o{int(options.carat_guard_opts)}"
        f"t{int(options.tracking)}"
    )


def geomean(values: Sequence[float]) -> float:
    cleaned = [v for v in values if v > 0 and not math.isnan(v)]
    if not cleaned:
        return float("nan")
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


def arith_mean(values: Sequence[float]) -> float:
    cleaned = [v for v in values if not math.isnan(v)]
    return sum(cleaned) / len(cleaned) if cleaned else float("nan")


def emit_table(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    footer: Sequence[str] = (),
) -> str:
    """Render, print, and persist one experiment's table."""
    widths = [
        max(len(str(headers[i])), max((len(_fmt(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]

    def line(cells):
        return "  ".join(_fmt(c).rjust(w) for c, w in zip(cells, widths))

    out = [title, line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    out.extend(footer)
    text = "\n".join(out) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def emit_json(name: str, payload: dict) -> Path:
    """Persist one experiment's machine-readable results as
    ``benchmarks/results/<name>.json`` (pretty-printed, keys kept in
    insertion order so diffs stay reviewable)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)
