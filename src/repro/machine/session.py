"""The session API: one frozen config, one facade, one run path.

Every run — the CLI, the benchmark harness, the tests, and library
callers — goes through this module:

* :class:`RunConfig` — a frozen dataclass naming every knob a run has
  (model, guard mechanism, engine, capsule sizes, sanitizing, fault
  injection, telemetry).  ``from_args``/``to_dict``/``from_dict`` give
  the CLI and the benchmark harness one lossless round-trip.
* :func:`wire_kernel` and :func:`load_capsule` — the one wiring of a
  kernel and of one capsule on it.  The session and the multi-tenant
  :class:`~repro.multiproc.Scheduler` both build their runs from them.
* :class:`CaratSession` — the facade that owns the whole lifecycle:
  compile (tracing pass deltas), wire the kernel, load the capsule,
  attach profiler/tracer, run, close the books, export traces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.carat.pipeline import (
    CaratBinary,
    CompileOptions,
    compile_baseline,
    compile_carat,
)
from repro.kernel.kernel import DEFAULT_HEAP, DEFAULT_STACK, Kernel
from repro.machine.executor import (
    ENGINES,
    RunResult,
    _interpreter_class,
    _make_sanitizer,
)
from repro.telemetry import CycleProfiler, Tracer

MODES = ("carat", "baseline", "traditional")
GUARD_MECHANISMS = ("mpx", "binary_search", "if_tree")
TRACE_DETAILS = ("normal", "fine")


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one run, in one frozen, serializable place.

    Single runs (``repro run``), multi-tenant schedules (``smp``) and
    the soak (``soak``) all read it; a subcommand exposes the flags it
    supports.  ``from_args`` maps an argparse namespace onto it 1:1 and
    ``to_dict``/``from_dict`` round-trip it losslessly (asserted by
    ``tests/test_session.py``).
    """

    mode: str = "carat"
    guard_mechanism: str = "mpx"
    engine: str = "reference"
    entry: str = "main"
    max_steps: int = 50_000_000
    heap_size: int = DEFAULT_HEAP
    stack_size: int = DEFAULT_STACK
    name: str = "program"
    #: Round-robin time-slice, in instructions, for anything that
    #: schedules multiple interpreter contexts: the multi-tenant
    #: :class:`~repro.multiproc.Scheduler` reads it, and an intra-process
    #: :class:`~repro.machine.threads.ThreadGroup` takes it as
    #: ``quantum=config.quantum``.
    quantum: int = 400
    sanitize: bool = False
    #: Fault-injection spec for the move protocol (``run --inject-faults``
    #: syntax); ``None`` disables injection.
    inject_faults: Optional[str] = None
    fault_seed: int = 1234
    #: Attempts per move before degradation; ``None`` = kernel default.
    max_retries: Optional[int] = None
    #: Telemetry (all opt-in; a disabled run is cycle- and code-path-
    #: identical to the pre-telemetry behavior).
    trace: bool = False
    trace_detail: str = "normal"
    profile: bool = False
    #: Path prefix for trace export (written as PREFIX.jsonl and
    #: PREFIX.chrome.json); implies ``trace``.
    trace_out: Optional[str] = None
    #: Asynchronous move service (``--async-moves``): policy moves
    #: enqueue into a :class:`~repro.resilience.movequeue.MoveQueue`
    #: and run incrementally instead of stopping the world per move.
    async_moves: bool = False
    #: Queued same-tenant moves amortizing one flip stop (``--move-batch``).
    move_batch: int = 4
    #: Cycle cap per pre-copy chunk (``--chunk-budget``); 0 = unchunked.
    chunk_budget: int = 0
    #: Trace-tier tuning (``--engine trace`` only; other engines ignore
    #: it): back-edge executions before a block anchor is recorded.
    trace_threshold: int = 16
    #: Soak harness (the ``soak`` subcommand; :mod:`repro.soak`):
    #: simulated requests summed across all tenants (``--requests``),
    #: the epoch horizon the watchdog enforces (``--horizon``), the
    #: tenant count (``--tenants``), scheduler rounds folded into one
    #: soak epoch, and warmup epochs the steady-state monitor skips.
    soak_requests: int = 100_000
    soak_horizon: int = 400
    soak_tenants: int = 1
    soak_rounds_per_epoch: int = 8
    soak_warmup: int = 5
    #: Chaos injection: expected protocol faults armed per epoch
    #: (``--chaos-rate``; 0 disables) drawn from ``--seed``.
    chaos_rate: float = 0.0
    chaos_seed: int = 77
    #: SLO gate: p99 cycles-per-request cap (``--slo-p99``; 0 disables).
    slo_p99: int = 0
    #: Epochs between full sanitizer checkpoints during a soak
    #: (``--sanitize-every``; 0 disables the periodic checks).
    sanitize_every: int = 8
    #: Epochs a quarantined range may stay pinned before the
    #: degradation-must-drain verdict fires (``--drain-budget``).
    drain_budget: int = 12
    #: CryptSan-style guard-time memory safety (``--safety``): every
    #: allowed access is additionally checked against allocation-table
    #: liveness; violations raise :class:`~repro.errors.SafetyFault`
    #: with HMAC provenance tags.  CARAT mode only.
    safety: bool = False
    #: Guard-free translation clients (``--agents``): this many
    #: SPARTA-style :class:`~repro.agents.DmaAgent` instances are
    #: registered with an :class:`~repro.agents.AgentMediator` and
    #: stream the process's heap via pinned leases.  CARAT mode only.
    agents: int = 0
    #: Bytes each DMA agent streams per kernel clock step
    #: (``--agent-burst``).
    agent_burst: int = 64

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (choose from {MODES})")
        if self.guard_mechanism not in GUARD_MECHANISMS:
            raise ValueError(
                f"unknown guard mechanism {self.guard_mechanism!r} "
                f"(choose from {GUARD_MECHANISMS})"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (choose from {sorted(ENGINES)})"
            )
        if self.trace_detail not in TRACE_DETAILS:
            raise ValueError(
                f"unknown trace detail {self.trace_detail!r} "
                f"(choose from {TRACE_DETAILS})"
            )
        for field_name in ("heap_size", "stack_size"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"{field_name} must be a non-negative byte count, "
                    f"not {value!r}"
                )
        if not isinstance(self.max_steps, int) or self.max_steps < 1:
            raise ValueError(
                f"max_steps must be a positive instruction count, "
                f"not {self.max_steps!r}"
            )
        if not isinstance(self.quantum, int) or self.quantum < 1:
            raise ValueError(
                f"quantum must be a positive instruction count, "
                f"not {self.quantum!r}"
            )
        if not isinstance(self.move_batch, int) or self.move_batch < 1:
            raise ValueError(
                f"move_batch must be a positive move count, "
                f"not {self.move_batch!r}"
            )
        if not isinstance(self.chunk_budget, int) or self.chunk_budget < 0:
            raise ValueError(
                f"chunk_budget must be a non-negative cycle count, "
                f"not {self.chunk_budget!r}"
            )
        if not isinstance(self.trace_threshold, int) or self.trace_threshold < 1:
            raise ValueError(
                f"trace_threshold must be a positive execution count, "
                f"not {self.trace_threshold!r}"
            )
        for field_name in (
            "soak_requests", "soak_horizon", "soak_tenants",
            "soak_rounds_per_epoch", "drain_budget",
        ):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{field_name} must be a positive int, not {value!r}"
                )
        for field_name in ("soak_warmup", "slo_p99", "sanitize_every"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"{field_name} must be a non-negative int, not {value!r}"
                )
        if self.max_retries is not None and (
            not isinstance(self.max_retries, int) or self.max_retries < 1
        ):
            raise ValueError(
                f"max_retries must be a positive attempt count, "
                f"not {self.max_retries!r}"
            )
        if not isinstance(self.chaos_rate, (int, float)) or self.chaos_rate < 0:
            raise ValueError(
                f"chaos_rate must be a non-negative fault rate, "
                f"not {self.chaos_rate!r}"
            )
        if not isinstance(self.agents, int) or self.agents < 0:
            raise ValueError(
                f"agents must be a non-negative client count, "
                f"not {self.agents!r}"
            )
        if not isinstance(self.agent_burst, int) or self.agent_burst < 1:
            raise ValueError(
                f"agent_burst must be a positive byte count, "
                f"not {self.agent_burst!r}"
            )
        if self.safety and self.mode != "carat":
            raise ValueError(
                "safety mode rides on CARAT's guards and allocation "
                f"table; mode {self.mode!r} has neither"
            )
        if self.agents and self.mode != "carat":
            raise ValueError(
                "translation-client agents need the CARAT allocation "
                f"table to lease from; mode {self.mode!r} has none"
            )

    @property
    def faulting(self) -> bool:
        return self.inject_faults is not None or self.max_retries is not None

    @property
    def tracing(self) -> bool:
        return self.trace or self.trace_out is not None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunConfig fields: {unknown}")
        return cls(**data)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    #: argparse dest -> config field, where the names differ.
    _ARG_ALIASES = {
        "guard": "guard_mechanism",
        # The soak subcommand's short flag names.
        "requests": "soak_requests",
        "horizon": "soak_horizon",
        "tenants": "soak_tenants",
        "rounds_per_epoch": "soak_rounds_per_epoch",
        "warmup": "soak_warmup",
        "seed": "chaos_seed",
    }

    @classmethod
    def from_args(cls, args, **overrides) -> "RunConfig":
        """Build a config from an argparse namespace.  Every namespace
        attribute that names a config field (directly or via an alias
        like ``--guard``) is taken; everything else is ignored, so each
        subcommand can expose just the flags it supports.  ``overrides``
        win over the namespace."""
        values: dict = {}
        fields = {f.name for f in dataclasses.fields(cls)}
        for attr, field_name in cls._ARG_ALIASES.items():
            if hasattr(args, attr):
                values[field_name] = getattr(args, attr)
        for field_name in fields:
            if hasattr(args, field_name):
                values[field_name] = getattr(args, field_name)
        values.update(overrides)
        return cls(**values)


def wire_kernel(kernel: Kernel, config: RunConfig) -> Kernel:
    """Layer ``config``'s kernel-wide services onto ``kernel``: the retry
    policy, the fault injector, degradation (whenever faults or retries
    are configured), the asynchronous move queue and the translation-
    client mediator.  A service already attached is kept, so a caller
    that pre-builds its kernel (the policy subcommand, the soak) is never
    clobbered."""
    if config.max_retries is not None:
        from repro.resilience import RetryPolicy

        kernel.retry_policy = RetryPolicy(max_attempts=config.max_retries)
    if config.inject_faults:
        import random

        from repro.sanitizer import ProtocolFaultInjector, parse_fault_points

        rng = random.Random(config.fault_seed)
        kernel.attach_fault_injector(
            ProtocolFaultInjector(
                parse_fault_points(config.inject_faults, rng), rng
            )
        )
    if config.faulting and kernel.degradation is None:
        from repro.resilience import DegradationManager

        kernel.attach_degradation(DegradationManager())
    if config.async_moves and kernel.move_queue is None:
        from repro.resilience import MoveQueue

        kernel.attach_move_queue(
            MoveQueue(
                kernel,
                batch_size=config.move_batch,
                chunk_budget=config.chunk_budget,
            )
        )
    if config.agents and kernel.agents is None:
        from repro.agents import AgentMediator

        kernel.attach_agents(AgentMediator(kernel))
    return kernel


def load_capsule(
    kernel: Kernel,
    binary: CaratBinary,
    config: RunConfig,
    *,
    share: bool = False,
    sanitizer=None,
    tracer: Optional[Tracer] = None,
):
    """Load ``binary`` by ``config.mode`` (``share`` dedups a CARAT
    image; see :meth:`Kernel.load_carat`) and wire the capsule: safety
    mode, ``config.agents`` DMA agents streaming its heap (registered
    with the kernel's mediator, see :func:`wire_kernel`), an interpreter
    of ``config.engine`` with its trace tuning, the sanitizer's tick
    check and the runtime's tracer.  Returns the interpreter; its
    ``process`` is the loaded process."""
    if config.mode == "traditional":
        process = kernel.load_traditional(
            binary, heap_size=config.heap_size, stack_size=config.stack_size
        )
    else:
        process = kernel.load_carat(
            binary,
            heap_size=config.heap_size,
            stack_size=config.stack_size,
            guard_mechanism=config.guard_mechanism,
            share=share,
        )
    if config.safety and process.runtime is not None:
        process.runtime.enable_safety()
    if config.agents:
        from repro.agents import DmaAgent

        for index in range(config.agents):
            agent = DmaAgent(
                name=f"dma{process.pid}.{index}", burst=config.agent_burst
            )
            agent.target(process)
            kernel.agents.register(agent)
    interpreter = _interpreter_class(config.engine)(process, kernel)
    if hasattr(interpreter, "set_trace_tuning"):
        interpreter.set_trace_tuning(threshold=config.trace_threshold)
    if sanitizer is not None:
        sanitizer.attach_interpreter(interpreter)
    if tracer is not None and process.runtime is not None:
        process.runtime.tracer = tracer
    return interpreter


#: Counters sampled into the trace at every interpreter safepoint.
def _counter_sample(stats) -> dict:
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "guard_cycles": stats.guard_cycles,
        "tracking_cycles": stats.tracking_cycles,
    }


class CaratSession:
    """One configured execution environment; ``run()`` executes programs.

    The session wires the kernel (:func:`wire_kernel`) and the capsule
    (:func:`load_capsule`) and adds what only a single run has: agents
    stepped from the safepoint tick, the tracer's clock and counter
    sampler, the caller's ``setup``, and the profiler.  Attach order:
    binary → kernel → tracer → sanitizer → capsule → agent tick →
    tracer sampler → setup → profiler → run → finish.

    Pass ``kernel=`` to bring a pre-built kernel (the policy subcommand
    sizes its own tiered machine); the session still layers the
    config-driven fault wiring on top without clobbering anything
    already attached.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        *,
        kernel: Optional[Kernel] = None,
        sanitizer=None,
        setup: Optional[Callable] = None,
    ) -> None:
        self.config = config or RunConfig()
        self._kernel = kernel
        self._sanitizer = sanitizer
        self._setup = setup
        #: Live after ``run()``: the tracer/profiler of the last run.
        self.tracer: Optional[Tracer] = None
        self.profiler: Optional[CycleProfiler] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _compile(
        self,
        program: Union[str, CaratBinary],
        options: Optional[CompileOptions],
        tracer: Optional[Tracer],
    ) -> CaratBinary:
        if isinstance(program, CaratBinary):
            return program
        if self.config.mode == "carat":
            return compile_carat(
                program, options, module_name=self.config.name, tracer=tracer
            )
        return compile_baseline(
            program, module_name=self.config.name, tracer=tracer
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        program: Union[str, CaratBinary],
        *,
        options: Optional[CompileOptions] = None,
        setup: Optional[Callable] = None,
    ) -> RunResult:
        config = self.config
        tracer = Tracer(detail=config.trace_detail) if config.tracing else None
        profiler = CycleProfiler() if config.profile else None
        self.tracer = tracer
        self.profiler = profiler

        binary = self._compile(program, options, tracer)
        kernel = wire_kernel(
            self._kernel if self._kernel is not None else Kernel(), config
        )
        if tracer is not None:
            kernel.attach_tracer(tracer)
        sanitizer = _make_sanitizer(config.sanitize, self._sanitizer, kernel)
        interpreter = load_capsule(
            kernel, binary, config, sanitizer=sanitizer, tracer=tracer
        )
        process = interpreter.process
        if config.agents:
            self._wire_agents(kernel, interpreter)
        if tracer is not None:
            self._wire_tracer(tracer, interpreter)
        user_setup = setup if setup is not None else self._setup
        if user_setup is not None:
            user_setup(interpreter)
        if profiler is not None:
            # After set-up, so the tick hook it installs is bracketed.
            profiler.attach(interpreter)

        if tracer is not None:
            tracer.begin(
                "session.run",
                "session",
                {"mode": config.mode, "engine": config.engine,
                 "name": binary.name},
            )
        try:
            exit_code = interpreter.run(config.entry, max_steps=config.max_steps)
        finally:
            if tracer is not None:
                tracer.end(
                    "session.run",
                    "session",
                    {"instructions": interpreter.stats.instructions},
                )
            if profiler is not None:
                profiler.finish(interpreter.stats)
        if kernel.move_queue is not None:
            kernel.move_queue.drain_all()
        if sanitizer is not None:
            sanitizer.finish(kernel)
        if tracer is not None and config.trace_out is not None:
            tracer.write_jsonl(f"{config.trace_out}.jsonl")
            tracer.write_chrome_trace(f"{config.trace_out}.chrome.json")
        return RunResult(
            exit_code, interpreter.output, interpreter.stats, process, kernel,
            interpreter, binary, sanitizer=sanitizer, tracer=tracer,
            profile=profiler, config=config,
        )

    def _wire_agents(self, kernel: Kernel, interpreter) -> None:
        """Drive the agent mediator from the interpreter's safepoint tick.
        The kernel clock only advances when a policy engine is attached;
        a plain run would otherwise never step the translation clients,
        so chain a hook that steps them every ``tick_interval``
        instructions (under whatever a later ``setup`` installs).  The
        agents step before the hook beneath (the sanitizer's check), so
        the check sees what they streamed."""
        mediator = kernel.agents
        # Tiny programs finish inside one default tick; give the agents
        # a finer grain so they observably stream during short runs.
        interpreter.set_tick_interval(min(interpreter.tick_interval, 2_000))
        previous = interpreter.tick_hook

        def step_agents(interp) -> None:
            mediator.step()
            if previous is not None:
                previous(interp)

        interpreter.tick_hook = step_agents

    def _wire_tracer(self, tracer: Tracer, interpreter) -> None:
        """Switch the tracer onto the machine clock and chain a safepoint
        counter sampler *under* any tick hook a later ``setup`` (e.g. the
        policy engine) installs on top."""
        tracer.set_clock(lambda: interpreter.stats.cycles)
        previous = interpreter.tick_hook

        def sample_counters(interp) -> None:
            if previous is not None:
                previous(interp)
            tracer.counter("interp", _counter_sample(interp.stats))

        interpreter.tick_hook = sample_counters
