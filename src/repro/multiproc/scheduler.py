"""The multi-tenant scheduler: N CARAT capsules time-sliced on one machine.

One :class:`Scheduler` owns one :class:`~repro.kernel.kernel.Kernel` and
round-robins N tenants over it with a configurable quantum
(``RunConfig.quantum`` instructions, scaled by each tenant's weight).
Each tenant is a full per-PID capsule — its own region set, runtime,
heap, allocation table, guard-cache generation — so a move in tenant A
never invalidates a guard cache or TLB in tenant B.  Every quantum runs
under ``kernel.tenant(pid)``: kernel services and trace events land on
the owning tenant's stats block and trace lane.

Cross-tenant page sharing is opt-in (``share=True``): identical images
deduplicate through the :class:`~repro.multiproc.shares.ShareManager`,
and the scheduler services the resulting write faults as CoW breaks.
Interpreters only yield at safepoints (block boundaries), exactly like
:class:`~repro.machine.threads.ThreadGroup` rounds, so kernel activity
between quanta is always patch-safe.

Determinism: the schedule is a pure function of (specs, config) — no
wall clock, no randomness — so two runs produce bit-identical per-tenant
:class:`~repro.machine.executor.RunResult` fingerprints, and with
sharing and policy off each tenant's fingerprint equals its solo
``CaratSession`` run (asserted by ``tests/test_multiproc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.carat.pipeline import CaratBinary, compile_carat
from repro.errors import InterpError, ProtectionFault
from repro.kernel.kernel import Kernel
from repro.kernel.loader import (
    code_segment_size,
    layout_globals,
    page_align,
)
from repro.machine.executor import (
    RunResult,
    _interpreter_class,
    _make_sanitizer,
)
from repro.machine.session import RunConfig
from repro.multiproc.shares import ShareManager
from repro.telemetry import Tracer


def percentile(values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of raw samples (0 for an empty list).

    Rank is ``ceil(n * fraction)`` computed in exact integer arithmetic
    (via ``float.as_integer_ratio``), clamped to ``[1, n]`` — a float
    epsilon here goes off-by-one once ``n * fraction`` lands close
    enough to an integer boundary.
    """
    if not values:
        return 0
    ordered = sorted(values)
    num, den = float(fraction).as_integer_ratio()
    rank = -(-len(ordered) * num // den)
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a program plus its scheduling identity."""

    program: Union[str, CaratBinary]
    name: str = "tenant"
    entry: str = "main"
    args: Tuple = ()
    #: Fairness weight: quantum length and policy budgets scale with it.
    weight: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(f"weight must be a positive int, not {self.weight!r}")


@dataclass
class Tenant:
    """A loaded, running tenant (scheduler-internal)."""

    spec: TenantSpec
    process: object
    interpreter: object
    binary: CaratBinary
    done: bool = False
    exit_code: int = 0
    quanta: int = 0


@dataclass
class ScheduleResult:
    """Everything a multi-tenant run produced."""

    #: pid -> the tenant's RunResult (fingerprint()-able like any run).
    tenants: Dict[int, RunResult]
    #: Total simulated machine cycles (sum of every tenant's execution).
    machine_cycles: int
    #: Scheduling rounds completed.
    rounds: int
    #: pid -> raw pause samples (cycles per change request, from
    #: ``Kernel.pause_log``).
    pauses: Dict[int, List[int]] = field(default_factory=dict)
    #: CoW dedup accounting (``ShareManager.dedup_stats``), or None.
    dedup: Optional[dict] = None
    #: FairnessArbiter summary, or None.
    arbitration: Optional[dict] = None

    def fingerprints(self) -> Dict[int, str]:
        return {pid: result.fingerprint() for pid, result in self.tenants.items()}

    def p99_pause(self, pid: int) -> int:
        return percentile(self.pauses.get(pid, []), 0.99)

    def total_instructions(self) -> int:
        return sum(r.stats.instructions for r in self.tenants.values())

    def aggregate_throughput(self) -> float:
        """Instructions retired per simulated machine cycle, summed over
        every tenant — the benchmark's headline number."""
        if not self.machine_cycles:
            return 0.0
        return self.total_instructions() / self.machine_cycles

    def to_dict(self) -> dict:
        kernel = next(iter(self.tenants.values())).kernel if self.tenants else None
        return {
            "schema": "carat.multitenant.v1",
            "tenants": {
                str(pid): {
                    "name": result.process.name,
                    "exit_code": result.exit_code,
                    "instructions": result.stats.instructions,
                    "cycles": result.stats.cycles,
                    "fingerprint": result.fingerprint(),
                    "p99_pause_cycles": self.p99_pause(pid),
                    "pauses": len(self.pauses.get(pid, [])),
                    "kernel_stats": (
                        kernel.tenant_stats[pid].to_dict()
                        if kernel is not None and pid in kernel.tenant_stats
                        else {}
                    ),
                }
                for pid, result in sorted(self.tenants.items())
            },
            "machine_cycles": self.machine_cycles,
            "rounds": self.rounds,
            "total_instructions": self.total_instructions(),
            "aggregate_throughput": self.aggregate_throughput(),
            "dedup": self.dedup,
            "arbitration": self.arbitration,
        }


#: Headroom multiplier when the scheduler sizes physical memory itself:
#: destinations for moves, CoW breaks, and allocator slack.
_MEMORY_SLACK = 2


class Scheduler:
    """Round-robin multi-tenant executor; see module docstring."""

    def __init__(
        self,
        config: RunConfig,
        specs: Sequence[TenantSpec],
        *,
        kernel: Optional[Kernel] = None,
        share: bool = False,
        arbiter=None,
        memory_size: Optional[int] = None,
        fast_memory: Optional[int] = None,
        max_rounds: int = 1_000_000,
    ) -> None:
        if not specs:
            raise ValueError("a schedule needs at least one tenant")
        self.config = config
        self.specs = list(specs)
        self.share = share
        self.arbiter = arbiter
        self.max_rounds = max_rounds
        self._kernel = kernel
        self._memory_size = memory_size
        self._fast_memory = fast_memory
        self.kernel: Optional[Kernel] = None
        self.tenants: List[Tenant] = []
        self.tracer: Optional[Tracer] = None
        self.sanitizer = None
        self.rounds = 0
        #: Machine clock: cycles executed across every tenant so far.
        self.clock = 0
        self._active = None
        self._active_base = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _compile_specs(self) -> Dict[int, CaratBinary]:
        """One compile per distinct program text — tenants running the
        same source share one binary (and therefore, with ``share=True``,
        one signed image for the ShareManager to dedup)."""
        binaries: Dict[int, CaratBinary] = {}
        by_source: Dict[str, CaratBinary] = {}
        for index, spec in enumerate(self.specs):
            if isinstance(spec.program, CaratBinary):
                binaries[index] = spec.program
                continue
            cached = by_source.get(spec.program)
            if cached is None:
                cached = compile_carat(
                    spec.program, module_name=f"app{len(by_source)}"
                )
                by_source[spec.program] = cached
            binaries[index] = cached
        return binaries

    def _size_memory(self, binaries: Dict[int, CaratBinary]) -> int:
        config = self.config
        per_tenant = page_align(config.stack_size) + page_align(config.heap_size)
        image_of: Dict[int, int] = {}
        for binary in binaries.values():
            code = code_segment_size(binary.module)
            _, globals_size = layout_globals(binary.module, 0)
            image_of[id(binary)] = code + page_align(max(1, globals_size))
        if self.share:
            images = sum(image_of.values())
        else:
            images = sum(image_of[id(b)] for b in binaries.values())
        need = len(self.specs) * per_tenant + images
        return page_align(need * _MEMORY_SLACK + (8 << 20))

    def _build(self) -> None:
        config = self.config
        binaries = self._compile_specs()
        kernel = self._kernel
        if kernel is None:
            memory = self._memory_size or self._size_memory(binaries)
            kernel = Kernel(memory, fast_memory=self._fast_memory)
        self.kernel = kernel
        if config.tracing:
            self.tracer = Tracer(detail=config.trace_detail)
            kernel.attach_tracer(self.tracer)
            self.tracer.set_clock(self._machine_clock)
        if self.share and kernel.shares is None:
            kernel.attach_shares(ShareManager(kernel))
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
        self.sanitizer = _make_sanitizer(config.sanitize, None, kernel)

        interpreter_class = _interpreter_class(config.engine)
        for index, spec in enumerate(self.specs):
            binary = binaries[index]
            process = kernel.load_carat(
                binary,
                heap_size=config.heap_size,
                stack_size=config.stack_size,
                guard_mechanism=config.guard_mechanism,
                share=self.share,
            )
            process.name = spec.name
            if config.safety and process.runtime is not None:
                process.runtime.enable_safety()
            if config.agents:
                from repro.agents import DmaAgent

                for agent_index in range(config.agents):
                    agent = DmaAgent(
                        name=f"dma{process.pid}.{agent_index}",
                        burst=config.agent_burst,
                    )
                    agent.target(process)
                    kernel.agents.register(agent)
            interpreter = interpreter_class(process, kernel)
            if hasattr(interpreter, "set_trace_tuning"):
                interpreter.set_trace_tuning(threshold=config.trace_threshold)
            if self.sanitizer is not None:
                self.sanitizer.attach_interpreter(interpreter)
            if self.tracer is not None and process.runtime is not None:
                process.runtime.tracer = self.tracer
            interpreter.start(spec.entry, spec.args)
            self.tenants.append(Tenant(spec, process, interpreter, binary))
        if self.arbiter is not None:
            self.arbiter.wire(self)

    # ------------------------------------------------------------------
    # The clock (trace timestamps stay monotonic across tenant switches)
    # ------------------------------------------------------------------

    def _machine_clock(self) -> int:
        if self._active is not None:
            return self.clock + (self._active.stats.cycles - self._active_base)
        return self.clock

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def _run_quantum(self, tenant: Tenant) -> None:
        interpreter = tenant.interpreter
        process = tenant.process
        quantum = self.config.quantum * tenant.spec.weight
        start_cycles = interpreter.stats.cycles
        self._active = interpreter
        self._active_base = start_cycles
        kernel = self.kernel
        try:
            with kernel.tenant(process.pid):
                try:
                    status = interpreter.run_steps(quantum)
                except ProtectionFault as fault:
                    serviced = None
                    if kernel.shares is not None:
                        serviced = kernel.shares.service_write_fault(
                            process, interpreter, fault
                        )
                    if serviced is None:
                        raise  # a genuine violation, not a CoW break
                    status = "running"
        finally:
            self._active = None
            self.clock += interpreter.stats.cycles - start_cycles
        tenant.quanta += 1
        if status == "done":
            tenant.done = True
            tenant.exit_code = interpreter.exit_code
        elif interpreter.stats.instructions >= self.config.max_steps:
            raise InterpError(
                f"tenant {process.pid} ({process.name}) exhausted its "
                f"step budget after {interpreter.stats.instructions} "
                f"instructions"
            )

    def start(self) -> None:
        """Compile, load, and wire every tenant without running anything.

        Idempotent; ``run()`` calls it implicitly.  External drivers (the
        soak runner) call it explicitly so they can attach fault
        injectors, degradation managers, and memory probes to the built
        kernel before the first quantum executes."""
        if self.kernel is None:
            self._build()

    def step_round(self) -> bool:
        """Advance the schedule by exactly one round: one quantum per
        live tenant, then arbitration and one move-queue chunk.  Every
        tenant is at a safepoint when this returns, so callers may
        inspect or mutate kernel state between rounds.  Returns True
        while any tenant still has work."""
        self.start()
        kernel = self.kernel
        if all(tenant.done for tenant in self.tenants):
            return False
        if self.rounds >= self.max_rounds:
            raise InterpError("schedule exceeded its round budget")
        for tenant in self.tenants:
            if not tenant.done:
                self._run_quantum(tenant)
        self.rounds += 1
        if self.arbiter is not None:
            self.arbiter.on_round(self)
        if kernel.move_queue is not None:
            # Every tenant is at a safepoint between rounds; advance
            # the incremental move pipeline one bounded chunk.
            kernel.move_queue.step()
        if kernel.agents is not None:
            # Same safepoint guarantee covers the translation clients:
            # each registered agent streams one burst per round.
            kernel.agents.step()
        return any(not tenant.done for tenant in self.tenants)

    def finish(self) -> ScheduleResult:
        """Close the books: drain deferred moves, run the end-of-run
        sanitizer checkpoint, and assemble the result document."""
        kernel = self.kernel
        if kernel.move_queue is not None:
            kernel.move_queue.drain_all()
        if self.sanitizer is not None:
            self.sanitizer.finish(kernel)

        results: Dict[int, RunResult] = {}
        for tenant in self.tenants:
            interpreter = tenant.interpreter
            results[tenant.process.pid] = RunResult(
                tenant.exit_code,
                interpreter.output,
                interpreter.stats,
                tenant.process,
                kernel,
                interpreter,
                tenant.binary,
                sanitizer=self.sanitizer,
                tracer=self.tracer,
                config=self.config,
            )
        return ScheduleResult(
            tenants=results,
            machine_cycles=self.clock,
            rounds=self.rounds,
            pauses={pid: list(log) for pid, log in kernel.pause_log.items()},
            dedup=(
                kernel.shares.dedup_stats() if kernel.shares is not None else None
            ),
            arbitration=(
                self.arbiter.summary() if self.arbiter is not None else None
            ),
        )

    def run(self) -> ScheduleResult:
        """Run the whole schedule to completion (the one-shot path the
        ``smp`` subcommand and tests use): ``start`` + ``step_round``
        until every tenant exits + ``finish``."""
        self.start()
        while self.step_round():
            pass
        return self.finish()
