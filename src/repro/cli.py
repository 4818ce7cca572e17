"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE``  — compile Mini-C to a signed CARAT binary; print the
  IR and the guard/tracking statistics (``--emit-ir``, ``--no-opt``...);
* ``run NAME|FILE`` — compile and execute one program (a Mini-C file if
  the path exists, else a suite workload at ``--scale``) under a chosen
  model (``--mode carat|baseline|traditional``), reporting output and
  cycles.  ``--sanitize`` audits it under the cross-layer invariant
  checker, ``--trace``/``--trace-out PREFIX`` record an event trace
  (exported as JSONL + Chrome ``trace_event`` JSON and schema-gated: an
  invalid export exits 1), ``--profile`` prints the cycle-attributed
  breakdown, and ``--json FILE`` writes the ``carat.run.v1`` document;
* ``bench [NAME]``  — run one suite workload under all three models and
  print the comparison row; with no name, list the available targets;
* ``policy NAME``   — run one workload under CARAT with the memory-policy
  engine attached (heat-tracked compaction + tiered placement) and print
  the :class:`~repro.policy.engine.PolicyStats` summary;
* ``smp NAME``      — time-slice ``--tenants`` copies of one workload
  over a single kernel (per-tenant region sets, CoW-deduplicated images,
  optional fairness arbitration) and report aggregate throughput plus
  per-tenant p99 pause; ``--json`` writes the ``carat.multitenant.v1``
  document;
* ``soak``          — long-horizon service soak under continuous chaos
  injection with steady-state watchdogs; exits 1 on any verdict and
  ``--json`` writes the ``carat.soak.v1`` document;
* ``workloads``     — list the benchmark suite.

Every subcommand is a thin veneer over
:class:`~repro.machine.session.CaratSession`: flags map 1:1 onto
:class:`~repro.machine.session.RunConfig` fields via
``RunConfig.from_args``, so the CLI, the benchmark harness, and library
callers all drive the same run path.

Bad input — an unknown workload, a missing file, an invalid config
value — exits 2 with one ``repro <command>: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.carat.pipeline import CompileOptions, compile_carat
from repro.errors import ParseError, SemanticError
from repro.ir.printer import print_module
from repro.kernel.pagetable import PAGE_SIZE
from repro.kernel.physmem import PhysicalMemoryError


# ---------------------------------------------------------------------------
# Shared flag groups.  Each factory returns an ``add_help=False`` parent
# parser; subcommands compose them via ``parents=[...]`` so every flag in
# a group is defined exactly once and stays identical everywhere.
# ---------------------------------------------------------------------------


def _engine_flags(help_suffix: str = "") -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--engine",
        choices=["reference", "fast", "trace"],
        default="reference",
        help="execution engine: readable reference interpreter, the "
        "pre-compiled fast engine, or the trace tier that compiles hot "
        "superblocks on top of it (identical observable behavior)"
        + help_suffix,
    )
    return parent


def _async_move_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--async-moves",
        action="store_true",
        dest="async_moves",
        help="service policy moves through the asynchronous move queue: "
        "pre-copy runs in bounded chunks with the world running and one "
        "batched stop covers the patch-and-flip tail",
    )
    parent.add_argument(
        "--move-batch",
        type=int,
        default=4,
        dest="move_batch",
        metavar="N",
        help="queued same-tenant moves amortizing one flip stop "
        "(default 4; needs --async-moves)",
    )
    parent.add_argument(
        "--chunk-budget",
        type=int,
        default=0,
        dest="chunk_budget",
        metavar="CYCLES",
        help="cycle cap per pre-copy chunk; 0 streams each move's "
        "pre-copy in one step (default 0; needs --async-moves)",
    )
    return parent


def _telemetry_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        action="store_true",
        help="record structured trace events (compiler passes, guard "
        "faults, Figure-8 steps, policy epochs, move outcomes)",
    )
    parent.add_argument(
        "--trace-detail",
        choices=["normal", "fine"],
        default="normal",
        dest="trace_detail",
        help="trace granularity; 'fine' adds one instant per guard check "
        "and tracking callback (small programs only)",
    )
    parent.add_argument(
        "--trace-out",
        metavar="PREFIX",
        dest="trace_out",
        help="write the trace to PREFIX.jsonl and PREFIX.chrome.json "
        "(implies --trace); exits 1 if the JSONL fails schema validation",
    )
    parent.add_argument(
        "--profile",
        action="store_true",
        help="attach the cycle-attributed profiler and print the bucket "
        "breakdown (buckets sum exactly to the cycle total)",
    )
    return parent


def _sanitize_flags(
    help_text: str = "run under the cross-layer invariant checker",
) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--sanitize", action="store_true", help=help_text)
    return parent


def _fault_flags(context: str = "") -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="kill the move protocol at chosen steps (carat mode): "
        "comma-separated STEP:KIND[:MOVE][:persist] entries, e.g. "
        "'copy-data:crash', 'patch-escapes:torn:0', "
        "'region-install:hang:2:persist', or 'random:N' drawn from "
        "--fault-seed; failed moves roll back, retry with backoff, and "
        "degrade when exhausted" + context,
    )
    parent.add_argument(
        "--fault-seed",
        type=int,
        default=1234,
        help="seed for 'random:N' fault schedules (default: 1234)",
    )
    parent.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts per move before it degrades (default: 3)",
    )
    return parent


def _client_flags() -> argparse.ArgumentParser:
    """Translation clients and the memory-safety mode (carat mode only)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--safety",
        action="store_true",
        help="guard-time memory safety: every allowed access is also "
        "checked against allocation-table liveness; use-after-free and "
        "out-of-bounds raise a structured SafetyFault with HMAC "
        "provenance tags (carat mode only)",
    )
    parent.add_argument(
        "--agents",
        type=int,
        default=0,
        metavar="N",
        help="register N guard-free DMA agents that stream the heap "
        "through kernel-mediated pinned leases; page moves drain "
        "overlapping leases in the quiesce-agents step (carat mode only)",
    )
    parent.add_argument(
        "--agent-burst",
        type=int,
        default=64,
        dest="agent_burst",
        metavar="BYTES",
        help="bytes each DMA agent streams per kernel clock step "
        "(default 64)",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CARAT (PLDI 2020) reproduction: compile and run "
        "Mini-C programs under compiler/runtime-based address translation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compile", help="compile Mini-C to a CARAT binary")
    comp.add_argument("file", help="Mini-C source file")
    comp.add_argument("--emit-ir", action="store_true", help="print the final IR")
    comp.add_argument("--no-opt", action="store_true", help="skip general optimizations")
    comp.add_argument(
        "--no-carat-opts", action="store_true", help="skip guard optimizations"
    )
    comp.add_argument("--no-guards", action="store_true", help="skip guard injection")
    comp.add_argument("--no-tracking", action="store_true", help="skip tracking")

    run = sub.add_parser(
        "run",
        help="compile and execute one program (a Mini-C file or a workload)",
        parents=[
            _engine_flags(),
            _sanitize_flags(),
            _fault_flags(),
            _async_move_flags(),
            _telemetry_flags(),
            _client_flags(),
        ],
    )
    run.add_argument(
        "name",
        metavar="NAME|FILE",
        help="Mini-C source file, or a workload name (see `repro workloads`)",
    )
    run.add_argument(
        "--scale",
        choices=["tiny", "small", "medium"],
        default="tiny",
        help="workload scale when NAME is not a file (default: tiny)",
    )
    run.add_argument(
        "--json",
        metavar="FILE",
        dest="json_out",
        help="write the carat.run.v1 document (stats, config, and the "
        "profile when --profile is on) to FILE",
    )
    run.add_argument(
        "--mode",
        choices=["carat", "baseline", "traditional"],
        default="carat",
        help="execution model (default: carat)",
    )
    run.add_argument(
        "--guard",
        choices=["mpx", "binary_search", "if_tree"],
        default="mpx",
        help="guard mechanism for carat mode",
    )
    run.add_argument("--max-steps", type=int, default=50_000_000)
    run.add_argument("--stats", action="store_true", help="print cycle accounting")
    run.add_argument(
        "--trace-threshold",
        type=int,
        default=16,
        help="--engine trace: back-edge executions before a hot block "
        "anchor is recorded into a superblock (default: 16)",
    )

    bench = sub.add_parser(
        "bench",
        help="run one suite workload in all modes",
        parents=[
            _engine_flags(" for every configuration"),
            _sanitize_flags("run every configuration under the invariant checker"),
        ],
    )
    bench.add_argument(
        "name",
        nargs="?",
        help="workload name (omit to list the available targets)",
    )
    bench.add_argument(
        "--scale", choices=["tiny", "small", "medium"], default="tiny"
    )

    policy = sub.add_parser(
        "policy",
        help="run a workload under CARAT with the memory-policy engine",
        parents=[
            _engine_flags(" (the policy hooks work under both)"),
            _sanitize_flags(),
            _fault_flags(
                " (policy moves roll back, retry, and degrade — "
                "quarantined ranges pin and the engine cools down)"
            ),
            _async_move_flags(),
        ],
    )
    policy.add_argument("name", help="workload name (see `repro workloads`)")
    policy.add_argument(
        "--scale", choices=["tiny", "small", "medium"], default="tiny"
    )
    policy.add_argument(
        "--fast-kb",
        type=int,
        default=1024,
        help="fast-tier size in KiB (0 disables tiering; default 1024)",
    )
    policy.add_argument(
        "--memory-kb",
        type=int,
        default=8192,
        help="total physical memory in KiB (default 8192)",
    )
    policy.add_argument(
        "--epoch-cycles",
        type=int,
        default=20_000,
        help="policy epoch length in cycles (default 20000)",
    )
    policy.add_argument(
        "--budget",
        type=int,
        default=100_000,
        help="move-cycle budget per epoch (default 100000)",
    )
    policy.add_argument(
        "--no-compaction", action="store_true", help="disable the compaction daemon"
    )
    policy.add_argument(
        "--no-tiering", action="store_true", help="disable the tiering balancer"
    )
    policy.add_argument(
        "--scatter",
        action="store_true",
        help="pre-fragment physical memory before running (compaction demo)",
    )

    smp = sub.add_parser(
        "smp",
        help="time-slice N tenants of one workload over a single kernel",
        parents=[
            _engine_flags(" for every tenant"),
            _sanitize_flags(
                "run under the cross-layer invariant checker (including "
                "the cross-process frame-ownership and shared-CoW rules)"
            ),
            _async_move_flags(),
            _client_flags(),
        ],
    )
    smp.add_argument(
        "name", help="workload name (see `repro workloads`) or a Mini-C file"
    )
    smp.add_argument(
        "--scale", choices=["tiny", "small", "medium"], default="tiny"
    )
    smp.add_argument(
        "--tenants",
        type=int,
        default=8,
        help="number of tenants to schedule (default 8)",
    )
    smp.add_argument(
        "--quantum",
        type=int,
        default=400,
        help="round-robin time slice in instructions (default 400; "
        "scaled by each tenant's weight)",
    )
    smp.add_argument(
        "--weights",
        metavar="W1,W2,...",
        help="comma-separated fairness weights, one per tenant (cycled "
        "if shorter; default: all 1)",
    )
    smp.add_argument(
        "--guard",
        choices=["mpx", "binary_search", "if_tree"],
        default="mpx",
        help="guard mechanism for every tenant",
    )
    smp.add_argument(
        "--no-cow",
        dest="cow",
        action="store_false",
        help="disable cross-tenant page sharing (CoW dedup is on by "
        "default: identical images share one physical copy)",
    )
    smp.add_argument(
        "--arbiter",
        action="store_true",
        help="attach the fairness arbiter (weighted per-tenant "
        "compaction/tiering budgets, pressure-driven demotion)",
    )
    smp.add_argument(
        "--heap-kb",
        type=int,
        default=64,
        help="per-tenant heap in KiB (default 64)",
    )
    smp.add_argument(
        "--stack-kb",
        type=int,
        default=16,
        help="per-tenant stack in KiB (default 16)",
    )
    smp.add_argument(
        "--memory-kb",
        type=int,
        default=0,
        help="total physical memory in KiB (0 = size automatically)",
    )
    smp.add_argument(
        "--fast-kb",
        type=int,
        default=0,
        help="fast-tier size in KiB (0 disables tiering)",
    )
    smp.add_argument("--max-steps", type=int, default=50_000_000)
    smp.add_argument(
        "--json",
        metavar="FILE",
        dest="json_out",
        help="write the carat.multitenant.v1 result document to FILE",
    )

    soak = sub.add_parser(
        "soak",
        help="long-horizon service soak with continuous chaos injection "
        "and steady-state watchdogs",
        parents=[_engine_flags(" for every tenant")],
    )
    soak.add_argument(
        "--workload",
        choices=["kvservice", "kvburst"],
        default="kvservice",
        help="request-serving workload family (default kvservice)",
    )
    soak.add_argument(
        "--requests",
        type=int,
        default=100_000,
        dest="requests",
        help="total requests to serve across all tenants (default 100000)",
    )
    soak.add_argument(
        "--horizon",
        type=int,
        default=400,
        dest="horizon",
        help="maximum epochs before the watchdog declares the soak "
        "exhausted (default 400)",
    )
    soak.add_argument(
        "--tenants",
        type=int,
        default=1,
        dest="tenants",
        help="number of service tenants (default 1)",
    )
    soak.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        dest="chaos_rate",
        help="expected protocol faults armed per epoch (0 disables chaos)",
    )
    soak.add_argument(
        "--seed",
        type=int,
        default=77,
        dest="seed",
        help="chaos schedule seed (same seed => identical fault sequence "
        "and run fingerprint)",
    )
    soak.add_argument(
        "--slo-p99",
        type=int,
        default=0,
        dest="slo_p99",
        help="p99 cycles-per-request SLO gate (0 disables)",
    )
    soak.add_argument(
        "--rounds-per-epoch",
        type=int,
        default=25,
        dest="rounds_per_epoch",
        help="scheduler rounds per soak epoch (default 25)",
    )
    soak.add_argument(
        "--warmup",
        type=int,
        default=5,
        dest="warmup",
        help="epochs excluded from steady-state judgement (default 5)",
    )
    soak.add_argument(
        "--sanitize-every",
        type=int,
        default=8,
        dest="sanitize_every",
        help="epochs between full invariant-checker checkpoints "
        "(0 = final check only; default 8)",
    )
    soak.add_argument(
        "--drain-budget",
        type=int,
        default=12,
        dest="drain_budget",
        help="epochs a quarantined range may stay quarantined (default 12)",
    )
    soak.add_argument(
        "--quantum",
        type=int,
        default=1000,
        help="round-robin time slice in instructions (default 1000)",
    )
    soak.add_argument(
        "--heap-kb",
        type=int,
        default=64,
        help="per-tenant heap in KiB (default 64)",
    )
    soak.add_argument(
        "--fast-kb",
        type=int,
        default=96,
        help="fast-tier size in KiB (0 disables tiering; default 96, "
        "deliberately tight so tiering churn gives chaos moves to hit)",
    )
    soak.add_argument("--max-steps", type=int, default=500_000_000)
    soak.add_argument(
        "--crash-dump",
        default=None,
        metavar="FILE",
        help="crash-dump bundle path (default soak-crash-<engine>.json)",
    )
    soak.add_argument(
        "--json",
        metavar="FILE",
        dest="json_out",
        help="write the carat.soak.v1 report document to FILE",
    )

    sub.add_parser("workloads", help="list the benchmark suite")
    return parser


class _BadInput(Exception):
    """Input a command cannot use; ``main`` prints it as one
    ``repro <command>: ...`` line on stderr and exits 2."""


def _read_source(path: str) -> str:
    file = Path(path)
    if file.is_dir():
        raise _BadInput(f"{path} is a directory, not a Mini-C source file")
    if not file.is_file():
        # A device or a FIFO would read forever or block.
        if file.exists():
            raise _BadInput(f"{path} is not a regular file")
        raise _BadInput(f"no such file: {path}")
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise _BadInput(
            f"{path} is not UTF-8 text ({error.reason} at byte {error.start})"
        ) from None
    except OSError as error:
        raise _BadInput(f"cannot read {path}: {error.strerror or error}") from None


#: The flags naming a file a run writes at its end: (flag, attribute).
_OUTPUTS = (("--json", "json_out"), ("--trace-out", "trace_out"))


def _check_outputs(args: argparse.Namespace) -> None:
    """Reject an output path whose directory does not exist before the
    command runs, rather than failing after the whole run."""
    for flag, attr in _OUTPUTS:
        path = getattr(args, attr, None)
        if path and not Path(path).parent.is_dir():
            raise _BadInput(
                f"{flag} {path}: no such directory {Path(path).parent}"
            )


def _workload(args: argparse.Namespace):
    """The suite workload ``args.name`` at ``args.scale``."""
    from repro.workloads import get_workload

    try:
        return get_workload(args.name, args.scale)
    except KeyError as error:
        raise _BadInput(error.args[0]) from None


def _resolve_program(args: argparse.Namespace):
    """``NAME`` is a Mini-C file path if one exists, else a suite
    workload resolved at ``--scale``; a name with a suffix or a directory
    part is always a path.  Returns (source, display name)."""
    path = Path(args.name)
    if path.is_file() or path.suffix or len(path.parts) > 1:
        return _read_source(args.name), path.stem
    workload = _workload(args)
    return workload.source, workload.name


def _config(args: argparse.Namespace, **overrides):
    """``RunConfig.from_args``, with an invalid value reported as bad input."""
    from repro.machine.session import RunConfig

    try:
        return RunConfig.from_args(args, **overrides)
    except ValueError as error:
        raise _BadInput(str(error)) from None


def _memory_bytes(flag: str, kib: int) -> int:
    """A ``--*-kb`` memory size in bytes; it must be a whole number of
    pages (0 keeps the flag's "off"/"automatic" meaning)."""
    if kib < 0 or kib * 1024 % PAGE_SIZE:
        raise _BadInput(
            f"{flag} must be a non-negative multiple of "
            f"{PAGE_SIZE // 1024} (whole pages), not {kib}"
        )
    return kib * 1024


def _tier_sizes(args: argparse.Namespace) -> Tuple[int, int]:
    """``(--memory-kb, --fast-kb)`` in bytes (``--memory-kb`` is 0 where
    the command has no such flag).  An explicit total must leave room for
    a slow tier beside the fast one."""
    memory = _memory_bytes("--memory-kb", getattr(args, "memory_kb", 0))
    fast = _memory_bytes("--fast-kb", args.fast_kb)
    if fast and memory and fast >= memory:
        raise _BadInput(
            f"--fast-kb {args.fast_kb} must be smaller than "
            f"--memory-kb {args.memory_kb}"
        )
    return memory, fast


def _cmd_compile(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    options = CompileOptions(
        optimize=not args.no_opt,
        guards=not args.no_guards,
        carat_guard_opts=not args.no_carat_opts,
        tracking=not args.no_tracking,
    )
    binary = compile_carat(source, options, module_name=Path(args.file).stem)
    stats = binary.guard_stats
    print(f"module     : {binary.name}")
    print(f"signed     : {binary.signature.toolchain if binary.signature else 'no'}")
    print(
        f"guards     : {stats.total} total / {stats.remaining} remaining "
        f"(untouched {stats.untouched}, hoisted {stats.hoisted}, "
        f"merged {stats.merged}, eliminated {stats.eliminated})"
    )
    print(f"tracking   : {binary.tracking_stats.total} callbacks")
    if args.emit_ir:
        print()
        print(print_module(binary.module))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import InterpError, SafetyFault
    from repro.machine.session import CaratSession
    from repro.telemetry import run_snapshot, validate_jsonl

    source, name = _resolve_program(args)
    config = _config(args, name=name)
    if config.faulting and config.mode != "carat":
        raise _BadInput("--inject-faults/--max-retries require --mode carat")
    try:
        result = CaratSession(config).run(source)
    except SafetyFault as fault:
        violation = fault.violation
        print("-- SAFETY FAULT --", file=sys.stderr)
        print(f"   {violation.describe()}", file=sys.stderr)
        for key, value in sorted(violation.to_dict().items()):
            print(f"   {key:16s}: {value}", file=sys.stderr)
        return 3
    except InterpError as fault:
        # A guest fault (division by zero, protection fault, exhausted
        # step budget): the program failed, not the tool.
        print(f"repro run: {fault}", file=sys.stderr)
        return 1
    for line in result.output:
        print(line)
    if args.sanitize and result.sanitizer is not None:
        print(f"-- sanitizer    : {result.sanitizer.describe()}", file=sys.stderr)
    if config.agents and result.kernel.agents is not None:
        for client in result.kernel.agents.clients.values():
            print(
                f"-- agent        : {client.name} leases "
                f"{client.leases_taken} taken / {client.leases_drained} "
                f"drained, {client.bytes_streamed} bytes streamed "
                f"(checksum {client.checksum})",
                file=sys.stderr,
            )
    if args.stats:
        print(f"-- exit code    : {result.exit_code}", file=sys.stderr)
        print(f"-- instructions : {result.instructions}", file=sys.stderr)
        print(f"-- cycles       : {result.cycles}", file=sys.stderr)
        if args.engine in ("fast", "trace"):
            stats = result.stats
            print(
                f"-- dispatch     : {stats.compiled_blocks} compiled blocks, "
                f"{stats.dispatch_cache_hits} cache hits, "
                f"{stats.dispatch_cache_misses} cache misses",
                file=sys.stderr,
            )
        if args.engine == "trace":
            stats = result.stats
            share = stats.trace_instructions / max(stats.instructions, 1)
            aborts = ", ".join(
                f"{reason} {count}"
                for reason, count in stats.trace_aborts.items()
            )
            print(
                f"-- traces       : {stats.traces_compiled} compiled, "
                f"{share:.0%} of instructions in traces, "
                f"{stats.trace_exits} side exits, "
                f"{stats.trace_respecializations} respecializations, "
                f"{stats.guard_checks_elided} guard checks elided, "
                f"aborts: {aborts}",
                file=sys.stderr,
            )
        if result.process.runtime is not None:
            rt = result.process.runtime
            print(
                f"-- guards       : {rt.stats.guards_executed} executed, "
                f"{rt.stats.guard_faults} faults",
                file=sys.stderr,
            )
            if args.engine in ("fast", "trace"):
                print(
                    f"-- guard cache  : {rt.stats.region_cache_hits} hits, "
                    f"{rt.stats.region_cache_misses} misses, "
                    f"{rt.stats.region_cache_invalidations} invalidations "
                    f"({rt.stats.region_cache_hit_rate():.1%} hit rate)",
                    file=sys.stderr,
                )
            print(
                f"-- escapes      : {rt.escapes.stats.recorded} recorded, "
                f"{rt.escapes.stats.rewritten} rewritten",
                file=sys.stderr,
            )
            ks = result.kernel.stats
            print(
                f"-- moves        : {ks.moves_attempted} attempted, "
                f"{ks.moves_committed} committed, "
                f"{ks.moves_rolled_back} rolled back, "
                f"{ks.move_retries} retried, "
                f"{ks.moves_degraded} degraded "
                f"({ks.backoff_cycles} backoff cycles)",
                file=sys.stderr,
            )
            degradation = result.kernel.degradation
            if degradation is not None and degradation.failures:
                print(
                    f"-- degradation  : {degradation.describe()}",
                    file=sys.stderr,
                )
            injector = result.kernel.fault_injector
            if injector is not None and injector.fired:
                print(
                    f"-- faults fired : {', '.join(injector.fired)}",
                    file=sys.stderr,
                )
        if result.process.mmu is not None:
            print(
                f"-- dtlb         : {result.dtlb_mpki():.3f} misses/1K insts",
                file=sys.stderr,
            )
    if result.tracer is not None:
        summary = result.tracer.summary()
        print(
            f"-- trace        : {summary['total']} events, "
            f"{result.tracer.dropped_events} dropped"
            + (f" -> {config.trace_out}.jsonl" if config.trace_out else ""),
            file=sys.stderr,
        )
    schema_errors = []
    if config.trace_out:
        schema_errors = validate_jsonl(f"{config.trace_out}.jsonl")
        verdict = (
            f"INVALID ({len(schema_errors)} errors)" if schema_errors else "valid"
        )
        print(f"-- schema       : {verdict}", file=sys.stderr)
        for error in schema_errors[:10]:
            print(f"   {error}", file=sys.stderr)
    if result.profile is not None:
        result.profile.assert_reconciles(result.stats)
        print("-- profile --", file=sys.stderr)
        print(result.profile.report(), file=sys.stderr)
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(run_snapshot(result), indent=2, sort_keys=True) + "\n"
        )
        print(f"-- json         : {args.json_out}", file=sys.stderr)
    return 1 if schema_errors else result.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.machine.session import CaratSession

    if args.name is None:
        return _cmd_workloads(args)
    workload = _workload(args)

    def run_mode(mode: str):
        config = _config(args, mode=mode, name=workload.name)
        return CaratSession(config).run(workload.source)

    base = run_mode("baseline")
    carat = run_mode("carat")
    trad = run_mode("traditional")
    assert base.output == carat.output == trad.output
    print(f"workload    : {workload.name} ({workload.suite}, {args.scale})")
    print(f"behavior    : {workload.behavior}")
    print(f"output      : {base.output[-1] if base.output else ''}")
    print(f"{'config':12s} {'cycles':>12s} {'vs baseline':>12s}")
    print(f"{'baseline':12s} {base.cycles:12d} {1.0:12.3f}")
    print(f"{'carat':12s} {carat.cycles:12d} {carat.cycles / base.cycles:12.3f}")
    print(f"{'traditional':12s} {trad.cycles:12d} {trad.cycles / base.cycles:12.3f}")
    if args.sanitize:
        for label, result in (("baseline", base), ("carat", carat), ("traditional", trad)):
            print(f"sanitize    : {label}: {result.sanitizer.describe()}")
    return 0


def _cmd_policy(args: argparse.Namespace) -> int:
    from repro.kernel.kernel import Kernel
    from repro.machine.session import CaratSession
    from repro.policy import (
        CompactionDaemon,
        HeatTracker,
        PolicyEngine,
        TieringBalancer,
        assess_fragmentation,
        scatter_capsule,
    )
    from repro.resilience import DegradationManager

    if args.epoch_cycles < 1:
        raise _BadInput(
            f"--epoch-cycles must be at least 1, not {args.epoch_cycles}"
        )
    if args.budget < 0:
        raise _BadInput(f"--budget must be non-negative, not {args.budget}")
    memory, fast = _tier_sizes(args)
    if not memory:
        raise _BadInput("--memory-kb must be positive")
    workload = _workload(args)
    config = _config(
        args,
        mode="carat",
        name=workload.name,
        # Modest capsule so it fits the slow tier of the default 8 MiB
        # machine (suite workloads at these scales need far less).
        heap_size=512 * 1024,
        stack_size=128 * 1024,
    )
    kernel = Kernel(memory_size=memory, fast_memory=fast or None)
    # Policy runs always degrade gracefully on exhausted moves; the
    # session layers the config-driven retry/injector wiring on top.
    kernel.attach_degradation(DegradationManager())
    engine: Optional[PolicyEngine] = None
    frag_before = None

    def setup(interpreter) -> None:
        nonlocal engine, frag_before
        process = interpreter.process
        if args.scatter:
            scatter_capsule(kernel, process, interpreter=interpreter)
        frag_before = assess_fragmentation(kernel.frames)
        heat = HeatTracker(decay=0.5)
        compaction = (
            None
            if args.no_compaction
            else CompactionDaemon(kernel, process)
        )
        tiering = (
            TieringBalancer(kernel, process, heat, max_allocation_pages=40)
            if fast and not args.no_tiering
            else None
        )
        engine = PolicyEngine(
            kernel,
            process,
            epoch_cycles=args.epoch_cycles,
            budget_cycles=args.budget,
            heat=heat,
            compaction=compaction,
            tiering=tiering,
        )
        engine.attach(interpreter)

    session = CaratSession(config, kernel=kernel, setup=setup)
    result = session.run(workload.source)
    assert engine is not None and frag_before is not None
    frag_after = assess_fragmentation(kernel.frames)
    stats = engine.stats
    print(f"workload    : {workload.name} ({workload.suite}, {args.scale})")
    print(f"output      : {result.output[-1] if result.output else ''}")
    print(f"policy      : {stats.describe()}")
    print(f"frag before : {frag_before.describe()}")
    print(f"frag after  : {frag_after.describe()}")
    if kernel.frames.tiered:
        print(
            f"tiering     : {result.stats.fast_tier_accesses} fast / "
            f"{result.stats.slow_tier_accesses} slow accesses "
            f"({result.stats.hot_tier_share():.1%} overall hot-tier share)"
        )
    ks = kernel.stats
    print(
        f"moves       : {ks.moves_attempted} attempted, "
        f"{ks.moves_committed} committed, {ks.moves_rolled_back} rolled "
        f"back, {ks.move_retries} retried, {ks.moves_degraded} degraded"
    )
    if kernel.degradation is not None and kernel.degradation.failures:
        print(f"degradation : {kernel.degradation.describe()}")
    if kernel.fault_injector is not None and kernel.fault_injector.fired:
        print(f"faults fired: {', '.join(kernel.fault_injector.fired)}")
    if args.sanitize and result.sanitizer is not None:
        print(f"sanitizer   : {result.sanitizer.describe()}")
    return result.exit_code


def _cmd_smp(args: argparse.Namespace) -> int:
    from repro.multiproc import FairnessArbiter, Scheduler, TenantSpec

    if args.tenants < 1:
        raise _BadInput("--tenants must be at least 1")
    memory, fast = _tier_sizes(args)
    source, name = _resolve_program(args)
    weights = [1] * args.tenants
    if args.weights:
        try:
            parsed = [int(w) for w in args.weights.split(",")]
        except ValueError:
            parsed = []
        if not parsed or min(parsed) < 1:
            raise _BadInput(
                f"bad --weights {args.weights!r} (want positive ints W1,W2,...)"
            )
        weights = [parsed[i % len(parsed)] for i in range(args.tenants)]
    specs = [
        TenantSpec(source, name=f"{name}{i}", weight=weights[i])
        for i in range(args.tenants)
    ]
    config = _config(
        args,
        mode="carat",
        name=name,
        heap_size=args.heap_kb * 1024,
        stack_size=args.stack_kb * 1024,
    )
    scheduler = Scheduler(
        config,
        specs,
        share=args.cow,
        arbiter=FairnessArbiter() if args.arbiter else None,
        memory_size=memory or None,
        fast_memory=fast or None,
    )
    try:
        result = scheduler.run()
    except PhysicalMemoryError as error:
        if scheduler.kernel is not None:
            raise  # the machine was built: a fault while running
        # The memory is sized only after compiling, so a fast tier that
        # fills it is caught here rather than in _tier_sizes.
        raise _BadInput(f"--fast-kb {args.fast_kb} does not fit: {error}") from None

    print(
        f"schedule    : {args.tenants} x {name} ({config.engine}, "
        f"quantum {config.quantum}, cow {'on' if args.cow else 'off'})"
    )
    print(
        f"machine     : {result.machine_cycles} cycles over "
        f"{result.rounds} rounds"
    )
    print(
        f"throughput  : {result.total_instructions()} instructions, "
        f"{result.aggregate_throughput():.4f} per machine cycle"
    )
    if result.dedup is not None:
        dedup = result.dedup
        print(
            f"cow dedup   : {dedup['shared_pages']} shared pages, "
            f"{dedup['saved_pages']} saved ({dedup['saved_bytes']} bytes), "
            f"{dedup['cow_breaks']} breaks"
        )
    if result.arbitration is not None:
        arb = result.arbitration
        print(
            f"arbitration : {arb['epochs_run']} epochs, "
            f"{arb['pressure_demotions']} pressure demotions, budgets "
            f"{'respected' if arb['budgets_respected'] else 'OVERRUN'}"
        )
    print(f"{'pid':>4s} {'tenant':14s} {'exit':>4s} {'instr':>9s} "
          f"{'cycles':>10s} {'pauses':>6s} {'p99 pause':>9s}")
    failures = 0
    for pid, tenant in sorted(result.tenants.items()):
        if tenant.exit_code != 0:
            failures += 1
        print(
            f"{pid:4d} {tenant.process.name:14s} {tenant.exit_code:4d} "
            f"{tenant.stats.instructions:9d} {tenant.stats.cycles:10d} "
            f"{len(result.pauses.get(pid, [])):6d} "
            f"{result.p99_pause(pid):9d}"
        )
    if args.json_out:
        document = result.to_dict()
        Path(args.json_out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"json        : {args.json_out}")
    return 1 if failures else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.soak import SoakRunner

    if args.tenants < 1:
        raise _BadInput("--tenants must be at least 1")
    _, fast = _tier_sizes(args)
    config = _config(
        args,
        mode="carat",
        name=args.workload,
        heap_size=args.heap_kb * 1024,
    )
    runner = SoakRunner(
        config,
        workload=args.workload,
        fast_memory=fast or None,
        crash_dump_path=args.crash_dump,
    )
    report = runner.run()

    print(
        f"soak        : {args.tenants} x {args.workload} ({config.engine}, "
        f"quantum {config.quantum}, chaos rate {config.chaos_rate:g}, "
        f"seed {config.chaos_seed})"
    )
    print(
        f"horizon     : {report.epochs} epochs ({report.rounds} rounds, "
        f"{report.machine_cycles} machine cycles)"
    )
    print(
        f"requests    : {report.requests_completed}/{report.requests_target} "
        f"served, {report.throughput_rpkc():.3f} per kilocycle"
    )
    print(
        f"latency     : p50 {report.latency_p50} / p99 {report.latency_p99} "
        f"cycles per request ({report.latency_samples} samples)"
    )
    efi = report.efi_trajectory
    print(
        f"efi         : first {efi[0]:.4f} last {efi[-1]:.4f} "
        f"max {max(efi):.4f}"
        if efi
        else "efi         : no samples"
    )
    faults = report.faults
    print(
        f"chaos       : {faults['injected']} armed, {faults['fired']} fired, "
        f"{faults['move_retries']} retries, {faults['moves_degraded']} "
        f"degraded, {faults['quarantines_drained']} quarantines drained"
    )
    print(f"sanitizer   : {report.sanitizer}")
    print(f"trace       : {report.dropped_events} dropped events")
    print(f"fingerprint : {report.fingerprint()}")
    if report.verdicts:
        print(f"verdicts    : {len(report.verdicts)} steady-state violation(s)")
        for verdict in report.verdicts:
            print(
                f"  [{verdict['name']}] epoch {verdict['epoch']}: "
                f"{verdict['detail']}"
            )
    else:
        print("verdicts    : none — steady state held")
    if report.crash_dump:
        print(f"crash dump  : {report.crash_dump}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"json        : {args.json_out}")
    return 0 if report.ok else 1


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    print(f"{'name':14s} {'suite':8s} behavior")
    for workload in all_workloads("tiny"):
        print(f"{workload.name:14s} {workload.suite:8s} {workload.behavior}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compile": _cmd_compile,
        "run": _cmd_run,
        "bench": _cmd_bench,
        "policy": _cmd_policy,
        "smp": _cmd_smp,
        "soak": _cmd_soak,
        "workloads": _cmd_workloads,
    }
    try:
        _check_outputs(args)
        return handlers[args.command](args)
    except (_BadInput, ParseError, SemanticError) as error:
        # A Mini-C syntax or type error is bad input too; its message
        # carries the line:col.
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
