"""Host-time spans around every layer's entry points, for the traced run.

The traced repetition swaps each entry point in :data:`ENTRY_POINTS` for a
wrapper that opens a span on entry and closes it on exit.  The swap
happens at the name the *caller* looks up: ``compile_carat`` calls
``compile_source`` through ``repro.carat.pipeline``, so that is the name
wrapped, not ``repro.frontend.lower.compile_source``.  A layer reached
under two names (the verifier, called from the pipeline and from the pass
manager) is wrapped under both, with one span name.  Nothing under
``src/`` changes, and :func:`installed` restores every original on exit.

Spans go into a separate :class:`repro.telemetry.Tracer` whose clock is
``time.perf_counter_ns``, so the trace-event schema, its JSONL exporter
and its validator apply unchanged.  :func:`self_times` replays the begin/end
events on a stack: a span's self time is its duration minus the
durations of the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple

#: One row per wrapped name: (span name, module, attribute path inside
#: the module, trace category, the workload that must exercise it).  The
#: last column is the workload whose end-to-end numbers the layer is
#: expected to move; the self-tests check every row fires there.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("frontend.compile_source", "repro.carat.pipeline", "compile_source",
     "compiler", "paper-tiny"),
    ("transform.mem2reg", "repro.transform.mem2reg", "run_on_module",
     "compiler", "paper-tiny"),
    ("transform.simplify", "repro.transform.simplify", "run_on_module",
     "compiler", "paper-tiny"),
    ("transform.dce", "repro.transform.dce", "run_on_module",
     "compiler", "paper-tiny"),
    ("transform.licm", "repro.transform.licm", "run_on_module",
     "compiler", "paper-tiny"),
    ("analysis.dominator_tree", "repro.analysis.dominators",
     "DominatorTree.compute", "compiler", "paper-tiny"),
    ("ir.verify_module", "repro.carat.pipeline", "verify_module",
     "compiler", "paper-tiny"),
    ("ir.verify_module", "repro.transform.pass_manager", "verify_module",
     "compiler", "paper-tiny"),
    ("ir.print_module", "repro.carat.signing", "print_module",
     "compiler", "smp-64"),
    ("carat.check_restrictions", "repro.carat.pipeline", "check_restrictions",
     "compiler", "paper-tiny"),
    ("carat.inject_tracking", "repro.carat.pipeline", "inject_tracking",
     "compiler", "paper-tiny"),
    ("carat.inject_guards", "repro.carat.pipeline", "inject_guards",
     "compiler", "paper-tiny"),
    ("carat.optimize_guards", "repro.carat.pipeline", "optimize_guards",
     "compiler", "paper-tiny"),
    ("carat.sign_module", "repro.carat.pipeline", "sign_module",
     "compiler", "paper-tiny"),
    ("carat.verify_signature", "repro.kernel.loader", "verify_signature",
     "kernel", "smp-64"),
    ("kernel.boot", "repro.kernel.kernel", "Kernel.__init__",
     "kernel", "paper-tiny"),
    ("kernel.load", "repro.kernel.kernel", "Kernel.load_carat",
     "kernel", "smp-64"),
    ("kernel.load", "repro.kernel.kernel", "Kernel.load_traditional",
     "kernel", "paper-tiny"),
    ("machine.session", "repro.machine.session", "CaratSession.run",
     "session", "paper-tiny"),
    ("machine.compile_module", "repro.machine.fastexec", "compile_module",
     "session", "paper-tiny"),
    ("machine.compile_trace", "repro.machine.tracejit", "_build_trace",
     "trace", "paper-tiny"),
    ("machine.run", "repro.machine.fastexec", "FastInterpreter.run_steps",
     "session", "smp-64"),
    ("machine.run", "repro.machine.tracejit", "TraceInterpreter.run_steps",
     "session", "hot-small"),
    ("runtime.tracking", "repro.runtime.runtime", "CaratRuntime.on_alloc",
     "tracking", "hot-small"),
    ("runtime.tracking", "repro.runtime.runtime", "CaratRuntime.on_free",
     "tracking", "hot-small"),
    ("runtime.tracking", "repro.runtime.runtime", "CaratRuntime.on_escape",
     "tracking", "hot-small"),
    ("runtime.allocation_table_overlapping", "repro.runtime.allocation_table",
     "AllocationTable.overlapping", "tracking", "soak-chaos"),
    ("runtime.plan_move", "repro.runtime.patching", "Patcher.plan_move",
     "protocol", "soak-chaos"),
    ("runtime.execute_move", "repro.runtime.patching", "Patcher.execute_move",
     "protocol", "soak-chaos"),
    ("policy.compaction_epoch", "repro.policy.compaction",
     "CompactionDaemon.run_epoch", "policy", "soak-chaos"),
    ("policy.tiering_epoch", "repro.policy.tiering",
     "TieringBalancer.run_epoch", "policy", "soak-chaos"),
    ("policy.demote_coldest", "repro.policy.tiering",
     "TieringBalancer.demote_coldest", "policy", "soak-chaos"),
    ("resilience.drive_transaction", "repro.kernel.kernel",
     "drive_transaction", "resilience", "soak-chaos"),
    ("multiproc.start", "repro.multiproc.scheduler", "Scheduler.start",
     "kernel", "smp-64"),
    ("multiproc.step_round", "repro.multiproc.scheduler",
     "Scheduler.step_round", "kernel", "smp-64"),
    ("multiproc.arbiter_on_round", "repro.multiproc.arbiter",
     "FairnessArbiter.on_round", "policy", "soak-chaos"),
    ("multiproc.service_write_fault", "repro.multiproc.shares",
     "ShareManager.service_write_fault", "kernel", "smp-64"),
    ("sanitizer.check_kernel", "repro.sanitizer.checker",
     "InvariantChecker.check_kernel", "kernel", "soak-chaos"),
    ("soak.runner", "repro.soak.runner", "SoakRunner.run",
     "session", "soak-chaos"),
)


def span_names() -> List[str]:
    """Every distinct span name, in table order."""
    return list(dict.fromkeys(row[0] for row in ENTRY_POINTS))


def _wrap(raw, begin, end, name: str, cat: str, where: dict):
    func = raw.__func__ if isinstance(raw, classmethod) else raw

    @functools.wraps(func)
    def spanned(*args, **kwargs):
        begin(name, cat, where)
        try:
            return func(*args, **kwargs)
        finally:
            end(name, cat)

    return classmethod(spanned) if isinstance(raw, classmethod) else spanned


@contextmanager
def installed(tracer) -> Iterator[None]:
    """Wrap every entry point so it records into ``tracer``; restore the
    originals on exit, even when the body raises."""
    undo = []
    try:
        for name, module_name, path, cat, _ in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # The class's own dict entry keeps a classmethod a classmethod.
            raw = vars(owner)[attr]
            # Begin events name the wrapped function: several rows share
            # a span name.
            where = {"at": f"{module_name}.{path}"}
            setattr(owner, attr, _wrap(raw, tracer.begin, tracer.end, name, cat, where))
            undo.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def self_times(events: Iterable) -> Tuple[Dict[str, List[int]], int]:
    """Replay begin/end events; returns ``({name: [calls, self_ns]},
    covered_ns)`` where ``covered_ns`` is the total duration of the
    outermost spans.  Instants and counters are ignored."""
    totals: Dict[str, List[int]] = {}
    stack: List[list] = []
    covered = 0
    for event in events:
        if event.ph == "B":
            stack.append([event.name, event.ts, 0])
        elif event.ph == "E":
            name, start, children = stack.pop()
            if name != event.name:
                raise ValueError(f"span {event.name!r} closes {name!r}")
            duration = event.ts - start
            entry = totals.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += duration - children
            if stack:
                stack[-1][2] += duration
            else:
                covered += duration
    if stack:
        raise ValueError(f"unclosed span {stack[-1][0]!r}")
    return totals, covered


def export(tracer, stem: Path) -> List[str]:
    """Write ``STEM.jsonl`` and ``STEM.chrome.json`` one event at a time
    (a traced soak pass records most of a million events), then run the
    trace validator over the JSONL file; returns its findings."""
    from repro.telemetry import validate_events

    jsonl = Path(f"{stem}.jsonl")
    tracer.write_jsonl(jsonl)
    with open(f"{stem}.chrome.json", "w") as handle:
        handle.write('{"displayTimeUnit": "ns", "otherData": {"clock": '
                     '"host perf_counter_ns"}, "traceEvents": [\n')
        for index, event in enumerate(tracer.events):
            handle.write(("," if index else "") + json.dumps(event.to_dict()) + "\n")
        handle.write("]}\n")
    with open(jsonl) as handle:
        return validate_events(json.loads(line) for line in handle)
