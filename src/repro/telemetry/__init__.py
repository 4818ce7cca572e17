"""Unified telemetry: structured tracing, metrics, cycle profiling.

CARAT's argument is an *accounting* argument — software memory
management lives or dies on fine-grained cost attribution (PAPER.md §6).
This package is the observability substrate every layer reports through:

* :mod:`repro.telemetry.tracer` — a low-overhead structured event
  tracer (spans, instants, counters) buffered in memory and exportable
  as JSONL or Chrome ``trace_event`` JSON.  Compiler passes, guard
  checks, Figure-8 protocol steps, policy epochs, and the resilience
  machinery all emit through it when a tracer is attached;
* :mod:`repro.telemetry.metrics` — counters, gauges, and histograms in
  a :class:`MetricsRegistry` that also absorbs the per-layer stats
  dataclasses (``InterpStats``, ``RuntimeStats``, ``KernelStats``,
  ``EscapeStats``) behind one ``snapshot()``/``to_dict()`` schema;
* :mod:`repro.telemetry.profiler` — a cycle-attributed profiler that
  buckets the interpreter's simulated-cycle spend (app compute, guards,
  tracking, MMU/TLB, page faults, tiering) per function and per
  allocation site, with buckets summing *exactly* to
  ``InterpStats.cycles`` on both execution engines;
* :mod:`repro.telemetry.schema` — the JSONL trace-event schema and a
  dependency-free validator (used by tests and ``repro run --trace-out``).

Telemetry is strictly opt-in and charges **zero simulated cycles**: no
emitter ever touches ``stats.cycles``, so a run with tracing or
profiling enabled is cycle-identical to one without.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    run_snapshot,
)
from repro.telemetry.profiler import PROFILE_CATEGORIES, CycleProfiler
from repro.telemetry.schema import TRACE_SCHEMA, validate_events, validate_jsonl
from repro.telemetry.tracer import TraceEvent, Tracer

__all__ = [
    "Counter",
    "CycleProfiler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROFILE_CATEGORIES",
    "TRACE_SCHEMA",
    "TraceEvent",
    "Tracer",
    "run_snapshot",
    "validate_events",
    "validate_jsonl",
]
