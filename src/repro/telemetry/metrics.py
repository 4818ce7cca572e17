"""The metrics registry: every layer's stats under one schema.

Four stats dataclasses (``InterpStats``, ``RuntimeStats``,
``KernelStats``, ``EscapeStats``) each have their own shape.  The
registry gives them one uniform surface:

* :meth:`MetricsRegistry.absorb` — fold any object with a ``to_dict()``
  (or any dataclass) into the registry under a prefix;
* :meth:`MetricsRegistry.to_dict` — the nested ``{prefix: section}``
  form;
* :func:`run_snapshot` — one call that turns a finished ``RunResult``
  into the ``carat.run.v1`` document benchmarks, the sanitizer report,
  and CI all read.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

#: Version tag on every run snapshot so downstream readers can detect drift.
RUN_SNAPSHOT_SCHEMA = "carat.run.v1"


def _stats_dict(obj) -> dict:
    """Uniform ``to_dict`` protocol: prefer an explicit ``to_dict``,
    fall back to dataclass introspection (nested dataclasses included)."""
    if obj is None:
        return {}
    if isinstance(obj, dict):
        return dict(obj)
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"{type(obj).__name__} has no to_dict() and is not a dataclass")


class MetricsRegistry:
    """Absorbed stats sections, keyed by prefix."""

    def __init__(self) -> None:
        self._absorbed: Dict[str, dict] = {}

    def absorb(self, prefix: str, stats) -> None:
        """Fold a stats object (``to_dict()`` or dataclass) in under
        ``prefix``; re-absorbing the same prefix overwrites (snapshots
        are point-in-time)."""
        self._absorbed[prefix] = _stats_dict(stats)

    def to_dict(self) -> dict:
        """Nested form: absorbed sections by prefix, sorted."""
        return {
            prefix: dict(section)
            for prefix, section in sorted(self._absorbed.items())
        }


def run_snapshot(result) -> dict:
    """The ``carat.run.v1`` document for a finished run.

    Works on any ``RunResult``-shaped object: reads ``result.stats``
    (interpreter), and — when present — the runtime, kernel, escape-map,
    and MMU stats hanging off ``result.process`` / ``result.kernel``,
    plus the profiler report if the run was profiled.  Sections absent
    from the run (e.g. no MMU in CARAT mode) are simply omitted.
    """
    registry = MetricsRegistry()
    registry.absorb("interp", getattr(result, "stats", None))

    process = getattr(result, "process", None)
    runtime = getattr(process, "runtime", None) if process else None
    if runtime is not None:
        registry.absorb("runtime", runtime.stats)
        escapes = getattr(runtime, "escapes", None)
        if escapes is not None:
            registry.absorb("escapes", escapes.stats)
    kernel = getattr(result, "kernel", None)
    if kernel is not None:
        registry.absorb("kernel", kernel.stats)
    mmu = getattr(process, "mmu", None) if process else None
    if mmu is not None:
        registry.absorb("mmu", mmu.stats)
        registry.absorb("dtlb", mmu.dtlb.stats)
        registry.absorb("stlb", mmu.stlb.stats)
    tracer = getattr(result, "tracer", None)
    if tracer is not None:
        registry.absorb(
            "tracer",
            {
                "events": len(tracer.events),
                "dropped_events": tracer.dropped_events,
                "max_events": tracer.max_events,
            },
        )

    document = {
        "schema": RUN_SNAPSHOT_SCHEMA,
        "exit_code": getattr(result, "exit_code", None),
    }
    document.update(registry.to_dict())

    profile = getattr(result, "profile", None)
    if profile is not None:
        document["profile"] = profile.to_dict()
    config = getattr(result, "config", None)
    if config is not None:
        document["config"] = config.to_dict()
    return document
