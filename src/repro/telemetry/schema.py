"""The trace-event schema and a dependency-free validator.

Every line of a trace JSONL file (and every element of a Chrome
``traceEvents`` array) is one JSON object with this shape::

    {
      "name": str,            # event name, e.g. "fig8.step03" or "pass.dce"
      "cat":  str,            # emitting layer — see CATEGORIES in tracer.py
      "ph":   "B"|"E"|"i"|"C",# phase: span begin/end, instant, counter
      "ts":   int >= 0,       # simulated cycles (logical seq pre-machine)
      "pid":  int,            # owning tenant's PID (0 = single-process run)
      "tid":  int,            # logical track, 0 = main
      "args": object,         # optional structured payload
      "s":    "t",            # instants only: scope = thread
    }

The validator is intentionally plain Python (no jsonschema dependency —
the container image is frozen): it checks required keys, types, the
phase alphabet, category membership, timestamp monotonic sanity, and
begin/end balance — both keyed per ``(pid, tid)`` lane, so multi-tenant
traces (one pid per tenant) load cleanly in Chrome's trace viewer,
which renders each pid as its own process group.  Used by
``tests/test_telemetry.py`` and by ``repro run --trace-out``, which
exits 1 when the JSONL it exported fails validation.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from repro.telemetry.tracer import CATEGORIES

#: Human/machine-readable schema description (also rendered in DESIGN.md).
TRACE_SCHEMA = {
    "schema": "carat.trace.v1",
    "required": ["name", "cat", "ph", "ts", "pid", "tid"],
    "optional": ["args", "s"],
    "types": {
        "name": "str",
        "cat": "str",
        "ph": "str",
        "ts": "int",
        "pid": "int",
        "tid": "int",
        "args": "object",
        "s": "str",
    },
    "ph": ["B", "E", "i", "C"],
    "cat": list(CATEGORIES),
}

_REQUIRED = tuple(TRACE_SCHEMA["required"])
_ALLOWED_KEYS = frozenset(_REQUIRED) | frozenset(TRACE_SCHEMA["optional"])
_PHASES = frozenset(TRACE_SCHEMA["ph"])
_CATS = frozenset(TRACE_SCHEMA["cat"])


def validate_events(events: Iterable[dict]) -> List[str]:
    """Validate decoded event dicts; returns a list of error strings
    (empty list = valid).  Checks structure, then cross-event invariants:
    non-decreasing timestamps and balanced B/E nesting, each keyed per
    ``(pid, tid)`` lane (Chrome's trace viewer nests spans per pid/tid
    pair, so a multi-tenant trace must hold these per tenant)."""
    errors: List[str] = []
    last_ts: dict = {}
    stacks: dict = {}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = [key for key in _REQUIRED if key not in event]
        if missing:
            errors.append(f"{where}: missing keys {missing}")
            continue
        unknown = sorted(set(event) - _ALLOWED_KEYS)
        if unknown:
            errors.append(f"{where}: unknown keys {unknown}")
        name, cat, ph = event["name"], event["cat"], event["ph"]
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: name must be a non-empty string")
        if not isinstance(cat, str) or cat not in _CATS:
            errors.append(f"{where}: unknown category {cat!r}")
        if ph not in _PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        for key in ("ts", "pid", "tid"):
            if not isinstance(event[key], int) or isinstance(event[key], bool):
                errors.append(f"{where}: {key} must be an integer")
        if isinstance(event.get("ts"), int) and event["ts"] < 0:
            errors.append(f"{where}: negative timestamp {event['ts']}")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: args must be an object")
        tid = event.get("tid")
        pid = event.get("pid")
        ts = event.get("ts")
        if isinstance(tid, int) and isinstance(pid, int) and isinstance(ts, int):
            lane = (pid, tid)
            if lane in last_ts and ts < last_ts[lane]:
                errors.append(
                    f"{where}: timestamp {ts} precedes {last_ts[lane]} "
                    f"on pid {pid} tid {tid}"
                )
            last_ts[lane] = ts
            stack = stacks.setdefault(lane, [])
            if ph == "B":
                stack.append((name, index))
            elif ph == "E":
                if not stack:
                    errors.append(f"{where}: end {name!r} with no open span")
                else:
                    open_name, open_index = stack.pop()
                    if open_name != name:
                        errors.append(
                            f"{where}: end {name!r} closes span "
                            f"{open_name!r} opened at event {open_index}"
                        )
    for (pid, tid), stack in stacks.items():
        for open_name, open_index in stack:
            errors.append(
                f"unclosed span {open_name!r} "
                f"(event {open_index}, pid {pid}, tid {tid})"
            )
    return errors


def validate_jsonl(path) -> List[str]:
    """Validate a JSONL trace file; returns error strings (empty = valid)."""
    events: List[dict] = []
    errors: List[str] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc})")
    return errors + validate_events(events)
