"""The structured event tracer: spans, instants, counters.

One :class:`Tracer` is a bounded in-memory buffer of
:class:`TraceEvent` records.  Every layer that can narrate itself —
compiler passes, guard checks, Figure-8 protocol steps, policy epochs,
retry/rollback/degradation — emits into whatever tracer is attached to
it; no tracer attached means no work beyond an ``is not None`` test.

Timestamps are *simulated cycles* once a machine clock is attached
(:meth:`Tracer.set_clock` — the session points it at
``interpreter.stats.cycles``); before that (e.g. during compilation)
they fall back to a monotonic logical sequence.  The tracer never
charges cycles to any stats object, so enabling it cannot perturb a
single measured number.

Exports:

* :meth:`Tracer.write_jsonl` — one JSON object per line, validated by
  :mod:`repro.telemetry.schema`;
* :meth:`Tracer.chrome_trace` / :meth:`Tracer.write_chrome_trace` — the
  Chrome ``trace_event`` format (load in ``chrome://tracing`` or
  Perfetto).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Event phases (a subset of the Chrome trace_event phases).
PH_BEGIN = "B"
PH_END = "E"
PH_INSTANT = "i"
PH_COUNTER = "C"

#: Known event categories, one per emitting layer.
CATEGORIES = (
    "compiler",    # pass begin/end with IR deltas
    "guard",       # guard check hit/miss/fault
    "trace",       # trace-tier compiles, side exits, respecializations
    "tracking",    # allocation/escape tracking
    "protocol",    # Figure-8 steps 1-12
    "policy",      # policy-engine epochs
    "resilience",  # retry / rollback / degradation
    "kernel",      # loads, faults, change requests
    "session",     # run lifecycle
    "metrics",     # periodic counter samples
)

#: Detail levels: ``normal`` keeps per-event volume bounded by run
#: structure (passes, protocol steps, epochs, faults, counter samples);
#: ``fine`` additionally emits one instant per guard check and per
#: tracking callback — only sane for small programs.
DETAIL_LEVELS = ("normal", "fine")


class TraceEvent:
    """One trace record; ``to_dict`` yields the JSONL/Chrome object."""

    __slots__ = ("name", "cat", "ph", "ts", "pid", "tid", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts: int,
        pid: int = 0,
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.pid = pid
        self.tid = tid
        self.args = args

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args is not None:
            out["args"] = self.args
        if self.ph == PH_INSTANT:
            out["s"] = "t"  # instant scope: thread
        return out


class Tracer:
    """A bounded, append-only event buffer with a pluggable clock."""

    def __init__(self, detail: str = "normal", max_events: int = 500_000) -> None:
        if detail not in DETAIL_LEVELS:
            raise ValueError(
                f"unknown trace detail {detail!r} (choose from {DETAIL_LEVELS})"
            )
        self.detail = detail
        #: ``detail == "fine"``: whether per-check and per-callback
        #: instants are recorded.  Fixed with ``detail`` at construction
        #: and stored, since every tracking callback and trace exit reads
        #: it.
        self.fine = detail == "fine"
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        #: Events discarded after the buffer filled (reported, not silent).
        self.dropped = 0
        #: The PID lane events land in (the ``tid`` convention, one level
        #: up): a multi-tenant scheduler sets this to the running tenant's
        #: PID around each quantum so every event any layer emits —
        #: protocol steps, policy epochs, counters — is stamped with its
        #: owning tenant.  Single-process runs leave it at 0.
        self.current_pid = 0
        self._clock: Optional[Callable[[], int]] = None
        self._clock_offset = 0
        self._seq = 0
        self._last_ts = 0
        self._depth: Dict[int, int] = {}

    # -- clock -----------------------------------------------------------

    def set_clock(self, clock: Optional[Callable[[], int]]) -> None:
        """Attach the timestamp source (e.g. ``lambda: interp.stats.cycles``).
        ``None`` reverts to the logical sequence.  Timestamps stay
        monotonic across the handoff: the new clock is offset past the
        last emitted timestamp (compile-time events use the logical
        sequence, run-time events cycles — one axis, no reordering)."""
        self._clock = clock
        if clock is not None:
            self._clock_offset = self._last_ts - clock()
        else:
            self._seq = max(self._seq, self._last_ts)

    def now(self) -> int:
        if self._clock is not None:
            ts = self._clock() + self._clock_offset
        else:
            ts = self._seq
        if ts < self._last_ts:
            ts = self._last_ts  # clamp a clock that moved backwards
        self._last_ts = ts
        return ts

    # -- emission --------------------------------------------------------

    def _emit(
        self,
        name: str,
        cat: str,
        ph: str,
        args: Optional[dict],
        tid: int,
        pid: Optional[int] = None,
    ) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self._seq += 1
        owner = self.current_pid if pid is None else pid
        self.events.append(
            TraceEvent(name, cat, ph, self.now(), owner, tid, args)
        )

    def instant(
        self,
        name: str,
        cat: str,
        args: Optional[dict] = None,
        tid: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        self._emit(name, cat, PH_INSTANT, args, tid, pid)

    def begin(
        self,
        name: str,
        cat: str,
        args: Optional[dict] = None,
        tid: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        self._depth[tid] = self._depth.get(tid, 0) + 1
        self._emit(name, cat, PH_BEGIN, args, tid, pid)

    def end(
        self,
        name: str,
        cat: str,
        args: Optional[dict] = None,
        tid: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        self._depth[tid] = max(0, self._depth.get(tid, 0) - 1)
        self._emit(name, cat, PH_END, args, tid, pid)

    def counter(
        self,
        name: str,
        values: Dict[str, int],
        tid: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        """A counter sample: ``values`` become the tracked series."""
        self._emit(name, "metrics", PH_COUNTER, dict(values), tid, pid)

    @contextmanager
    def span(
        self, name: str, cat: str, args: Optional[dict] = None, tid: int = 0
    ):
        """``with tracer.span(...) as end_args:`` — mutate ``end_args`` to
        attach results to the closing event.  The end event is emitted
        even when the body raises, keeping begin/end balanced."""
        end_args: dict = {}
        self.begin(name, cat, args, tid)
        try:
            yield end_args
        finally:
            self.end(name, cat, end_args or None, tid)

    # -- export ----------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        for event in self.events:
            yield json.dumps(event.to_dict(), sort_keys=True)

    def to_jsonl(self) -> str:
        return "\n".join(self.jsonl_lines()) + ("\n" if self.events else "")

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for line in self.jsonl_lines():
                handle.write(line + "\n")

    def chrome_trace(self) -> dict:
        return {
            "traceEvents": [event.to_dict() for event in self.events],
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "simulated-cycles",
                "dropped_events": self.dropped,
            },
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
            handle.write("\n")

    # -- introspection ---------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Events discarded after the bounded buffer filled — the
        trace-loss figure long soak runs report instead of silently
        truncating (``--stats``, run snapshots, soak reports)."""
        return self.dropped

    def summary(self) -> Dict[str, int]:
        """Event counts per category (plus total/dropped)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.cat] = counts.get(event.cat, 0) + 1
        counts["total"] = len(self.events)
        if self.dropped:
            counts["dropped"] = self.dropped
        return counts

    def __len__(self) -> int:
        return len(self.events)
