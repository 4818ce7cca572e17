"""Machine-speed normalisation for a host whose speed drifts.

On a shared host the same process can run twice as slowly for seconds at
a time, because other tenants contend for the cores.  Such drift moves
every raw wall time by more than any bound worth gating on.  So the
benchmark times a fixed calibration loop between units, about every
:data:`PERIOD` seconds, and reports each measured interval in *reference
seconds*: its raw length times ``REFERENCE_LOOP_S`` over the mean loop
time sampled around it.  On a quiet machine a reference second is about a
wall second; under contention the loop slows down with the system, and
the ratio stays put.  The loop is the shape of the engines' inner loop
(closures dispatched over a list of ops, reading and writing a register
dict and a memory list), so it slows down as they do.

Time the benchmark spends on itself (calibrating, collecting garbage)
is recorded as *own* time and left out of every interval that contains it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Tuple

#: Seconds between speed samples.
PERIOD = 0.1
#: Seconds one calibration loop took on the machine the benchmark was
#: defined on (a 2-vCPU Intel Xeon VM) while it was quiet.
REFERENCE_LOOP_S = 0.00033
_LOOP_STEPS = 1500


def _load(frame, k):
    regs = frame[1]
    regs[k & 7] = frame[0][(regs[(k + 1) & 7] * 31 + k) & 1023]


def _store(frame, k):
    frame[0][(k * 17) & 1023] = frame[1][k & 7] + k


def _add(frame, k):
    regs = frame[1]
    regs[(k + 2) & 7] = (regs[k & 7] + regs[(k + 1) & 7]) & 0xFFFF


def _branch(frame, k):
    if frame[1][k & 7] & 1:
        frame[2] += 1


_OPS = (_load, _add, _store, _branch, _add, _load, _store, _add)


def calibration_loop() -> float:
    """Seconds one pass of the fixed loop takes now; every pass does the
    same work, from the same initial state."""
    start = perf_counter()
    frame = [list(range(1024)), dict.fromkeys(range(8), 1), 0]
    ops = _OPS
    for k in range(_LOOP_STEPS):
        ops[(k + frame[2]) & 7](frame, k)
    return perf_counter() - start


Span = Tuple[float, float]


class Speed:
    """Speed samples and own-time intervals of one process."""

    def __init__(self, within_calls: bool = True) -> None:
        #: Whether to sample inside a call into the system (between the
        #: soak's rounds); a traced run keeps the loop out of its spans.
        self.within_calls = within_calls
        #: When each speed sample was taken, and its loop time.
        self.at: List[float] = []
        self.loop_s: List[float] = []
        #: Intervals of the benchmark's own work, in time order.
        self.own: List[Span] = []
        self.sample(force=True)

    @contextmanager
    def own_work(self) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.own.append((start, perf_counter()))

    def sample(self, force: bool = False, within_call: bool = False) -> None:
        """Take a speed sample if :data:`PERIOD` has passed since the last."""
        if within_call and not self.within_calls:
            return
        if not force and perf_counter() - self.at[-1] < PERIOD:
            return
        with self.own_work():
            loops = sorted(calibration_loop() for _ in range(3))
        self.at.append(perf_counter())
        self.loop_s.append(loops[1])

    def collect(self) -> None:
        """Collect garbage between units, then sample the speed if due."""
        with self.own_work():
            gc.collect()
        self.sample()

    def raw_seconds(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` minus the own time inside it."""
        first = bisect.bisect_left(self.own, (start, start))
        inside = 0.0
        for own_start, own_end in self.own[first:]:
            if own_start >= end:
                break
            if own_end <= end:
                inside += own_end - own_start
        return end - start - inside

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of ``[start, end]`` (see the module doc)."""
        lo = bisect.bisect_left(self.at, start - PERIOD)
        hi = bisect.bisect_right(self.at, end + PERIOD)
        if lo < hi:
            loop_s = statistics.fmean(self.loop_s[lo:hi])
        else:
            nearest = min(
                range(len(self.at)), key=lambda i: abs(self.at[i] - (start + end) / 2)
            )
            loop_s = self.loop_s[nearest]
        return self.raw_seconds(start, end) * REFERENCE_LOOP_S / loop_s
