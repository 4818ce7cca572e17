"""Execution-engine registry and the result type every run produces.

The one run path is :class:`repro.machine.session.CaratSession` driven
by a :class:`~repro.machine.session.RunConfig`; this module holds the
machinery the session uses:

* :data:`ENGINES` / :func:`_interpreter_class` — the selectable
  execution engines;
* :class:`RunResult` — everything one execution produced;
* :func:`_make_sanitizer` — the sanitizer attach helper.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional

from repro.carat.pipeline import CaratBinary
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine.fastexec import FastInterpreter
from repro.machine.interp import Interpreter, InterpStats
from repro.machine.tracejit import TraceInterpreter
from repro.sanitizer import Sanitizer

#: Selectable execution engines: the readable reference interpreter, the
#: pre-compiled fast engine, and the trace tier that compiles hot
#: superblocks on top of it (all three identical in observable behavior;
#: see :mod:`repro.machine.fastexec` / :mod:`repro.machine.tracejit`).
ENGINES = {
    "reference": Interpreter,
    "fast": FastInterpreter,
    "trace": TraceInterpreter,
}


def _interpreter_class(engine: str) -> type:
    try:
        return ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r} (choose from {sorted(ENGINES)})"
        ) from None


@dataclass
class RunResult:
    """Everything one execution produced: output, stats, live objects."""

    exit_code: int
    output: List[str]
    stats: InterpStats
    process: Process
    kernel: Kernel
    interpreter: Interpreter
    binary: CaratBinary
    #: The sanitizer that audited the run (``None`` unless requested).
    sanitizer: Optional[Sanitizer] = None
    #: Telemetry attached by the session (``None`` unless requested):
    #: the event tracer, the cycle profiler, and the RunConfig used.
    tracer: Optional[object] = None
    profile: Optional[object] = None
    config: Optional[object] = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    def dtlb_mpki(self) -> float:
        """L1 DTLB misses per 1000 instructions (traditional runs only)."""
        if self.process.mmu is None:
            return 0.0
        return self.stats.mpki(self.process.mmu.dtlb.stats.misses)

    def fingerprint(self) -> str:
        """Digest of the run's observable behavior: exit code, printed
        output, and every modeled counter.  Two runs of the same program
        under the same config must produce equal fingerprints regardless
        of which entry point (CLI, harness, test veneer, or session)
        launched them — the parity tests assert exactly that."""
        stats = self.stats
        payload = {
            "exit_code": self.exit_code,
            "output": list(self.output),
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "loads": stats.loads,
            "stores": stats.stores,
            "calls": stats.calls,
            "translation_cycles": stats.translation_cycles,
            "guard_cycles": stats.guard_cycles,
            "tracking_cycles": stats.tracking_cycles,
            "page_fault_cycles": stats.page_fault_cycles,
            "tier_cycles": stats.tier_cycles,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _make_sanitizer(
    sanitize: bool, sanitizer: Optional[Sanitizer], kernel: Kernel
) -> Optional[Sanitizer]:
    if sanitizer is None and not sanitize:
        return None
    active = sanitizer if sanitizer is not None else Sanitizer()
    active.attach_kernel(kernel)
    return active

