"""Wiring the invariant checker into the execution machinery.

A :class:`Sanitizer` drives one :class:`InvariantChecker` from three hook
points:

* **kernel change requests** — the kernel calls
  :meth:`on_change_request` after every page move, allocation move,
  protection change, stack expansion, and fault service (attach with
  :meth:`attach_kernel`);
* **interpreter ticks** — :meth:`attach_interpreter` chains onto the
  tick hook (the safepoint callback), checking every ``every_n_ticks``
  safepoints;
* **end of run** — the executor calls :meth:`finish` once the program
  exits.

With ``raise_on_violation`` (the default) the first error-severity
finding raises :class:`SanitizerError` at the hook that caught it, so a
stack trace points at the operation that corrupted state.  Audit-style
callers (the whole-suite audit in ``tests/test_sanitizer.py``) disable
it and read the
accumulated :attr:`report` instead.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.sanitizer.checker import InvariantChecker
from repro.sanitizer.shadow import install_escape_shadow
from repro.sanitizer.violations import SanitizerReport

__all__ = ["Sanitizer", "SanitizerError"]


class SanitizerError(ReproError):
    """An invariant checkpoint found error-severity violations."""

    def __init__(self, report: SanitizerReport) -> None:
        super().__init__(report.describe())
        self.report = report


class Sanitizer:
    """One session of invariant checking over a kernel and its programs."""

    def __init__(
        self,
        checker: Optional[InvariantChecker] = None,
        every_n_ticks: int = 1,
        raise_on_violation: bool = True,
        shadow_escapes: bool = True,
    ) -> None:
        if every_n_ticks < 1:
            raise ValueError("every_n_ticks must be >= 1")
        self.checker = checker if checker is not None else InvariantChecker()
        self.every_n_ticks = every_n_ticks
        self.raise_on_violation = raise_on_violation
        self.shadow_escapes = shadow_escapes
        #: Accumulated findings across every checkpoint of the session.
        self.report = SanitizerReport(label="session")
        #: Checkpoints evaluated (each runs the full rule set).
        self.checks_run = 0
        self._ticks_seen = 0

    # -- wiring ----------------------------------------------------------

    def attach_kernel(self, kernel) -> "Sanitizer":
        """Register as the kernel's sanitizer; change requests will call
        :meth:`on_change_request`.  Existing CARAT processes get their
        escape maps shadowed immediately."""
        kernel.attach_sanitizer(self)
        for process in kernel.processes.values():
            self.on_process_loaded(process)
        return self

    def attach_interpreter(self, interpreter) -> "Sanitizer":
        """Chain onto the interpreter's tick hook: check the kernel at
        every ``every_n_ticks``-th safepoint."""
        previous = interpreter.tick_hook

        def hook(interp) -> None:
            if previous is not None:
                previous(interp)
            self._ticks_seen += 1
            if self._ticks_seen % self.every_n_ticks == 0:
                self.check_now(interp.kernel, label="tick")

        interpreter.tick_hook = hook
        return self

    # -- hook entry points ----------------------------------------------

    def on_process_loaded(self, process) -> None:
        """Kernel callback when a process is created (and on attach, for
        processes that already exist): install the shadow escape map."""
        if self.shadow_escapes and process.runtime is not None:
            install_escape_shadow(process.runtime)

    def on_change_request(self, kernel, label: str) -> None:
        """Kernel callback after a change request completed."""
        self.check_now(kernel, label=label)

    def finish(self, kernel) -> SanitizerReport:
        """The end-of-run checkpoint."""
        return self.check_now(kernel, label="end-of-run")

    # -- checking ---------------------------------------------------------

    def check_now(
        self,
        kernel,
        label: str = "manual",
        register_snapshots=None,
    ) -> SanitizerReport:
        report = self.checker.check_kernel(
            kernel, register_snapshots=register_snapshots, label=label
        )
        self.checks_run += 1
        self.report.merge(report)
        if self.raise_on_violation and not report.ok:
            raise SanitizerError(report)
        return report

    # -- results ----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.report.ok

    def describe(self) -> str:
        verdict = "clean" if self.ok else "VIOLATIONS"
        return (
            f"{self.checks_run} checkpoint(s), "
            f"{len(self.report.errors)} error(s), "
            f"{len(self.report.warnings)} warning(s) -> {verdict}"
        )
