"""Cycle-attributed profiling: where did the simulated cycles go?

``InterpStats`` already *splits* cycle spend (guard, tracking,
translation, page-fault, tier counters alongside the total), but only as
run-wide sums.  The :class:`CycleProfiler` turns those counters into an
attribution: per **category**, per **function**, and — for guard spend —
per **allocation site**.

The mechanism is spans between frame switches, one for all three
engines.  Every push and pop goes through the interpreter's ``frames``
list, where the counters are exact, so :meth:`CycleProfiler.attach`
swaps it for a list whose mutators close the open span (the counters'
deltas since it opened) into the outgoing function's row and open one
for the new top frame.  The residue ``total - guard - tracking -
mmu_tlb - page_fault - tier`` is app compute, so the buckets sum to
``InterpStats.cycles`` **exactly**; a function's ``instructions`` are
those retired while its frame was on top, and the rows sum to
``InterpStats.instructions`` (DESIGN.md states the invariant that keeps
both engine-independent).

Spans open only inside ``run_steps`` and close around the tick hook:
cycles charged outside execution (moves at safepoints, pre-run scatter)
are swept by :meth:`CycleProfiler.finish` into ``patching``, less what
the policy engine claims for ``policy`` via :meth:`attribute_external`.
Everything :meth:`attach` installs is an instance attribute, so an
unprofiled run executes exactly the code it would without this module,
and no profiler path ever charges a cycle.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional

#: Bucket order (fixed — reports and tests index by name, not position).
PROFILE_CATEGORIES = (
    "app",         # residue: compute not attributed below
    "guard",       # carat guard checks (InterpStats.guard_cycles)
    "tracking",    # allocation/escape tracking (tracking_cycles)
    "mmu_tlb",     # traditional translation (translation_cycles)
    "page_fault",  # fault handling (page_fault_cycles)
    "tier",        # tiered-memory access premium (tier_cycles)
    "policy",      # safepoint cycles the policy engine claimed
    "patching",    # remaining safepoint/pre-run cycles (move protocol)
)

#: Index layout of the per-function accumulator rows.
_APP, _GUARD, _TRACK, _MMU, _FAULT, _TIER, _INSTS = range(7)

#: What a span measures: the total (``app`` is its residue), then the
#: counters of rows ``_GUARD.._INSTS`` in order.
_COUNTERS = attrgetter(
    "cycles", "guard_cycles", "tracking_cycles", "translation_cycles",
    "page_fault_cycles", "tier_cycles", "instructions",
)


class _ProfiledFrames(list):
    """An interpreter's frame stack that reports every push and pop to
    its profiler, which switches the open span to the new top frame."""

    __slots__ = ("_switch",)

    def append(self, frame) -> None:
        list.append(self, frame)
        self._switch(self)

    def pop(self, index: int = -1):
        frame = list.pop(self, index)
        self._switch(self)
        return frame

    def clear(self) -> None:
        list.clear(self)
        self._switch(self)


class CycleProfiler:
    """Span profiler over ``InterpStats``' cycle counters."""

    def __init__(self, pid: int = 0) -> None:
        #: Owning tenant's PID (the trace events' ``pid`` lane convention):
        #: a multi-tenant scheduler builds one profiler per tenant and
        #: stamps it, so every bucket in ``to_dict`` names its owner.
        #: Single-process runs leave it at 0.
        self.pid = pid
        #: category -> cycles, filled by :meth:`finish` from the function
        #: rows plus external attribution.
        self.buckets: Dict[str, int] = {c: 0 for c in PROFILE_CATEGORIES}
        #: function name -> 7-slot accumulator row (see _APP.._INSTS).
        self._functions: Dict[str, List[int]] = {}
        #: id(Allocation) -> site label (set by the on_alloc wrapper).
        self._alloc_sites: Dict[int, str] = {}
        #: site label -> [guard checks, guard cycles].
        self._sites: Dict[str, List[int]] = {}
        #: The function whose span opened last (labels allocation sites).
        self.current_function: Optional[str] = None
        self.instructions = 0
        #: The open span: its function's row and the counters at its
        #: start, or ``None`` between spans.
        self._row: Optional[List[int]] = None
        self._mark = None
        self._stats = None
        self._finished = False
        self.total_cycles = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def close_span(self) -> None:
        """Add the open span's counter deltas to its function's row."""
        row = self._row
        if row is None:
            return
        self._row = None
        total, *rest = (
            now - then for now, then in zip(_COUNTERS(self._stats), self._mark)
        )
        row[_APP] += total - sum(rest[:-1])
        for slot, delta in enumerate(rest, _GUARD):
            row[slot] += delta

    def switch_span(self, frames) -> None:
        """Close the open span and open one for ``frames``' top function
        (none when the stack is empty: nothing runs until a push)."""
        self.close_span()
        if frames:
            name = frames[-1].function.name
            self.current_function = name
            row = self._functions.get(name)
            if row is None:
                row = self._functions[name] = [0] * 7
            self._row = row
            self._mark = _COUNTERS(self._stats)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, interpreter) -> None:
        """Instrument an interpreter (any engine) and its runtime.

        Adopts the interpreter's process PID when the profiler was not
        already stamped, so per-tenant profiles label themselves.
        Attach after any set-up that installs a tick hook: the hook
        installed here is bracketed, so its cycles stay out of every
        function row.

        Everything installed here is an *instance* attribute shadowing a
        class method — detaching is just never attaching; no class or
        module state is touched, so concurrent unprofiled interpreters
        are unaffected.
        """
        interpreter.profiler = self  # the trace tier reads this
        if not self.pid:
            self.pid = interpreter.process.pid
        self._stats = interpreter.stats
        frames = _ProfiledFrames(interpreter.frames)
        frames._switch = self.switch_span
        interpreter.frames = frames
        run_steps = interpreter.run_steps

        def profiled_run_steps(max_steps):
            self.switch_span(interpreter.frames)
            try:
                return run_steps(max_steps)
            finally:
                self.close_span()

        interpreter.run_steps = profiled_run_steps
        tick_hook = interpreter.tick_hook
        if tick_hook is not None:

            def profiled_tick_hook(interp):
                self.close_span()
                try:
                    tick_hook(interp)
                finally:
                    self.switch_span(interp.frames)

            interpreter.tick_hook = profiled_tick_hook
        runtime = interpreter.process.runtime
        if runtime is not None:
            self._attach_runtime(runtime)

    def _attach_runtime(self, runtime) -> None:
        profiler = self
        table = runtime.table
        guard_access = runtime.guard_access
        guard_range = runtime.guard_range
        guard_call = runtime.guard_call
        on_alloc = runtime.on_alloc

        def _attribute(address: int, cycles: int) -> None:
            allocation = table.find_containing(address)
            if allocation is None:
                label = "<unmapped>"
            else:
                label = profiler._alloc_sites.get(id(allocation))
                if label is None:
                    label = f"<{allocation.kind}>"
            site = profiler._sites.get(label)
            if site is None:
                site = [0, 0]
                profiler._sites[label] = site
            site[0] += 1
            site[1] += cycles

        def profiled_guard_access(address, size, access, cell=None):
            cycles = guard_access(address, size, access, cell)
            _attribute(address, cycles)
            return cycles

        def profiled_guard_range(address, length, access="read", cell=None):
            cycles = guard_range(address, length, access, cell)
            _attribute(address, cycles)
            return cycles

        def profiled_guard_call(stack_pointer, frame_size, cell=None):
            cycles = guard_call(stack_pointer, frame_size, cell)
            _attribute(stack_pointer - frame_size, cycles)
            return cycles

        def profiled_on_alloc(address, size, kind="heap"):
            allocation = on_alloc(address, size, kind)
            key = id(allocation)
            if key not in profiler._alloc_sites:
                where = profiler.current_function or "<setup>"
                profiler._alloc_sites[key] = f"{where}:{allocation.kind}"
            return allocation

        runtime.guard_access = profiled_guard_access
        runtime.guard_range = profiled_guard_range
        runtime.guard_call = profiled_guard_call
        runtime.on_alloc = profiled_on_alloc

    # ------------------------------------------------------------------
    # External attribution and the finish sweep
    # ------------------------------------------------------------------

    def attribute_external(self, category: str, cycles: int) -> None:
        """Claim interpreter cycles charged outside every span (the
        policy engine labels its epochs' spend this way)."""
        if category not in ("policy", "patching"):
            raise ValueError(f"external category must be policy/patching, not {category!r}")
        self.buckets[category] += cycles

    def finish(self, stats) -> None:
        """Close the books: fold the function rows into the buckets and
        sweep the cycles no span or external claim saw (moves charged at
        safepoints or before the first instruction) into ``patching``, so
        the buckets sum exactly to ``stats.cycles``."""
        if self._finished:
            return
        self._finished = True
        self.close_span()
        self.total_cycles = stats.cycles
        buckets = self.buckets
        for row in self._functions.values():
            for category, cycles in zip(PROFILE_CATEGORIES, row[:_INSTS]):
                buckets[category] += cycles
            self.instructions += row[_INSTS]
        buckets["patching"] += stats.cycles - sum(buckets.values())

    def assert_reconciles(self, stats) -> None:
        """Raise unless the buckets sum exactly to ``stats.cycles``."""
        total = sum(self.buckets.values())
        if total != stats.cycles:
            raise AssertionError(
                f"profile buckets sum to {total}, InterpStats.cycles is "
                f"{stats.cycles} (drift {total - stats.cycles:+d})"
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def functions(self) -> Dict[str, dict]:
        out = {}
        for name, row in sorted(
            self._functions.items(), key=lambda kv: -sum(kv[1][:_INSTS])
        ):
            out[name] = {
                "app": row[_APP],
                "guard": row[_GUARD],
                "tracking": row[_TRACK],
                "mmu_tlb": row[_MMU],
                "page_fault": row[_FAULT],
                "tier": row[_TIER],
                "cycles": sum(row[:_INSTS]),
                "instructions": row[_INSTS],
            }
        return out

    def sites(self) -> Dict[str, dict]:
        return {
            label: {"guards": site[0], "guard_cycles": site[1]}
            for label, site in sorted(
                self._sites.items(), key=lambda kv: -kv[1][1]
            )
        }

    def to_dict(self) -> dict:
        return {
            "schema": "carat.profile.v1",
            "pid": self.pid,
            "total_cycles": self.total_cycles,
            "instructions": self.instructions,
            "buckets": dict(self.buckets),
            "functions": self.functions(),
            "sites": self.sites(),
        }

    def report(self) -> str:
        """A human-readable bucket/function/site table."""
        lines = []
        total = self.total_cycles or 1
        lines.append(f"{'bucket':<12} {'cycles':>14} {'share':>8}")
        for category in PROFILE_CATEGORIES:
            cycles = self.buckets[category]
            if not cycles:
                continue
            lines.append(
                f"{category:<12} {cycles:>14,} {100.0 * cycles / total:>7.2f}%"
            )
        lines.append(f"{'total':<12} {self.total_cycles:>14,} {'100.00%':>8}")
        functions = self.functions()
        if functions:
            lines.append("")
            lines.append(
                f"{'function':<24} {'cycles':>14} {'guard':>12} {'insts':>12}"
            )
            for name, row in list(functions.items())[:12]:
                lines.append(
                    f"@{name:<23} {row['cycles']:>14,} "
                    f"{row['guard']:>12,} {row['instructions']:>12,}"
                )
        sites = self.sites()
        if sites:
            lines.append("")
            lines.append(f"{'allocation site':<28} {'guards':>12} {'cycles':>14}")
            for label, site in list(sites.items())[:12]:
                lines.append(
                    f"{label:<28} {site['guards']:>12,} "
                    f"{site['guard_cycles']:>14,}"
                )
        return "\n".join(lines)
