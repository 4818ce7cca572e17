"""The CARAT compilation pipeline: Mini-C (or raw IR) in, signed binary out.

Mirrors Figure 1(b)'s compile-time flow:

1. frontend -> IR, with source restrictions enforced (sema + IR re-check);
2. general optimizations (the clang -O2 stand-in);
3. **transform**: allocation/escape tracking injection;
4. **guard injection** followed by the CARAT-specific guard optimizations;
5. link against the runtime (here: intrinsic declarations — the runtime
   itself lives in :mod:`repro.runtime` and is bound at load time);
6. sign the binary with the toolchain key.

Use :func:`compile_carat` for the full treatment and
:func:`compile_baseline` for the uninstrumented comparison binary used by
every overhead experiment.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.carat.guard_opt import GuardOptStats, optimize_guards
from repro.carat.guards import GuardTable, inject_guards
from repro.carat.restrictions import check_restrictions
from repro.carat.signing import DEFAULT_TOOLCHAIN, Signature, sign_module
from repro.carat.tracking import TrackingStats, inject_tracking
from repro.frontend.lower import compile_source
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.transform.pass_manager import (
    module_instruction_count,
    optimize_module,
)


@dataclass
class CompileOptions:
    """Knobs for the pipeline; the defaults give the full CARAT treatment.

    The experiment harness flips these to build the configurations the
    paper compares: baseline (guards=False, tracking=False), guards with
    general opts only (carat_guard_opts=False, Figure 3a), guards with
    CARAT opts (Figure 3b), tracking only (Figures 6/7), and so on.
    """

    optimize: bool = True
    guards: bool = True
    carat_guard_opts: bool = True
    tracking: bool = True
    sign: bool = True
    #: Verify the compiler's output (the final module, before it is
    #: signed) and the module the optimizer is handed.  Without it the
    #: frontend still verifies its own output.  Per-pass checks are a
    #: debugging aid (``optimize_module(verify=True)``), as
    #: ``opt -verify-each`` is in LLVM, and are not part of a compile.
    verify: bool = True
    toolchain: str = DEFAULT_TOOLCHAIN


@dataclass
class CaratBinary:
    """A compiled, optionally signed, CARAT program image."""

    module: Module
    signature: Optional[Signature]
    guard_table: GuardTable
    guard_stats: GuardOptStats
    tracking_stats: TrackingStats
    options: CompileOptions
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.module.name

    @property
    def is_signed(self) -> bool:
        return self.signature is not None


@contextmanager
def _phase(tracer, name: str, module: Module):
    """A compiler-phase span carrying the IR instruction-count delta
    (yields a throwaway dict when no tracer is attached)."""
    if tracer is None:
        yield {}
        return
    size_before = module_instruction_count(module)
    with tracer.span(f"phase.{name}", "compiler") as end_args:
        try:
            yield end_args
        finally:
            end_args["ir_delta"] = (
                module_instruction_count(module) - size_before
            )


def compile_carat(
    program: Union[str, Module],
    options: Optional[CompileOptions] = None,
    module_name: str = "program",
    tracer=None,
) -> CaratBinary:
    """Compile Mini-C source (or an already-built module) under CARAT.

    With ``options.verify`` the IR is verified at the pipeline's two
    boundaries: where it enters the optimizer and as the final module,
    before it is signed.  The entry check stands in for the frontend's own
    (:func:`compile_source`), which runs only when the optimizer's does
    not, so a compile from source verifies twice.  A module that fails
    either check raises :class:`~repro.errors.VerificationError` and is
    never signed.

    With a :class:`~repro.telemetry.Tracer`, every phase (and every pass
    inside the optimization phase) becomes a ``compiler`` span with its
    IR instruction-count delta.
    """
    options = options or CompileOptions()
    optimizer_verifies = options.optimize and options.verify
    if isinstance(program, str):
        if tracer is not None:
            with tracer.span("phase.frontend", "compiler") as end_args:
                module = compile_source(
                    program, module_name, verify=not optimizer_verifies
                )
                end_args["ir_size"] = module_instruction_count(module)
        else:
            module = compile_source(
                program, module_name, verify=not optimizer_verifies
            )
    else:
        module = program
    with _phase(tracer, "restrictions", module):
        check_restrictions(module)

    if options.optimize:
        with _phase(tracer, "optimize", module):
            optimize_module(
                module, tracer=tracer, verify_input=optimizer_verifies
            )

    # Tracking is injected before guards so tracking callbacks themselves
    # are never guarded (they are trusted runtime entry points).
    tracking_stats = TrackingStats()
    if options.tracking:
        with _phase(tracer, "inject-tracking", module) as end_args:
            tracking_stats = inject_tracking(module)
            end_args["callbacks"] = tracking_stats.total

    guard_table = GuardTable()
    guard_stats = GuardOptStats()
    if options.guards:
        with _phase(tracer, "inject-guards", module) as end_args:
            inject_guards(module, guard_table)
            end_args["guards"] = guard_table.total
        if options.carat_guard_opts:
            with _phase(tracer, "optimize-guards", module) as end_args:
                guard_stats = optimize_guards(module, guard_table)
                end_args["remaining"] = guard_stats.remaining
        else:
            guard_stats = GuardOptStats(
                total=guard_table.total, untouched=guard_table.total
            )

    if options.verify:
        with _phase(tracer, "verify", module):
            verify_module(module)

    metadata: Dict[str, object] = {
        "module": module.name,
        "guards_total": guard_table.total,
        "guards_remaining": guard_stats.remaining if options.guards else 0,
        "tracking_callbacks": tracking_stats.total,
        "toolchain": options.toolchain,
    }
    signature = (
        sign_module(module, metadata, options.toolchain) if options.sign else None
    )
    return CaratBinary(
        module=module,
        signature=signature,
        guard_table=guard_table,
        guard_stats=guard_stats,
        tracking_stats=tracking_stats,
        options=options,
        metadata=metadata,
    )


def compile_baseline(
    program: Union[str, Module], module_name: str = "program", tracer=None
) -> CaratBinary:
    """The uninstrumented baseline: general optimizations only."""
    return compile_carat(
        program,
        CompileOptions(guards=False, tracking=False, sign=True),
        module_name,
        tracer=tracer,
    )
