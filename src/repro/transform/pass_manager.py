"""Pass manager: named module passes, ordering, and statistics.

Thin by design — passes are plain callables ``Module -> int`` (returning a
change count).  The manager records per-pass change counts and optionally
verifies the module it is handed (``verify_input``, as ``opt`` refuses a
broken input module) and the module after each pass
(``verify_after_each``, LLVM's ``opt -verify-each``).  A compile verifies
the optimizer's input and the final module; the test suite switches
per-pass checks on to catch pass bugs at their source.

With a :class:`~repro.telemetry.Tracer` attached (``tracer=``), every
pass becomes a ``compiler`` span carrying its change count and the IR
instruction-count delta it produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.ir.module import Module
from repro.ir.verifier import verify_module

ModulePass = Callable[[Module], int]


def module_instruction_count(module: Module) -> int:
    """Total instructions across all function bodies — the IR size metric
    reported in per-pass trace spans."""
    total = 0
    for function in module.functions.values():
        for block in function.blocks:
            total += len(block.instructions)
    return total


@dataclass
class PassResult:
    name: str
    changes: int


@dataclass
class PassManager:
    verify_input: bool = False
    verify_after_each: bool = False
    _passes: List[tuple] = field(default_factory=list)
    results: List[PassResult] = field(default_factory=list)
    #: Optional :class:`~repro.telemetry.Tracer` for per-pass spans.
    tracer: Optional[object] = None

    def add(self, name: str, module_pass: ModulePass) -> "PassManager":
        self._passes.append((name, module_pass))
        return self

    def run(self, module: Module) -> Dict[str, int]:
        self.results = []
        tracer = self.tracer
        if self.verify_input:
            verify_module(module)
        for name, module_pass in self._passes:
            if tracer is not None:
                size_before = module_instruction_count(module)
                with tracer.span(f"pass.{name}", "compiler") as end_args:
                    changes = module_pass(module)
                    end_args["changes"] = changes
                    end_args["ir_delta"] = (
                        module_instruction_count(module) - size_before
                    )
            else:
                changes = module_pass(module)
            self.results.append(PassResult(name, changes))
            if self.verify_after_each:
                try:
                    verify_module(module)
                except Exception as exc:  # re-raise with pass attribution
                    raise type(exc)(f"after pass {name!r}: {exc}") from exc
        return {r.name: r.changes for r in self.results}


def standard_optimization_pipeline(
    verify: bool = False, tracer=None, verify_input: bool = False
) -> PassManager:
    """The "general optimizations" pipeline (the -O2 stand-in used as the
    baseline in Figure 3(a)): SSA construction, simplification, DCE, LICM,
    then one more cleanup round."""
    from repro.transform import dce, licm, mem2reg, simplify

    pm = PassManager(
        verify_input=verify_input, verify_after_each=verify, tracer=tracer
    )
    pm.add("mem2reg", mem2reg.run_on_module)
    pm.add("simplify", simplify.run_on_module)
    pm.add("dce", dce.run_on_module)
    pm.add("licm", licm.run_on_module)
    pm.add("simplify.2", simplify.run_on_module)
    pm.add("dce.2", dce.run_on_module)
    return pm


def optimize_module(
    module: Module, verify: bool = False, tracer=None, verify_input: bool = False
) -> Dict[str, int]:
    """Run the standard pipeline over ``module`` and return change counts."""
    return standard_optimization_pipeline(
        verify, tracer=tracer, verify_input=verify_input
    ).run(module)
