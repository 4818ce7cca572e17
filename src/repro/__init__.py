"""repro — a reproduction of CARAT (PLDI 2020).

CARAT (Compiler- And Runtime-based Address Translation) replaces
hardware-paged virtual memory with a compiler/kernel co-design: compiled
programs run on *physical* addresses, protection comes from
compiler-injected (and aggressively optimized) guards, and mapping
changes are executed by patching pointers through runtime tracking
structures.

Quickstart::

    from repro import CaratSession, RunConfig

    session = CaratSession(RunConfig(mode="carat", engine="fast"))
    result = session.run(minic_source)
    print(result.output, result.cycles)

The packages:

* :mod:`repro.ir` / :mod:`repro.frontend` — the SSA IR and the Mini-C
  compiler the workloads are written in;
* :mod:`repro.analysis` / :mod:`repro.transform` — the compiler analyses
  and generic optimizations the CARAT passes build on;
* :mod:`repro.carat` — the paper's contribution: guard injection + three
  guard optimizations, allocation/escape tracking, signing;
* :mod:`repro.runtime` — the Allocation Table, escape map, region
  guards, and the pointer patcher;
* :mod:`repro.kernel` — physical memory, page tables, TLBs/MMU, loader,
  and the change-request protocol;
* :mod:`repro.machine` — the interpreter and cost model;
* :mod:`repro.workloads` — the benchmark suite stand-ins.
"""

from repro.carat.pipeline import (
    CaratBinary,
    CompileOptions,
    compile_baseline,
    compile_carat,
)
from repro.frontend.lower import compile_source

__version__ = "0.1.0"

__all__ = [
    "CaratBinary",
    "CompileOptions",
    "compile_baseline",
    "compile_carat",
    "compile_source",
    "CaratSession",
    "RunConfig",
    "__version__",
]


def __getattr__(name: str):
    # Executor/session helpers are lazy: they pull in the kernel/machine
    # stack, which imports back into the compiler packages above.
    if name == "RunResult":
        from repro.machine import executor

        value = getattr(executor, name)
        globals()[name] = value
        return value
    if name in ("CaratSession", "RunConfig"):
        from repro.machine import session

        value = getattr(session, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
