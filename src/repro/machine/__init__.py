"""The machine: interpreter, cost model, and execution helpers.

* :mod:`repro.machine.costs` — the calibrated cycle cost model
* :mod:`repro.machine.interp` — the reference IR interpreter (both modes)
* :mod:`repro.machine.fastexec` — the pre-compiled fast execution engine
* :mod:`repro.machine.executor` — engine registry + RunResult
* :mod:`repro.machine.session` — the session API: RunConfig + CaratSession

The executor/interpreter names are loaded lazily (PEP 562) because the
kernel package imports :mod:`repro.machine.costs` while the executor
imports the kernel — eager re-export would be a cycle.
"""

from repro.machine.costs import DEFAULT_COSTS, CostModel

__all__ = [
    "DEFAULT_COSTS",
    "CostModel",
    "CaratSession",
    "RunConfig",
    "RunResult",
    "ENGINES",
    "ExitProgram",
    "FastInterpreter",
    "Interpreter",
    "InterpStats",
    "ThreadGroup",
    "ThreadSpec",
]

_LAZY = {
    "CaratSession": "repro.machine.session",
    "RunConfig": "repro.machine.session",
    "RunResult": "repro.machine.executor",
    "ENGINES": "repro.machine.executor",
    "ExitProgram": "repro.machine.interp",
    "FastInterpreter": "repro.machine.fastexec",
    "Interpreter": "repro.machine.interp",
    "InterpStats": "repro.machine.interp",
    "ThreadGroup": "repro.machine.threads",
    "ThreadSpec": "repro.machine.threads",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
