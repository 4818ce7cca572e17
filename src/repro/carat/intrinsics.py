"""CARAT runtime intrinsics: the compiler <-> runtime ABI.

The injected instrumentation calls these well-known functions.  They are
declared vararg so any pointer type can be passed without cast clutter;
the interpreter recognizes them by name and dispatches straight into the
:class:`~repro.runtime.runtime.CaratRuntime`, charging costs from the
machine cost model instead of executing a body.

Guard intrinsics (protection, Section 4.1.1):

* ``carat.guard.load(ptr, size)``  — validate a data read
* ``carat.guard.store(ptr, size)`` — validate a data write
* ``carat.guard.call(frame_size)`` — validate the callee's stack frame
* ``carat.guard.range(ptr, length)`` — merged guard over a byte range;
  a ``length`` of zero always passes (emitted by Opt-2 for loops whose
  trip count may be zero)

Tracking intrinsics (mapping, Section 4.1.2):

* ``carat.alloc(ptr, size)`` — a new allocation exists
* ``carat.free(ptr)``        — an allocation is gone
* ``carat.escape(location)`` — a pointer was just stored at ``location``
"""

from __future__ import annotations

from repro.ir.module import Function, Module
from repro.ir.types import FunctionType, VOID

GUARD_LOAD = "carat.guard.load"
GUARD_STORE = "carat.guard.store"
GUARD_CALL = "carat.guard.call"
GUARD_RANGE = "carat.guard.range"
TRACK_ALLOC = "carat.alloc"
TRACK_FREE = "carat.free"
TRACK_ESCAPE = "carat.escape"

GUARD_INTRINSICS = frozenset({GUARD_LOAD, GUARD_STORE, GUARD_CALL, GUARD_RANGE})
TRACKING_INTRINSICS = frozenset({TRACK_ALLOC, TRACK_FREE, TRACK_ESCAPE})
ALL_INTRINSICS = GUARD_INTRINSICS | TRACKING_INTRINSICS

#: Default worst-case callee frame footprint, in bytes, charged by call
#: guards when the callee's frame cannot be computed (external functions).
DEFAULT_FRAME_SIZE = 256

#: Fixed per-call overhead: return address plus saved registers.
CALL_OVERHEAD_BYTES = 32


def declare_intrinsic(module: Module, name: str) -> Function:
    """Get-or-declare one CARAT intrinsic on ``module``."""
    if name not in ALL_INTRINSICS:
        raise ValueError(f"not a CARAT intrinsic: {name!r}")
    return module.get_or_declare(name, FunctionType(VOID, [], vararg=True))


def is_guard_call(inst) -> bool:
    from repro.ir.instructions import CallInst

    return (
        isinstance(inst, CallInst)
        and inst.callee_name is not None
        and inst.callee_name in GUARD_INTRINSICS
    )


def is_tracking_call(inst) -> bool:
    from repro.ir.instructions import CallInst

    return (
        isinstance(inst, CallInst)
        and inst.callee_name is not None
        and inst.callee_name in TRACKING_INTRINSICS
    )


def is_carat_call(inst) -> bool:
    return is_guard_call(inst) or is_tracking_call(inst)
