"""Guard injection (Section 4.1.1, first half).

Conceptually every load, store, and call gets a guard validating its
address range against the kernel-supplied region set:

* loads/stores  -> ``carat.guard.load/store(ptr, size)`` *before* the access;
* calls         -> ``carat.guard.call(frame_size)`` before the call, where
  ``frame_size`` is the static maximum stack footprint of the callee
  (its allocas + fixed call overhead), verifying that the callee's pushes
  and prologue/epilogue accesses stay inside a valid region.

Each guard gets a stable integer id (stored in a side table keyed by the
call instruction) so the optimizer can attribute every original guard to
exactly one fate — untouched / hoisted / merged / eliminated — which is
what Table 1 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.carat.intrinsics import (
    CALL_OVERHEAD_BYTES,
    DEFAULT_FRAME_SIZE,
    GUARD_CALL,
    GUARD_LOAD,
    GUARD_STORE,
    declare_intrinsic,
    is_carat_call,
)
from repro.ir.builder import IRBuilder
from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    Instruction,
    LoadInst,
    StoreInst,
)
from repro.ir.module import Function, Module
from repro.ir.types import I64, stride_of
from repro.ir.values import ConstantInt, Value


@dataclass
class GuardRecord:
    """Provenance of one injected guard."""

    guard_id: int
    kind: str  # 'load' | 'store' | 'call'
    function: str
    #: Fate assigned by the optimizer: 'untouched', 'hoisted', 'merged',
    #: 'eliminated'.  Starts as 'untouched'.
    fate: str = "untouched"


@dataclass
class GuardTable:
    """Side table mapping guard call instructions to their records."""

    records: Dict[int, GuardRecord] = field(default_factory=dict)
    by_inst: Dict[int, int] = field(default_factory=dict)  # id(inst) -> guard_id
    _next_id: int = 0

    def register(self, inst: CallInst, kind: str, function: str) -> GuardRecord:
        record = GuardRecord(self._next_id, kind, function)
        self.records[record.guard_id] = record
        self.by_inst[id(inst)] = record.guard_id
        self._next_id += 1
        return record

    def record_for(self, inst: Instruction) -> Optional[GuardRecord]:
        guard_id = self.by_inst.get(id(inst))
        if guard_id is None:
            return None
        return self.records[guard_id]

    def transfer(self, old_inst: Instruction, new_inst: Instruction) -> None:
        """Re-key a record when the optimizer replaces a guard instruction."""
        guard_id = self.by_inst.pop(id(old_inst), None)
        if guard_id is not None:
            self.by_inst[id(new_inst)] = guard_id

    @property
    def total(self) -> int:
        return len(self.records)

    def count_fate(self, fate: str) -> int:
        return sum(1 for r in self.records.values() if r.fate == fate)


def max_stack_footprint(fn: Function) -> int:
    """Static worst-case frame size of ``fn``: every static alloca plus the
    fixed call overhead.  Dynamic allocas make the frame unbounded, so they
    fall back to the default (their guard can never be elided)."""
    if fn.is_declaration:
        return DEFAULT_FRAME_SIZE
    total = CALL_OVERHEAD_BYTES
    for inst in fn.instructions():
        if isinstance(inst, AllocaInst):
            size = inst.allocation_size()
            if size is None:
                return DEFAULT_FRAME_SIZE
            total += size
    return total


def inject_guards(module: Module, table: Optional[GuardTable] = None) -> GuardTable:
    """Inject a guard before every load, store, and call in ``module``.

    Returns the guard table for downstream optimization and statistics.
    """
    if table is None:
        table = GuardTable()
    guard_load = declare_intrinsic(module, GUARD_LOAD)
    guard_store = declare_intrinsic(module, GUARD_STORE)
    guard_call = declare_intrinsic(module, GUARD_CALL)
    builder = IRBuilder()

    for fn in module.defined_functions():
        for block in fn.blocks:
            for inst in list(block.instructions):
                if is_carat_call(inst):
                    continue
                if isinstance(inst, LoadInst):
                    builder.position_before(inst)
                    guard = builder.call(
                        guard_load,
                        [inst.pointer, ConstantInt(I64, inst.access_size())],
                    )
                    table.register(guard, "load", fn.name)
                elif isinstance(inst, StoreInst):
                    builder.position_before(inst)
                    guard = builder.call(
                        guard_store,
                        [inst.pointer, ConstantInt(I64, inst.access_size())],
                    )
                    table.register(guard, "store", fn.name)
                elif isinstance(inst, CallInst):
                    frame = _callee_frame_size(module, inst)
                    builder.position_before(inst)
                    guard = builder.call(
                        guard_call, [ConstantInt(I64, frame)]
                    )
                    table.register(guard, "call", fn.name)
    return table


def _callee_frame_size(module: Module, call: CallInst) -> int:
    name = call.callee_name
    if name is None:
        return DEFAULT_FRAME_SIZE
    callee = module.functions.get(name)
    if callee is None or callee.is_declaration:
        return DEFAULT_FRAME_SIZE
    return max_stack_footprint(callee)
