"""Loop-invariant code motion.

Hoists computations whose operands are loop-invariant into the loop
preheader.  Pure instructions (arithmetic, comparisons, casts, GEPs,
selects) hoist whenever their operands are invariant and their block
dominates all loop exits *or* the instruction is speculatable.  Loads
hoist when, additionally, the alias chain proves nothing in the loop may
write the location.  That writer query is the one question the paper's
"PD analysis" answers for loop-invariance detection (Section 4.1,
Optimization 1), so it is asked directly instead of through a dependence
graph.

This pass represents the "readily-available compiler optimizations" of
Figure 3(a); the CARAT-specific guard optimizations build on the same
analyses but live in :mod:`repro.carat.guard_opt`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.alias import (
    ALLOCATION_FUNCTIONS,
    AliasAnalysis,
    AliasResult,
    ChainedAliasAnalysis,
    _address_escapes,
    underlying_object,
)
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import Loop, LoopInfo
from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from repro.ir.module import Function, Module
from repro.ir.values import Value


_SPECULATABLE_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "and",
        "or",
        "xor",
        "shl",
        "lshr",
        "ashr",
        "fadd",
        "fsub",
        "fmul",
        "icmp",
        "fcmp",
        "getelementptr",
        "select",
        "bitcast",
        "ptrtoint",
        "inttoptr",
        "trunc",
        "zext",
        "sext",
        "sitofp",
        "fptosi",
    }
)


def _is_invariant_operand(value: Value, loop: Loop) -> bool:
    if isinstance(value, Instruction):
        return value.parent is not None and value.parent not in loop.blocks
    return True  # constants, arguments, globals, functions


def _is_hoistable_pure(inst: Instruction, loop: Loop) -> bool:
    if inst.opcode not in _SPECULATABLE_OPS:
        return False
    if isinstance(inst, PhiInst):
        return False
    return all(_is_invariant_operand(op, loop) for op in inst.operands)


def may_write_to(
    aa: AliasAnalysis, writer: Instruction, pointer: Value, size: int = 0
) -> bool:
    """Could ``writer`` modify the bytes addressed by ``pointer``?"""
    if isinstance(writer, StoreInst):
        result = aa.alias(writer.pointer, pointer, writer.access_size(), size)
        return result is not AliasResult.NO_ALIAS
    if isinstance(writer, CallInst):
        if writer.is_readonly_call() or writer.is_intrinsic():
            return False
        name = writer.callee_name
        if name in ALLOCATION_FUNCTIONS:
            return False  # fresh memory cannot overlap existing pointers
        if name == "free":
            return True
        # An opaque call can write anything reachable from escaped
        # pointers; a non-escaping local object is safe.
        base = underlying_object(pointer)
        if isinstance(base, AllocaInst) and not _address_escapes(base):
            return False
        return True
    return writer.may_write_memory()


def writers_in_loop(
    aa: AliasAnalysis, loop: Loop, pointer: Value, size: int = 0
) -> List[Instruction]:
    """All instructions inside ``loop`` that may modify ``*pointer``."""
    return [
        inst
        for inst in loop.instructions()
        if inst.may_write_memory() and may_write_to(aa, inst, pointer, size)
    ]


def _is_hoistable_load(
    inst: LoadInst, loop: Loop, aa: AliasAnalysis, domtree: DominatorTree
) -> bool:
    if not _is_invariant_operand(inst.pointer, loop):
        return False
    if writers_in_loop(aa, loop, inst.pointer, inst.access_size()):
        return False
    # The load must execute on every complete iteration to be hoisted
    # safely (it could fault if speculated); require that its block
    # dominates every latch.
    block = inst.parent
    assert block is not None
    return all(domtree.dominates(block, latch) for latch in loop.latches)


def hoist_loop_invariants(fn: Function) -> int:
    """Run LICM over all loops of ``fn`` (innermost first).  Returns the
    number of instructions hoisted."""
    if fn.is_declaration:
        return 0
    hoisted_total = 0
    aa: Optional[AliasAnalysis] = None
    # Loop structure changes as preheaders are created, so iterate until
    # no more hoisting happens (bounded by instruction count).
    for _ in range(10):
        domtree = DominatorTree.compute(fn)
        loop_info = LoopInfo.compute(fn, domtree)
        if not loop_info.loops:
            return hoisted_total
        # One alias chain serves every round.  A round only moves existing
        # instructions, so their points-to sets stay valid; the one value
        # it can add, a preheader merge phi, is one the points-to solver
        # never saw, and it answers may-alias for those.
        if aa is None:
            aa = ChainedAliasAnalysis.standard(fn)
        hoisted_this_round = 0
        for loop in sorted(loop_info.loops, key=lambda l: -l.depth):
            hoisted_this_round += _hoist_in_loop(fn, loop, loop_info, aa, domtree)
        hoisted_total += hoisted_this_round
        if not hoisted_this_round:
            break
    return hoisted_total


def _hoist_in_loop(
    fn: Function,
    loop: Loop,
    loop_info: LoopInfo,
    aa: AliasAnalysis,
    domtree: DominatorTree,
) -> int:
    candidates: List[Instruction] = []
    for block in loop.blocks:
        for inst in block.instructions:
            if _is_hoistable_pure(inst, loop):
                candidates.append(inst)
            elif isinstance(inst, LoadInst) and _is_hoistable_load(
                inst, loop, aa, domtree
            ):
                candidates.append(inst)
    if not candidates:
        return 0
    preheader = loop_info.ensure_preheader(loop)
    terminator = preheader.terminator
    assert terminator is not None
    hoisted = 0
    for inst in candidates:
        block = inst.parent
        if block is None:
            continue
        block.remove(inst)
        preheader.insert_before(terminator, inst)
        hoisted += 1
    return hoisted


def run_on_module(module: Module) -> int:
    return sum(hoist_loop_invariants(fn) for fn in module.defined_functions())
