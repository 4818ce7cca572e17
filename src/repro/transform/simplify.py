"""Instruction simplification: constant folding and algebraic identities.

A local peephole pass: fold operations on constants, apply identities
(``x+0``, ``x*1``, ``x*0``, ``x-x``...), resolve constant comparisons and
selects, and collapse conditional branches on constant conditions (which
exposes dead blocks to DCE).  Runs to a fixed point per function.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.instructions import (
    BinaryInst,
    BranchInst,
    CastInst,
    FCmpInst,
    ICmpInst,
    Instruction,
    SelectInst,
)
from repro.ir.module import Function, Module
from repro.ir.types import I1, IntType
from repro.ir.values import ConstantFloat, ConstantInt, Value


def _truncated_quotient(a: int, b: int) -> int:
    """``a / b`` rounded toward zero, in exact integer arithmetic (a float
    quotient is wrong past 2**53): floor division when the signs agree,
    ceiling division when they differ."""
    return -(-a // b) if (a < 0) != (b < 0) else a // b


def fold_int_binop(op: str, ty: IntType, a: int, b: int) -> Optional[int]:
    if op == "add":
        return ty.wrap(a + b)
    if op == "sub":
        return ty.wrap(a - b)
    if op == "mul":
        return ty.wrap(a * b)
    if op == "sdiv":
        if b == 0:
            return None
        return ty.wrap(_truncated_quotient(a, b))
    if op == "udiv":
        if b == 0:
            return None
        return ty.wrap(ty.wrap_unsigned(a) // ty.wrap_unsigned(b))
    if op == "srem":
        if b == 0:
            return None
        return ty.wrap(a - _truncated_quotient(a, b) * b)
    if op == "urem":
        if b == 0:
            return None
        return ty.wrap(ty.wrap_unsigned(a) % ty.wrap_unsigned(b))
    if op == "and":
        return ty.wrap(a & b)
    if op == "or":
        return ty.wrap(a | b)
    if op == "xor":
        return ty.wrap(a ^ b)
    if op == "shl":
        if not 0 <= b < ty.bits:
            return None
        return ty.wrap(a << b)
    if op == "lshr":
        if not 0 <= b < ty.bits:
            return None
        return ty.wrap(ty.wrap_unsigned(a) >> b)
    if op == "ashr":
        if not 0 <= b < ty.bits:
            return None
        return ty.wrap(a >> b)
    return None


def fold_icmp(pred: str, a: int, b: int, bits: int) -> bool:
    ua = a & ((1 << bits) - 1)
    ub = b & ((1 << bits) - 1)
    table = {
        "eq": a == b,
        "ne": a != b,
        "slt": a < b,
        "sle": a <= b,
        "sgt": a > b,
        "sge": a >= b,
        "ult": ua < ub,
        "ule": ua <= ub,
        "ugt": ua > ub,
        "uge": ua >= ub,
    }
    return table[pred]


def _simplify_instruction(inst: Instruction) -> Optional[Value]:
    """Return a replacement value, or None when nothing simplifies."""
    if isinstance(inst, BinaryInst):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            assert isinstance(inst.type, IntType)
            folded = fold_int_binop(inst.opcode, inst.type, lhs.value, rhs.value)
            if folded is not None:
                return ConstantInt(inst.type, folded)
        if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
            folded_f = _fold_float(inst.opcode, lhs.value, rhs.value)
            if folded_f is not None:
                from repro.ir.types import FloatType

                assert isinstance(inst.type, FloatType)
                return ConstantFloat(inst.type, folded_f)
        # Canonicalize constant to the right for commutative ops.
        if inst.is_commutative and isinstance(lhs, ConstantInt) and not isinstance(rhs, ConstantInt):
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            lhs, rhs = inst.lhs, inst.rhs
        if isinstance(rhs, ConstantInt):
            c = rhs.value
            if inst.opcode in ("add", "sub", "or", "xor", "shl", "lshr", "ashr") and c == 0:
                return lhs
            if inst.opcode == "mul":
                if c == 1:
                    return lhs
                if c == 0:
                    return rhs
            if inst.opcode in ("sdiv", "udiv") and c == 1:
                return lhs
            if inst.opcode == "and":
                if c == 0:
                    return rhs
                assert isinstance(inst.type, IntType)
                if c == inst.type.wrap(-1):
                    return lhs
        if inst.opcode == "sub" and lhs is rhs:
            assert isinstance(inst.type, IntType)
            return ConstantInt(inst.type, 0)
        if inst.opcode == "xor" and lhs is rhs:
            assert isinstance(inst.type, IntType)
            return ConstantInt(inst.type, 0)
        return None
    if isinstance(inst, ICmpInst):
        lhs, rhs = inst.lhs, inst.rhs
        # (icmp ne (zext i1 %x), 0) -> %x  — produced by condition lowering.
        if (
            inst.predicate == "ne"
            and isinstance(rhs, ConstantInt)
            and rhs.value == 0
            and isinstance(lhs, CastInst)
            and lhs.opcode == "zext"
            and lhs.value.type == I1
        ):
            return lhs.value
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            assert isinstance(lhs.type, IntType)
            return ConstantInt(
                I1, int(fold_icmp(inst.predicate, lhs.value, rhs.value, lhs.type.bits))
            )
        if lhs is rhs:
            return ConstantInt(I1, int(inst.predicate in ("eq", "sle", "sge", "ule", "uge")))
        return None
    if isinstance(inst, FCmpInst):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
            table = {
                "oeq": lhs.value == rhs.value,
                "one": lhs.value != rhs.value,
                "olt": lhs.value < rhs.value,
                "ole": lhs.value <= rhs.value,
                "ogt": lhs.value > rhs.value,
                "oge": lhs.value >= rhs.value,
            }
            return ConstantInt(I1, int(table[inst.predicate]))
        return None
    if isinstance(inst, SelectInst):
        if isinstance(inst.condition, ConstantInt):
            return inst.true_value if inst.condition.value else inst.false_value
        if inst.true_value is inst.false_value:
            return inst.true_value
        return None
    if isinstance(inst, CastInst):
        value = inst.value
        if isinstance(value, ConstantInt) and isinstance(inst.type, IntType):
            if inst.opcode in ("trunc", "zext", "sext"):
                src_ty = value.type
                assert isinstance(src_ty, IntType)
                if inst.opcode == "zext":
                    return ConstantInt(inst.type, src_ty.wrap_unsigned(value.value))
                return ConstantInt(inst.type, value.value)
        return None
    return None


def _fold_float(op: str, a: float, b: float) -> Optional[float]:
    try:
        if op == "fadd":
            return a + b
        if op == "fsub":
            return a - b
        if op == "fmul":
            return a * b
        if op == "fdiv":
            return a / b if b != 0 else None
        if op == "frem":
            import math

            return math.fmod(a, b) if b != 0 else None
    except OverflowError:
        return None
    return None


def _fold_constant_branches(fn: Function) -> int:
    """Turn ``br i1 <const>, %a, %b`` into an unconditional branch."""
    changed = 0
    for block in fn.blocks:
        term = block.terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            continue
        cond = term.condition
        if not isinstance(cond, ConstantInt):
            continue
        then_bb, else_bb = term.targets
        taken = then_bb if cond.value else else_bb
        not_taken = else_bb if cond.value else then_bb
        if taken is not not_taken:
            for phi in not_taken.phis():
                if any(b is block for _, b in phi.incoming):
                    phi.remove_incoming(block)
        block.remove(term)
        term.drop_all_operands()
        new_term = BranchInst(taken)
        block.append(new_term)
        changed += 1
    return changed


def run_on_function(fn: Function) -> int:
    total = 0
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            for inst in list(block.instructions):
                replacement = _simplify_instruction(inst)
                if replacement is not None and replacement is not inst:
                    inst.replace_all_uses_with(replacement)
                    if inst.num_uses == 0 and not inst.is_terminator:
                        inst.erase_from_parent()
                    total += 1
                    changed = True
        folded = _fold_constant_branches(fn)
        if folded:
            total += folded
            changed = True
    return total


def run_on_module(module: Module) -> int:
    return sum(run_on_function(fn) for fn in module.defined_functions())
