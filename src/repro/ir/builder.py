"""Convenience builder for constructing IR.

The builder holds an insertion point (a block, optionally a position within
it) and exposes one method per instruction.  Values are auto-named from a
per-function counter so that printed IR is readable and unique.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.errors import IRError
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.types import FloatType, IntType, Type, F64, I1, I64
from repro.ir.values import ConstantFloat, ConstantInt, Value


class IRBuilder:
    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self._block = block
        self._anchor: Optional[Instruction] = None  # insert before this

    # -- positioning -----------------------------------------------------------

    @property
    def block(self) -> BasicBlock:
        if self._block is None:
            raise IRError("builder has no insertion block")
        return self._block

    @property
    def function(self) -> Function:
        return self.block.parent

    def position_at_end(self, block: BasicBlock) -> None:
        self._block = block
        self._anchor = None

    def position_before(self, inst: Instruction) -> None:
        if inst.parent is None:
            raise IRError("cannot position before a detached instruction")
        self._block = inst.parent
        self._anchor = inst

    def position_at_start(self, block: BasicBlock) -> None:
        self._block = block
        self._anchor = block.instructions[0] if block.instructions else None

    # -- insertion core ----------------------------------------------------------

    def _insert(self, inst: Instruction, name: str = "") -> Instruction:
        if name:
            inst.name = self.function.unique_name(name)
        elif not inst.type.is_void and not inst.name:
            inst.name = self.function.unique_name("v")
        if self._anchor is not None:
            self.block.insert_before(self._anchor, inst)
        else:
            self.block.append(inst)
        return inst

    # -- constants ---------------------------------------------------------------

    def const(self, ty: Type, value: Union[int, float]) -> Value:
        if isinstance(ty, IntType):
            return ConstantInt(ty, int(value))
        if isinstance(ty, FloatType):
            return ConstantFloat(ty, float(value))
        raise IRError(f"cannot build a constant of type {ty}")

    def i64(self, value: int) -> ConstantInt:
        return ConstantInt(I64, value)

    def true(self) -> ConstantInt:
        return ConstantInt(I1, 1)

    def false(self) -> ConstantInt:
        return ConstantInt(I1, 0)

    def f64(self, value: float) -> ConstantFloat:
        return ConstantFloat(F64, value)

    # -- memory --------------------------------------------------------------------

    def alloca(
        self, ty: Type, count: Optional[Value] = None, name: str = ""
    ) -> AllocaInst:
        return self._insert(AllocaInst(ty, count), name or "a")  # type: ignore[return-value]

    def load(self, pointer: Value, name: str = "") -> LoadInst:
        return self._insert(LoadInst(pointer), name or "ld")  # type: ignore[return-value]

    def store(self, value: Value, pointer: Value) -> StoreInst:
        return self._insert(StoreInst(value, pointer))  # type: ignore[return-value]

    def gep(self, pointer: Value, indices: Sequence[Value], name: str = "") -> GEPInst:
        return self._insert(GEPInst(pointer, indices), name or "gep")  # type: ignore[return-value]

    # -- arithmetic -------------------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self._insert(BinaryInst(op, lhs, rhs), name or op)  # type: ignore[return-value]

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("sdiv", lhs, rhs, name)

    def srem(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("srem", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("shl", lhs, rhs, name)

    def lshr(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("lshr", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("fadd", lhs, rhs, name)

    def fsub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("fsub", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryInst:
        return self.binop("fdiv", lhs, rhs, name)

    # -- comparisons ---------------------------------------------------------------------

    def icmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> ICmpInst:
        return self._insert(ICmpInst(pred, lhs, rhs), name or "cmp")  # type: ignore[return-value]

    def fcmp(self, pred: str, lhs: Value, rhs: Value, name: str = "") -> FCmpInst:
        return self._insert(FCmpInst(pred, lhs, rhs), name or "fcmp")  # type: ignore[return-value]

    # -- casts -----------------------------------------------------------------------------

    def cast(self, op: str, value: Value, dest: Type, name: str = "") -> CastInst:
        return self._insert(CastInst(op, value, dest), name or op)  # type: ignore[return-value]

    def trunc(self, value: Value, dest: Type, name: str = "") -> CastInst:
        return self.cast("trunc", value, dest, name)

    def zext(self, value: Value, dest: Type, name: str = "") -> CastInst:
        return self.cast("zext", value, dest, name)

    def sext(self, value: Value, dest: Type, name: str = "") -> CastInst:
        return self.cast("sext", value, dest, name)

    def bitcast(self, value: Value, dest: Type, name: str = "") -> CastInst:
        return self.cast("bitcast", value, dest, name)

    def ptrtoint(self, value: Value, dest: Type = I64, name: str = "") -> CastInst:
        return self.cast("ptrtoint", value, dest, name)

    def inttoptr(self, value: Value, dest: Type, name: str = "") -> CastInst:
        return self.cast("inttoptr", value, dest, name)

    def sitofp(self, value: Value, dest: Type = F64, name: str = "") -> CastInst:
        return self.cast("sitofp", value, dest, name)

    def fptosi(self, value: Value, dest: Type = I64, name: str = "") -> CastInst:
        return self.cast("fptosi", value, dest, name)

    # -- control flow ---------------------------------------------------------------------

    def br(self, target: BasicBlock) -> BranchInst:
        return self._insert(BranchInst(target))  # type: ignore[return-value]

    def cond_br(
        self, cond: Value, if_true: BasicBlock, if_false: BasicBlock
    ) -> BranchInst:
        return self._insert(BranchInst(if_true, cond, if_false))  # type: ignore[return-value]

    def ret(self, value: Optional[Value] = None) -> ReturnInst:
        return self._insert(ReturnInst(value))  # type: ignore[return-value]

    def unreachable(self) -> UnreachableInst:
        return self._insert(UnreachableInst())  # type: ignore[return-value]

    # -- misc --------------------------------------------------------------------------------

    def call(self, callee: Value, args: Sequence[Value], name: str = "") -> CallInst:
        inst = CallInst(callee, args)
        hint = name or ("" if inst.type.is_void else "call")
        return self._insert(inst, hint)  # type: ignore[return-value]

    def phi(self, ty: Type, name: str = "") -> PhiInst:
        inst = PhiInst(ty)
        if name:
            inst.name = self.function.unique_name(name)
        else:
            inst.name = self.function.unique_name("phi")
        # Phis must be grouped at the start of the block.
        index = self.block.first_non_phi_index()
        self.block.insert(index, inst)
        return inst

    def select(self, cond: Value, a: Value, b: Value, name: str = "") -> SelectInst:
        return self._insert(SelectInst(cond, a, b), name or "sel")  # type: ignore[return-value]
