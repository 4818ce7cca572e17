"""IR instruction set.

Each instruction is a :class:`~repro.ir.values.Value` whose operands are
other values.  Operand slots keep use-def chains consistent through
:meth:`Instruction.set_operand`, which is the only sanctioned way to mutate
an operand after construction.

The opcode vocabulary deliberately mirrors LLVM: ``alloca``, ``load``,
``store``, ``getelementptr``, integer/float arithmetic, comparisons, casts,
``call``, ``br``, ``ret``, ``phi``, ``select``, and ``unreachable``.  That
is the entire surface the CARAT passes need: guard injection looks at
loads/stores/calls, tracking looks at calls and pointer-typed stores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.errors import IRError, IRTypeError
from repro.ir.types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    I1,
    I64,
    VOID,
    ptr,
    size_of,
    stride_of,
    struct_field_offset,
)
from repro.ir.values import ConstantInt, Use, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.module import BasicBlock, Function


INT_BINARY_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "sdiv",
        "udiv",
        "srem",
        "urem",
        "and",
        "or",
        "xor",
        "shl",
        "lshr",
        "ashr",
    }
)

FLOAT_BINARY_OPS = frozenset({"fadd", "fsub", "fmul", "fdiv", "frem"})

ICMP_PREDICATES = frozenset(
    {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
)

FCMP_PREDICATES = frozenset({"oeq", "one", "olt", "ole", "ogt", "oge"})

CAST_OPS = frozenset(
    {
        "trunc",
        "zext",
        "sext",
        "bitcast",
        "ptrtoint",
        "inttoptr",
        "sitofp",
        "fptosi",
    }
)


class Instruction(Value):
    """Base class of all instructions."""

    __slots__ = ("opcode", "_operands", "parent")

    def __init__(
        self,
        opcode: str,
        ty: Type,
        operands: Sequence[Value],
        name: str = "",
    ) -> None:
        super().__init__(ty, name)
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        self._operands: List[Value] = []
        for operand in operands:
            self._append_operand(operand)

    # -- operand management ---------------------------------------------------

    def _append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        value._add_use(Use(self, index))

    def _pop_operand(self) -> Value:
        index = len(self._operands) - 1
        value = self._operands.pop()
        value._remove_use(self, index)
        return value

    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        old._remove_use(self, index)
        self._operands[index] = value
        value._add_use(Use(self, index))

    def drop_all_operands(self) -> None:
        while self._operands:
            self._pop_operand()

    # -- block linkage ---------------------------------------------------------

    def erase_from_parent(self) -> None:
        """Unlink from the containing block and sever all operand uses.

        The instruction must itself be unused.
        """
        if self.num_uses:
            raise IRError(
                f"cannot erase {self.name!r}: it still has {self.num_uses} use(s)"
            )
        if self.parent is None:
            raise IRError(f"instruction {self.name!r} has no parent")
        self.parent.remove(self)
        self.drop_all_operands()

    @property
    def function(self) -> "Function":
        if self.parent is None:
            raise IRError(f"instruction {self.name!r} is detached")
        return self.parent.parent

    # -- classification ----------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (BranchInst, ReturnInst, UnreachableInst))

    def may_write_memory(self) -> bool:
        if isinstance(self, StoreInst):
            return True
        if isinstance(self, CallInst):
            return not self.is_readonly_call()
        return False

    def is_readonly_call(self) -> bool:
        return False

    def __repr__(self) -> str:
        ops = ", ".join(o.ref() for o in self._operands)
        lhs = f"%{self.name} = " if not self.type.is_void else ""
        return f"<{lhs}{self.opcode} {ops}>"


class AllocaInst(Instruction):
    """Stack allocation of ``count`` items of ``allocated_type``."""

    __slots__ = ("allocated_type",)

    def __init__(
        self, allocated_type: Type, count: Optional[Value] = None, name: str = ""
    ) -> None:
        if count is None:
            count = ConstantInt(I64, 1)
        if not isinstance(count.type, IntType):
            raise IRTypeError(f"alloca count must be an integer, got {count.type}")
        super().__init__("alloca", ptr(allocated_type), [count], name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Value:
        return self.operand(0)

    @property
    def is_static(self) -> bool:
        return isinstance(self.count, ConstantInt)

    def allocation_size(self) -> Optional[int]:
        """Static byte size, or None for dynamic allocas."""
        if isinstance(self.count, ConstantInt):
            return stride_of(self.allocated_type) * self.count.value
        return None


class LoadInst(Instruction):
    __slots__ = ()

    def __init__(self, pointer: Value, name: str = "") -> None:
        if not isinstance(pointer.type, PointerType):
            raise IRTypeError(f"load requires a pointer operand, got {pointer.type}")
        super().__init__("load", pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    def access_size(self) -> int:
        return size_of(self.type)


class StoreInst(Instruction):
    __slots__ = ()

    def __init__(self, value: Value, pointer: Value) -> None:
        if not isinstance(pointer.type, PointerType):
            raise IRTypeError(f"store requires a pointer operand, got {pointer.type}")
        if pointer.type.pointee != value.type:
            raise IRTypeError(
                f"store type mismatch: storing {value.type} through {pointer.type}"
            )
        super().__init__("store", VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)

    def access_size(self) -> int:
        return size_of(self.value.type)

    def stores_pointer(self) -> bool:
        """True when the stored value is itself a pointer — i.e. a potential
        *escape* in CARAT's sense (Section 4.1.2)."""
        return self.value.type.is_pointer


class GEPInst(Instruction):
    """``getelementptr``: pointer arithmetic over typed aggregates.

    The first index scales by the whole pointee; subsequent indices step
    into arrays and structs, exactly as in LLVM.  Struct indices must be
    constants.
    """

    __slots__ = ("source_type",)

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = "") -> None:
        if not isinstance(pointer.type, PointerType):
            raise IRTypeError(f"gep requires a pointer operand, got {pointer.type}")
        if not indices:
            raise IRTypeError("gep requires at least one index")
        source_type = pointer.type.pointee
        result = GEPInst.compute_result_type(source_type, indices)
        super().__init__("getelementptr", ptr(result), [pointer, *indices], name)
        self.source_type = source_type

    @staticmethod
    def compute_result_type(source: Type, indices: Sequence[Value]) -> Type:
        current = source
        for i, index in enumerate(indices):
            if i == 0:
                if not isinstance(index.type, IntType):
                    raise IRTypeError("gep indices must be integers")
                continue
            if isinstance(current, ArrayType):
                if not isinstance(index.type, IntType):
                    raise IRTypeError("gep array index must be an integer")
                current = current.element
            elif isinstance(current, StructType):
                if not isinstance(index, ConstantInt):
                    raise IRTypeError("gep struct index must be a constant int")
                if index.value < 0 or index.value >= len(current.fields):
                    raise IRTypeError(
                        f"gep struct index {index.value} out of range for {current}"
                    )
                current = current.fields[index.value]
            else:
                raise IRTypeError(f"gep cannot index into {current}")
        return current

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    def has_all_constant_indices(self) -> bool:
        return all(isinstance(i, ConstantInt) for i in self.indices)

    def constant_offset(self) -> Optional[int]:
        """Byte offset from the base pointer when all indices are constant."""
        if not self.has_all_constant_indices():
            return None
        offset = 0
        current: Type = self.source_type
        for i, index in enumerate(self.indices):
            assert isinstance(index, ConstantInt)
            if i == 0:
                offset += index.value * stride_of(current)
                continue
            if isinstance(current, ArrayType):
                offset += index.value * stride_of(current.element)
                current = current.element
            elif isinstance(current, StructType):
                offset += struct_field_offset(current, index.value)
                current = current.fields[index.value]
            else:  # pragma: no cover - rejected at construction
                raise IRTypeError(f"gep cannot index into {current}")
        return offset


class BinaryInst(Instruction):
    __slots__ = ()

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if op in INT_BINARY_OPS:
            if not isinstance(lhs.type, IntType):
                raise IRTypeError(f"{op} requires integer operands, got {lhs.type}")
        elif op in FLOAT_BINARY_OPS:
            if not isinstance(lhs.type, FloatType):
                raise IRTypeError(f"{op} requires float operands, got {lhs.type}")
        else:
            raise IRTypeError(f"unknown binary opcode: {op}")
        if lhs.type != rhs.type:
            raise IRTypeError(
                f"{op} operand types differ: {lhs.type} vs {rhs.type}"
            )
        super().__init__(op, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    @property
    def is_commutative(self) -> bool:
        return self.opcode in {"add", "mul", "and", "or", "xor", "fadd", "fmul"}


class ICmpInst(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICMP_PREDICATES:
            raise IRTypeError(f"unknown icmp predicate: {predicate}")
        if lhs.type != rhs.type:
            raise IRTypeError(
                f"icmp operand types differ: {lhs.type} vs {rhs.type}"
            )
        if not (lhs.type.is_integer or lhs.type.is_pointer):
            raise IRTypeError(f"icmp requires int or pointer operands, got {lhs.type}")
        super().__init__("icmp", I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class FCmpInst(Instruction):
    __slots__ = ("predicate",)

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in FCMP_PREDICATES:
            raise IRTypeError(f"unknown fcmp predicate: {predicate}")
        if lhs.type != rhs.type or not lhs.type.is_float:
            raise IRTypeError("fcmp requires matching float operands")
        super().__init__("fcmp", I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class CastInst(Instruction):
    __slots__ = ()

    def __init__(self, op: str, value: Value, dest: Type, name: str = "") -> None:
        if op not in CAST_OPS:
            raise IRTypeError(f"unknown cast opcode: {op}")
        self._check(op, value.type, dest)
        super().__init__(op, dest, [value], name)

    @staticmethod
    def _check(op: str, src: Type, dest: Type) -> None:
        if op == "trunc":
            if not (src.is_integer and dest.is_integer and src.bits > dest.bits):
                raise IRTypeError(f"invalid trunc: {src} -> {dest}")
        elif op in ("zext", "sext"):
            if not (src.is_integer and dest.is_integer and src.bits < dest.bits):
                raise IRTypeError(f"invalid {op}: {src} -> {dest}")
        elif op == "bitcast":
            if not (src.is_pointer and dest.is_pointer):
                raise IRTypeError(f"bitcast supports only pointers: {src} -> {dest}")
        elif op == "ptrtoint":
            if not (src.is_pointer and dest.is_integer):
                raise IRTypeError(f"invalid ptrtoint: {src} -> {dest}")
        elif op == "inttoptr":
            if not (src.is_integer and dest.is_pointer):
                raise IRTypeError(f"invalid inttoptr: {src} -> {dest}")
        elif op == "sitofp":
            if not (src.is_integer and dest.is_float):
                raise IRTypeError(f"invalid sitofp: {src} -> {dest}")
        elif op == "fptosi":
            if not (src.is_float and dest.is_integer):
                raise IRTypeError(f"invalid fptosi: {src} -> {dest}")

    @property
    def value(self) -> Value:
        return self.operand(0)


class CallInst(Instruction):
    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value], name: str = "") -> None:
        ftype = CallInst._callee_type(callee)
        if ftype.vararg:
            if len(args) < len(ftype.params):
                raise IRTypeError(
                    f"call to {callee.name}: expected at least "
                    f"{len(ftype.params)} args, got {len(args)}"
                )
        elif len(args) != len(ftype.params):
            raise IRTypeError(
                f"call to {callee.name}: expected {len(ftype.params)} args, "
                f"got {len(args)}"
            )
        for i, (arg, pty) in enumerate(zip(args, ftype.params)):
            if arg.type != pty:
                raise IRTypeError(
                    f"call to {callee.name}: arg {i} has type {arg.type}, "
                    f"expected {pty}"
                )
        super().__init__("call", ftype.ret, [callee, *args], name)

    @staticmethod
    def _callee_type(callee: Value) -> FunctionType:
        from repro.ir.module import Function

        if isinstance(callee, Function):
            return callee.ftype
        if isinstance(callee.type, PointerType) and isinstance(
            callee.type.pointee, FunctionType
        ):
            return callee.type.pointee
        raise IRTypeError(f"call target is not a function: {callee.type}")

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    @property
    def callee_name(self) -> Optional[str]:
        from repro.ir.module import Function

        if isinstance(self.callee, Function):
            return self.callee.name
        return None

    def is_intrinsic(self, prefix: str = "carat.") -> bool:
        name = self.callee_name
        return name is not None and name.startswith(prefix)

    def is_readonly_call(self) -> bool:
        """CARAT intrinsics and a few whitelisted pure functions never write
        program-visible memory, so passes may reorder around them."""
        name = self.callee_name
        if name is None:
            return False
        return name.startswith("carat.guard") or name in _PURE_FUNCTIONS


_PURE_FUNCTIONS = frozenset({"llvm.sqrt", "sqrt", "exp", "log", "abs", "fabs"})


class BranchInst(Instruction):
    """Conditional (``br i1 %c, %then, %else``) or unconditional branch."""

    __slots__ = ()

    def __init__(
        self,
        target: "BasicBlock",
        cond: Optional[Value] = None,
        if_false: Optional["BasicBlock"] = None,
    ) -> None:
        from repro.ir.module import BasicBlock

        if cond is None:
            if if_false is not None:
                raise IRError("unconditional branch cannot have a false target")
            super().__init__("br", VOID, [target])
        else:
            if cond.type != I1:
                raise IRTypeError(f"branch condition must be i1, got {cond.type}")
            if if_false is None:
                raise IRError("conditional branch requires a false target")
            super().__init__("br", VOID, [cond, target, if_false])

    @property
    def is_conditional(self) -> bool:
        return self.num_operands == 3

    @property
    def condition(self) -> Value:
        if not self.is_conditional:
            raise IRError("unconditional branch has no condition")
        return self.operand(0)

    @property
    def targets(self) -> Tuple["BasicBlock", ...]:
        if self.is_conditional:
            return (self.operand(1), self.operand(2))  # type: ignore[return-value]
        return (self.operand(0),)  # type: ignore[return-value]


class ReturnInst(Instruction):
    __slots__ = ()

    def __init__(self, value: Optional[Value] = None) -> None:
        operands = [] if value is None else [value]
        super().__init__("ret", VOID, operands)

    @property
    def return_value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None


class PhiInst(Instruction):
    """SSA phi node.  Operands alternate ``value0, block0, value1, block1...``"""

    __slots__ = ()

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__("phi", ty, [], name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise IRTypeError(
                f"phi incoming type {value.type} != phi type {self.type}"
            )
        self._append_operand(value)
        self._append_operand(block)

    @property
    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        pairs = []
        for i in range(0, self.num_operands, 2):
            pairs.append((self.operand(i), self.operand(i + 1)))
        return pairs  # type: ignore[return-value]

    def incoming_for_block(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming:
            if pred is block:
                return value
        raise IRError(f"phi {self.name!r} has no incoming value for {block.name!r}")

    def remove_incoming(self, block: "BasicBlock") -> None:
        pairs = [(v, b) for v, b in self.incoming if b is not block]
        if len(pairs) == len(self.incoming):
            raise IRError(f"phi {self.name!r} has no entry for {block.name!r}")
        self.drop_all_operands()
        for value, pred in pairs:
            self._append_operand(value)
            self._append_operand(pred)


class SelectInst(Instruction):
    __slots__ = ()

    def __init__(self, cond: Value, a: Value, b: Value, name: str = "") -> None:
        if cond.type != I1:
            raise IRTypeError(f"select condition must be i1, got {cond.type}")
        if a.type != b.type:
            raise IRTypeError(f"select arm types differ: {a.type} vs {b.type}")
        super().__init__("select", a.type, [cond, a, b], name)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


class UnreachableInst(Instruction):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("unreachable", VOID, [])
