"""IR value hierarchy: the base :class:`Value`, constants, and arguments.

Use-def chains are maintained eagerly: every value records the set of
instructions that use it, and instructions update those sets whenever an
operand is set or replaced.  ``replace_all_uses_with`` is the workhorse of
every transformation pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.errors import IRError, IRTypeError
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.instructions import Instruction
    from repro.ir.module import Function


class Use:
    """One operand slot of one instruction referencing a value."""

    __slots__ = ("user", "index")

    def __init__(self, user: "Instruction", index: int) -> None:
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return f"<Use {self.user.name}[{self.index}]>"


class Value:
    """Anything that can appear as an operand: instructions, constants,
    arguments, globals, and basic blocks (as branch targets)."""

    __slots__ = ("type", "name", "_uses")

    def __init__(self, ty: Type, name: str = "") -> None:
        self.type = ty
        self.name = name
        self._uses: List[Use] = []

    # -- use-def maintenance (called by Instruction) ------------------------

    def _add_use(self, use: Use) -> None:
        self._uses.append(use)

    def _remove_use(self, user: "Instruction", index: int) -> None:
        for i, use in enumerate(self._uses):
            if use.user is user and use.index == index:
                del self._uses[i]
                return
        raise IRError(f"use not found: {user!r}[{index}] of {self!r}")

    @property
    def uses(self) -> List[Use]:
        return list(self._uses)

    @property
    def users(self) -> List["Instruction"]:
        """Instructions using this value (with duplicates collapsed)."""
        seen = []
        for use in self._uses:
            if use.user not in seen:
                seen.append(use.user)
        return seen

    @property
    def num_uses(self) -> int:
        return len(self._uses)

    def replace_all_uses_with(self, replacement: "Value") -> None:
        if replacement is self:
            return
        if replacement.type != self.type:
            raise IRTypeError(
                f"RAUW type mismatch: {self.type} vs {replacement.type}"
            )
        for use in list(self._uses):
            use.user.set_operand(use.index, replacement)

    # -- display -------------------------------------------------------------

    def ref(self) -> str:
        """How this value is written when used as an operand."""
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ref()}: {self.type}>"


class Constant(Value):
    """Base class for immediate values.  Constants are not uniqued, but they
    compare structurally equal."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        return self is other

    def __hash__(self) -> int:  # pragma: no cover - overridden
        return id(self)


class ConstantInt(Constant):
    __slots__ = ("value",)

    def __init__(self, ty: IntType, value: int) -> None:
        if not isinstance(ty, IntType):
            raise IRTypeError(f"ConstantInt requires an integer type, got {ty}")
        super().__init__(ty)
        self.value = ty.wrap(int(value))

    def ref(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("cint", self.type, self.value))


class ConstantFloat(Constant):
    __slots__ = ("value",)

    def __init__(self, ty: FloatType, value: float) -> None:
        if not isinstance(ty, FloatType):
            raise IRTypeError(f"ConstantFloat requires a float type, got {ty}")
        super().__init__(ty)
        self.value = float(value)

    def ref(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantFloat)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("cfloat", self.type, self.value))


class ConstantNull(Constant):
    """The null pointer of a given pointer type."""

    __slots__ = ()

    def __init__(self, ty: PointerType) -> None:
        if not isinstance(ty, PointerType):
            raise IRTypeError(f"ConstantNull requires a pointer type, got {ty}")
        super().__init__(ty)

    def ref(self) -> str:
        return "null"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantNull) and other.type == self.type

    def __hash__(self) -> int:
        return hash(("cnull", self.type))


class UndefValue(Constant):
    """An unspecified value of any first-class type."""

    __slots__ = ()

    def ref(self) -> str:
        return "undef"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UndefValue) and other.type == self.type

    def __hash__(self) -> int:
        return hash(("undef", self.type))


class ConstantArray(Constant):
    """A constant array; used for global initializers (e.g. string data)."""

    __slots__ = ("elements",)

    def __init__(self, ty: ArrayType, elements: List[Constant]) -> None:
        if len(elements) != ty.count:
            raise IRTypeError(
                f"array initializer has {len(elements)} elements, "
                f"type expects {ty.count}"
            )
        for elem in elements:
            if elem.type != ty.element:
                raise IRTypeError(
                    f"array element type {elem.type} != {ty.element}"
                )
        super().__init__(ty)
        self.elements = list(elements)

    def ref(self) -> str:
        inner = ", ".join(e.ref() for e in self.elements)
        return f"[{inner}]"


class ConstantStruct(Constant):
    __slots__ = ("fields",)

    def __init__(self, ty: StructType, fields: List[Constant]) -> None:
        if len(fields) != len(ty.fields):
            raise IRTypeError("struct initializer arity mismatch")
        for value, fty in zip(fields, ty.fields):
            if value.type != fty:
                raise IRTypeError(
                    f"struct field type {value.type} != {fty}"
                )
        super().__init__(ty)
        self.fields = list(fields)

    def ref(self) -> str:
        inner = ", ".join(f.ref() for f in self.fields)
        return f"{{{inner}}}"


class ConstantZero(Constant):
    """Zero-initializer for any sized type (like LLVM's zeroinitializer)."""

    __slots__ = ()

    def ref(self) -> str:
        return "zeroinitializer"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantZero) and other.type == self.type

    def __hash__(self) -> int:
        return hash(("czero", self.type))


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("parent", "index")

    def __init__(self, ty: Type, name: str, parent: "Function", index: int) -> None:
        super().__init__(ty, name)
        self.parent = parent
        self.index = index


def is_constant(value: Value) -> bool:
    return isinstance(value, Constant)


def walk_constants(value: Constant) -> Iterator[Constant]:
    """Yield ``value`` and every nested constant inside aggregates."""
    yield value
    if isinstance(value, ConstantArray):
        for elem in value.elements:
            yield from walk_constants(elem)
    elif isinstance(value, ConstantStruct):
        for field in value.fields:
            yield from walk_constants(field)
