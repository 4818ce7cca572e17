"""IR type system.

A small, LLVM-flavoured type lattice: integers of arbitrary bit width,
a 64-bit float, pointers, fixed arrays, named/literal structs, functions,
and void.  Types are immutable and interned where cheap, so identity
comparison usually works, but ``==`` is always structural.

The data layout (``size_of`` / ``align_of``) models a 64-bit machine:
pointers are 8 bytes, structs use natural alignment with padding.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import IRTypeError


class Type:
    """Base class of all IR types."""

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        return self is other

    def __hash__(self) -> int:  # pragma: no cover - overridden
        return id(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))

    @property
    def is_first_class(self) -> bool:
        """True for types a register (SSA value) can hold."""
        return not isinstance(self, (VoidType, FunctionType))


class VoidType(Type):
    def __str__(self) -> str:
        return "void"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class IntType(Type):
    """An integer of ``bits`` width.  i1 doubles as the boolean type."""

    __slots__ = ("bits",)

    _cache: dict = {}

    def __new__(cls, bits: int) -> "IntType":
        cached = cls._cache.get(bits)
        if cached is not None:
            return cached
        if bits < 1 or bits > 128:
            raise IRTypeError(f"unsupported integer width: {bits}")
        self = super().__new__(cls)
        self.bits = bits
        cls._cache[bits] = self
        return self

    def __str__(self) -> str:
        return f"i{self.bits}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("int", self.bits))

    @property
    def min_signed(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_signed(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def max_unsigned(self) -> int:
        return (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Truncate ``value`` to this width, returning the signed result."""
        masked = value & self.max_unsigned
        if masked > self.max_signed:
            masked -= 1 << self.bits
        return masked

    def wrap_unsigned(self, value: int) -> int:
        return value & self.max_unsigned


class FloatType(Type):
    """An IEEE-754 float; only f64 is used by the frontend."""

    __slots__ = ("bits",)

    _cache: dict = {}

    def __new__(cls, bits: int = 64) -> "FloatType":
        cached = cls._cache.get(bits)
        if cached is not None:
            return cached
        if bits not in (32, 64):
            raise IRTypeError(f"unsupported float width: {bits}")
        self = super().__new__(cls)
        self.bits = bits
        cls._cache[bits] = self
        return self

    def __str__(self) -> str:
        return "f32" if self.bits == 32 else "f64"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("float", self.bits))


class PointerType(Type):
    """A pointer to ``pointee``.  All pointers are 8 bytes."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: Type) -> None:
        if isinstance(pointee, VoidType):
            raise IRTypeError("pointer to void is not allowed; use ptr(i8)")
        self.pointee = pointee

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))


class ArrayType(Type):
    """A fixed-length array ``[count x element]``."""

    __slots__ = ("element", "count")

    def __init__(self, element: Type, count: int) -> None:
        if count < 0:
            raise IRTypeError(f"negative array length: {count}")
        if not element.is_first_class and not element.is_aggregate:
            raise IRTypeError(f"invalid array element type: {element}")
        self.element = element
        self.count = count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.count == self.count
            and other.element == self.element
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))


class StructType(Type):
    """A struct with named fields.

    Structs may be *named* (``%struct.foo``) in which case equality is by
    name, enabling recursive types, or *literal* in which case equality is
    structural.
    """

    __slots__ = ("name", "fields", "field_names")

    def __init__(
        self,
        fields: Sequence[Type],
        name: Optional[str] = None,
        field_names: Optional[Sequence[str]] = None,
    ) -> None:
        self.fields: Tuple[Type, ...] = tuple(fields)
        self.name = name
        if field_names is None:
            field_names = tuple(f"f{i}" for i in range(len(self.fields)))
        if len(field_names) != len(self.fields):
            raise IRTypeError("field_names length must match fields length")
        self.field_names: Tuple[str, ...] = tuple(field_names)

    def __str__(self) -> str:
        if self.name:
            return f"%struct.{self.name}"
        inner = ", ".join(str(f) for f in self.fields)
        return f"{{{inner}}}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructType):
            return False
        if self.name or other.name:
            return self.name == other.name
        return self.fields == other.fields

    def __hash__(self) -> int:
        if self.name:
            return hash(("struct", self.name))
        return hash(("struct", self.fields))

    def field_index(self, name: str) -> int:
        try:
            return self.field_names.index(name)
        except ValueError:
            raise IRTypeError(f"struct {self} has no field named {name!r}")


class FunctionType(Type):
    __slots__ = ("ret", "params", "vararg")

    def __init__(self, ret: Type, params: Iterable[Type], vararg: bool = False) -> None:
        self.ret = ret
        self.params: Tuple[Type, ...] = tuple(params)
        self.vararg = vararg
        for p in self.params:
            if not p.is_first_class:
                raise IRTypeError(f"invalid parameter type: {p}")

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.vararg:
            parts.append("...")
        return f"{self.ret} ({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.ret == self.ret
            and other.params == self.params
            and other.vararg == self.vararg
        )

    def __hash__(self) -> int:
        return hash(("fn", self.ret, self.params, self.vararg))


# Interned singletons used throughout the code base.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F64 = FloatType(64)

POINTER_SIZE = 8
POINTER_ALIGN = 8


def ptr(pointee: Type) -> PointerType:
    """Shorthand constructor for :class:`PointerType`."""
    return PointerType(pointee)


def size_of(ty: Type) -> int:
    """Byte size of ``ty`` under the 64-bit data layout."""
    if isinstance(ty, IntType):
        return max(1, (ty.bits + 7) // 8)
    if isinstance(ty, FloatType):
        return ty.bits // 8
    if isinstance(ty, PointerType):
        return POINTER_SIZE
    if isinstance(ty, ArrayType):
        return ty.count * stride_of(ty.element)
    if isinstance(ty, StructType):
        offset = 0
        for field in ty.fields:
            align = align_of(field)
            offset = _round_up(offset, align) + size_of(field)
        return _round_up(offset, align_of(ty))
    raise IRTypeError(f"type has no size: {ty}")


def align_of(ty: Type) -> int:
    """Natural alignment of ``ty``."""
    if isinstance(ty, IntType):
        return min(8, max(1, (ty.bits + 7) // 8))
    if isinstance(ty, FloatType):
        return ty.bits // 8
    if isinstance(ty, PointerType):
        return POINTER_ALIGN
    if isinstance(ty, ArrayType):
        return align_of(ty.element)
    if isinstance(ty, StructType):
        return max((align_of(f) for f in ty.fields), default=1)
    raise IRTypeError(f"type has no alignment: {ty}")


def stride_of(ty: Type) -> int:
    """Size of one array element including tail padding."""
    return _round_up(size_of(ty), align_of(ty))


def struct_field_offset(ty: StructType, index: int) -> int:
    """Byte offset of field ``index`` within struct ``ty``."""
    if index < 0 or index >= len(ty.fields):
        raise IRTypeError(f"struct {ty} has no field index {index}")
    offset = 0
    for i, field in enumerate(ty.fields):
        offset = _round_up(offset, align_of(field))
        if i == index:
            return offset
        offset += size_of(field)
    raise AssertionError("unreachable")


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align
