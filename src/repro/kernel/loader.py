"""Program loader for both execution models (Section 2.2, "Run-time").

For a CARAT binary the loader: validates the signature against the
kernel's trusted toolchains, selects one *contiguous* physical run and
lays the process out as a dark capsule — stack below globals below code —
so the default protection state is a single region (Section 3's optimal
case), carves the heap from the tail of the same run, copies globals'
initializers in, records every static allocation with the runtime (the
"initial change request" that patches global pointers: ours are null or
scalar, so recording is the whole patch), and writes the initial region
set into the runtime's landing zone.

For a traditional binary it builds the virtual layout, eagerly maps code,
globals, and the first stack page (the "initial page table snapshot"),
and leaves heap and deeper stack to demand paging.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Tuple

from repro.carat.pipeline import CaratBinary
from repro.carat.signing import verify_signature
from repro.errors import KernelError, SigningError
from repro.ir.module import GlobalVariable, Module
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    align_of,
    size_of,
    stride_of,
    struct_field_offset,
)
from repro.ir.values import (
    Constant,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantStruct,
    ConstantZero,
    UndefValue,
)
from repro.kernel.pagetable import PAGE_SIZE

#: Modeled size of one encoded instruction, for code-segment sizing.
BYTES_PER_INSTRUCTION = 8


def page_count(size: int) -> int:
    return max(1, (size + PAGE_SIZE - 1) // PAGE_SIZE)


def page_align(size: int) -> int:
    return page_count(size) * PAGE_SIZE


def constant_to_bytes(constant: Constant, ty: Type) -> bytes:
    """Serialize an initializer under the 64-bit data layout."""
    size = size_of(ty)
    if isinstance(constant, (ConstantZero, UndefValue)) or constant is None:
        return bytes(size)
    if isinstance(constant, ConstantInt):
        assert isinstance(ty, IntType)
        return (constant.value & ty.max_unsigned).to_bytes(size, "little")
    if isinstance(constant, ConstantFloat):
        assert isinstance(ty, FloatType)
        fmt = "<d" if ty.bits == 64 else "<f"
        return struct.pack(fmt, constant.value)
    if isinstance(constant, ConstantNull):
        return bytes(8)
    if isinstance(constant, ConstantArray):
        assert isinstance(ty, ArrayType)
        stride = stride_of(ty.element)
        out = bytearray(size)
        for i, element in enumerate(constant.elements):
            blob = constant_to_bytes(element, ty.element)
            out[i * stride : i * stride + len(blob)] = blob
        return bytes(out)
    if isinstance(constant, ConstantStruct):
        assert isinstance(ty, StructType)
        out = bytearray(size)
        for i, value in enumerate(constant.fields):
            offset = struct_field_offset(ty, i)
            blob = constant_to_bytes(value, ty.fields[i])
            out[offset : offset + len(blob)] = blob
        return bytes(out)
    raise KernelError(f"cannot serialize initializer {constant!r}")


def layout_globals(module: Module, base: int) -> Tuple[Dict[str, int], int]:
    """Assign addresses to globals starting at ``base`` with natural
    alignment.  Returns (symbol map, total size)."""
    addresses: Dict[str, int] = {}
    cursor = base
    for gv in module.globals.values():
        align = max(8, align_of(gv.value_type))
        cursor = (cursor + align - 1) // align * align
        addresses[gv.name] = cursor
        cursor += size_of(gv.value_type)
    return addresses, cursor - base


def image_geometry(module: Module) -> Tuple[int, int]:
    """A binary's image as every loader lays it out: ``(code bytes,
    globals bytes)``, each page-aligned.  Code is modeled at
    :data:`BYTES_PER_INSTRUCTION` per instruction; globals take at least
    one page, even when there are none."""
    instructions = sum(1 for _ in module.instructions())
    _, globals_size = layout_globals(module, 0)
    return (
        page_align(max(1, instructions) * BYTES_PER_INSTRUCTION),
        page_align(max(1, globals_size)),
    )


def static_footprint_pages(binary: CaratBinary) -> int:
    """The paper's "static footprint": pages of all LOAD sections — text
    plus data/bss (globals)."""
    return sum(image_geometry(binary.module)) // PAGE_SIZE


def write_globals(
    binary: CaratBinary,
    addresses: Dict[str, int],
    write_bytes: Callable[[int, bytes], None],
) -> None:
    """Copy every global's initializer into (process-addressed) memory."""
    for gv in binary.module.globals.values():
        blob = constant_to_bytes(gv.initializer, gv.value_type)  # type: ignore[arg-type]
        write_bytes(addresses[gv.name], blob)


def validate_binary(binary: CaratBinary, trusted_toolchains: set) -> None:
    """The kernel's trust decision: signature must verify and the signing
    toolchain must be trusted."""
    if binary.signature is None:
        raise SigningError(
            f"binary {binary.name!r} is unsigned; the kernel only loads "
            f"signed CARAT binaries"
        )
    ok = verify_signature(
        binary.module,
        binary.signature,
        binary.metadata,
        trusted_toolchains=trusted_toolchains,
    )
    if not ok:
        raise SigningError(
            f"binary {binary.name!r}: signature invalid or toolchain "
            f"{binary.signature.toolchain!r} untrusted"
        )
