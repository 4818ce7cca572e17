"""Module, function, basic block, and global variable containers.

A :class:`Module` owns globals and functions.  A :class:`Function` owns an
ordered list of :class:`BasicBlock`; the first block is the entry.  Basic
blocks are themselves values (of label type) so branch instructions can use
them as operands with full use-def bookkeeping — finding a block's
predecessors is then just a use-list walk.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import IRError, IRTypeError
from repro.ir.instructions import BranchInst, Instruction, PhiInst
from repro.ir.types import FunctionType, PointerType, StructType, Type, ptr
from repro.ir.values import Argument, Constant, Value


class LabelType(Type):
    """The type of basic blocks when used as branch operands."""

    def __str__(self) -> str:
        return "label"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelType)

    def __hash__(self) -> int:
        return hash("label")


LABEL = LabelType()


class GlobalVariable(Value):
    """A module-level variable.  Its value is the *address* of the storage,
    so the type is a pointer to the contents, as in LLVM."""

    __slots__ = ("value_type", "initializer", "is_constant", "parent")

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[Constant] = None,
        is_constant: bool = False,
    ) -> None:
        super().__init__(ptr(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant
        self.parent: Optional["Module"] = None
        if initializer is not None and initializer.type != value_type:
            raise IRTypeError(
                f"global {name!r}: initializer type {initializer.type} "
                f"!= declared type {value_type}"
            )

    def ref(self) -> str:
        return f"@{self.name}"


class BasicBlock(Value):
    __slots__ = ("parent", "instructions")

    def __init__(self, name: str, parent: "Function") -> None:
        super().__init__(LABEL, name)
        self.parent = parent
        self.instructions: List[Instruction] = []

    def ref(self) -> str:
        return f"%{self.name}"

    # -- instruction list management ------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise IRError(f"instruction {inst.name!r} already has a parent")
        if self.instructions and self.instructions[-1].is_terminator:
            raise IRError(f"block {self.name!r} is already terminated")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise IRError(f"instruction {inst.name!r} already has a parent")
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.index_of(anchor), inst)

    def insert_after(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.index_of(anchor) + 1, inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    def index_of(self, inst: Instruction) -> int:
        for i, candidate in enumerate(self.instructions):
            if candidate is inst:
                return i
        raise IRError(f"instruction {inst.name!r} not in block {self.name!r}")

    # -- structure queries --------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, BranchInst):
            return list(term.targets)
        return []

    def predecessors(self) -> List["BasicBlock"]:
        preds: List[BasicBlock] = []
        for use in self._uses:
            user = use.user
            if isinstance(user, BranchInst) and user.parent is not None:
                if user.parent not in preds:
                    preds.append(user.parent)
        return preds

    def phis(self) -> List[PhiInst]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, PhiInst):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, PhiInst):
                return i
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"


class Function(Value):
    """A function definition (with blocks) or declaration (without)."""

    __slots__ = ("ftype", "args", "blocks", "parent", "attributes", "_name_counter")

    def __init__(
        self,
        name: str,
        ftype: FunctionType,
        module: Optional["Module"] = None,
        arg_names: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(ptr(ftype), name)
        self.ftype = ftype
        self.parent = module
        self.blocks: List[BasicBlock] = []
        self.attributes: set = set()
        self._name_counter = 0
        if arg_names is None:
            arg_names = [f"arg{i}" for i in range(len(ftype.params))]
        if len(arg_names) != len(ftype.params):
            raise IRError("arg_names length must match parameter count")
        self.args: List[Argument] = [
            Argument(pty, arg_names[i], self, i)
            for i, pty in enumerate(ftype.params)
        ]
        if module is not None:
            module.add_function(self)

    def ref(self) -> str:
        return f"@{self.name}"

    @property
    def return_type(self) -> Type:
        return self.ftype.ret

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name!r} has no body")
        return self.blocks[0]

    def add_block(self, name: str = "", before: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(self.unique_name(name or "bb"), self)
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        return block

    def unique_name(self, hint: str) -> str:
        self._name_counter += 1
        return f"{hint}.{self._name_counter}"

    def instructions(self) -> Iterator[Instruction]:
        """All instructions, in block order."""
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<{kind} {self.ftype.ret} @{self.name}>"


class Module:
    """Top-level container: named structs, globals, and functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}
        self.struct_types: Dict[str, StructType] = {}
        self.metadata: Dict[str, object] = {}

    # -- globals --------------------------------------------------------------------

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals or gv.name in self.functions:
            raise IRError(f"duplicate global name: {gv.name!r}")
        gv.parent = self
        self.globals[gv.name] = gv
        return gv

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError(f"no global named {name!r}")

    # -- functions -------------------------------------------------------------------

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions or fn.name in self.globals:
            raise IRError(f"duplicate function name: {fn.name!r}")
        fn.parent = self
        self.functions[fn.name] = fn
        return fn

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named {name!r}")

    def get_or_declare(
        self, name: str, ftype: FunctionType, arg_names: Optional[Sequence[str]] = None
    ) -> Function:
        existing = self.functions.get(name)
        if existing is not None:
            if existing.ftype != ftype:
                raise IRTypeError(
                    f"function {name!r} redeclared with type {ftype}, "
                    f"was {existing.ftype}"
                )
            return existing
        return Function(name, ftype, self, arg_names)

    # -- structs --------------------------------------------------------------------

    def add_struct_type(self, st: StructType) -> StructType:
        if not st.name:
            raise IRError("only named structs can be registered on a module")
        existing = self.struct_types.get(st.name)
        if existing is not None:
            return existing
        self.struct_types[st.name] = st
        return st

    # -- traversal --------------------------------------------------------------------

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def instructions(self) -> Iterator[Instruction]:
        for fn in self.defined_functions():
            yield from fn.instructions()

    def __repr__(self) -> str:
        return (
            f"<Module {self.name!r}: {len(self.functions)} function(s), "
            f"{len(self.globals)} global(s)>"
        )
