"""Steensgaard-style unification-based points-to analysis.

Almost-linear-time flow-insensitive points-to: every pointer value maps to
an abstract node; assignments unify nodes.  Each node has a single
"pointee" node, so ``store p, q`` unifies q's pointee with p's node and
``r = load q`` unifies r's node with q's pointee.

The result answers the only question the alias layer needs: can two
pointer values reference the same abstract memory object?
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    CastInst,
    GEPInst,
    Instruction,
    LoadInst,
    PhiInst,
    SelectInst,
    StoreInst,
)
from repro.ir.module import Function
from repro.ir.values import ConstantNull, Value


class _Node:
    """A union-find node; ``pointee`` is the node this one points to."""

    __slots__ = ("parent", "rank", "pointee", "is_object")

    def __init__(self) -> None:
        self.parent: Optional["_Node"] = None
        self.rank = 0
        self.pointee: Optional["_Node"] = None
        self.is_object = False  # represents at least one concrete allocation

    def find(self) -> "_Node":
        root = self
        while root.parent is not None:
            root = root.parent
        # Path compression.
        node = self
        while node.parent is not None:
            node.parent, node = root, node.parent
        return root


class SteensgaardSolver:
    def __init__(self, fn: Function) -> None:
        self.function = fn
        self._node_of: Dict[int, _Node] = {}
        self._value_of_id: Dict[int, Value] = {}

    # -- node plumbing ------------------------------------------------------------

    def _node(self, value: Value) -> _Node:
        node = self._node_of.get(id(value))
        if node is None:
            node = _Node()
            self._node_of[id(value)] = node
            self._value_of_id[id(value)] = value
        return node.find()

    def _pointee(self, node: _Node) -> _Node:
        node = node.find()
        if node.pointee is None:
            node.pointee = _Node()
        return node.pointee.find()

    def _union(self, a: _Node, b: _Node) -> _Node:
        a, b = a.find(), b.find()
        if a is b:
            return a
        if a.rank < b.rank:
            a, b = b, a
        b.parent = a
        if a.rank == b.rank:
            a.rank += 1
        a.is_object = a.is_object or b.is_object
        # Recursively unify pointees (Steensgaard's "cjoin").
        if a.pointee is not None and b.pointee is not None:
            merged = self._union(a.pointee, b.pointee)
            a.pointee = merged
        elif b.pointee is not None:
            a.pointee = b.pointee
        return a

    def _assign(self, dst: Value, src: Value) -> None:
        """dst = src: dst and src point to the same things."""
        self._union(self._node(dst), self._node(src))

    # -- constraint generation -------------------------------------------------------

    def solve(self) -> None:
        fn = self.function
        module = fn.parent
        if module is not None:
            for gv in module.globals.values():
                node = self._node(gv)
                self._pointee(node)
                node.find().is_object = True
        for arg in fn.args:
            if arg.type.is_pointer:
                # Arguments may point to caller memory: give them a pointee
                # object node so loads through them resolve consistently.
                self._pointee(self._node(arg)).is_object = True
        for inst in fn.instructions():
            self._visit(inst)

    def _visit(self, inst: Instruction) -> None:
        if isinstance(inst, AllocaInst):
            node = self._node(inst)
            self._pointee(node).is_object = True
        elif isinstance(inst, GEPInst):
            # Field-insensitive: a GEP aliases its base.
            self._assign(inst, inst.pointer)
        elif isinstance(inst, CastInst):
            if inst.opcode in ("bitcast", "inttoptr", "ptrtoint"):
                self._assign(inst, inst.value)
        elif isinstance(inst, LoadInst):
            if inst.type.is_pointer:
                ptr_node = self._node(inst.pointer)
                self._union(self._node(inst), self._pointee(ptr_node))
        elif isinstance(inst, StoreInst):
            if inst.value.type.is_pointer:
                ptr_node = self._node(inst.pointer)
                self._union(self._pointee(ptr_node), self._node(inst.value))
        elif isinstance(inst, (PhiInst, SelectInst)):
            if inst.type.is_pointer:
                operands = (
                    [v for v, _ in inst.incoming]
                    if isinstance(inst, PhiInst)
                    else [inst.true_value, inst.false_value]
                )
                for operand in operands:
                    if operand.type.is_pointer and not isinstance(
                        operand, ConstantNull
                    ):
                        self._assign(inst, operand)
        elif isinstance(inst, CallInst):
            self._visit_call(inst)

    def _visit_call(self, call: CallInst) -> None:
        name = call.callee_name
        from repro.analysis.alias import ALLOCATION_FUNCTIONS

        if name in ALLOCATION_FUNCTIONS:
            self._pointee(self._node(call)).is_object = True
            return
        if call.is_intrinsic():
            return  # CARAT callbacks observe pointers, never retarget them
        # Unknown call: every pointer argument may be stored anywhere and the
        # result may alias any argument.  Unify conservatively.
        pointer_args = [a for a in call.args if a.type.is_pointer]
        if call.type.is_pointer:
            for arg in pointer_args:
                self._assign(call, arg)
            self._pointee(self._node(call)).is_object = True
        if len(pointer_args) >= 2:
            first = self._node(pointer_args[0])
            for arg in pointer_args[1:]:
                self._union(
                    self._pointee(first), self._pointee(self._node(arg))
                )

    # -- queries ---------------------------------------------------------------------

    def may_alias(self, a: Value, b: Value) -> bool:
        """Conservatively, do ``a`` and ``b`` possibly point at the same
        object?  Values the solver never saw are assumed to alias."""
        node_a = self._node_of.get(id(a))
        node_b = self._node_of.get(id(b))
        if node_a is None or node_b is None:
            return True
        ra, rb = node_a.find(), node_b.find()
        if ra is rb:
            return True
        # Same pointee node => both can point at the same object.
        pa = ra.pointee.find() if ra.pointee is not None else None
        pb = rb.pointee.find() if rb.pointee is not None else None
        if pa is not None and pa is pb:
            return True
        if pa is None or pb is None:
            # One side has no known pointee; stay conservative.
            return True
        return False
