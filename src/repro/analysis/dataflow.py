"""Iterative forward must-dataflow framework and available values.

The framework operates on per-block GEN/KILL sets (classic bit-vector
style, here with Python frozensets) and iterates forward in reverse
post-order to a fixed point, meeting predecessors by intersection.
CARAT's AC/DC redundancy analysis (Section 4.1.1, Optimization 3) is an
*available expressions* problem over pointer definitions, so the same
machinery serves it directly.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Generic, Hashable, List, Set, TypeVar

from repro.analysis.cfg import reverse_post_order
from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Value

T = TypeVar("T", bound=Hashable)


class BlockFacts(Generic[T]):
    """IN/OUT sets of one block after a dataflow run."""

    __slots__ = ("in_set", "out_set")

    def __init__(self, in_set: FrozenSet[T], out_set: FrozenSet[T]) -> None:
        self.in_set = in_set
        self.out_set = out_set


class DataflowProblem(Generic[T]):
    """Specification of a forward GEN/KILL must-problem:
    ``IN[i] = ∩ OUT[p]`` over predecessors (empty at the entry),
    ``OUT[i] = (IN[i] − KILL[i]) ∪ GEN[i]``.

    Subclasses define the universe and per-block GEN/KILL sets.
    """

    def __init__(self, fn: Function) -> None:
        self.function = fn
        self.universe: FrozenSet[T] = self.compute_universe()

    # -- to override -------------------------------------------------------------

    def compute_universe(self) -> FrozenSet[T]:
        raise NotImplementedError

    def gen_set(self, block: BasicBlock) -> FrozenSet[T]:
        raise NotImplementedError

    def kill_set(self, block: BasicBlock) -> FrozenSet[T]:
        raise NotImplementedError

    # -- solver --------------------------------------------------------------------

    def solve(self) -> Dict[BasicBlock, BlockFacts[T]]:
        fn = self.function
        order = reverse_post_order(fn)
        gen = {b: self.gen_set(b) for b in order}
        kill = {b: self.kill_set(b) for b in order}
        in_sets = dict.fromkeys(order, self.universe)
        out_sets = dict.fromkeys(order, self.universe)

        changed = True
        while changed:
            changed = False
            for block in order:
                if block is fn.entry:
                    new_in: FrozenSet[T] = frozenset()
                else:
                    new_in = self.universe
                    for pred in block.predecessors():
                        if pred in out_sets:
                            new_in = new_in & out_sets[pred]
                new_out = (new_in - kill[block]) | gen[block]
                if new_in != in_sets[block] or new_out != out_sets[block]:
                    in_sets[block] = new_in
                    out_sets[block] = new_out
                    changed = True
        return {b: BlockFacts(in_sets[b], out_sets[b]) for b in order}


class AvailableValues(DataflowProblem[Value]):
    """Forward must-analysis: pointer-producing values available on *every*
    path to a block.

    This is the dataflow core of CARAT's AC/DC analysis (Optimization 3),
    whose elements are pointer definitions.  ``kills`` is parameterized so
    the caller (the guard optimizer) can decide which instructions
    invalidate previously-checked pointers (e.g. calls that may free
    memory, or a kernel region change).
    """

    def __init__(
        self,
        fn: Function,
        generates: Callable[[Instruction], List[Value]],
        kills: Callable[[Instruction], bool],
    ) -> None:
        self._generates = generates
        self._kills = kills
        super().__init__(fn)

    def compute_universe(self) -> FrozenSet[Value]:
        values: Set[Value] = set()
        for inst in self.function.instructions():
            values.update(self._generates(inst))
        return frozenset(values)

    def gen_set(self, block: BasicBlock) -> FrozenSet[Value]:
        available: Set[Value] = set()
        for inst in block.instructions:
            if self._kills(inst):
                available.clear()
            available.update(self._generates(inst))
        return frozenset(available)

    def kill_set(self, block: BasicBlock) -> FrozenSet[Value]:
        if any(self._kills(inst) for inst in block.instructions):
            return self.universe
        return frozenset()
