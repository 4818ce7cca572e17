"""Available values: an iterative forward must-dataflow analysis.

The solver works on per-block GEN/KILL sets (classic bit-vector style,
here with Python frozensets) and iterates forward in reverse post-order
to a fixed point, meeting predecessors by intersection.  CARAT's AC/DC
redundancy analysis (Section 4.1.1, Optimization 3) is an *available
expressions* problem over pointer definitions, which this solves
directly.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, List, Set

from repro.analysis.cfg import reverse_post_order
from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock, Function


class BlockFacts:
    """IN/OUT sets of one block after a dataflow run."""

    __slots__ = ("in_set", "out_set")

    def __init__(
        self, in_set: FrozenSet[Hashable], out_set: FrozenSet[Hashable]
    ) -> None:
        self.in_set = in_set
        self.out_set = out_set


class AvailableValues:
    """Forward must-analysis: values available on *every* path to a block,
    ``IN[i] = ∩ OUT[p]`` over predecessors (empty at the entry),
    ``OUT[i] = (IN[i] − KILL[i]) ∪ GEN[i]``.

    This is the dataflow core of CARAT's AC/DC analysis (Optimization 3),
    whose elements are pointer definitions.  ``generates`` names what an
    instruction makes available, and ``kills`` is parameterized so the
    caller (the guard optimizer) can decide which instructions invalidate
    previously-checked pointers (e.g. calls that may free memory, or a
    kernel region change).
    """

    def __init__(
        self,
        fn: Function,
        generates: Callable[[Instruction], List[Hashable]],
        kills: Callable[[Instruction], bool],
    ) -> None:
        self.function = fn
        self._generates = generates
        self._kills = kills
        values: Set[Hashable] = set()
        for inst in fn.instructions():
            values.update(generates(inst))
        self.universe: FrozenSet[Hashable] = frozenset(values)

    def gen_set(self, block: BasicBlock) -> FrozenSet[Hashable]:
        available: Set[Hashable] = set()
        for inst in block.instructions:
            if self._kills(inst):
                available.clear()
            available.update(self._generates(inst))
        return frozenset(available)

    def kill_set(self, block: BasicBlock) -> FrozenSet[Hashable]:
        if any(self._kills(inst) for inst in block.instructions):
            return self.universe
        return frozenset()

    def solve(self) -> Dict[BasicBlock, BlockFacts]:
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
                    new_in: FrozenSet[Hashable] = frozenset()
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
