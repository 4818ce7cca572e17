"""Natural loop detection and loop utilities.

A *natural loop* is identified by a back edge ``latch -> header`` where the
header dominates the latch; its body is every block that can reach the
latch without passing through the header.  Loops sharing a header are
merged.  :class:`LoopInfo` also materializes the nesting forest and can
create a dedicated *preheader* — the landing pad CARAT's Opt-1 hoists
guards into ("the pre-header of that loop", Section 4.1.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.dominators import DominatorTree
from repro.ir.builder import IRBuilder
from repro.ir.instructions import BranchInst
from repro.ir.module import BasicBlock, Function


class Loop:
    def __init__(self, header: BasicBlock) -> None:
        self.header = header
        # An insertion-ordered dict used as a set: blocks hash by
        # identity, so a ``set`` would iterate in address order and make
        # hoisting order differ between compiles of the same source.
        self.blocks: Dict[BasicBlock, None] = {header: None}
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.subloops: List["Loop"] = []

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    @property
    def depth(self) -> int:
        depth = 1
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def exits(self) -> List[BasicBlock]:
        """Blocks outside the loop that are branched to from inside."""
        result: List[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks and succ not in result:
                    result.append(succ)
        return result

    def exiting_blocks(self) -> List[BasicBlock]:
        result = []
        for block in self.blocks:
            if any(s not in self.blocks for s in block.successors()):
                result.append(block)
        return result

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if it exists and
        branches only to the header."""
        outside = [
            p for p in self.header.predecessors() if p not in self.blocks
        ]
        if len(outside) != 1:
            return None
        candidate = outside[0]
        if candidate.successors() != [self.header]:
            return None
        return candidate

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        return (
            f"<Loop header=%{self.header.name} blocks={len(self.blocks)} "
            f"depth={self.depth}>"
        )


class LoopInfo:
    """The loop nesting forest of a function."""

    def __init__(self, fn: Function, loops: List[Loop]) -> None:
        self.function = fn
        self.loops = loops  # all loops, outermost first
        self._loop_of: Dict[BasicBlock, Loop] = {}
        for loop in sorted(loops, key=lambda l: len(l.blocks), reverse=True):
            for block in loop.blocks:
                # Innermost loop wins: smaller loops assigned later.
                self._loop_of[block] = loop

    @classmethod
    def compute(cls, fn: Function, domtree: Optional[DominatorTree] = None) -> "LoopInfo":
        if domtree is None:
            domtree = DominatorTree.compute(fn)
        headers: Dict[BasicBlock, Loop] = {}
        for block in fn.blocks:
            if not domtree.is_reachable(block):
                continue
            for succ in block.successors():
                if domtree.dominates(succ, block):
                    loop = headers.get(succ)
                    if loop is None:
                        loop = Loop(succ)
                        headers[succ] = loop
                    loop.latches.append(block)
                    cls._collect_body(loop, block)
        loops = list(headers.values())
        cls._build_nesting(loops)
        ordered = sorted(loops, key=lambda l: l.depth)
        return cls(fn, ordered)

    @staticmethod
    def _collect_body(loop: Loop, latch: BasicBlock) -> None:
        stack = [latch]
        while stack:
            block = stack.pop()
            if block in loop.blocks:
                continue
            loop.blocks[block] = None
            stack.extend(block.predecessors())

    @staticmethod
    def _build_nesting(loops: List[Loop]) -> None:
        by_size = sorted(loops, key=lambda l: len(l.blocks))
        for i, inner in enumerate(by_size):
            for outer in by_size[i + 1 :]:
                if inner is not outer and inner.header in outer.blocks:
                    inner.parent = outer
                    outer.subloops.append(inner)
                    break

    # -- queries ----------------------------------------------------------------

    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, or None."""
        return self._loop_of.get(block)

    # -- transforms -----------------------------------------------------------------

    def ensure_preheader(self, loop: Loop) -> BasicBlock:
        """Return the loop's preheader, creating one if needed.

        Creating a preheader retargets all out-of-loop predecessors of the
        header to a fresh block that jumps to the header, and splits phi
        incoming values accordingly.
        """
        existing = loop.preheader()
        if existing is not None:
            return existing
        fn = self.function
        header = loop.header
        outside = [p for p in header.predecessors() if p not in loop.blocks]
        pre = fn.add_block(f"preheader.{header.name}", before=header)
        builder = IRBuilder(pre)

        # Phis in the header: fold the outside incoming values into a new phi
        # in the preheader (or a direct value if there is only one outside
        # predecessor).
        for phi in header.phis():
            outside_pairs = [
                (v, b) for v, b in phi.incoming if b not in loop.blocks
            ]
            if not outside_pairs:
                continue
            if len(outside_pairs) == 1:
                merged = outside_pairs[0][0]
            else:
                from repro.ir.instructions import PhiInst

                merged_phi = PhiInst(phi.type)
                merged_phi.name = fn.unique_name(f"{phi.name}.pre")
                pre.insert(0, merged_phi)
                for value, block in outside_pairs:
                    merged_phi.add_incoming(value, block)
                merged = merged_phi
            for _, block in outside_pairs:
                phi.remove_incoming(block)
            phi.add_incoming(merged, pre)

        builder.position_at_end(pre)
        builder.br(header)

        for pred in outside:
            term = pred.terminator
            assert isinstance(term, BranchInst)
            for i, operand in enumerate(term.operands):
                if operand is header:
                    term.set_operand(i, pre)

        # Bookkeeping: the preheader belongs to any loop that contains all
        # the outside predecessors *and* the header (i.e. enclosing loops).
        enclosing = loop.parent
        while enclosing is not None:
            enclosing.blocks[pre] = None
            enclosing = enclosing.parent
        if loop.parent is not None:
            self._loop_of[pre] = loop.parent
        return pre
