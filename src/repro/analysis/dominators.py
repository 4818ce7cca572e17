"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
Dominance Algorithm"), which is near-linear in practice and easy to get
right.  The dominator tree drives SSA construction (mem2reg), the verifier,
LICM's safety checks, and the AC/DC redundancy analysis.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.cfg import reverse_post_order
from repro.ir.module import BasicBlock, Function


class DominatorTree:
    """Immediate-dominator tree for the reachable blocks of a function."""

    def __init__(
        self,
        fn: Function,
        idom: Dict[BasicBlock, Optional[BasicBlock]],
        rpo_index: Dict[BasicBlock, int],
    ) -> None:
        self.function = fn
        self._idom = idom
        self._rpo_index = rpo_index
        self._children: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in idom
        }
        for block, parent in idom.items():
            if parent is not None:
                self._children[parent].append(block)
        # Pre-compute DFS entry/exit numbering on the dominator tree so
        # `dominates` is O(1).
        self._dfs_in: Dict[BasicBlock, int] = {}
        self._dfs_out: Dict[BasicBlock, int] = {}
        self._number_tree()

    @classmethod
    def compute(cls, fn: Function) -> "DominatorTree":
        rpo = reverse_post_order(fn)
        rpo_index = {block: i for i, block in enumerate(rpo)}
        entry = fn.entry
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: None}

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while rpo_index[a] > rpo_index[b]:
                    parent = idom[a]
                    assert parent is not None
                    a = parent
                while rpo_index[b] > rpo_index[a]:
                    parent = idom[b]
                    assert parent is not None
                    b = parent
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in block.predecessors():
                    if pred not in rpo_index:
                        continue  # unreachable predecessor
                    if pred is entry or pred in idom:
                        if new_idom is None:
                            new_idom = pred
                        else:
                            new_idom = intersect(pred, new_idom)
                if new_idom is None:
                    continue
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        return cls(fn, idom, rpo_index)

    def _number_tree(self) -> None:
        counter = 0
        root = self.function.entry
        stack: List = [(root, False)]
        while stack:
            block, done = stack.pop()
            if done:
                self._dfs_out[block] = counter
                counter += 1
                continue
            self._dfs_in[block] = counter
            counter += 1
            stack.append((block, True))
            for child in self._children.get(block, []):
                stack.append((child, False))

    # -- queries -------------------------------------------------------------

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator, or None for the entry / unreachable blocks."""
        return self._idom.get(block)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children.get(block, []))

    def is_reachable(self, block: BasicBlock) -> bool:
        return block in self._rpo_index

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True when ``a`` dominates ``b`` (reflexive)."""
        if a not in self._dfs_in or b not in self._dfs_in:
            return False
        return (
            self._dfs_in[a] <= self._dfs_in[b]
            and self._dfs_out[b] <= self._dfs_out[a]
        )

    def dominance_frontier(self) -> Dict[BasicBlock, Dict[BasicBlock, None]]:
        """Dominance frontiers for every reachable block (Cooper et al. §4).

        Each frontier is an insertion-ordered dict used as a set: blocks
        hash by identity, so a ``set`` would iterate in address order and
        make phi placement differ between compiles of the same source."""
        frontier: Dict[BasicBlock, Dict[BasicBlock, None]] = {
            block: {} for block in self._idom
        }
        for block in self._idom:
            preds = [p for p in block.predecessors() if p in self._idom]
            if len(preds) < 2:
                continue
            block_idom = self._idom[block]
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not block_idom:
                    frontier[runner][block] = None
                    runner = self._idom.get(runner)
        return frontier
