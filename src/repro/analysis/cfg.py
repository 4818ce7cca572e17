"""Control-flow graph utilities.

Blocks already know their successors (via terminators) and predecessors
(via use lists); this module adds reverse post-order, the reachability
query SSA construction needs, and unreachable-block removal.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from repro.ir.module import BasicBlock, Function


def reverse_post_order(fn: Function) -> List[BasicBlock]:
    """Blocks in reverse post-order from the entry.

    Unreachable blocks are excluded.  RPO visits every block before any of
    its successors (except along back edges), which is the iteration order
    that makes forward dataflow converge fastest.
    """
    visited: Set[int] = set()
    post: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack: List[Tuple[BasicBlock, Iterator[BasicBlock]]] = [
            (block, iter(block.successors()))
        ]
        visited.add(id(block))
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if id(succ) not in visited:
                    visited.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                post.append(current)
                stack.pop()

    if fn.blocks:
        visit(fn.entry)
    return list(reversed(post))


def reachable_blocks(fn: Function) -> Set[BasicBlock]:
    return set(reverse_post_order(fn))


def remove_unreachable_blocks(fn: Function) -> int:
    """Delete blocks not reachable from the entry.  Returns the count removed.

    Phi nodes in surviving blocks are cleaned of incoming entries from the
    deleted blocks.
    """
    reachable = reachable_blocks(fn)
    doomed = [b for b in fn.blocks if b not in reachable]
    if not doomed:
        return 0
    doomed_set = set(map(id, doomed))
    for block in fn.blocks:
        if id(block) in doomed_set:
            continue
        for phi in block.phis():
            for _, pred in list(phi.incoming):
                if id(pred) in doomed_set:
                    phi.remove_incoming(pred)
    # Sever all operand uses inside doomed blocks so cross-references among
    # doomed blocks do not keep each other alive.
    for block in doomed:
        for inst in list(block.instructions):
            inst.drop_all_operands()
    for block in doomed:
        for inst in list(block.instructions):
            for use in inst.uses:
                # Any remaining users must themselves be doomed phis; detach.
                use.user.drop_all_operands()
        fn.blocks.remove(block)
    return len(doomed)
