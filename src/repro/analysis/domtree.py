"""Post-dominator tree (Cooper–Harvey–Kennedy), next to the dominator tree.

``DominatorTree`` itself lives in ``ir.cfg``, where the optimizer's
natural-loop and back-edge analyses use it; this package re-exports it.
The post-dominator tree is built by the same engine: it is the dominator
tree of the reversed CFG rooted at a virtual exit node that all returning
(or successor-less) blocks feed into, which handles multi-exit functions
uniformly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.cfg import DominatorTree, build_idoms, successors_map
from ..ir.function import Function
from ..ir.instructions import Ret

#: Label of the synthetic exit block used to root the post-dominator tree.
VIRTUAL_EXIT = "<virtual-exit>"


class PostDominatorTree(DominatorTree):
    """Dominator tree of the reversed CFG, rooted at :data:`VIRTUAL_EXIT`.

    Blocks that cannot reach any exit (infinite loops) do not appear in
    the tree; ``dominates`` returns False for them, which is the
    conservative answer for every client here.
    """

    @classmethod
    def from_function(cls, fn: Function) -> "PostDominatorTree":
        succs = successors_map(fn)
        # Reverse graph: virtual exit -> every exit block, edges flipped.
        rev_succs: Dict[str, List[str]] = {VIRTUAL_EXIT: []}
        rev_preds: Dict[str, List[str]] = {}
        for label, targets in succs.items():
            rev_succs.setdefault(label, [])
            for target in targets:
                rev_succs.setdefault(target, []).append(label)
                rev_preds.setdefault(label, []).append(target)
        for block in fn.blocks:
            terminator = block.instrs[-1] if block.instrs else None
            if isinstance(terminator, Ret) or not block.successors():
                rev_succs[VIRTUAL_EXIT].append(block.label)
                rev_preds.setdefault(block.label, []).append(VIRTUAL_EXIT)
        order = _rpo_generic(VIRTUAL_EXIT, rev_succs)
        return cls(VIRTUAL_EXIT, build_idoms(order, rev_preds, VIRTUAL_EXIT))

    def post_dominates(self, a: str, b: str) -> bool:
        return self.dominates(a, b)


def _rpo_generic(entry: str, succs: Dict[str, List[str]]) -> List[str]:
    """Iterative reverse post-order over an explicit successor map."""
    visited = {entry}
    order: List[str] = []
    stack: List[Tuple[str, int]] = [(entry, 0)]
    while stack:
        label, cursor = stack[-1]
        targets = succs.get(label, [])
        if cursor < len(targets):
            stack[-1] = (label, cursor + 1)
            target = targets[cursor]
            if target not in visited:
                visited.add(target)
                stack.append((target, 0))
        else:
            order.append(label)
            stack.pop()
    order.reverse()
    return order
