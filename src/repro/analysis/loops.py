"""Loop nesting forest built on top of ``ir.cfg.natural_loops``.

``natural_loops`` finds the loops; this module arranges them into a
nesting forest (LLVM LoopInfo analogue): per-block loop depth, the
innermost loop containing each block, and parent links between loops.
Loops sharing a header are already merged by ``natural_loops``, so for
reducible CFGs two loop bodies are either disjoint or strictly nested.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.cfg import DominatorTree, Loop, is_reducible, natural_loops
from ..ir.function import Function


class LoopInfo:
    """Loop nesting forest for one function.

    ``loops`` is sorted innermost-first (ascending body size, then header
    label) so clients can fold over loops from the inside out; ``depth``
    maps every block label to the number of loops containing it (0 =
    outside all loops); ``reducible`` caches the CFG's reducibility so
    clients relying on nesting invariants can gate on it.
    """

    __slots__ = ("loops", "depth", "_innermost", "parent", "reducible")

    def __init__(self, fn: Function):
        dom = DominatorTree.from_function(fn)
        self.loops: List[Loop] = sorted(
            natural_loops(fn, dom), key=lambda lp: (len(lp.body), lp.header))
        self.reducible: bool = is_reducible(fn, dom)
        self.depth: Dict[str, int] = {b.label: 0 for b in fn.blocks}
        self._innermost: Dict[str, Loop] = {}
        for loop in reversed(self.loops):  # outermost-first: innermost wins
            for label in loop.body:
                if label in self.depth:
                    self.depth[label] += 1
                self._innermost[label] = loop
        # Parent of loop L = the smallest strictly-containing loop.
        self.parent: Dict[str, Optional[Loop]] = {}
        for i, loop in enumerate(self.loops):
            parent = None
            for outer in self.loops[i + 1:]:
                if loop.header in outer.body and outer.header != loop.header:
                    parent = outer
                    break
            self.parent[loop.header] = parent

    def loop_depth(self, label: str) -> int:
        return self.depth.get(label, 0)

    def innermost_loop(self, label: str) -> Optional[Loop]:
        return self._innermost.get(label)

    def is_loop_header(self, label: str) -> bool:
        return any(loop.header == label for loop in self.loops)

    def is_back_edge(self, src: str, dst: str) -> bool:
        """True when ``src -> dst`` is a latch edge of some natural loop."""
        return any(loop.header == dst and src in loop.latches
                   for loop in self.loops)
