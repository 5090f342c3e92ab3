"""CFG analyses: predecessors, reverse post-order, dominators, natural loops.

These are the minimum analyses the optimization passes need, recomputed
from the IR on demand.  ``DominatorTree`` (Cooper–Harvey–Kennedy) is the
one dominator implementation; ``repro.analysis`` re-exports it next to
the post-dominator tree.

A dominator tree is a function of the CFG's edges alone, and only a
change to a terminator or to the block list changes those.  Moving a
non-terminator instruction from one block to another leaves every tree
built before the move valid.  LICM relies on this: it builds one tree per
function and rebuilds it only when it inserts a preheader block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .function import BasicBlock, Function


def successors_map(fn: Function) -> Dict[str, List[str]]:
    return {b.label: b.successors() for b in fn.blocks}


def predecessors_map(fn: Function) -> Dict[str, List[str]]:
    preds: Dict[str, List[str]] = {b.label: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            preds[succ].append(block.label)
    return preds


def reverse_post_order(fn: Function) -> List[str]:
    """Labels of reachable blocks in reverse post-order from the entry."""
    visited: Set[str] = set()
    order: List[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(fn.block(label).successors()))]
        visited.add(label)
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(fn.block(succ).successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(fn.entry.label)
    order.reverse()
    return order


def reachable_blocks(fn: Function) -> Set[str]:
    return set(reverse_post_order(fn))


def build_idoms(order: List[str], preds: Dict[str, List[str]],
                entry: str) -> Dict[str, Optional[str]]:
    """Cooper–Harvey–Kennedy over ``order`` (reverse post-order from entry).

    Returns the immediate dominator of every node reachable from
    ``entry``; ``entry`` maps to None.  Predecessors that are not
    reachable are ignored.
    """
    index = {label: i for i, label in enumerate(order)}
    idom: Dict[str, str] = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            processed = [p for p in preds.get(label, ()) if p in idom]
            if not processed:
                continue
            new = processed[0]
            for pred in processed[1:]:
                new = intersect(new, pred)
            if idom.get(label) != new:
                idom[label] = new
                changed = True
    result: Dict[str, Optional[str]] = dict(idom)
    result[entry] = None
    return result


class DominatorTree:
    """Immediate-dominator tree over a function's reachable blocks.

    ``idom`` maps each reachable label to its immediate dominator (the
    root maps to None); ``children`` is the inverse, sorted for
    determinism; ``level`` is the root-relative tree depth used for O(1)
    ancestor pruning in :meth:`dominates`.
    """

    __slots__ = ("root", "idom", "children", "level")

    def __init__(self, root: str, idom: Dict[str, Optional[str]]):
        self.root = root
        self.idom = idom
        self.children: Dict[str, List[str]] = {label: [] for label in idom}
        for label, parent in idom.items():
            if parent is not None:
                self.children[parent].append(label)
        for kids in self.children.values():
            kids.sort()
        self.level: Dict[str, int] = {root: 0}
        worklist = list(self.children[root])
        while worklist:
            label = worklist.pop()
            parent = self.idom[label]
            assert parent is not None
            self.level[label] = self.level[parent] + 1
            worklist.extend(self.children[label])

    @classmethod
    def from_function(cls, fn: Function) -> "DominatorTree":
        order = reverse_post_order(fn)
        preds = predecessors_map(fn)
        return cls(fn.entry.label, build_idoms(order, preds, fn.entry.label))

    def dominates(self, a: str, b: str) -> bool:
        """True when ``a`` dominates ``b`` (every node dominates itself)."""
        if a not in self.level or b not in self.level:
            return False
        while self.level[b] > self.level[a]:
            parent = self.idom[b]
            assert parent is not None
            b = parent
        return a == b

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def depth(self, label: str) -> int:
        return self.level[label]


def back_edges(fn: Function,
               dom: Optional[DominatorTree] = None) -> List[Tuple[str, str]]:
    """Edges ``(tail, header)`` whose target dominates their source.

    ``dom``, when given, must be the dominator tree of ``fn``'s current CFG.
    """
    if dom is None:
        dom = DominatorTree.from_function(fn)
    edges = []
    for block in fn.blocks:
        if block.label not in dom.idom:
            continue
        for succ in block.successors():
            if dom.dominates(succ, block.label):
                edges.append((block.label, succ))
    return edges


def is_reducible(fn: Function, dom: Optional[DominatorTree] = None) -> bool:
    """True when removing all back edges leaves the reachable CFG acyclic.

    All structured control flow (the workload generator emits only
    if/else and counted loops) is reducible; irreducible regions can only
    come from hand-built IR, and analyses that rely on loop nesting
    (frequency propagation, the profile linter's monotonicity rule) must
    degrade gracefully on them.  ``dom`` is as in :func:`back_edges`.
    """
    if dom is None:
        dom = DominatorTree.from_function(fn)
    reachable = dom.idom  # the tree spans exactly the reachable blocks
    removed = set(back_edges(fn, dom))
    indegree: Dict[str, int] = {label: 0 for label in reachable}
    succs: Dict[str, List[str]] = {label: [] for label in reachable}
    for label in reachable:
        for succ in fn.block(label).successors():
            if succ in reachable and (label, succ) not in removed:
                succs[label].append(succ)
                indegree[succ] += 1
    worklist = [label for label, deg in sorted(indegree.items()) if deg == 0]
    seen = 0
    while worklist:
        current = worklist.pop()
        seen += 1
        for succ in succs[current]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                worklist.append(succ)
    return seen == len(reachable)


class Loop:
    """A natural loop: header plus body block labels (header included)."""

    __slots__ = ("header", "body", "latches")

    def __init__(self, header: str, body: Set[str], latches: Set[str]):
        self.header = header
        self.body = body
        self.latches = latches

    def __repr__(self) -> str:
        return f"<Loop header={self.header} blocks={sorted(self.body)}>"


def natural_loops(fn: Function,
                  dom: Optional[DominatorTree] = None) -> List[Loop]:
    """Find natural loops via back edges (tail dominated by head).

    Loops sharing a header are merged, matching LLVM's LoopInfo behaviour.
    ``dom``, when given, must be the dominator tree of ``fn``'s current CFG.
    """
    if dom is None:
        dom = DominatorTree.from_function(fn)
    preds = predecessors_map(fn)
    reachable = dom.idom
    loops: Dict[str, Loop] = {}
    for block in fn.blocks:
        if block.label not in reachable:
            continue
        for succ in block.successors():
            if dom.dominates(succ, block.label):  # back edge block -> succ
                header = succ
                body: Set[str] = {header, block.label}
                worklist = [block.label]
                while worklist:
                    current = worklist.pop()
                    if current == header:
                        continue
                    for pred in preds[current]:
                        if pred not in body and pred in reachable:
                            body.add(pred)
                            worklist.append(pred)
                if header in loops:
                    loops[header].body |= body
                    loops[header].latches.add(block.label)
                else:
                    loops[header] = Loop(header, body, {block.label})
    return list(loops.values())


def loop_exits(fn: Function, loop: Loop) -> List[Tuple[str, str]]:
    """Edges (from_label, to_label) leaving the loop body."""
    exits = []
    for label in loop.body:
        for succ in fn.block(label).successors():
            if succ not in loop.body:
                exits.append((label, succ))
    return exits
