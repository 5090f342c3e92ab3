"""Set-based dominators: the oracle for ``ir.cfg.DominatorTree``.

Classic iterative dataflow over dominator sets, plus the natural-loop and
back-edge analyses written against those sets.  ``assert_matches_tree``
checks the production tree and the loop analyses built on it against
these on one function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import (DominatorTree, Loop, natural_loops,
                          predecessors_map, reverse_post_order)
from repro.ir.cfg import back_edges as tree_back_edges
from repro.ir.function import Function


def dominators(fn: Function) -> Dict[str, Set[str]]:
    """Classic iterative dominator sets (block label -> set of dominators)."""
    rpo = reverse_post_order(fn)
    preds = predecessors_map(fn)
    all_blocks = set(rpo)
    dom: Dict[str, Set[str]] = {label: set(all_blocks) for label in rpo}
    entry = fn.entry.label
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == entry:
                continue
            pred_doms = [dom[p] for p in preds[label] if p in all_blocks]
            new = set.intersection(*pred_doms) if pred_doms else set()
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def immediate_dominators(fn: Function) -> Dict[str, Optional[str]]:
    """Immediate dominators (label -> idom label, entry -> None).

    Derived from the dominator sets: a block's idom is its deepest strict
    dominator, i.e. the strict dominator with the largest dominator set.
    """
    dom = dominators(fn)
    entry = fn.entry.label
    idom: Dict[str, Optional[str]] = {entry: None}
    for label, doms in dom.items():
        if label == entry:
            continue
        strict = doms - {label}
        idom[label] = max(strict, key=lambda d: (len(dom[d]), d))
    return idom


def back_edges(fn: Function) -> List[Tuple[str, str]]:
    """Edges ``(tail, header)`` whose target dominates their source."""
    dom = dominators(fn)
    edges = []
    for block in fn.blocks:
        if block.label not in dom:
            continue
        for succ in block.successors():
            if succ in dom[block.label]:
                edges.append((block.label, succ))
    return edges


def natural_loops_from_sets(fn: Function) -> List[Loop]:
    """Natural loops over the dominator sets, header-merged like LoopInfo."""
    dom = dominators(fn)
    preds = predecessors_map(fn)
    reachable = set(dom)
    loops: Dict[str, Loop] = {}
    for block in fn.blocks:
        if block.label not in reachable:
            continue
        for succ in block.successors():
            if succ in dom[block.label]:  # back edge block -> succ
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


def assert_matches_tree(fn: Function) -> None:
    """The tree, ``natural_loops`` and ``back_edges`` agree with the sets:
    the full dominance relation over every block pair, the immediate
    dominators, each loop's header, body and latches in order, and the
    back edges in order."""
    dom = dominators(fn)
    tree = DominatorTree.from_function(fn)
    assert tree.idom == immediate_dominators(fn)
    labels = [block.label for block in fn.blocks]
    for b in labels:
        for a in labels:
            assert tree.dominates(a, b) == (b in dom and a in dom[b]), \
                f"{fn.name}: dominates({a}, {b})"
    expected = natural_loops_from_sets(fn)
    for loops in (natural_loops(fn), natural_loops(fn, tree)):
        assert [(lp.header, lp.body, lp.latches) for lp in loops] == \
            [(lp.header, lp.body, lp.latches) for lp in expected]
    assert tree_back_edges(fn) == back_edges(fn)
