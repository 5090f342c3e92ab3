"""Recompute-per-hoist LICM: the oracle for ``repro.opt.licm``.

The straightforward form of the pass.  After every single hoist it
recomputes the dominator sets and whole-function liveness from scratch,
and it finds loops with the set-based dominators.  The production pass
must hoist the same instructions, in the same order, into the same
preheaders.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.ir.cfg import Loop, loop_exits, predecessors_map
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (Assign, BinOp, Br, Call, Cmp, CondBr, Instr,
                                   Load, Store)
from repro.opt.liveness import compute_liveness

from .dominance import dominators, natural_loops_from_sets


def _ensure_preheader(fn: Function, loop: Loop) -> Optional[BasicBlock]:
    """Find or create the unique out-of-loop predecessor block of the header."""
    preds = predecessors_map(fn)
    outside = [p for p in preds[loop.header] if p not in loop.body]
    if not outside:
        return None  # unreachable loop or header == entry with no preds
    if len(outside) == 1:
        pred = fn.block(outside[0])
        if len(pred.successors()) == 1:
            return pred
    # Create a dedicated preheader and retarget all outside predecessors.
    label = fn.fresh_label("preheader")
    preheader = BasicBlock(label, [Br(loop.header)])
    fn.add_block(preheader)
    for pred_label in outside:
        term = fn.block(pred_label).instrs[-1]
        if isinstance(term, Br) and term.target == loop.header:
            term.target = label
        elif isinstance(term, CondBr):
            if term.true_target == loop.header:
                term.true_target = label
            if term.false_target == loop.header:
                term.false_target = label
    return preheader


def _loop_defs(fn: Function, loop: Loop) -> Dict[str, int]:
    defs: Dict[str, int] = {}
    for label in loop.body:
        for instr in fn.block(label).instrs:
            defined = instr.defined()
            if defined is not None:
                defs[defined] = defs.get(defined, 0) + 1
    return defs


def _stores_and_calls(fn: Function, loop: Loop) -> Tuple[Set[str], bool]:
    stored: Set[str] = set()
    has_call = False
    for label in loop.body:
        for instr in fn.block(label).instrs:
            if isinstance(instr, Store):
                stored.add(instr.array)
            elif isinstance(instr, Call):
                has_call = True
    return stored, has_call


def licm_function(fn: Function) -> int:
    hoisted_total = 0
    for loop in natural_loops_from_sets(fn):
        hoisted_total += _licm_loop(fn, loop)
    return hoisted_total


def _licm_loop(fn: Function, loop: Loop) -> int:
    preheader = _ensure_preheader(fn, loop)
    if preheader is None:
        return 0
    hoisted_total = 0
    changed = True
    while changed:
        changed = False
        dom = dominators(fn)
        liveness = compute_liveness(fn)
        defs = _loop_defs(fn, loop)
        stored_arrays, has_call = _stores_and_calls(fn, loop)
        exits = loop_exits(fn, loop)
        exit_targets = {t for _, t in exits}
        for label in sorted(loop.body):
            block = fn.block(label)
            for idx, instr in enumerate(block.instrs):
                if not _hoistable_kind(instr, stored_arrays, has_call):
                    continue
                if any(defs.get(reg, 0) > 0 for reg in instr.uses()):
                    continue
                dst = instr.defined()
                if dst is None or defs.get(dst, 0) != 1:
                    continue
                if not _uses_dominated(fn, loop, dom, label, idx, dst):
                    continue
                live_after = any(dst in liveness.live_in[t] for t in exit_targets
                                 if t in liveness.live_in)
                if live_after and not all(label in dom[t] for t in exit_targets
                                          if t in dom):
                    continue
                # Hoist: insert before the preheader terminator.
                block.instrs.pop(idx)
                preheader.instrs.insert(len(preheader.instrs) - 1, instr)
                hoisted_total += 1
                changed = True
                break
            if changed:
                break
    return hoisted_total


def _hoistable_kind(instr: Instr, stored_arrays: Set[str], has_call: bool) -> bool:
    if isinstance(instr, (Assign, BinOp, Cmp)):
        return True
    if isinstance(instr, Load):
        return instr.array not in stored_arrays and not has_call
    return False


def _uses_dominated(fn: Function, loop: Loop, dom: Dict[str, Set[str]],
                    def_label: str, def_idx: int, reg: str) -> bool:
    for label in loop.body:
        block = fn.block(label)
        for idx, instr in enumerate(block.instrs):
            if reg in instr.uses():
                if label == def_label:
                    if idx < def_idx:
                        return False
                elif def_label not in dom.get(label, set()):
                    return False
    return True
