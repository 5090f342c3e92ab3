"""Loop-invariant code motion.

The paper's canonical *code duplication / code motion* hazard (sec. III.A(b)):
LICM moves instructions into colder regions while their debug line stays the
same, which is why DWARF correlation uses a max-over-instructions heuristic.
The pass itself is profile-independent and runs in every build.

Safety rules for the non-SSA register machine (all must hold to hoist an
instruction ``I`` defining ``r`` out of loop ``L``):

* ``I`` is pure (mov/binop/cmp) or a load from an array not stored to inside
  ``L`` while ``L`` contains no calls (calls may write global arrays);
* all register operands of ``I`` are loop-invariant (no definition in ``L``);
* ``r`` has exactly one definition inside ``L`` (``I`` itself);
* every use of ``r`` inside ``L`` is dominated by ``I``;
* ``r`` is dead after the loop, or ``I``'s block dominates every loop exit.

Analyses, once per function.  A hoist moves one non-terminator instruction
to just before the preheader's terminator, so it never changes the CFG; the
function's :class:`DominatorTree` is built once, before ``natural_loops``,
and rebuilt only when ``_ensure_preheader`` inserts a block.  The loops
themselves are found once, before any preheader exists.

"``r`` is dead after the loop" asks whether ``r`` is live into some exit
target, in the sense of ``compute_liveness``'s ``live_in``.  That is the
least fixpoint of ``in(B) = use(B) | (out(B) - def(B))``, and a register is
in the least fixpoint exactly when some path from the top of ``B`` reaches
a use of it before any definition of it.  ``_live_into`` searches for such
a path in the IR as it stands at the query, so there is no liveness to
keep in step with the hoists.  After each hoist the scan restarts from the
top of the loop, which fixes the order in which instructions land in the
preheader.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from .. import telemetry
from ..ir.cfg import (DominatorTree, Loop, loop_exits, natural_loops,
                      predecessors_map)
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import (Assign, BinOp, Br, Call, Cmp, CondBr, Instr,
                               Load, Store)
from .pass_manager import OptConfig


def _ensure_preheader(fn: Function,
                      loop: Loop) -> Tuple[Optional[BasicBlock], bool]:
    """Find or create the unique out-of-loop predecessor block of the header.

    Returns the preheader (None when the header has no outside predecessor)
    and whether a block was inserted, i.e. whether the CFG changed.
    """
    preds = predecessors_map(fn)
    outside = [p for p in preds[loop.header] if p not in loop.body]
    if not outside:
        return None, False  # unreachable loop or header == entry with no preds
    if len(outside) == 1:
        pred = fn.block(outside[0])
        if len(pred.successors()) == 1:
            return pred, False
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
    return preheader, True


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
    dom = DominatorTree.from_function(fn)
    for loop in natural_loops(fn, dom):
        preheader, inserted = _ensure_preheader(fn, loop)
        if preheader is None:
            continue
        if inserted:
            dom = DominatorTree.from_function(fn)
        hoisted_total += _licm_loop(fn, loop, preheader, dom)
    return hoisted_total


def _licm_loop(fn: Function, loop: Loop, preheader: BasicBlock,
               dom: DominatorTree) -> int:
    hoisted_total = 0
    changed = True
    while changed:
        changed = False
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
                if not all(dom.dominates(label, t) for t in exit_targets
                           if t in dom.idom) \
                        and _live_into(fn, dst, exit_targets):
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


def _live_into(fn: Function, reg: str, targets: Iterable[str]) -> bool:
    """True when ``reg`` is live on entry to any block in ``targets``: some
    path from the top of a target reaches a use of ``reg`` before any
    definition of it (an instruction's uses read before its definition)."""
    seen = set(targets)
    worklist = list(seen)
    while worklist:
        block = fn.block(worklist.pop())
        for instr in block.instrs:
            if reg in instr.uses():
                return True
            if instr.defined() == reg:
                break
        else:
            for succ in block.successors():
                if succ not in seen:
                    seen.add(succ)
                    worklist.append(succ)
    return False


def _hoistable_kind(instr: Instr, stored_arrays: Set[str], has_call: bool) -> bool:
    if isinstance(instr, (Assign, BinOp, Cmp)):
        return True
    if isinstance(instr, Load):
        return instr.array not in stored_arrays and not has_call
    return False


def _uses_dominated(fn: Function, loop: Loop, dom: DominatorTree,
                    def_label: str, def_idx: int, reg: str) -> bool:
    for label in loop.body:
        block = fn.block(label)
        for idx, instr in enumerate(block.instrs):
            if reg in instr.uses():
                if label == def_label:
                    if idx < def_idx:
                        return False
                elif not dom.dominates(def_label, label):
                    return False
    return True


def licm(module: Module, config: OptConfig = None) -> None:
    if config is not None and not config.enable_licm:
        return
    for fn in module.functions.values():
        hoisted = licm_function(fn)
        if hoisted:
            telemetry.count("pass.licm", "instructions_hoisted", hoisted)
