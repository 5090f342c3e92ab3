"""Pre-decoded threaded-code executor: the production-path interpreter.

The legacy :class:`~repro.hw.executor.MachineExecutor` re-dispatches on the
``kind`` string and re-checks register-vs-immediate operand types for every
retired instruction.  This module instead runs a one-time *decode* pass over
``Binary.instrs`` that partitions the program into basic blocks and compiles
each block into one specialized Python function (a single ``compile``/``exec``
per binary and observer variant):

* operand register-vs-immediate resolution happens at decode time — operands
  are emitted as dict subscripts or integer literals;
* branch/call/return targets are pre-resolved to instruction *indices*
  (no address->index dict lookups in the hot loop) and block functions return
  the index of the next block's leader;
* the i64 arithmetic is inlined into the generated source (mask/sign-adjust
  with literal constants) — no per-instruction dispatch into
  :mod:`repro.ir.semantics` except for ``sdiv``/``srem``;
* observer variants are specialized per (PMU mode, cost model) combination,
  so the pure-functional fast path contains **zero** observer code and the
  observed paths inline the per-instruction accounting:

  - the PMU period countdown is batched per straight-line block prefix
    (samples only read the LBR, the frame stack and instruction addresses,
    none of which straight-line code mutates, so prefix samples commute with
    prefix semantics and the streams stay bit-exact);
  - cost-model base cycles and icache line-change checks are emitted inline
    in exact legacy per-instruction order (float addition order is
    preserved), with line changes resolved statically inside a block.

Decoded programs are cached on the :class:`~repro.codegen.binary.Binary`
(keyed by observer variant), so repeated runs of the same artifact —
continuous-profiling iterations, evaluation runs, benchmark sweeps — skip
decoding entirely.  The cache is dropped on pickling (code objects and
closures don't serialize) and rebuilt on first use in the receiving process.

Skid stacks are lazy here: the executor maintains the return-address chain as
an immutable cons list, the PMU's ``lagged_capture`` hook is an O(1) pair
``(ip, cons-node)``, and the O(depth) materialization runs at most once per
sampling window instead of once per taken branch.

In PEBS mode a taken branch costs one C-level ``deque.append`` of its
``(source, target)`` pair onto the LBR ring, with no Python call.  The ring's
``recorded``/``wraps`` counters are settled once when the run ends (see
:func:`run_decoded` for the counting rule).

The instruction budget is enforced at block granularity: every block bumps
``st.retired`` by its length before executing and the dispatch loop checks
the limit between blocks, so ``MachineExecutionLimit`` still fires on every
instruction kind (including ``ret``) — a block may just overshoot by its own
length before the check trips.  The decoded engine is differentially tested
against the legacy loop (identical results, identical PMU sample streams,
identical cost-model cycles).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..codegen.binary import Binary
from ..ir.semantics import eval_binop
from ..perfmodel.cost_model import (BASE_COSTS, ICACHE_LINE_BITS,
                                    ICACHE_MISS_PENALTY, MISPREDICT_PENALTY,
                                    TAKEN_BRANCH_PENALTY)
from .executor import (MachineExecutionLimit, MachineExecutionResult,
                       MachineExecutor)
from .perf_data import PerfSample
from .pmu import PMU


class _Halt(Exception):
    """Internal: raised by the entry function's ``ret`` to stop the loop."""


class DFrame:
    """Activation record of the decoded engine.

    ``ret_addr`` caches the resumption address (``instrs[ret_idx].addr``) so
    stack walks and return LBR records need no instruction-table lookups.
    """

    __slots__ = ("regs", "slots", "locals", "ret_idx", "ret_dst", "ret_addr")


class _State:
    """Mutable run state threaded through every generated block function."""

    __slots__ = ("regs", "frame", "frames", "globals", "counters", "taken",
                 "return_value", "cur_ip", "ret_node", "retired", "until",
                 "lbr_append", "pmu_branch", "pmu_prefix", "pmu_fire", "cost")


class DecodedProgram:
    """One observer-specialized compilation of a binary."""

    __slots__ = ("ops", "entry_idx", "key", "decode_ns", "n_instrs",
                 "n_blocks")

    def __init__(self, ops: List[Optional[Callable]], entry_idx: int,
                 key: Tuple[Optional[str], bool], decode_ns: int,
                 n_blocks: int):
        self.ops = ops
        self.entry_idx = entry_idx
        self.key = key
        self.decode_ns = decode_ns
        self.n_instrs = len(ops)
        self.n_blocks = n_blocks


def _materialize_lagged(token) -> List[int]:
    """Expand an O(1) skid token ``(ip, cons-node)`` into a stack list."""
    ip, node = token
    stack = [ip]
    while node is not None:
        stack.append(node[0])
        node = node[1]
    return stack


# ---------------------------------------------------------------------------
# Source emission.  Every helper returns a list of unindented source lines;
# the block assembler indents them into one ``def _b<leader>(st):`` per block.
# ---------------------------------------------------------------------------

_MASK_LIT = "18446744073709551615"       # (1 << 64) - 1
_SIGN_LIT = "9223372036854775808"        # 1 << 63
_TWO64_LIT = "18446744073709551616"      # 1 << 64

_WRAP_OPS = {"add": "+", "sub": "-", "mul": "*",
             "and": "&", "or": "|", "xor": "^"}
_CMP_OPS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=",
            "sgt": ">", "sge": ">="}


def _v(x) -> str:
    """Operand expression: register subscript or integer literal."""
    return f"regs[{x!r}]" if type(x) is str else repr(x)


def _indent(lines: List[str], pad: str = "    ") -> List[str]:
    return [pad + ln for ln in lines]


def _sem_lines(ins, is_local: bool) -> List[str]:
    """Semantics of one non-control instruction (no observer code)."""
    k = ins.kind
    if k == "binop":
        d = f"regs[{ins.dst!r}]"
        a, b = _v(ins.a), _v(ins.b)
        op = ins.op
        if op in _WRAP_OPS:
            expr = f"({a} {_WRAP_OPS[op]} {b})"
        elif op == "shl":
            expr = f"({a} << ({b} % 64))"
        elif op == "ashr":
            expr = f"({a} >> ({b} % 64))"
        else:  # sdiv/srem need C-style truncation; keep the shared helper
            return [f"{d} = _eval_binop({op!r}, {a}, {b})"]
        return [f"v = {expr} & {_MASK_LIT}",
                f"{d} = v - {_TWO64_LIT} if v & {_SIGN_LIT} else v"]
    if k == "cmp":
        return [f"regs[{ins.dst!r}] = "
                f"1 if {_v(ins.a)} {_CMP_OPS[ins.op]} {_v(ins.b)} else 0"]
    if k == "mov":
        return [f"regs[{ins.dst!r}] = {_v(ins.a)}"]
    if k == "select":
        return [f"regs[{ins.dst!r}] = "
                f"{_v(ins.b)} if {_v(ins.a)} else {_v(ins.c)}"]
    if k == "load":
        mem = "st.frame.locals" if is_local else "st.globals"
        return [f"a_ = {mem}[{ins.a!r}]",
                f"regs[{ins.dst!r}] = a_[{_v(ins.b)} % len(a_)]"]
    if k == "store":
        mem = "st.frame.locals" if is_local else "st.globals"
        return [f"a_ = {mem}[{ins.a!r}]",
                f"a_[{_v(ins.b)} % len(a_)] = {_v(ins.c)}"]
    if k == "spill_ld":
        d = ins.dst
        return [f"regs[{d!r}] = st.frame.slots.get({ins.a!r}, "
                f"regs.get({d!r}, 0))"]
    if k == "spill_st":
        return [f"st.frame.slots[{ins.a!r}] = {_v(ins.b)}"]
    if k == "count":
        return [f"st.counters[({ins.a!r}, {ins.b!r})] += 1"]
    if k == "nop":
        return []
    raise RuntimeError(f"unknown machine instruction {k}")  # pragma: no cover


def _icache_lines(line: int, addr: int, prev_line: Optional[int]) -> List[str]:
    """Fetch-line accounting for a literal address.

    ``prev_line`` is the statically known ``_last_line`` before this
    instruction (None at block entry, where the incoming line is dynamic).
    """
    miss = [f"    cost.icache_cycles += {ICACHE_MISS_PENALTY!r}",
            f"    c += {ICACHE_MISS_PENALTY!r}"]
    if prev_line is None:
        return ([f"if cost._last_line != {line}:",
                 f"    cost._last_line = {line}",
                 f"    if not ica({addr}):"]
                + _indent(miss))
    if line != prev_line:
        return ([f"cost._last_line = {line}",
                 f"if not ica({addr}):"]
                + miss)
    return []


def _cost_retire_lines(base: float, addr: int, prev_line: Optional[int],
                       target) -> List[str]:
    """Inline ``CostModel.retire`` in exact legacy order.

    ``target`` is None (not a taken branch), a literal address, or the name
    of a local holding the dynamic return address (``"ra"``).
    """
    my_line = addr >> ICACHE_LINE_BITS
    ls = [f"c += {base!r}", f"b += {base!r}"]
    if target is not None:
        ls += [f"cost.branch_cycles += {TAKEN_BRANCH_PENALTY!r}",
               f"c += {TAKEN_BRANCH_PENALTY!r}"]
    ls += _icache_lines(my_line, addr, prev_line)
    # After the fetch part ``_last_line`` is statically ``my_line``.
    if target is None:
        pass
    elif isinstance(target, str):
        ls += [f"tl = {target} >> {ICACHE_LINE_BITS}",
               f"if tl != {my_line}:",
               "    cost._last_line = tl",
               f"    if not ica({target}):",
               f"        cost.icache_cycles += {ICACHE_MISS_PENALTY!r}",
               f"        c += {ICACHE_MISS_PENALTY!r}"]
    else:
        t_line = target >> ICACHE_LINE_BITS
        if t_line != my_line:
            ls += [f"cost._last_line = {t_line}",
                   f"if not ica({target}):",
                   f"    cost.icache_cycles += {ICACHE_MISS_PENALTY!r}",
                   f"    c += {ICACHE_MISS_PENALTY!r}"]
    return ls


_COST_WB = ["cost.cycles = c", "cost.base_cycles = b"]


def _pmu_rec_lines(my_addr: int, target: str, skid: bool) -> List[str]:
    """LBR record.  PEBS appends the pair straight to the ring.  Skid mode
    goes through ``PMU.on_branch``, which also takes the O(1) lagged-stack
    capture through the registered hook; that reads ``st.cur_ip``, which
    must be the branch's own address."""
    if not skid:
        return [f"st.lbr_append(({my_addr}, {target}))"]
    return [f"st.cur_ip = {my_addr}",
            f"st.pmu_branch({my_addr}, {target})"]


def _pmu_tick_lines(my_addr: int, target: str) -> List[str]:
    """Period countdown for the control instruction itself.  On firing, the
    sample is taken at the post-transfer state (legacy ``_cur_ip`` is the
    next instruction's address when ``on_retire`` runs)."""
    return ["u2 = st.until - 1",
            "if u2 > 0:",
            "    st.until = u2",
            "else:",
            f"    st.cur_ip = {target}",
            f"    st.pmu_fire({my_addr})"]


def _predictor_lines(my_addr: int) -> List[str]:
    """Inline ``CostModel.on_branch`` (2-bit predictor + mispredict cycles).
    Runs before the branch's own retire, like the legacy loop."""
    return ["pred = cost.predictor",
            f"state = pred._table.get({my_addr}, 1)",
            "pred.predictions += 1",
            "if (state >= 2) != jump:",
            "    pred.mispredicts += 1",
            f"    cost.branch_cycles += {MISPREDICT_PENALTY!r}",
            f"    c += {MISPREDICT_PENALTY!r}",
            "if jump:",
            f"    pred._table[{my_addr}] = 3 if state >= 2 else state + 1",
            "else:",
            f"    pred._table[{my_addr}] = state - 1 if state else 0"]


def _frame_ctor_lines(callee, args_spec, nr_name: str = "nr") -> List[str]:
    """Evaluate call arguments and build the callee frame dict literal
    (zip-truncation and zero-padding match ``MachineExecutor._init_frame``)."""
    params = callee.params
    pairs = [f"{p!r}: {_v(a)}" for p, a in zip(params, args_spec)]
    pairs += [f"{p!r}: 0" for p in params[len(args_spec):]]
    body = ", ".join(pairs)
    ls = [f"{nr_name} = {{{body}}}"]
    return ls


def _locals_literal(callee) -> str:
    if not callee.local_arrays:
        return "None"
    body = ", ".join(f"{n!r}: [0] * {s}"
                     for n, s in callee.local_arrays.items())
    return f"{{{body}}}"


class _Ctx:
    """Decode-time context shared by the block emitters."""

    __slots__ = ("binary", "instrs", "n", "addr_index", "symbols",
                 "P", "SKID", "C", "blocks", "consts")


#: Instruction pool each generated function may spend on inlining successor
#: blocks (pure variant only).  The pool is shared across all inline sites of
#: one function, so generated code size stays linear in the pool regardless
#: of branching.
_INLINE_POOL = 12


def _transition(ctx: _Ctx, X: int, pool: List[int]) -> List[str]:
    """Continue execution at leader ``X``.

    In the pure variant, successor blocks are inlined while the function's
    instruction pool lasts — fallthrough and jump chains collapse and hot
    loop bodies unroll into one generated function, amortizing dispatch
    overhead over longer straight-line runs.  Observer variants always
    dispatch (their per-block prologues are comparatively expensive, and the
    observed hot path is dominated by accounting, not dispatch).
    """
    if pool[0] > 0 and not ctx.P and not ctx.C:
        blk = ctx.blocks.get(X)
        if blk is not None:
            e, ctrl, stop = blk
            size = (e - X) + (1 if ctrl is not None else 0)
            if size <= pool[0]:
                pool[0] -= size
                return _emit_segment(ctx, X, pool)
    return [f"return {X}"]


def _emit_segment(ctx: _Ctx, L: int, pool: List[int]) -> List[str]:
    """Emit the body of the block at leader ``L`` (``instrs[L:stop]``).

    Used both for a block's own ``def _b<L>`` and, in the pure variant, for
    inlined continuation segments.
    """
    e, ctrl, stop = ctx.blocks[L]
    instrs = ctx.instrs
    binary = ctx.binary
    symbols = ctx.symbols
    P, C = ctx.P, ctx.C
    prefix = instrs[L:e]
    K = (e - L) + (1 if ctrl is not None else 0)

    body: List[str] = [f"st.retired += {K}", "regs = st.regs"]

    if P and prefix:
        # Batched countdown over the straight-line prefix: address j fires
        # at post-transfer ip addrs[j + 1] (see pmu_prefix in run_decoded).
        after = ctrl.addr if ctrl is not None else (
            instrs[stop].addr if stop < ctx.n else -1)
        cname = f"_A{L}"
        ctx.consts[cname] = tuple(i.addr for i in prefix) + (after,)
        body += [f"u = st.until - {len(prefix)}",
                 "if u > 0:",
                 "    st.until = u",
                 "else:",
                 f"    st.pmu_prefix({cname}, u)"]
    if C:
        body += ["cost = st.cost",
                 "ica = cost.icache.access",
                 f"cost.instructions += {K}",
                 "c = cost.cycles",
                 "b = cost.base_cycles"]

    prev_line: Optional[int] = None
    for ins in prefix:
        if ins.kind in ("load", "store"):
            func = binary.function_at(ins.addr)
            is_local = (func is not None
                        and ins.a in symbols[func].local_arrays)
        else:
            is_local = False
        body += _sem_lines(ins, is_local)
        if C:
            body += _cost_retire_lines(BASE_COSTS[ins.kind], ins.addr,
                                       prev_line, None)
        prev_line = ins.addr >> ICACHE_LINE_BITS

    if ctrl is None:
        if C:
            body += _COST_WB
        body += _transition(ctx, stop, pool)
    else:
        body += _gen_ctrl(ctx, ctrl, e, prev_line, pool)
    return body


def _gen_ctrl(ctx: _Ctx, ins, e: int, prev_line: Optional[int],
              pool: List[int]) -> List[str]:
    """Emit the control-instruction arm that ends a block."""
    instrs = ctx.instrs
    addr_index = ctx.addr_index
    P, SKID, C = ctx.P, ctx.SKID, ctx.C
    k = ins.kind
    MY = ins.addr
    base = BASE_COSTS[k]
    ls: List[str] = []

    if k == "jmp":
        T = ins.target_addr
        if P:
            ls += _pmu_rec_lines(MY, str(T), SKID)
        ls.append("st.taken += 1")
        if P:
            ls += _pmu_tick_lines(MY, str(T))
        if C:
            ls += _cost_retire_lines(base, MY, prev_line, T) + _COST_WB
        ls += _transition(ctx, addr_index[T], pool)
        return ls

    if k == "br":
        T = ins.target_addr
        t_idx = addr_index[T]
        nxt = e + 1
        nxt_addr = instrs[nxt].addr if nxt < ctx.n else -1
        cond = ins.a
        if not P and not C:
            if type(cond) is str:
                test = (f"if not regs[{cond!r}]:" if ins.negated
                        else f"if regs[{cond!r}]:")
                taken = ["st.taken += 1"] + _transition(ctx, t_idx, pool)
                return ([test] + _indent(taken)
                        + _transition(ctx, nxt, pool))
            jump = (not cond) if ins.negated else bool(cond)
            if jump:
                return ["st.taken += 1"] + _transition(ctx, t_idx, pool)
            return _transition(ctx, nxt, pool)
        if type(cond) is str:
            jexpr = f"regs[{cond!r}] {'==' if ins.negated else '!='} 0"
        else:
            jexpr = repr((not cond) if ins.negated else bool(cond))
        ls.append(f"jump = {jexpr}")
        if C:
            ls += _predictor_lines(MY)
        taken: List[str] = []
        if P:
            taken += _pmu_rec_lines(MY, str(T), SKID)
        taken.append("st.taken += 1")
        if P:
            taken += _pmu_tick_lines(MY, str(T))
        if C:
            taken += _cost_retire_lines(base, MY, prev_line, T) + _COST_WB
        taken.append(f"return {t_idx}")
        ls += ["if jump:"] + _indent(taken)
        if P:
            ls += _pmu_tick_lines(MY, str(nxt_addr))
        if C:
            ls += _cost_retire_lines(base, MY, prev_line, None) + _COST_WB
        ls.append(f"return {nxt}")
        return ls

    if k in ("call", "tailcall"):
        callee = ctx.symbols[ins.a]
        T = ins.target_addr
        entry_idx = addr_index[T]
        if P:
            ls += _pmu_rec_lines(MY, str(T), SKID)
        ls += _frame_ctor_lines(callee, ins.args or ())
        if k == "call":
            ret_idx = e + 1
            ret_addr = instrs[ret_idx].addr if ret_idx < ctx.n else None
            if SKID:
                # Maintain the cons-list return chain the lazy skid capture
                # points into (pushed *after* the pre-transfer capture above).
                ls.append(f"st.ret_node = ({ret_addr}, st.ret_node)")
            ls += ["f = _DFrame()",
                   "f.regs = nr",
                   "f.slots = {}",
                   f"f.locals = {_locals_literal(callee)}",
                   f"f.ret_idx = {ret_idx}",
                   f"f.ret_dst = {ins.dst!r}",
                   f"f.ret_addr = {ret_addr}",
                   "st.frames.append(f)"]
        else:
            # Frame replacement: the callee returns directly to our caller
            # (what makes caller frames vanish from stack samples); the
            # return chain is untouched.
            ls += ["old = st.frames[-1]",
                   "f = _DFrame()",
                   "f.regs = nr",
                   "f.slots = {}",
                   f"f.locals = {_locals_literal(callee)}",
                   "f.ret_idx = old.ret_idx",
                   "f.ret_dst = old.ret_dst",
                   "f.ret_addr = old.ret_addr",
                   "st.frames[-1] = f"]
        ls += ["st.frame = f", "st.regs = nr", "st.taken += 1"]
        if P:
            ls += _pmu_tick_lines(MY, str(T))
        if C:
            ls += _cost_retire_lines(base, MY, prev_line, T) + _COST_WB
        ls += _transition(ctx, entry_idx, pool)
        return ls

    if k == "ret":
        a = ins.a
        val = f"regs[{a!r}]" if type(a) is str else repr(0 if a is None else a)
        ls += [f"value = {val}",
               "frames = st.frames",
               "frame = frames[-1]",
               "ra = frame.ret_addr"]
        if P:
            # Record pre-pop so a skidding stack still shows the callee frame
            # (the lag PEBS eliminates); the entry frame (ra None) records
            # nothing, exactly like the legacy loop.
            ls += ["if ra is not None:"] + _indent(
                _pmu_rec_lines(MY, "ra", SKID))
        ls += ["del frames[-1]", "st.taken += 1"]
        final: List[str] = []
        if C:
            final += _cost_retire_lines(base, MY, prev_line, None) + _COST_WB
        final += ["st.return_value = value", "raise _Halt"]
        ls += ["if not frames:"] + _indent(final)
        if SKID:
            ls.append("st.ret_node = st.ret_node[1]")
        ls += ["parent = frames[-1]",
               "st.frame = parent",
               "st.regs = parent.regs",
               "rd = frame.ret_dst",
               "if rd is not None:",
               "    parent.regs[rd] = value"]
        if P:
            ls += _pmu_tick_lines(MY, "ra")
        if C:
            ls += _cost_retire_lines(base, MY, prev_line, "ra") + _COST_WB
        ls.append("return frame.ret_idx")
        return ls

    raise RuntimeError(f"unknown control instruction {k}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Decode pass
# ---------------------------------------------------------------------------

def decode_program(binary: Binary, pmu_mode: Optional[str],
                   use_cost: bool) -> DecodedProgram:
    """Compile ``binary`` into an observer-specialized block-function table.

    ``pmu_mode`` is ``None`` (no PMU), ``"pebs"`` or ``"skid"``; ``use_cost``
    selects the cost-model variant.  Called through the binary's decode cache
    by :func:`run_decoded` — call directly only in tests/benchmarks.
    """
    t0 = time.perf_counter_ns()
    P = pmu_mode is not None
    SKID = pmu_mode == "skid"
    C = use_cost
    instrs = binary.instrs
    n = len(instrs)
    addr_index = binary._addr_to_index
    symbols = binary.symbols

    # Leaders: function entries, branch/call targets, and every control
    # instruction's successor (so ``ret_idx`` always lands on a block head).
    leaders = set()
    for sym in symbols.values():
        i = addr_index.get(sym.entry_addr)
        if i is not None:
            leaders.add(i)
    for i, ins in enumerate(instrs):
        if ins.is_control() and i + 1 < n:
            leaders.add(i + 1)
        ta = ins.target_addr
        if ta is not None:
            t = addr_index.get(ta)
            if t is not None:
                leaders.add(t)
    if n:
        leaders.add(0)
    order = sorted(leaders)

    blocks: Dict[int, Tuple[int, object, int]] = {}
    for bi, L in enumerate(order):
        stop = order[bi + 1] if bi + 1 < len(order) else n
        e = L
        ctrl = None
        while e < stop:
            if instrs[e].is_control():
                ctrl = instrs[e]
                break
            e += 1
        blocks[L] = (e, ctrl, stop)

    ctx = _Ctx()
    ctx.binary = binary
    ctx.instrs = instrs
    ctx.n = n
    ctx.addr_index = addr_index
    ctx.symbols = symbols
    ctx.P = P
    ctx.SKID = SKID
    ctx.C = C
    ctx.blocks = blocks
    ctx.consts = {"_DFrame": DFrame, "_Halt": _Halt,
                  "_eval_binop": eval_binop}
    consts = ctx.consts

    src: List[str] = []
    for L in order:
        body = _emit_segment(ctx, L, [_INLINE_POOL])
        src.append(f"def _b{L}(st):")
        src.extend(_indent(body))
        src.append("")

    source = "\n".join(src)
    code = compile(source, f"<decoded:{binary.name}:{pmu_mode}:{use_cost}>",
                   "exec")
    exec(code, consts)

    ops: List[Optional[Callable]] = [None] * n
    for L in order:
        ops[L] = consts[f"_b{L}"]
    entry_idx = addr_index[symbols[binary.entry_function].entry_addr]
    return DecodedProgram(ops, entry_idx, (pmu_mode, use_cost),
                          time.perf_counter_ns() - t0, len(order))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run_decoded(binary: Binary, args: Sequence[int] = (),
                pmu: Optional[PMU] = None, cost_model=None,
                max_instructions: int = 50_000_000
                ) -> MachineExecutionResult:
    """Execute ``binary`` with the pre-decoded threaded-code engine.

    Produces results identical to ``MachineExecutor.run`` — including the
    PMU sample stream and cost-model cycle accounting — differential tests
    enforce this.
    """
    if cost_model is not None and (
            cost_model.icache.line_bits != ICACHE_LINE_BITS):
        # Generated code bakes the fetch-line geometry in as literals; a
        # custom icache falls back to the reference interpreter.
        executor = MachineExecutor(binary, max_instructions, pmu, cost_model)
        if pmu is not None:
            pmu.bind_executor(executor.walk_stack)
        return executor.run(args)

    if pmu is None:
        pmu_mode = None
    elif pmu.config.pebs:
        pmu_mode = "pebs"
    else:
        pmu_mode = "skid"
    key = (pmu_mode, cost_model is not None)
    t_enabled = telemetry.enabled()
    hits_before = binary.decode_stats["cache_hits"]
    program = binary.cached_decoded(key, lambda b: decode_program(b, *key))
    if t_enabled:
        telemetry.count("hw.decode", "requests")
        if binary.decode_stats["cache_hits"] > hits_before:
            telemetry.count("hw.decode", "cache_hits")
        else:
            telemetry.count("hw.decode", "decodes")
            telemetry.count("hw.decode", "decode_ns", program.decode_ns)
            telemetry.count("hw.decode", "instrs_decoded", program.n_instrs)

    entry = binary.symbols[binary.entry_function]
    frame = DFrame()
    regs: Dict[str, int] = {}
    values = list(args)
    for param, value in zip(entry.params, values):
        regs[param] = value
    for param in entry.params[len(values):]:
        regs[param] = 0
    frame.regs = regs
    frame.slots = {}
    frame.locals = ({name: [0] * size
                     for name, size in entry.local_arrays.items()}
                    if entry.local_arrays else None)
    frame.ret_idx = None
    frame.ret_dst = None
    frame.ret_addr = None

    st = _State()
    st.regs = regs
    st.frame = frame
    st.frames = [frame]
    st.globals = {name: [0] * size
                  for name, size in binary.global_arrays.items()}
    st.counters = Counter()
    st.taken = 0
    st.return_value = None
    st.cur_ip = 0
    st.ret_node = None
    st.retired = 0
    st.until = 0
    st.lbr_append = st.pmu_branch = st.pmu_prefix = st.pmu_fire = None
    st.cost = cost_model

    if pmu is not None:
        def walker() -> List[int]:
            stack = [st.cur_ip]
            for f in reversed(st.frames):
                ra = f.ret_addr
                if ra is not None:
                    stack.append(ra)
            return stack

        next_period = pmu._next_period
        data_add = pmu.data.add
        lbr_snapshot = pmu.lbr.snapshot
        st.until = pmu._until_sample

        if pmu_mode == "pebs":
            pmu.bind_executor(walker)
            lbr = pmu.lbr
            st.lbr_append = lbr.append
            lbr_room = lbr.depth - len(lbr)

            def pmu_fire(ip: int) -> None:
                st.until = next_period()
                data_add(PerfSample(lbr_snapshot(), walker(), ip))

            def pmu_prefix(addrs, u: int) -> None:
                # ``u = until - len(prefix) <= 0``: at least one sample fires
                # inside the straight-line prefix.  Firing index j has
                # post-transfer ip addrs[j + 1]; frames and LBR are constant
                # across the prefix, so sample payloads match the legacy
                # per-instruction countdown exactly.
                count = len(addrs) - 1
                j = u + count - 1
                while j < count:
                    period = next_period()
                    st.cur_ip = addrs[j + 1]
                    data_add(PerfSample(lbr_snapshot(), walker(), addrs[j]))
                    j += period
                st.until = j - count + 1
        else:
            pmu.bind_executor(walker,
                              lambda: (st.cur_ip, st.ret_node),
                              _materialize_lagged)
            st.pmu_branch = pmu.on_branch

            def pmu_fire(ip: int) -> None:
                st.until = next_period()
                token = pmu._lagged_token
                if token:
                    stack = _materialize_lagged(token)
                    pmu._skid_samples += 1
                else:
                    stack = walker()
                data_add(PerfSample(lbr_snapshot(), stack, ip))

            def pmu_prefix(addrs, u: int) -> None:
                count = len(addrs) - 1
                j = u + count - 1
                token = pmu._lagged_token
                while j < count:
                    period = next_period()
                    if token:
                        stack = _materialize_lagged(token)
                        pmu._skid_samples += 1
                    else:
                        st.cur_ip = addrs[j + 1]
                        stack = walker()
                    data_add(PerfSample(lbr_snapshot(), stack, addrs[j]))
                    j += period
                st.until = j - count + 1

        st.pmu_fire = pmu_fire
        st.pmu_prefix = pmu_prefix

    ops = program.ops
    idx = program.entry_idx
    limit = max_instructions
    halted = False
    t0 = time.perf_counter_ns() if t_enabled else 0
    try:
        while True:
            idx = ops[idx](st)
            if st.retired > limit:
                raise MachineExecutionLimit(
                    f"retired > {max_instructions} instructions")
    except _Halt:
        halted = True
        # The final ret never trips the budget in the legacy loop; anything
        # retired before it in the same block does.
        if st.retired - 1 > limit:
            raise MachineExecutionLimit(
                f"retired > {max_instructions} instructions") from None
    finally:
        if pmu is not None:
            pmu._until_sample = st.until
            if pmu_mode == "pebs":
                # The LBR counting rule.  Every taken branch was appended to
                # the ring except the entry frame's final ret, which has no
                # return address to record.  The dispatch loop stops only
                # between blocks, and each block appends right before its
                # ``st.taken += 1``, so the run appended ``st.taken - 1``
                # pairs when it halted and ``st.taken`` when it stopped on
                # the instruction budget.
                lbr.note_appended(st.taken - 1 if halted else st.taken,
                                  lbr_room)

    result = MachineExecutionResult()
    result.return_value = st.return_value
    result.instructions_retired = st.retired
    result.instr_counters = st.counters
    result.taken_branches = st.taken
    if t_enabled:
        run_ns = time.perf_counter_ns() - t0
        telemetry.count("hw.exec", "runs")
        telemetry.count("hw.exec", "instructions_retired", st.retired)
        telemetry.count("hw.exec", "taken_branches", st.taken)
        # Per-run wall time: ns/instr = run_ns / instructions_retired.
        telemetry.count("hw.exec", "run_ns", run_ns)
    return result
