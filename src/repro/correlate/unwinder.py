"""Algorithm 1: reconstruct calling contexts from synchronized LBR + stack
samples (paper sec. III.B).

The unwinder walks one :class:`~repro.hw.perf_data.PerfSample`'s LBR window.
LBR branches are walked in **reverse execution order**, maintaining the
synchronized stack: walking back over a *call* pops the frame it created,
walking back over a *return* re-enters the function it returned from, and
walking back over a *tail call* swaps the replaced frame back in.  Between
each pair of adjacent LBR entries lies one linear execution range, attributed
to the context the stack held at that time.

The calling context is kept as a root-first tuple of **call-site instruction
addresses** — symbolization to names/probe ids happens in profgen.  The
initial context comes from the stack sample; missing tail-call frames are
repaired by the :class:`~repro.correlate.frame_inferrer.FrameInferrer`
before unwinding (the inline-frame expansion of Algorithm 1's pseudocode is
carried by each probe's self-describing inline chain instead — see
DESIGN.md sec. 5).

A walk reads only the LBR window and that initial context; the stack sample
(leaf IP included) enters only through :meth:`Unwinder.context_from_stack`.
:meth:`Unwinder.unwind_lbr` therefore takes the pair, and profgen walks each
distinct ``(lbr, initial context)`` once (DESIGN.md sec. 9).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import telemetry
from ..codegen.binary import Binary
from ..hw.perf_data import PerfSample
from .frame_inferrer import FrameInferrer

Context = Tuple[int, ...]  # call-site instruction addresses, root first


class RangeSample:
    """One linear execution range under one calling context."""

    __slots__ = ("begin", "end", "context")

    def __init__(self, begin: int, end: int, context: Context):
        self.begin = begin
        self.end = end
        self.context = context


class CallSample:
    """One observed call/tailcall transfer under a calling context."""

    __slots__ = ("call_addr", "target_addr", "context")

    def __init__(self, call_addr: int, target_addr: int, context: Context):
        self.call_addr = call_addr
        self.target_addr = target_addr
        self.context = context


class UnwindResult:
    __slots__ = ("ranges", "calls", "broken", "events", "drop_reason")

    def __init__(self) -> None:
        self.ranges: List[RangeSample] = []
        self.calls: List[CallSample] = []
        #: True when the stack sample was inconsistent with LBR contents
        #: (e.g. skid) and context reconstruction was abandoned part-way.
        self.broken = False
        #: Telemetry counter names recorded while unwinding, one entry per
        #: event (None until the first event — events are rare).  Kept on
        #: the result rather than emitted inline so one walk can replay its
        #: events for every sample it stands for.
        self.events: Optional[List[str]] = None
        #: Non-None when the sample yielded *nothing* usable (no ranges, no
        #: calls): the ``correlate.drop.<reason>`` bucket it falls in.
        #: Broken-but-partially-usable samples keep ``drop_reason=None`` —
        #: they degrade (context-less attribution), they are not discarded.
        self.drop_reason: Optional[str] = None

    def note(self, name: str) -> None:
        if self.events is None:
            self.events = []
        self.events.append(name)


#: Sentinel distinguishing "not cached" from a cached ``None`` conversion.
_MISSING = object()


class PayloadResult:
    """Compact unwind of one ``(lbr, initial context)`` walk: key tuples, no
    sample objects.

    ``range_keys`` holds ``(begin, end, context)`` and ``call_keys``
    ``(call_addr, target_addr, context)`` — exactly the histogram keys
    :func:`~repro.correlate.profgen.aggregate_samples` needs, so crediting a
    walk with the samples it stands for is a plain ``counter[key] += count``
    per entry.
    """

    __slots__ = ("range_keys", "call_keys", "broken", "events", "drop_reason")

    def __init__(self) -> None:
        self.range_keys: List[Tuple[int, int, Optional[Context]]] = []
        self.call_keys: List[Tuple[int, int, Optional[Context]]] = []
        self.broken = False
        self.events: Optional[List[str]] = None
        #: See :attr:`UnwindResult.drop_reason`.
        self.drop_reason: Optional[str] = None

    def note(self, name: str) -> None:
        if self.events is None:
            self.events = []
        self.events.append(name)


class Unwinder:
    """Per-binary sample unwinder with memoized stack conversion and
    memoized per-branch lookups.

    ``stats`` tracks cache effectiveness.  ``stack_hits``/``stack_misses``
    count :meth:`context_from_stack` lookups; ``unwind_hits`` and
    ``unwind_misses`` are set by the caller that groups samples into walks
    (:func:`~repro.correlate.profgen.aggregate_samples`): one miss per walk,
    one hit per further sample a walk stands for.
    """

    def __init__(self, binary: Binary,
                 inferrer: Optional[FrameInferrer] = None):
        self.binary = binary
        self.inferrer = inferrer
        self._stack_cache: dict = {}
        # Pure per-branch lookups memoized across walks (the same branch
        # pairs recur in every sliding LBR window of a loop):
        #: (source, target) -> instr kind, or None when outside the binary.
        self._branch_kind: dict = {}
        #: (begin, end) -> is this a linear single-function range?
        self._range_ok: dict = {}
        #: return target -> preceding call-site addr, or None.
        self._ret_site: dict = {}
        self.stats = {"unwind_hits": 0, "unwind_misses": 0,
                      "stack_hits": 0, "stack_misses": 0}

    # -- initial context from the stack sample -----------------------------
    def context_from_stack(self, stack: Tuple[int, ...]) -> Optional[Context]:
        """Convert a leaf-first stack sample to a root-first callsite tuple.

        Each return address maps to the call instruction preceding it;
        tail-call gaps (call target != observed callee frame) are repaired
        with inferred frames when possible.
        """
        cached = self._stack_cache.get(stack, _MISSING)
        if cached is not _MISSING:
            self.stats["stack_hits"] += 1
            return cached
        self.stats["stack_misses"] += 1
        if not stack:
            # Truncated to nothing (fault or collection failure): there is
            # no leaf IP to anchor repair on, so no context can be built.
            if telemetry.enabled():
                telemetry.count("correlate", "stack_conversion_failures")
            self._stack_cache[stack] = None
            return None
        callsites: List[int] = []
        # stack[0] is the leaf IP; deeper entries are return addresses.
        for ret_addr in reversed(stack[1:]):  # root first
            call_instr = self._call_before(ret_addr)
            if call_instr is None:
                if telemetry.enabled():
                    telemetry.count("correlate", "stack_conversion_failures")
                self._stack_cache[stack] = None
                return None
            callsites.append(call_instr.addr)
        # Tail-call repair: walk root->leaf checking that each call's target
        # matches the function of the next-deeper frame.
        if self.inferrer is not None:
            callsites = self._repair(callsites, leaf_ip=stack[0])
            if callsites is None:
                if telemetry.enabled():
                    telemetry.count("correlate", "stack_conversion_failures")
                self._stack_cache[stack] = None
                return None
        context = tuple(callsites)
        self._stack_cache[stack] = context
        return context

    def _call_before(self, ret_addr: int):
        binary = self.binary
        if not binary.has_addr(ret_addr):
            return None
        idx = binary.index_of(ret_addr)
        if idx == 0:
            return None
        call_instr = binary.instrs[idx - 1]
        if call_instr.kind not in ("call", "tailcall"):
            return None
        return call_instr

    def _repair(self, callsites: List[int], leaf_ip: int) -> Optional[List[int]]:
        binary = self.binary
        repaired: List[int] = []
        for depth, addr in enumerate(callsites):
            repaired.append(addr)
            call_instr = binary.instr_at(addr)
            expected = call_instr.a  # callee name
            if depth + 1 < len(callsites):
                deeper = binary.function_at(callsites[depth + 1])
            else:
                deeper = binary.function_at(leaf_ip)
            if deeper is None:
                return None
            if expected == deeper:
                continue
            inferred = self.inferrer.infer(expected, deeper)
            if inferred is None:
                return None
            for _func, tailcall_addr in inferred:
                repaired.append(tailcall_addr)
        return repaired

    # -- Algorithm 1 ---------------------------------------------------------
    def unwind(self, sample: PerfSample) -> UnwindResult:
        """Unwind one sample on the reference walk, emitting its telemetry
        events (the per-sample path, ``dedup=False``)."""
        result = self._unwind_uncached(sample)
        if result.events and telemetry.enabled():
            for name in result.events:
                telemetry.count("correlate", name)
        return result

    def unwind_lbr(self, lbr: Tuple[Tuple[int, int], ...],
                   initial: Optional[Context]) -> PayloadResult:
        """Cache-accelerated Algorithm 1 over one LBR window, starting from
        ``initial``, the context :meth:`context_from_stack` gave the stack
        sample (``None`` when it gave none).

        The walk reads nothing else of a sample, so every sample with the
        same ``lbr`` and initial context yields this same result: profgen
        walks each distinct pair once and credits it with the pair's
        sample count.  Does *not* emit telemetry events; the caller scales
        ``result.events`` by that count.  Same walk as
        :meth:`_unwind_uncached`, which stays as the memo-free reference;
        differential tests pin the two bit-for-bit.

        Every per-branch decision is a pure function of the binary, so it is
        memoized across walks: branch classification, range linearity,
        and return-site lookup each collapse to one dict probe.  The working
        context keeps a lazily refreshed tuple mirror so repeated range
        emissions under an unchanged context reuse one tuple.
        """
        result = PayloadResult()
        range_keys = result.range_keys
        call_keys = result.call_keys
        branch_kind = self._branch_kind
        range_ok = self._range_ok
        ret_site = self._ret_site
        addr_index = self.binary._addr_to_index
        instrs = self.binary.instrs
        function_at = self.binary.function_at

        if initial is None:
            result.broken = True
        context_list: Optional[List[int]] = (
            list(initial) if initial is not None else None)
        #: Tuple mirror of context_list; None = stale (rebuild on demand).
        context_tuple: Optional[Context] = initial

        valid_branches = 0
        prev_source = -1  # source addr of the next-later branch, -1 = none
        for source, target in reversed(lbr):
            kind = branch_kind.get((source, target), _MISSING)
            if kind is _MISSING:
                if source in addr_index and target in addr_index:
                    kind = instrs[addr_index[source]].kind
                else:
                    kind = None
                branch_kind[(source, target)] = kind
            if kind is None:
                result.note("lbr_entries_outside_binary")
                result.broken = True
                context_list = None
                prev_source = source
                continue
            valid_branches += 1
            # 1. Emit the range executed after this branch.
            if prev_source >= 0:
                key = (target, prev_source)
                ok = range_ok.get(key, _MISSING)
                if ok is _MISSING:
                    ok = (target <= prev_source
                          and function_at(target) == function_at(prev_source))
                    range_ok[key] = ok
                if ok:
                    if context_list is None:
                        range_keys.append((target, prev_source, None))
                    else:
                        if context_tuple is None:
                            context_tuple = tuple(context_list)
                        range_keys.append((target, prev_source, context_tuple))
                else:
                    # Cross-function or inverted range: not a linear run.
                    result.note("lbr_ranges_discarded")
            # 2. Walk back over this branch.
            if kind == "call" or kind == "tailcall":
                if context_list is not None:
                    if context_list and context_list[-1] == source:
                        context_list.pop()
                        context_tuple = None
                    else:
                        # Skid or truncated stack: context is unusable from
                        # here back in time.
                        result.note("skid_context_aborts")
                        result.broken = True
                        context_list = None
                # The call sample carries the *caller's* context.
                if context_list is None:
                    call_keys.append((source, target, None))
                else:
                    if context_tuple is None:
                        context_tuple = tuple(context_list)
                    call_keys.append((source, target, context_tuple))
            elif kind == "ret":
                if context_list is not None:
                    site = ret_site.get(target, _MISSING)
                    if site is _MISSING:
                        call_instr = self._call_before(target)
                        site = None if call_instr is None else call_instr.addr
                        ret_site[target] = site
                    if site is None:
                        result.note("ret_without_callsite")
                        result.broken = True
                        context_list = None
                    else:
                        context_list.append(site)
                        context_tuple = None
            prev_source = source
        if not range_keys and not call_keys:
            result.drop_reason = _classify_drop(lbr, valid_branches)
        return result

    def _unwind_uncached(self, sample: PerfSample) -> UnwindResult:
        """Walk the LBR newest-to-oldest, emitting execution ranges.

        Invariant: entering the loop iteration for branch ``b``, the working
        context reflects the program state *between ``b`` and the next-later
        branch* (all later branches have been walked back over).  The range
        ``[b.target, later.source]`` therefore gets the current context, and
        only afterwards is the context adjusted for ``b`` itself: a call or
        tail call pops the frame it created, a return re-enters the function
        it had left.
        """
        result = UnwindResult()
        binary = self.binary
        initial = self.context_from_stack(sample.stack)
        if initial is None:
            result.broken = True
        #: None = unknown context (stack/LBR inconsistency, e.g. skid).
        context_list: Optional[List[int]] = (
            list(initial) if initial is not None else None)

        valid_branches = 0
        prev_branch: Optional[Tuple[int, int]] = None
        for source, target in reversed(sample.lbr):
            if not binary.has_addr(source) or not binary.has_addr(target):
                result.note("lbr_entries_outside_binary")
                result.broken = True
                context_list = None
                prev_branch = (source, target)
                continue
            valid_branches += 1
            kind = binary.instr_at(source).kind
            # 1. Emit the range executed after this branch.
            if prev_branch is not None:
                begin, end = target, prev_branch[0]
                if (begin <= end
                        and binary.function_at(begin) == binary.function_at(end)):
                    ctx = tuple(context_list) if context_list is not None else None
                    result.ranges.append(RangeSample(begin, end, ctx))
                else:
                    # Cross-function or inverted range: not a linear run.
                    result.note("lbr_ranges_discarded")
            # 2. Walk back over this branch.
            if kind in ("call", "tailcall"):
                if context_list is not None:
                    if context_list and context_list[-1] == source:
                        context_list.pop()
                    else:
                        # Skid or truncated stack: context is unusable from
                        # here back in time.
                        result.note("skid_context_aborts")
                        result.broken = True
                        context_list = None
                # The call sample carries the *caller's* context.
                ctx = tuple(context_list) if context_list is not None else None
                result.calls.append(CallSample(source, target, ctx))
            elif kind == "ret":
                if context_list is not None:
                    call_instr = self._call_before(target)
                    if call_instr is None:
                        result.note("ret_without_callsite")
                        result.broken = True
                        context_list = None
                    else:
                        context_list.append(call_instr.addr)
            prev_branch = (source, target)
        if not result.ranges and not result.calls:
            result.drop_reason = _classify_drop(sample.lbr, valid_branches)
        return result


def _classify_drop(lbr: Tuple[Tuple[int, int], ...],
                   valid_branches: int) -> str:
    """Bucket a sample that produced no ranges and no calls.

    ``empty_lbr`` — nothing to walk (truncated ring); ``lbr_outside_binary``
    — every entry referenced addresses outside the binary (corruption or a
    different build); ``no_linear_ranges`` — entries were valid but no
    usable linear range or call transfer fell out of the walk.
    """
    if not lbr:
        return "empty_lbr"
    if valid_branches == 0:
        return "lbr_outside_binary"
    return "no_linear_ranges"
