"""Profile generation: raw samples -> compiler-consumable profiles.

This is the llvm-profgen equivalent.  Three modes:

* :func:`generate_dwarf_profile` — AutoFDO: attribute range counts to
  (line, discriminator) keys via the DWARF line table, taking the **max**
  over same-line instructions (the heuristic that breaks under code
  duplication, paper sec. III.A(b));
* :func:`generate_probe_profile` — probe-only CSSPGO: attribute range counts
  to pseudo-probe anchors, **summing** duplicated probes (accurate under
  duplication); dangling probes are skipped (count unknown);
* :func:`generate_context_profile` — full CSSPGO: like probe mode, but every
  count lands under the calling context reconstructed by Algorithm 1; the
  physical frame chain from the unwinder is concatenated with each probe's
  self-describing inline chain.

Every mode runs on a **fast path** by default (``fast=True``), built from
four reuse layers (DESIGN.md sec. 9):

1. one walk per (LBR, calling context) — :meth:`PerfData.aggregated`
   deduplicates identical ``(lbr, stack)`` payloads (llvm-profgen's
   pre-aggregated perf input), each payload's stack converts to its initial
   context once, and each distinct ``(lbr, initial context)`` pair is
   unwound once and its counts multiplied;
2. memoized per-branch lookups — the :class:`Unwinder` caches the stack
   conversion and every per-branch decision across walks;
3. precomputed binary indexes — range->probe-record prefix index and
   memoized range/symbolization lookups on :class:`Binary`;
4. interned contexts — a :class:`ContextTrie` interner plus a
   ``context_key`` memo, so symbolization happens once per distinct context.

``fast=False`` runs the original per-sample, rescanning, memo-free
algorithm; differential tests pin both paths to byte-identical output
(group-then-multiply is exact because a walk is a deterministic function of
the LBR window and the initial context alone).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from .. import obs, telemetry
from ..codegen.binary import Binary
from ..codegen.probe_metadata import ProbeMetadata
from ..hw.perf_data import PerfData
from ..profile.context import ContextKey, ContextTrie, base_context
from ..profile.profiles import ContextProfile, FlatProfile
from .frame_inferrer import FrameInferrer, TailCallGraph
from .unwinder import Unwinder


class RawAggregation:
    """Shared first stage: unwound ranges and calls, aggregated by identity."""

    def __init__(self) -> None:
        #: (begin, end, context) -> count
        self.ranges: Counter = Counter()
        #: (call_addr, target_addr, context) -> count
        self.calls: Counter = Counter()
        self.broken_samples = 0
        self.total_samples = 0
        #: Samples discarded entirely (no ranges, no calls), by reason —
        #: mirrored into ``correlate.drop.<reason>`` counters.  Exact:
        #: ``total_samples == used_samples + sum(dropped.values())``.
        self.dropped: Counter = Counter()
        #: Samples that contributed at least one range or call.
        self.used_samples = 0
        #: Distinct (lbr, stack) payloads (only set on the dedup path).
        self.unique_samples = 0
        #: Unwinder cache effectiveness (see :attr:`Unwinder.stats`).
        self.unwinder_stats: Dict[str, int] = {}


def aggregate_samples(binary: Binary, data: PerfData,
                      use_inferrer: bool = True,
                      dedup: bool = True
                      ) -> Tuple[RawAggregation, FrameInferrer]:
    """Unwind every sample and histogram identical ranges/calls.

    With ``dedup=True`` (default) samples are grouped by ``(lbr, initial
    context)``: each unique ``(lbr, stack)`` payload converts its stack
    once, and each distinct pair is walked once, its ranges/calls credited
    with the number of samples in the group.  This is exact: the walk reads
    only the LBR window and the initial context, and the stack (leaf IP
    included) reaches it only through that context.  Groups keep the
    first-occurrence order of their samples, so every histogram's insertion
    order matches the per-sample walk.  ``dedup=False`` is the per-sample
    reference path.
    """
    inferrer: Optional[FrameInferrer] = None
    if use_inferrer:
        # The tail-call graph only feeds the inferrer; skip it entirely for
        # context-insensitive modes.
        inferrer = FrameInferrer(TailCallGraph.from_samples(binary,
                                                            data.samples))
    unwinder = Unwinder(binary, inferrer)
    agg = RawAggregation()
    tel = telemetry.enabled()
    ranges = agg.ranges
    calls = agg.calls
    if dedup:
        entries = data.aggregated()
        agg.total_samples = len(data.samples)
        agg.unique_samples = len(entries)
        context_from_stack = unwinder.context_from_stack
        groups: Dict[tuple, int] = {}
        for entry in entries:
            sample = entry.sample
            key = (sample.lbr, context_from_stack(sample.stack))
            groups[key] = groups.get(key, 0) + entry.count
        unwinder.stats["unwind_misses"] = len(groups)
        unwinder.stats["unwind_hits"] = agg.total_samples - len(groups)
        unwind_lbr = unwinder.unwind_lbr
        for (lbr, initial), count in groups.items():
            result = unwind_lbr(lbr, initial)
            if result.broken:
                agg.broken_samples += count
            if result.drop_reason is not None:
                agg.dropped[result.drop_reason] += count
            else:
                agg.used_samples += count
            for key in result.range_keys:
                ranges[key] += count
            for key in result.call_keys:
                calls[key] += count
            if tel and result.events:
                # Replay the walk's events once per represented sample so
                # counters keep their per-sample semantics under dedup.
                for name in result.events:
                    telemetry.count("correlate", name, count)
    else:
        agg.total_samples = len(data.samples)
        for sample in data.samples:
            result = unwinder.unwind(sample)
            if result.broken:
                agg.broken_samples += 1
            if result.drop_reason is not None:
                agg.dropped[result.drop_reason] += 1
            else:
                agg.used_samples += 1
            for r in result.ranges:
                ranges[(r.begin, r.end, r.context)] += 1
            for c in result.calls:
                calls[(c.call_addr, c.target_addr, c.context)] += 1
    agg.unwinder_stats = unwinder.stats
    if tel:
        telemetry.count("correlate", "samples_unwound", agg.total_samples)
        telemetry.count("correlate", "samples_broken", agg.broken_samples)
        telemetry.count("correlate", "samples_used", agg.used_samples)
        for reason, dropped in agg.dropped.items():
            telemetry.count("correlate.drop", reason, dropped)
            obs.emit("samples_dropped", stage="correlate", reason=reason,
                     count=dropped)
        telemetry.count("correlate", "lbr_ranges_attributed",
                        sum(agg.ranges.values()))
        telemetry.count("correlate", "call_transfers_attributed",
                        sum(agg.calls.values()))
        if dedup:
            telemetry.count("correlate", "samples_unique", agg.unique_samples)
        for name, value in unwinder.stats.items():
            if value:
                telemetry.count("correlate.cache", name, value)
    return agg, inferrer


def _index_stats_snapshot(binary: Binary) -> Dict[str, int]:
    return dict(binary.index_stats)


def _emit_index_stats(binary: Binary, before: Dict[str, int]) -> None:
    """Mirror per-run deltas of the binary's persistent index counters."""
    for name, value in binary.index_stats.items():
        delta = value - before.get(name, 0)
        if delta:
            telemetry.count("correlate.cache", name, delta)


# ---------------------------------------------------------------------------
# DWARF (AutoFDO) mode
# ---------------------------------------------------------------------------


def generate_dwarf_profile(binary: Binary, data: PerfData,
                           fast: bool = True) -> FlatProfile:
    """AutoFDO: sum range counts per instruction address, then collapse
    same-line addresses to (line, disc) keys with the max-heuristic."""
    tel = telemetry.enabled()
    before = _index_stats_snapshot(binary) if tel else {}
    agg, _ = aggregate_samples(binary, data, use_inferrer=False, dedup=fast)
    # Context is dropped: AutoFDO is context-insensitive.
    instr_counts: Counter = Counter()
    in_range = (binary.instructions_in_range if fast
                else binary.scan_instructions_in_range)
    for (begin, end, _ctx), count in agg.ranges.items():
        for minstr in in_range(begin, end):
            instr_counts[minstr.addr] += count
    call_counts: Counter = Counter()
    for (call_addr, target_addr, _ctx), count in agg.calls.items():
        call_counts[(call_addr, target_addr)] += count

    profile = FlatProfile(FlatProfile.KIND_DWARF)
    # Collapse to (function, line, disc) with the max-heuristic.
    for addr, count in instr_counts.items():
        minstr = binary.instr_at(addr)
        if minstr.dloc is None:
            continue
        func = minstr.dloc.leaf_function(minstr.func)
        key = (minstr.dloc.line, minstr.dloc.discriminator)
        profile.get_or_create(func).set_body_max(key, float(count))
    # Head counts and call targets from observed call transfers.
    for (call_addr, target_addr), count in call_counts.items():
        call_instr = binary.instr_at(call_addr)
        callee = binary.function_at(target_addr)
        if callee is None:
            continue
        if binary.symbols[callee].entry_addr == target_addr:
            profile.get_or_create(callee).head += count
        if call_instr.dloc is not None:
            func = call_instr.dloc.leaf_function(call_instr.func)
            key = (call_instr.dloc.line, call_instr.dloc.discriminator)
            profile.get_or_create(func).add_call(key, callee, float(count))
    profile.finalize()
    if tel:
        _emit_index_stats(binary, before)
    return profile


# ---------------------------------------------------------------------------
# Probe modes
# ---------------------------------------------------------------------------


def _probe_counts(binary: Binary, agg: RawAggregation,
                  use_index: bool = True) -> Tuple[Counter, set]:
    """(context, guid, probe_id, inline_stack) -> count for all anchored
    probes covered by ranges.  Dangling probes get no counts — their counts
    are unknown by construction (paper sec. III.A) — but are reported so the
    annotator can distinguish "unknown" from "cold".

    ``use_index=True`` serves each range from the binary's probe prefix
    index (one contiguous slice, memoized per range) instead of rescanning
    every instruction; record order is identical by construction.
    """
    counts: Counter = Counter()
    dangling: set = set()
    if use_index:
        for (begin, end, ctx), count in agg.ranges.items():
            for record in binary.probe_records_in_range(begin, end):
                if record.dangling:
                    dangling.add((ctx, record.guid, record.probe_id,
                                  record.inline_stack))
                    continue
                counts[(ctx, record.guid, record.probe_id,
                        record.inline_stack)] += count
    else:
        for (begin, end, ctx), count in agg.ranges.items():
            for minstr in binary.scan_instructions_in_range(begin, end):
                for record in minstr.probes:
                    if record.dangling:
                        dangling.add((ctx, record.guid, record.probe_id,
                                      record.inline_stack))
                        continue
                    counts[(ctx, record.guid, record.probe_id,
                            record.inline_stack)] += count
    if telemetry.enabled():
        telemetry.count("correlate", "probe_sites_counted", len(counts))
        telemetry.count("correlate", "dangling_probe_sites", len(dangling))
    return counts, dangling


def _names(binary: Binary, chain: tuple) -> List[Tuple[str, int]]:
    return [(binary.guid_to_name.get(guid, f"guid:{guid:x}"), probe_id)
            for guid, probe_id in chain]


def generate_probe_profile(binary: Binary, data: PerfData,
                           probe_meta: ProbeMetadata,
                           fast: bool = True) -> FlatProfile:
    """Probe-only CSSPGO: context-insensitive, sum-folded probe counts."""
    tel = telemetry.enabled()
    before = _index_stats_snapshot(binary) if tel else {}
    agg, _ = aggregate_samples(binary, data, use_inferrer=False, dedup=fast)
    counts, dangling = _probe_counts(binary, agg, use_index=fast)
    profile = FlatProfile(FlatProfile.KIND_PROBE)
    for (_ctx, guid, probe_id, _stack), count in counts.items():
        name = binary.guid_to_name.get(guid)
        if name is None:
            continue
        samples = profile.get_or_create(name)
        samples.add_body(probe_id, float(count))  # duplicates sum up
        if samples.checksum is None:
            samples.checksum = probe_meta.checksums.get(guid)
    for (_ctx, guid, probe_id, _stack) in dangling:
        name = binary.guid_to_name.get(guid)
        if name is not None:
            profile.get_or_create(name).dangling.add(probe_id)
    _probe_head_and_calls(binary, agg, probe_meta,
                          lambda name, ctx: profile.get_or_create(name))
    profile.finalize()
    if tel:
        _emit_index_stats(binary, before)
    return profile


def _probe_head_and_calls(binary: Binary, agg: RawAggregation,
                          probe_meta: ProbeMetadata, resolve) -> None:
    """Attribute head counts and call targets; ``resolve(leaf_name, context)``
    returns the FunctionSamples record to credit."""
    for (call_addr, target_addr, ctx), count in agg.calls.items():
        call_instr = binary.instr_at(call_addr)
        callee = binary.function_at(target_addr)
        if callee is None:
            continue
        if not call_instr.call_ctx:
            continue
        lex_guid, probe_id = call_instr.call_ctx[-1]
        lex_name = binary.guid_to_name.get(lex_guid)
        if lex_name is None:
            continue
        caller_samples = resolve(lex_name, (ctx, call_instr.call_ctx[:-1]))
        caller_samples.add_call(probe_id, callee, float(count))
        if binary.symbols[callee].entry_addr == target_addr:
            callee_samples = resolve(
                callee, (ctx, call_instr.call_ctx))
            callee_samples.head += count


def context_profile_from_agg(binary: Binary, agg: RawAggregation,
                             probe_meta: ProbeMetadata,
                             fast: bool = True) -> ContextProfile:
    """Build the context-mode profile from an aggregation.

    The second half of :func:`generate_context_profile`, for callers that
    also want the aggregation's exact sample accounting
    (``agg.used_samples``/``agg.dropped``).
    """
    tel = telemetry.enabled()
    counts, dangling = _probe_counts(binary, agg, use_index=fast)
    profile = ContextProfile()
    trie = ContextTrie()
    #: (ctx, inline_chain, guid) -> (key or None, fallback counter or None).
    memo: Dict[tuple, Tuple[Optional[ContextKey], Optional[str]]] = {}
    memo_hits = 0

    def symbolize(ctx: Optional[tuple], inline_chain: tuple,
                  leaf_guid: int) -> Tuple[Optional[ContextKey], Optional[str]]:
        """Uncached symbolization: (key, fallback-counter-name or None)."""
        leaf_name = binary.guid_to_name.get(leaf_guid)
        if leaf_name is None:
            return None, None
        if ctx is None:
            # Unknown physical context: attribute to the base context.
            return (trie.intern(base_context(leaf_name)),
                    "unknown_context_fallbacks")
        frames: List[Tuple[str, Optional[int]]] = []
        for call_addr in ctx:
            chain = binary.instr_at(call_addr).call_ctx
            if not chain:
                return (trie.intern(base_context(leaf_name)),
                        "unsymbolized_callsite_fallbacks")
            frames.extend(_names(binary, chain))
        frames.extend(_names(binary, inline_chain))
        frames.append((leaf_name, None))
        return trie.intern(frames), None

    def context_key(ctx: Optional[tuple], inline_chain: tuple,
                    leaf_guid: int) -> Optional[ContextKey]:
        nonlocal memo_hits
        if fast:
            cache_key = (ctx, inline_chain, leaf_guid)
            entry = memo.get(cache_key)
            if entry is None:
                entry = symbolize(ctx, inline_chain, leaf_guid)
                memo[cache_key] = entry
            else:
                memo_hits += 1
            key, fallback = entry
        else:
            key, fallback = symbolize(ctx, inline_chain, leaf_guid)
        # Fallbacks are counted per occurrence (memo hits replay them), so
        # memoization is invisible to telemetry.
        if fallback is not None and tel:
            telemetry.count("correlate", fallback)
        return key

    for (ctx, guid, probe_id, inline_stack), count in counts.items():
        key = context_key(ctx, inline_stack, guid)
        if key is None:
            continue
        samples = profile.get_or_create(key)
        samples.add_body(probe_id, float(count))
        if samples.checksum is None:
            samples.checksum = probe_meta.checksums.get(guid)
    for (ctx, guid, probe_id, inline_stack) in dangling:
        key = context_key(ctx, inline_stack, guid)
        if key is not None:
            profile.get_or_create(key).dangling.add(probe_id)

    name_to_guid = {n: g for g, n in binary.guid_to_name.items()}

    def resolve(name: str, ctx_pair) -> object:
        ctx, inline_chain = ctx_pair
        guid = name_to_guid.get(name)
        key = context_key(ctx, inline_chain, guid)
        if key is None:
            key = base_context(name)
        samples = profile.get_or_create(key)
        if samples.checksum is None:
            samples.checksum = probe_meta.checksums.get(guid)
        return samples

    _probe_head_and_calls(binary, agg, probe_meta, resolve)
    profile.finalize()
    if tel:
        if fast:
            telemetry.count("correlate.cache", "context_key_memo_hits",
                            memo_hits)
            telemetry.count("correlate.cache", "context_key_memo_misses",
                            len(memo))
        telemetry.count("correlate.cache", "contexts_interned",
                        trie.interned)
        telemetry.count("correlate.cache", "context_intern_hits", trie.hits)
    return profile


def generate_context_profile(binary: Binary, data: PerfData,
                             probe_meta: ProbeMetadata,
                             use_inferrer: bool = True,
                             fast: bool = True
                             ) -> Tuple[ContextProfile, FrameInferrer]:
    """Full CSSPGO: context-sensitive probe profile via Algorithm 1."""
    tel = telemetry.enabled()
    before = _index_stats_snapshot(binary) if tel else {}
    agg, inferrer = aggregate_samples(binary, data,
                                      use_inferrer=use_inferrer, dedup=fast)
    profile = context_profile_from_agg(binary, agg, probe_meta, fast=fast)
    if tel:
        _emit_index_stats(binary, before)
    return profile, inferrer
