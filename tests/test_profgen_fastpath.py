"""Differential tests for the profgen fast path (DESIGN.md sec. 9).

The fast path — one walk per (LBR, calling context), memoized per-branch
lookups, binary range indexes, and the interned-context memo — must be
*invisible*: for every profile mode and
inferrer setting, its text-format output must be byte-identical to the
original per-sample, rescanning, memo-free algorithm (``fast=False``),
including broken-sample and dangling-probe bookkeeping and the telemetry
counters both paths emit.
"""

import pytest

from repro import telemetry
from repro.codegen import build_probe_metadata, link
from repro.correlate import (FrameInferrer, TailCallGraph, Unwinder,
                             aggregate_samples, generate_context_profile,
                             generate_dwarf_profile, generate_probe_profile)
from repro.hw import PMUConfig, PerfData, PerfSample, execute, make_pmu
from repro.opt import OptConfig, optimize_module
from repro.probes import insert_pseudo_probes
from repro.profile import ContextTrie, dump_context_profile, dump_flat_profile
from repro.workloads import WorkloadSpec, build_workload


def _profiled_binary(seed=3, requests=80, period=23, args=(150,), pebs=True):
    module = build_workload(WorkloadSpec("fp", seed=seed, requests=requests))
    insert_pseudo_probes(module)
    clone = module.clone()
    optimize_module(clone, OptConfig(), profile_annotated=False)
    binary = link(clone)
    meta = build_probe_metadata(binary, clone)
    pmu = make_pmu(PMUConfig(period=period, pebs=pebs))
    result = execute(binary, list(args), pmu=pmu)
    return binary, meta, pmu.finish(result.instructions_retired)


SEEDS = [0, 3, 9]


@pytest.fixture(scope="module", params=SEEDS)
def profiled(request):
    return _profiled_binary(seed=request.param)


class TestDifferentialProfiles:
    def test_dwarf_profile_identical(self, profiled):
        binary, _meta, data = profiled
        slow = generate_dwarf_profile(binary, data, fast=False)
        fast = generate_dwarf_profile(binary, data, fast=True)
        assert dump_flat_profile(fast) == dump_flat_profile(slow)

    def test_probe_profile_identical(self, profiled):
        binary, meta, data = profiled
        slow = generate_probe_profile(binary, data, meta, fast=False)
        fast = generate_probe_profile(binary, data, meta, fast=True)
        assert dump_flat_profile(fast) == dump_flat_profile(slow)
        # Dangling-probe bookkeeping must survive the indexed path too.
        slow_dangling = {n: s.dangling for n, s in slow.functions.items()}
        fast_dangling = {n: s.dangling for n, s in fast.functions.items()}
        assert fast_dangling == slow_dangling

    @pytest.mark.parametrize("use_inferrer", [True, False])
    def test_context_profile_identical(self, profiled, use_inferrer):
        binary, meta, data = profiled
        slow, _ = generate_context_profile(binary, data, meta,
                                           use_inferrer=use_inferrer,
                                           fast=False)
        fast, _ = generate_context_profile(binary, data, meta,
                                           use_inferrer=use_inferrer,
                                           fast=True)
        assert dump_context_profile(fast) == dump_context_profile(slow)

    @pytest.mark.parametrize("use_inferrer", [True, False])
    def test_aggregation_identical(self, profiled, use_inferrer):
        """The deduplicated first stage reproduces the per-sample histograms
        exactly: same range/call counters, same broken-sample count."""
        binary, _meta, data = profiled
        slow, _ = aggregate_samples(binary, data, use_inferrer=use_inferrer,
                                    dedup=False)
        fast, _ = aggregate_samples(binary, data, use_inferrer=use_inferrer,
                                    dedup=True)
        assert fast.ranges == slow.ranges
        assert fast.calls == slow.calls
        assert fast.broken_samples == slow.broken_samples
        assert fast.total_samples == slow.total_samples
        assert 0 < fast.unique_samples <= fast.total_samples

    def test_telemetry_counters_identical(self, profiled):
        """Caching must be invisible to telemetry: per-sample counter totals
        (broken samples, skid aborts, fallbacks, ...) match across paths."""
        binary, meta, data = profiled
        totals = {}
        for fast in (False, True):
            session = telemetry.enable()
            try:
                generate_context_profile(binary, data, meta, fast=fast)
            finally:
                telemetry.disable()
            totals[fast] = {key: n for key, n in session.counters.items()
                            if key[0] == "correlate"
                            and key[1] != "samples_unique"}
        assert totals[True] == totals[False]


class TestSkiddySamples:
    def test_skid_pmu_profiles_identical(self):
        """Non-PEBS (skiddy) sampling produces broken samples and context
        aborts; the memoized path must reproduce them count-for-count."""
        binary, meta, data = _profiled_binary(seed=5, pebs=False, period=17)
        slow, _ = generate_context_profile(binary, data, meta, fast=False)
        fast, _ = generate_context_profile(binary, data, meta, fast=True)
        assert dump_context_profile(fast) == dump_context_profile(slow)
        agg_slow, _ = aggregate_samples(binary, data, dedup=False)
        agg_fast, _ = aggregate_samples(binary, data, dedup=True)
        assert agg_fast.broken_samples == agg_slow.broken_samples


class TestPerfDataAggregation:
    def test_counts_sum_to_total(self, profiled):
        _binary, _meta, data = profiled
        entries = data.aggregated()
        assert sum(e.count for e in entries) == len(data.samples)
        # Unique payloads, keyed by (lbr, stack).
        keys = [(e.sample.lbr, e.sample.stack) for e in entries]
        assert len(set(keys)) == len(keys)

    def test_first_occurrence_order(self, profiled):
        _binary, _meta, data = profiled
        seen = []
        for sample in data.samples:
            key = (sample.lbr, sample.stack)
            if key not in seen:
                seen.append(key)
        got = [(e.sample.lbr, e.sample.stack) for e in data.aggregated()]
        assert got == seen

    def test_view_cached_and_invalidated(self, profiled):
        _binary, _meta, data = profiled
        view = data.aggregated()
        assert data.aggregated() is view
        data.add(data.samples[0])
        try:
            fresh = data.aggregated()
            assert fresh is not view
            assert sum(e.count for e in fresh) == len(data.samples)
        finally:
            data.samples.pop()
            data._aggregated = None


class TestBinaryIndexes:
    def test_probe_index_matches_scan(self, profiled):
        binary, _meta, data = profiled
        agg, _ = aggregate_samples(binary, data, use_inferrer=False)
        for begin, end, _ctx in list(agg.ranges)[:200]:
            scanned = [record for minstr
                       in binary.scan_instructions_in_range(begin, end)
                       for record in minstr.probes]
            assert binary.probe_records_in_range(begin, end) == scanned

    def test_instruction_range_cache_matches_scan(self, profiled):
        binary, _meta, data = profiled
        agg, _ = aggregate_samples(binary, data, use_inferrer=False)
        for begin, end, _ctx in list(agg.ranges)[:200]:
            assert (binary.instructions_in_range(begin, end)
                    == binary.scan_instructions_in_range(begin, end))
        assert binary.index_stats["instr_range_misses"] > 0

    def test_function_at_cache_consistent(self, profiled):
        binary, _meta, _data = profiled
        for symbol in binary.symbols.values():
            assert binary.function_at(symbol.entry_addr) == symbol.name
            # Cached second lookup agrees.
            assert binary.function_at(symbol.entry_addr) == symbol.name
        assert binary.index_stats["function_at_hits"] > 0


def _inferrer(binary, data):
    return FrameInferrer(TailCallGraph.from_samples(binary, data.samples))


class TestMemoizedUnwinder:
    def test_memoized_matches_reference(self, profiled):
        """The ``(lbr, initial)`` walk, with its per-branch memos warm, equals
        the memo-free reference walk on every sample."""
        binary, _meta, data = profiled
        for inferrer in (None, _inferrer(binary, data)):
            memo = Unwinder(binary, inferrer)
            ref = Unwinder(binary, inferrer)
            for sample in data.samples:
                fast = memo.unwind_lbr(
                    sample.lbr, memo.context_from_stack(sample.stack))
                slow = ref._unwind_uncached(sample)
                assert fast.range_keys == [(r.begin, r.end, r.context)
                                           for r in slow.ranges]
                assert fast.call_keys == [(c.call_addr, c.target_addr,
                                           c.context) for c in slow.calls]
                assert fast.broken == slow.broken
                assert fast.drop_reason == slow.drop_reason
                assert (fast.events or []) == (slow.events or [])


def _perf_data(samples):
    data = PerfData(period=23, lbr_depth=16, pebs=True)
    data.samples.extend(samples)
    return data


class TestWalkGrouping:
    """The dedup path walks each distinct ``(lbr, initial context)`` once
    and still reproduces the per-sample histograms, in insertion order."""

    @staticmethod
    def _check(binary, data, use_inferrer):
        inferrer = _inferrer(binary, data) if use_inferrer else None
        unwinder = Unwinder(binary, inferrer)
        keys = {(s.lbr, unwinder.context_from_stack(s.stack))
                for s in data.samples}
        slow, _ = aggregate_samples(binary, data, use_inferrer=use_inferrer,
                                    dedup=False)
        fast, _ = aggregate_samples(binary, data, use_inferrer=use_inferrer,
                                    dedup=True)
        stats = fast.unwinder_stats
        assert stats["unwind_misses"] == len(keys)
        assert (stats["unwind_hits"] + stats["unwind_misses"]
                == fast.total_samples == len(data.samples))
        assert list(fast.ranges.items()) == list(slow.ranges.items())
        assert list(fast.calls.items()) == list(slow.calls.items())
        assert fast.broken_samples == slow.broken_samples
        assert fast.dropped == slow.dropped
        assert fast.used_samples == slow.used_samples
        return keys, fast

    @pytest.mark.parametrize("use_inferrer", [True, False])
    def test_payloads_differing_in_leaf_ip(self, use_inferrer):
        binary, _meta, data = _profiled_binary(seed=3)
        addrs_of = {}
        for minstr in binary.instrs:
            addrs_of.setdefault(binary.function_at(minstr.addr),
                                []).append(minstr.addr)
        entry = binary.symbols[binary.entry_function].entry_addr
        samples = []
        for sample in data.samples[::25]:
            leaf, callers = sample.stack[0], sample.stack[1:]
            same = addrs_of[binary.function_at(leaf)]
            # Other IPs in the leaf's function, and one in another function,
            # which tail-call repair sees.
            for ip in (leaf, same[0], same[len(same) // 2], same[-1], entry):
                samples.append(PerfSample(sample.lbr, (ip,) + callers, ip))
        keys, fast = self._check(binary, _perf_data(samples), use_inferrer)
        assert len(keys) < fast.unique_samples

    @pytest.mark.parametrize("use_inferrer", [True, False])
    def test_skid_samples(self, use_inferrer):
        binary, _meta, data = _profiled_binary(seed=5, pebs=False, period=17)
        _keys, fast = self._check(binary, data, use_inferrer)
        assert fast.broken_samples > 0

    @pytest.mark.parametrize("use_inferrer", [True, False])
    def test_truncated_stacks(self, use_inferrer):
        # Each window three times: the whole stack, the leaf alone, and a
        # stack truncated to nothing (no initial context).
        binary, _meta, data = _profiled_binary(seed=9)
        samples = []
        for sample in data.samples[::10]:
            for stack in (sample.stack, sample.stack[:1], ()):
                samples.append(PerfSample(sample.lbr, stack, sample.ip))
        keys, _fast = self._check(binary, _perf_data(samples), use_inferrer)
        assert any(initial is None for _lbr, initial in keys)
        assert len({lbr for lbr, _initial in keys}) < len(keys)


class TestContextTrie:
    def test_interned_key_is_canonical(self):
        trie = ContextTrie()
        a = trie.intern((("main", 3), ("svc", None)))
        b = trie.intern((("main", 3), ("svc", None)))
        assert a is b
        assert a == (("main", 3), ("svc", None))
        assert trie.interned == 1 and trie.hits == 1

    def test_prefixes_are_distinct_keys(self):
        trie = ContextTrie()
        long = trie.intern((("main", 3), ("svc", 1), ("leaf", None)))
        short = trie.intern((("main", 3), ("svc", 1)))
        assert long != short
        assert len(trie) == 2
        # Re-interning each still returns the canonical object.
        assert trie.intern(tuple(long)) is long
        assert trie.intern(tuple(short)) is short

    def test_list_input_interns_to_tuple(self):
        trie = ContextTrie()
        key = trie.intern([("main", None)])
        assert key == (("main", None),)
        assert isinstance(key, tuple)
