"""PMU/perf-data details and aggregation plumbing."""

import random

import pytest

from repro.codegen import link
from repro.correlate import aggregate_samples
from repro.hw import PMU, PMUConfig, PerfData, PerfSample, execute, make_pmu
from tests.conftest import build_call_module, build_loop_module


class TestPerfData:
    def test_sample_fields_frozen(self):
        sample = PerfSample([(1, 2)], [3, 4], 3)
        assert sample.lbr == ((1, 2),)
        assert sample.stack == (3, 4)
        assert sample.ip == 3

    def test_perf_data_metadata(self):
        data = PerfData(period=97, lbr_depth=16, pebs=True)
        data.add(PerfSample([], [0], 0))
        assert len(data) == 1
        assert "97" in repr(data)


class TestPMUBinding:
    def test_make_pmu_binds_to_executor(self, loop_module):
        binary = link(loop_module)
        pmu = make_pmu(PMUConfig(period=11))
        result = execute(binary, [100], pmu=pmu)
        data = pmu.finish(result.instructions_retired)
        assert data.instructions_retired == result.instructions_retired
        assert len(data) > 0
        # Stack samples carry real addresses.
        for sample in data.samples[:10]:
            assert all(binary.has_addr(a) or binary.function_at(a)
                       for a in sample.stack)

    @pytest.mark.parametrize("period", [1, 3, 7, 8, 16, 59, 97])
    def test_jitter_draws_match_randint(self, period):
        # _next_period draws through getrandbits on precomputed bounds; it
        # must consume the generator exactly as randint does.
        for seed in (0, 1, 5, 12345, 2 ** 40 + 3):
            pmu = PMU(PMUConfig(period=period, jitter_seed=seed), list)
            rng = random.Random(seed)
            want = [period + rng.randint(0, max(1, period // 8))
                    for _ in range(400)]
            got = [pmu._until_sample]
            got += [pmu._next_period() for _ in range(399)]
            assert got == want

    def test_jitter_varies_gaps(self, loop_module):
        binary = link(loop_module)
        pmu = make_pmu(PMUConfig(period=13, jitter_seed=5))
        execute(binary, [300], pmu=pmu)
        ips = [s.ip for s in pmu.data.samples]
        assert len(set(ips)) > 3  # not phase-locked to one address


class TestAggregation:
    def test_range_and_call_histograms(self, call_module):
        binary = link(call_module)
        pmu = make_pmu(PMUConfig(period=1))
        result = execute(binary, [5], pmu=pmu)
        data = pmu.finish(result.instructions_retired)
        agg, inferrer = aggregate_samples(binary, data)
        assert agg.total_samples == len(data.samples)
        assert sum(agg.ranges.values()) > 0
        assert sum(agg.calls.values()) > 0
        # Every range endpoint is a real instruction in one function.
        for (begin, end, _ctx) in agg.ranges:
            assert binary.function_at(begin) == binary.function_at(end)

    def test_aggregation_without_inferrer(self, call_module):
        binary = link(call_module)
        pmu = make_pmu(PMUConfig(period=3))
        result = execute(binary, [5], pmu=pmu)
        data = pmu.finish(result.instructions_retired)
        agg, inferrer = aggregate_samples(binary, data, use_inferrer=False)
        assert inferrer is None
        assert agg.total_samples == len(data.samples)
