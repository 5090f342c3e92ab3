"""Differential tests: pre-decoded threaded-code engine vs legacy executor.

The decoded engine (repro.hw.decoded) must be observationally identical to
:class:`MachineExecutor` — not just same return values, but bit-identical
PMU sample streams (LBR contents, stack snapshots, sample IPs) and exactly
equal cost-model cycle totals, across observer configurations.  These tests
are the contract that lets the driver default to the decoded engine.
"""

from __future__ import annotations

import pickle

import pytest

from repro.codegen import link
from repro.hw import (MachineExecutionLimit, MachineExecutor, PMU, PMUConfig,
                      execute, make_pmu, run_decoded)
from repro.ir import ModuleBuilder, verify_module
from repro.opt import OptConfig, optimize_module
from repro.perfmodel import CostModel
from repro.probes import insert_pseudo_probes, instrument_module
from repro.workloads import WorkloadSpec, build_workload

ARGS = [120]


def _pipeline_binary(seed: int, instrument: bool = True):
    """A realistically-shaped binary: probed, instrumented, optimized."""
    module = build_workload(WorkloadSpec("d", seed=seed, requests=60))
    insert_pseudo_probes(module)
    if instrument:
        instrument_module(module)
    clone = module.clone()
    optimize_module(clone, OptConfig(), profile_annotated=False)
    verify_module(clone)
    return link(clone)


def _recursion_module(depth_reg: str = "%n"):
    """main(n): recursive countdown — one call + one ret per level."""
    mb = ModuleBuilder("recur")
    f = mb.function("main", [depth_reg])
    f.block("entry").cmp("sle", "%c", depth_reg, 0).condbr("%c", "base", "rec")
    f.block("base").mov("%z", 0).ret("%z")
    (f.block("rec").sub("%m", depth_reg, 1)
     .call("%r", "main", ["%m"]).add("%r", "%r", 1).ret("%r"))
    module = mb.build()
    verify_module(module)
    return module


class TestPureDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_results_identical(self, seed):
        binary = _pipeline_binary(seed)
        legacy = MachineExecutor(binary).run(ARGS)
        decoded = run_decoded(binary, ARGS)
        assert decoded.return_value == legacy.return_value
        assert decoded.instructions_retired == legacy.instructions_retired
        assert decoded.taken_branches == legacy.taken_branches
        assert dict(decoded.instr_counters) == dict(legacy.instr_counters)

    def test_execute_engine_selection(self):
        binary = _pipeline_binary(0)
        via_decoded = execute(binary, ARGS, engine="decoded")
        via_legacy = execute(binary, ARGS, engine="legacy")
        assert via_decoded.return_value == via_legacy.return_value
        with pytest.raises(ValueError):
            execute(binary, ARGS, engine="interpreted")


class TestObserverDifferential:
    @pytest.mark.parametrize("pebs", [True, False])
    @pytest.mark.parametrize("lbr_depth", [16, 32])
    def test_pmu_streams_identical(self, pebs, lbr_depth):
        binary = _pipeline_binary(1)
        config = PMUConfig(period=97, lbr_depth=lbr_depth, pebs=pebs)

        pmu_l = make_pmu(config)
        legacy = execute(binary, ARGS, pmu=pmu_l, engine="legacy")
        data_l = pmu_l.finish(legacy.instructions_retired)

        pmu_d = make_pmu(config)
        decoded = execute(binary, ARGS, pmu=pmu_d, engine="decoded")
        data_d = pmu_d.finish(decoded.instructions_retired)

        assert decoded.return_value == legacy.return_value
        assert len(data_d.samples) == len(data_l.samples)
        for got, want in zip(data_d.samples, data_l.samples):
            assert got.ip == want.ip
            assert list(got.lbr) == list(want.lbr)
            assert list(got.stack) == list(want.stack)
        assert pmu_d.lbr.recorded == pmu_l.lbr.recorded
        assert pmu_d.lbr.wraps == pmu_l.lbr.wraps
        assert pmu_d._skid_samples == pmu_l._skid_samples

    @pytest.mark.parametrize("engine", ["legacy", "decoded"])
    @pytest.mark.parametrize("pebs", [True, False])
    def test_cost_model_does_not_change_samples(self, engine, pebs):
        # Sampling runs collect without a cost model; the stream they give
        # must be the one a priced run gives.
        binary = _pipeline_binary(1)
        config = PMUConfig(period=31, pebs=pebs)
        runs = []
        for cost in (None, CostModel()):
            pmu = make_pmu(config)
            result = execute(binary, ARGS, pmu=pmu, cost_model=cost,
                             engine=engine)
            data = pmu.finish(result.instructions_retired)
            samples = [(s.ip, list(s.lbr), list(s.stack))
                       for s in data.samples]
            runs.append((samples, pmu.lbr.recorded, pmu.lbr.wraps,
                         pmu._skid_samples))
        assert len(runs[0][0]) > 100
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("with_pmu", [False, True])
    def test_cost_model_identical(self, with_pmu):
        binary = _pipeline_binary(2)
        summaries = []
        for engine in ("legacy", "decoded"):
            cost = CostModel()
            pmu = make_pmu(PMUConfig()) if with_pmu else None
            execute(binary, ARGS, pmu=pmu, cost_model=cost, engine=engine)
            summaries.append(cost.summary())
        assert summaries[0] == summaries[1]


class TestDecodeCache:
    def test_repeat_runs_hit_cache(self):
        binary = _pipeline_binary(3)
        baseline_decodes = binary.decode_stats["decodes"]
        first = run_decoded(binary, ARGS)
        second = run_decoded(binary, ARGS)
        assert second.return_value == first.return_value
        assert binary.decode_stats["decodes"] == baseline_decodes + 1
        assert binary.decode_stats["cache_hits"] >= 1

    def test_observer_variants_decode_separately(self):
        binary = _pipeline_binary(3)
        run_decoded(binary, ARGS)
        run_decoded(binary, ARGS, pmu=make_pmu(PMUConfig(pebs=True)))
        run_decoded(binary, ARGS, pmu=make_pmu(PMUConfig(pebs=False)))
        assert binary.decode_stats["decodes"] == 3

    def test_pickle_drops_cache_and_still_runs(self):
        binary = _pipeline_binary(0)
        expected = run_decoded(binary, ARGS).return_value
        clone = pickle.loads(pickle.dumps(binary))
        assert clone._decoded_cache == {}
        assert clone.decode_stats == {"decodes": 0, "cache_hits": 0}
        assert run_decoded(clone, ARGS).return_value == expected


class TestPEBSOverheadRegression:
    """PMU.on_branch must do no stack work in PEBS mode (paper sec. IV)."""

    def test_pebs_on_branch_never_walks(self):
        calls = []

        def walker():
            calls.append(1)
            return [0]

        pmu = PMU(PMUConfig(pebs=True), walker)
        assert pmu.on_branch.__func__ is PMU._on_branch_pebs
        for i in range(200):
            pmu.on_branch(0x400000 + i, 0x400100 + i)
        assert calls == []  # no per-branch stack walks
        # Sampling itself still walks, exactly once per sample.
        for _ in range(300):
            pmu.on_retire(0x400000)
        assert len(pmu.data.samples) >= 1
        assert len(calls) == len(pmu.data.samples)

    def test_pebs_walks_once_per_sample_not_per_branch(self):
        binary = _pipeline_binary(1)
        pmu = make_pmu(PMUConfig(pebs=True))
        executor = MachineExecutor(binary, pmu=pmu)
        walks = []
        real_walk = executor.walk_stack
        pmu.bind_executor(lambda: (walks.append(1), real_walk())[1])
        result = executor.run(ARGS)
        data = pmu.finish(result.instructions_retired)
        assert len(walks) == len(data.samples)
        assert result.taken_branches > len(data.samples) * 10

    def test_pebs_perf_data_unchanged_by_specialization(self):
        """The no-walk fast path must not change the sample stream."""
        binary = _pipeline_binary(1)
        config = PMUConfig(pebs=True)

        fast = make_pmu(config)
        result = execute(binary, ARGS, pmu=fast, engine="legacy")
        fast_data = fast.finish(result.instructions_retired)

        # Reference PMU with the specialization undone: on_branch eagerly
        # captures the lagged stack like the (pre-fix) generic path did.
        ref = make_pmu(config)
        ref.on_branch = PMU.on_branch.__get__(ref)
        result2 = execute(binary, ARGS, pmu=ref, engine="legacy")
        ref_data = ref.finish(result2.instructions_retired)

        assert len(fast_data.samples) == len(ref_data.samples)
        for got, want in zip(fast_data.samples, ref_data.samples):
            assert (got.ip, list(got.lbr), list(got.stack)) == \
                (want.ip, list(want.lbr), list(want.stack))


class TestInstructionBudget:
    """max_instructions must bite on every retired instruction — including
    rets, so a ret-heavy (deeply recursive) runaway still halts."""

    @pytest.mark.parametrize("engine", ["legacy", "decoded"])
    def test_ret_heavy_program_hits_limit(self, engine):
        binary = link(_recursion_module())
        # Depth 5000 retires ~35k instructions, half in the call/ret ladder.
        with pytest.raises(MachineExecutionLimit):
            execute(binary, [5000], max_instructions=2_000, engine=engine)

    @pytest.mark.parametrize("engine", ["legacy", "decoded"])
    def test_limit_not_hit_under_budget(self, engine):
        binary = link(_recursion_module())
        result = execute(binary, [40], max_instructions=2_000, engine=engine)
        assert result.return_value == 40

    @pytest.mark.parametrize("cut", [None, 2, 100])
    def test_direct_lbr_appends_count_like_record(self, cut):
        # The decoded PEBS path appends to the LBR ring and settles
        # recorded/wraps once per run; the skid path records every branch
        # through LBRStack.record.  Both see the same branches, so the
        # counters must agree on a second run that starts with a partly
        # filled ring, whether it halts (cut None), halts and then fails
        # the budget check (cut 2: the final block is ``add; ret``), or
        # stops on the budget between blocks.
        binary = link(_recursion_module())
        total = execute(binary, [40]).instructions_retired
        budget = 50_000_000 if cut is None else total - cut
        counters = []
        for pebs in (True, False):
            pmu = make_pmu(PMUConfig(period=5, lbr_depth=32, pebs=pebs))
            execute(binary, [3], pmu=pmu, engine="decoded")
            assert 0 < len(pmu.lbr) < 32
            if cut is None:
                execute(binary, [40], pmu=pmu, engine="decoded",
                        max_instructions=budget)
            else:
                with pytest.raises(MachineExecutionLimit):
                    execute(binary, [40], pmu=pmu, engine="decoded",
                            max_instructions=budget)
            counters.append((pmu.lbr.recorded, pmu.lbr.wraps,
                             pmu.lbr.snapshot()))
        assert counters[0] == counters[1]
        assert counters[0][1] > 0

    def test_recursion_differential(self):
        binary = link(_recursion_module())
        legacy = execute(binary, [300], engine="legacy")
        decoded = execute(binary, [300], engine="decoded")
        assert decoded.return_value == legacy.return_value == 300
        assert decoded.instructions_retired == legacy.instructions_retired
        assert decoded.taken_branches == legacy.taken_branches
