"""Differential tests: pre-decoded threaded-code engine vs legacy executor.

The decoded engine (repro.hw.decoded) must be observationally identical to
:class:`MachineExecutor` — not just same return values, but bit-identical
PMU sample streams (LBR contents, stack snapshots, sample IPs) and exactly
equal cost-model cycle totals, across observer configurations.  These tests
are the contract that lets the driver default to the decoded engine.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from types import FunctionType

import pytest

from repro import telemetry
from repro.codegen import link
from repro.hw import (MachineExecutionLimit, MachineExecutor, PMU, PMUConfig,
                      decode_program, execute, make_pmu, run_decoded)
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


def _tail_module(tail: int = 40):
    """main(n): call a leaf that only returns, then ``tail`` adds.  Every
    sample in the tail is taken two taken branches into the run."""
    mb = ModuleBuilder("tail")
    mb.function("leaf", ["%v"]).block("entry").ret("%v")
    body = mb.function("main", ["%n"]).block("entry")
    body.call("%x", "leaf", ["%n"])
    for _ in range(tail):
        body.add("%x", "%x", 3)
    body.ret("%x")
    module = mb.build()
    verify_module(module)
    return module


def _reused_pmu_samples(binary, engine, pebs, runs):
    """One PMU across several runs; the session's (ip, lbr, stack) list."""
    pmu = make_pmu(PMUConfig(period=5, pebs=pebs))
    for n in runs:
        if engine == "legacy":
            # Bind each run's executor: ``execute`` keeps the first one's.
            executor = MachineExecutor(binary, pmu=pmu)
            pmu.bind_executor(executor.walk_stack)
            executor.run([n])
        else:
            run_decoded(binary, [n], pmu=pmu)
    return [(s.ip, s.lbr, s.stack) for s in pmu.data.samples]


class TestPayloadInterning:
    """Within one PMU session, equal LBR windows and equal stacks are one
    object each, in both engines and both PMU modes."""

    @pytest.mark.parametrize("pebs", [True, False])
    def test_equal_payloads_are_one_object(self, pebs):
        binary = _pipeline_binary(1)
        streams = []
        for engine in ("legacy", "decoded"):
            pmu = make_pmu(PMUConfig(period=7, pebs=pebs))
            result = execute(binary, ARGS, pmu=pmu, engine=engine)
            data = pmu.finish(result.instructions_retired)
            windows, stacks = {}, {}
            for sample in data.samples:
                assert windows.setdefault(sample.lbr, sample.lbr) is sample.lbr
                assert (stacks.setdefault(sample.stack, sample.stack)
                        is sample.stack)
            assert len(windows) < len(data.samples) // 2
            assert len(stacks) < len(data.samples) // 10
            streams.append([(s.ip, s.lbr, s.stack) for s in data.samples])
        assert streams[0] == streams[1]

    @pytest.mark.parametrize("pebs", [True, False])
    def test_reused_pmu_takes_no_window_from_an_earlier_run(self, pebs):
        # The decoded engine reuses the last window while ``st.taken`` is
        # unchanged.  Each run here samples its tail two branches in, with
        # a ring that grew since the last run's tail.
        binary = link(_tail_module())
        runs = (1, 2, 3, 4)
        decoded = _reused_pmu_samples(binary, "decoded", pebs, runs)
        assert len(decoded) > 20
        assert decoded == _reused_pmu_samples(binary, "legacy", pebs, runs)

    def test_distinct_counts_match_across_engines(self):
        binary = _pipeline_binary(1)
        counts = []
        for engine in ("legacy", "decoded"):
            session = telemetry.enable(telemetry.TelemetrySession())
            try:
                pmu = make_pmu(PMUConfig(period=7))
                result = execute(binary, ARGS, pmu=pmu, engine=engine)
                data = pmu.finish(result.instructions_retired)
            finally:
                telemetry.disable()
            windows = session.counter("hw.pmu", "lbr_windows_distinct")
            stacks = session.counter("hw.pmu", "stacks_distinct")
            assert windows == len({s.lbr for s in data.samples})
            assert stacks == len({s.stack for s in data.samples})
            counts.append((windows, stacks))
        assert counts[0] == counts[1]
        assert counts[0][0] > 0 and counts[0][1] > 0


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
        assert pmu.on_branch == pmu.lbr.record
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


def _lazy_module():
    """main(n) loops n times over wrap(i), whose ``call; ret`` lowers to a
    tail call into tailee, and step(i); then calls rare(n) when n > 50 and
    never(n) when n < 0.  Every callee has several blocks."""
    mb = ModuleBuilder("lazy")
    f = mb.function("never", ["%v"])
    f.block("entry").cmp("sgt", "%c", "%v", 3).condbr("%c", "a", "b")
    f.block("a").mul("%v", "%v", 5).br("out")
    f.block("b").add("%v", "%v", 5).br("out")
    f.block("out").ret("%v")
    f = mb.function("rare", ["%v"])
    f.block("entry").mov("%k", 0).mov("%s", 0).br("loop")
    f.block("loop").cmp("slt", "%c", "%k", "%v").condbr("%c", "body", "done")
    f.block("body").add("%s", "%s", "%k").add("%k", "%k", 2).br("loop")
    f.block("done").ret("%s")
    f = mb.function("tailee", ["%v"])
    (f.block("entry").add("%s", "%v", 1).cmp("sgt", "%c", "%s", 4)
     .condbr("%c", "big", "small"))
    f.block("big").mul("%s", "%s", 3).br("done")
    f.block("small").sub("%s", "%s", 1).br("done")
    f.block("done").ret("%s")
    f = mb.function("wrap", ["%v"])
    f.block("entry").call("%t", "tailee", ["%v"]).ret("%t")
    f = mb.function("step", ["%v"])
    (f.block("entry").add("%u", "%v", 2).cmp("slt", "%c", "%u", 6)
     .condbr("%c", "lo", "hi"))
    f.block("lo").mul("%u", "%u", 2).br("out")
    f.block("hi").add("%u", "%u", 9).br("out")
    f.block("out").ret("%u")
    f = mb.function("main", ["%n"])
    f.block("entry").mov("%i", 0).mov("%sum", 0).br("head")
    f.block("head").cmp("slt", "%c", "%i", "%n").condbr("%c", "body", "after")
    (f.block("body").call("%a", "wrap", ["%i"]).call("%b", "step", ["%i"])
     .add("%sum", "%sum", "%a").add("%sum", "%sum", "%b")
     .add("%i", "%i", 1).br("head"))
    (f.block("after").cmp("sgt", "%big", "%n", 50)
     .condbr("%big", "callrare", "check"))
    (f.block("callrare").call("%r", "rare", ["%n"])
     .add("%sum", "%sum", "%r").br("check"))
    (f.block("check").cmp("slt", "%neg", "%n", 0)
     .condbr("%neg", "callnever", "exit"))
    (f.block("callnever").call("%z", "never", ["%n"])
     .add("%sum", "%sum", "%z").br("exit"))
    f.block("exit").ret("%sum")
    module = mb.build()
    verify_module(module)
    return module


def _program(binary, key):
    """The binary's cached decoded program for ``key``, built if absent."""
    return binary.cached_decoded(key, lambda b: decode_program(b, *key))


def _entries(binary, program, name):
    """Block-table entries at the leaders of function ``name``."""
    symbol = binary.symbols[name]
    return [op for i, op in enumerate(program.ops)
            if op is not None and symbol.contains(binary.instrs[i].addr)]


def _compiled(binary, program, name):
    """True when all of ``name``'s blocks are compiled, False when all are
    still stubs (a function compiles as a whole or not at all)."""
    kinds = {isinstance(op, FunctionType)
             for op in _entries(binary, program, name)}
    assert len(kinds) == 1, f"{name} is partly compiled"
    return kinds.pop()


def _record_dispatches(program, index):
    """Put a recorder in front of the table entry at ``index``.  Returns the
    list each dispatch to it appends to, until a compile replaces it."""
    hits = []
    stub = program.ops[index]

    def recorder(st):
        hits.append(index)
        return stub(st)
    program.ops[index] = recorder
    return hits


def _observed_run(binary, n, engine, pebs=True):
    """Run with a PMU and a cost model; everything an observer can see."""
    pmu = make_pmu(PMUConfig(period=7, lbr_depth=16, pebs=pebs))
    cost = CostModel()
    result = execute(binary, [n], pmu=pmu, cost_model=cost, engine=engine)
    data = pmu.finish(result.instructions_retired)
    return (result.return_value, result.instructions_retired,
            result.taken_branches,
            [(s.ip, list(s.lbr), list(s.stack)) for s in data.samples],
            pmu.lbr.recorded, pmu.lbr.wraps, pmu._skid_samples,
            cost.summary())


class TestLazyDecode:
    """Functions compile on first entry, and the runs stay exact."""

    FUNCTIONS = ("main", "wrap", "tailee", "step", "rare", "never")

    def test_decode_compiles_nothing(self):
        binary = link(_lazy_module())
        for key in ((None, False), ("pebs", True)):
            program = _program(binary, key)
            assert program.decode_ns > 0
            for name in self.FUNCTIONS:
                assert not _compiled(binary, program, name)

    @pytest.mark.parametrize("key", [(None, False), ("pebs", False),
                                     ("skid", True)])
    def test_unreached_function_keeps_stubs(self, key):
        binary = link(_lazy_module())
        pmu = None if key[0] is None else make_pmu(
            PMUConfig(period=7, pebs=key[0] == "pebs"))
        cost = CostModel() if key[1] else None
        run_decoded(binary, [60], pmu=pmu, cost_model=cost)
        program = binary._decoded_cache[key]
        assert not _compiled(binary, program, "never")
        assert _compiled(binary, program, "main")
        if key[0] is not None:
            # Observer variants dispatch every block transfer, so every
            # function the run entered has compiled.
            for name in ("wrap", "tailee", "step", "rare"):
                assert _compiled(binary, program, name)

    @pytest.mark.parametrize("pebs", [True, False])
    def test_second_run_compiles_more_and_matches_legacy(self, pebs):
        binary = link(_lazy_module())
        key = ("pebs" if pebs else "skid", True)
        first = _observed_run(binary, 10, "decoded", pebs)
        assert first == _observed_run(binary, 10, "legacy", pebs)
        program = binary._decoded_cache[key]
        assert not _compiled(binary, program, "rare")
        decode_ns = program.decode_ns

        second = _observed_run(binary, 60, "decoded", pebs)
        assert binary._decoded_cache[key] is program
        assert _compiled(binary, program, "rare")
        assert not _compiled(binary, program, "never")
        assert program.decode_ns > decode_ns
        legacy = _observed_run(binary, 60, "legacy", pebs)
        assert second == legacy
        assert len(second[3]) > 50 and second[5] > 0  # samples, wraps

    @pytest.mark.parametrize("pmu_mode", [None, "pebs"])
    def test_limit_fires_in_function_compiled_mid_run(self, pmu_mode):
        binary = link(_lazy_module())
        total = execute(binary, [60], engine="legacy").instructions_retired
        # rare(60) runs 31 loop tests and 30 bodies, and main retires only
        # a few instructions after it returns: this budget runs out in rare.
        budget = total - 40
        with pytest.raises(MachineExecutionLimit):
            execute(binary, [60], max_instructions=budget, engine="legacy")
        pmu = None if pmu_mode is None else make_pmu(PMUConfig(period=7))
        program = _program(binary, (pmu_mode, False))
        with pytest.raises(MachineExecutionLimit):
            run_decoded(binary, [60], pmu=pmu, max_instructions=budget)
        assert _compiled(binary, program, "rare")
        assert not _compiled(binary, program, "never")

    def test_first_entry_through_tail_call(self):
        binary = link(_lazy_module())
        wrap = binary.index_of(binary.symbols["wrap"].entry_addr)
        assert (binary.instrs[wrap].kind, binary.instrs[wrap].a) == \
            ("tailcall", "tailee")
        program = _program(binary, ("pebs", True))
        hits = _record_dispatches(
            program, binary.index_of(binary.symbols["tailee"].entry_addr))
        got = _observed_run(binary, 3, "decoded")
        # tailee's first entry went through its own stub, straight from
        # wrap's tail call; the compile then replaced the recorder.
        assert len(hits) == 1
        assert _compiled(binary, program, "tailee")
        assert got == _observed_run(binary, 3, "legacy")

    def test_compiles_are_charged_when_they_happen(self):
        binary = link(_lazy_module())
        session = telemetry.enable(telemetry.TelemetrySession())
        try:
            charged = []
            for n in (10, 60):
                run_decoded(binary, [n], pmu=make_pmu(PMUConfig(period=7)))
                program = binary._decoded_cache[("pebs", False)]
                compiled = [name for name in self.FUNCTIONS
                            if _compiled(binary, program, name)]
                charged.append((session.counter("hw.decode", "decodes"),
                                session.counter("hw.decode", "instrs_decoded"),
                                session.counter("hw.decode", "decode_ns")))
                assert charged[-1] == (
                    len(compiled),
                    sum(binary.symbols[name].num_instrs for name in compiled),
                    program.decode_ns)
        finally:
            telemetry.disable()
        assert charged[1][0] == charged[0][0] + 1  # rare, on the second run
        assert session.counter("hw.decode", "requests") == 2
        assert session.counter("hw.decode", "cache_hits") == 1

    def test_program_goes_with_its_binary(self):
        # Nothing in a decoded program refers back to it or to the binary,
        # so dropping the binary frees compiled blocks and stubs alike
        # without the cyclic collector.
        binary = link(_lazy_module())
        run_decoded(binary, [3])
        ops = binary._decoded_cache[(None, False)].ops
        compiled = [weakref.ref(op) for op in ops
                    if isinstance(op, FunctionType)]
        stubs = [weakref.ref(op) for op in ops
                 if op is not None and not isinstance(op, FunctionType)]
        assert compiled and stubs
        del ops
        enabled = gc.isenabled()
        gc.disable()
        try:
            del binary
            assert all(ref() is None for ref in compiled + stubs)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("key", [(None, False), ("pebs", True)])
    def test_local_arrays_resolve_per_function(self, key):
        # Both functions have a local ``buf`` of different sizes; the pure
        # variant runs helper's entry block inlined in main's code, where
        # its loads and stores must still reach helper's frame.
        mb = ModuleBuilder("locals")
        mb.global_array("@g", 4)
        f = mb.function("helper", ["%v"])
        f.local_array("buf", 3)
        (f.block("entry").mul("%w", "%v", 7).store("buf", "%v", "%w")
         .add("%j", "%v", 3).load("%w", "buf", "%j").store("@g", "%v", "%w")
         .ret("%w"))
        f = mb.function("main", ["%n"])
        f.local_array("buf", 5)
        f.block("entry").mov("%i", 0).mov("%acc", 0).br("head")
        f.block("head").cmp("slt", "%c", "%i", "%n").condbr("%c", "body", "exit")
        (f.block("body").call("%r", "helper", ["%i"]).store("buf", "%i", "%r")
         .add("%j", "%i", 3).load("%x", "buf", "%j")
         .add("%acc", "%acc", "%x").add("%i", "%i", 1).br("head"))
        f.block("exit").load("%y", "@g", 1).add("%acc", "%acc", "%y") \
            .ret("%acc")
        module = mb.build()
        verify_module(module)
        binary = link(module)
        pmu = make_pmu(PMUConfig(period=5)) if key[0] else None
        cost = CostModel() if key[1] else None
        got = run_decoded(binary, [20], pmu=pmu, cost_model=cost)
        want = execute(binary, [20], engine="legacy")
        assert got.return_value == want.return_value != 0
        assert got.instructions_retired == want.instructions_retired

    def test_first_entry_through_inlined_entry_segment(self):
        # The pure variant inlines a callee's entry block into the caller's
        # code, so rare is first entered without its entry stub running,
        # and compiles when the run reaches one of its other leaders.
        binary = link(_lazy_module())
        program = _program(binary, (None, False))
        hits = _record_dispatches(
            program, binary.index_of(binary.symbols["rare"].entry_addr))
        got = run_decoded(binary, [60])
        want = execute(binary, [60], engine="legacy")
        assert hits == []
        assert _compiled(binary, program, "rare")
        assert (got.return_value, got.instructions_retired,
                got.taken_branches) == (want.return_value,
                                        want.instructions_retired,
                                        want.taken_branches)


class TestCollectorPause:
    """``run_decoded`` pauses the cyclic collector for its dispatch loop and
    leaves it as the caller set it, however the run ends."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collector(self, request):
        enabled = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        try:
            yield request.param
        finally:
            if enabled:
                gc.enable()
            else:
                gc.disable()

    @pytest.mark.parametrize("pmu_mode", [None, "pebs", "skid"])
    def test_restored_after_runs_that_compile(self, collector, pmu_mode):
        binary = link(_lazy_module())
        for n in (10, 60):  # the second run compiles rare
            pmu = None if pmu_mode is None else make_pmu(
                PMUConfig(period=7, pebs=pmu_mode == "pebs"))
            program = _program(binary, (pmu_mode, False))
            decode_ns = program.decode_ns
            run_decoded(binary, [n], pmu=pmu)
            assert program.decode_ns > decode_ns  # compiled mid-run
            assert gc.isenabled() is collector

    def test_restored_after_halt_on_cached_program(self, collector):
        binary = link(_lazy_module())
        run_decoded(binary, [60])
        program = binary._decoded_cache[(None, False)]
        decode_ns = program.decode_ns
        assert run_decoded(binary, [60]).return_value == \
            execute(binary, [60], engine="legacy").return_value
        assert program.decode_ns == decode_ns  # nothing left to compile
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("pmu_mode", [None, "pebs"])
    def test_restored_after_limit(self, collector, pmu_mode):
        binary = link(_lazy_module())
        pmu = None if pmu_mode is None else make_pmu(PMUConfig(period=7))
        with pytest.raises(MachineExecutionLimit):
            run_decoded(binary, [60], pmu=pmu, max_instructions=100)
        assert gc.isenabled() is collector

    def test_paused_while_samples_are_taken(self, collector):
        binary = link(_lazy_module())
        pmu = make_pmu(PMUConfig(period=7))
        seen = []
        add = pmu.data.add

        def recorder(sample):
            seen.append(gc.isenabled())
            add(sample)
        pmu.data.add = recorder
        run_decoded(binary, [60], pmu=pmu)
        assert seen and not any(seen)
        assert gc.isenabled() is collector
