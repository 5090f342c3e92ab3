"""Hardware simulation: executor fidelity, PMU sampling, LBR, skid."""

import pytest

from repro.codegen import link
from repro.hw import (LBRStack, MachineExecutionLimit, MachineExecutor,
                      PMUConfig, execute, make_pmu)
from repro.ir import ModuleBuilder, Ret, verify_module
from repro.opt import OptConfig, optimize_module
from repro.probes import instrument_module
from repro.workloads import WorkloadSpec, build_workload
from tests.conftest import (build_call_module, build_diamond_module,
                            build_loop_module, run_ir)


class TestExecutorFidelity:
    def test_matches_ir_interpreter(self, loop_module):
        expected = run_ir(loop_module, [25]).return_value
        binary = link(loop_module)
        assert execute(binary, [25]).return_value == expected

    def test_matches_after_optimization(self):
        for seed in [0, 2, 4]:
            module = build_workload(WorkloadSpec("t", seed=seed, requests=40))
            expected = run_ir(module, [60]).return_value
            optimized = module.clone()
            optimize_module(optimized, OptConfig(), profile_annotated=False)
            verify_module(optimized)
            binary = link(optimized)
            assert execute(binary, [60]).return_value == expected, f"seed {seed}"

    def test_counters_match_ir(self):
        module = build_loop_module()
        instrument_module(module)
        ir_counts = run_ir(module, [12]).instr_counters
        binary = link(module)
        machine = execute(binary, [12])
        assert dict(machine.instr_counters) == dict(ir_counts)

    def test_instruction_limit(self):
        mb = ModuleBuilder("inf")
        f = mb.function("main", [])
        f.block("entry").br("entry")
        binary = link(mb.build())
        with pytest.raises(MachineExecutionLimit):
            execute(binary, [], max_instructions=500)


class TestStacks:
    def _wrapper_module(self):
        mb = ModuleBuilder("m")
        f = mb.function("target", ["%v"])
        f.block("entry").add("%r", "%v", 1).ret("%r")
        f = mb.function("wrapper", ["%v"])
        f.block("entry").call("%r", "target", ["%v"]).ret("%r")  # tail call
        f = mb.function("main", ["%v"])
        f.block("entry").call("%r", "wrapper", ["%v"]).add("%r", "%r", 1).ret("%r")
        module = mb.build()
        module.function("wrapper").noinline = True
        verify_module(module)
        return module

    def test_tailcall_removes_wrapper_frame(self):
        module = self._wrapper_module()
        binary = link(module)
        pmu = make_pmu(PMUConfig(period=1))  # sample every instruction
        result = execute(binary, [5], pmu=pmu)
        assert result.return_value == 7
        data = pmu.finish(result.instructions_retired)
        # Find a sample taken inside `target`: its stack must skip `wrapper`.
        inside = [s for s in data.samples
                  if binary.function_at(s.stack[0]) == "target"
                  and len(s.stack) > 1]
        assert inside
        for sample in inside:
            frames = [binary.function_at(a) for a in sample.stack]
            assert "wrapper" not in frames  # TCE removed the frame

    def test_call_stack_depth(self):
        module = self._wrapper_module()
        binary = link(module, config=None)
        # Without TCE the wrapper frame is present.
        from repro.codegen import LowerConfig
        binary = link(module, config=LowerConfig(enable_tce=False))
        pmu = make_pmu(PMUConfig(period=1))
        result = execute(binary, [5], pmu=pmu)
        data = pmu.finish(result.instructions_retired)
        inside = [s for s in data.samples
                  if binary.function_at(s.stack[0]) == "target"]
        assert any("wrapper" in [binary.function_at(a) for a in s.stack]
                   for s in inside)


class TestPMU:
    def test_sampling_rate(self, loop_module):
        binary = link(loop_module)
        pmu = make_pmu(PMUConfig(period=13))
        result = execute(binary, [500], pmu=pmu)
        data = pmu.finish(result.instructions_retired)
        expected = result.instructions_retired / 13
        assert 0.5 * expected <= len(data) <= 1.2 * expected

    def test_lbr_depth_respected(self, loop_module):
        binary = link(loop_module)
        pmu = make_pmu(PMUConfig(period=7, lbr_depth=8))
        result = execute(binary, [200], pmu=pmu)
        data = pmu.finish(result.instructions_retired)
        assert all(len(s.lbr) <= 8 for s in data.samples)
        assert any(len(s.lbr) == 8 for s in data.samples)

    def test_lbr_records_taken_branches_only(self, diamond_module):
        binary = link(diamond_module)
        pmu = make_pmu(PMUConfig(period=1))
        execute(binary, [2], pmu=pmu)
        for sample in pmu.data.samples:
            for src, _tgt in sample.lbr:
                assert binary.instr_at(src).kind in ("br", "jmp", "call",
                                                     "tailcall", "ret")

    def test_pebs_stack_aligned_with_lbr(self, call_module):
        binary = link(call_module)
        pmu = make_pmu(PMUConfig(period=1, pebs=True))
        execute(binary, [3], pmu=pmu)
        for sample in pmu.data.samples:
            if not sample.lbr:
                continue
            _src, tgt = sample.lbr[-1]
            # The leaf stack frame's function contains the last LBR target.
            assert (binary.function_at(sample.stack[0])
                    == binary.function_at(tgt))

    def test_skid_desynchronizes_without_pebs(self, call_module):
        binary = link(call_module)
        pmu = make_pmu(PMUConfig(period=1, pebs=False))
        execute(binary, [3], pmu=pmu)
        mismatched = 0
        for sample in pmu.data.samples:
            if not sample.lbr:
                continue
            _src, tgt = sample.lbr[-1]
            if (binary.function_at(sample.stack[0])
                    != binary.function_at(tgt)):
                mismatched += 1
        assert mismatched > 0  # the one-frame lag the paper describes


class TestLBRStack:
    def test_ring_keeps_newest(self):
        ring = LBRStack(depth=3)
        for i in range(5):
            ring.record(i, i + 100)
        snap = ring.snapshot()
        assert snap == ((2, 102), (3, 103), (4, 104))
