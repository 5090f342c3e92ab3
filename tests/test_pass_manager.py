"""Pass manager, pipeline configuration, and variant configs."""

import pytest

from repro.ir import BasicBlock, Ret, verify_module
from repro.opt import OptConfig, PassManager, optimize_module
from repro.pgo import PGOVariant, opt_config_for
from tests.conftest import build_call_module, run_ir


class TestPassManager:
    def test_passes_run_in_order(self, call_module):
        order = []
        pm = PassManager()
        pm.add(lambda m: order.append("a"), "a")
        pm.add(lambda m: order.append("b"), "b")
        pm.run(call_module)
        assert order == ["a", "b"]

    def test_verification_failure_names_pass(self, call_module):
        def breaker(module):
            module.function("main").add_block(BasicBlock("broken", []))

        pm = PassManager(verify_each=True)
        pm.add(breaker, "breaker")
        with pytest.raises(RuntimeError, match="breaker"):
            pm.run(call_module)

    def test_raising_pass_is_named_without_verify_each(self, call_module):
        """A crash inside a pass names the offending pass even when
        per-pass verification is off."""
        def exploder(module):
            raise ValueError("boom")

        pm = PassManager(verify_each=False)
        pm.add(exploder, "exploder")
        with pytest.raises(RuntimeError, match="pass exploder failed"):
            pm.run(call_module)

    def test_pass_names_surface_in_telemetry(self, call_module):
        from repro import telemetry
        session = telemetry.enable()
        pm = PassManager(verify_each=False)
        pm.add(lambda m: None, "nothing")
        pm.run(call_module)
        telemetry.disable()
        assert [s.name for s in session.spans] == ["nothing"]
        assert session.counter("pass.nothing", "runs") == 1
        deltas = session.spans[0].args
        assert deltas["functions_delta"] == 0 and deltas["instrs_delta"] == 0


class TestOptConfig:
    def test_defaults_enable_everything(self):
        config = OptConfig()
        assert config.enable_inline and config.enable_layout
        assert not config.probes_block_if_convert  # the paper's tuning

    def test_disabling_passes_is_respected(self, call_module):
        expected = run_ir(call_module, [5]).return_value
        config = OptConfig(enable_inline=False, enable_if_convert=False,
                           enable_licm=False, enable_tail_merge=False,
                           enable_unroll=False, enable_layout=False,
                           enable_hot_cold_split=False)
        optimize_module(call_module, config, profile_annotated=False)
        verify_module(call_module)
        # Inlining disabled: the call survives.
        assert call_module.function("main").callees() == ["helper"]
        assert run_ir(call_module, [5]).return_value == expected


class TestVariantConfig:
    def test_variant_flags(self):
        assert PGOVariant.CSSPGO_FULL.uses_probes
        assert PGOVariant.CSSPGO_PROBE_ONLY.uses_probes
        assert not PGOVariant.AUTOFDO.uses_probes
        assert not PGOVariant.INSTR.uses_probes
        assert PGOVariant.AUTOFDO.is_sampled
        assert not PGOVariant.INSTR.is_sampled
        assert not PGOVariant.NONE.is_sampled

    def test_opt_config_passthrough(self):
        base = OptConfig(inline_hot_threshold=77)
        config = opt_config_for(PGOVariant.AUTOFDO, base)
        assert config.inline_hot_threshold == 77
        assert opt_config_for(PGOVariant.NONE) is not None
