"""Pass manager and pipeline configuration.

:class:`OptConfig` collects every knob the experiments vary: which passes run,
how correlation anchors (pseudo-probes / instrumentation counters) constrain
them, inliner thresholds, and unroll factors.  The PGO variants in
:mod:`repro.pgo` are expressed as different configs over the same pipeline,
mirroring the paper's "align the optimization pipeline to the extent possible
for fair comparison" methodology (sec. IV.A).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .. import telemetry
from ..ir.function import Module


class OptConfig:
    """Tunable optimization pipeline configuration."""

    def __init__(
        self,
        *,
        enable_simplify: bool = True,
        enable_inline: bool = True,
        enable_licm: bool = True,
        enable_if_convert: bool = True,
        enable_unroll: bool = True,
        enable_tail_merge: bool = True,
        enable_dce: bool = True,
        # Off by default: the headline evaluation pipeline is calibrated
        # without it; the specialization ablation turns it on.
        enable_constprop: bool = False,
        enable_layout: bool = True,
        enable_hot_cold_split: bool = True,
        # --- correlation-anchor semantics -------------------------------
        # Pseudo-probes always block code merge (their ids differ per block)
        # but the paper fine-tunes if-convert & friends to be unblocked.
        probes_block_if_convert: bool = False,
        # Traditional instrumentation counters are strong barriers.
        instr_blocks_if_convert: bool = True,
        instr_blocks_unroll: bool = True,
        # --- thresholds ---------------------------------------------------
        # When False, the pipeline inliner ignores the profile (static
        # threshold only) — used by full CSSPGO, where the pre-inliner owns
        # all profile-guided inline decisions (paper sec. III.B(b)).
        profile_inlining: bool = True,
        inline_size_threshold: int = 18,
        inline_hot_threshold: int = 110,
        inline_hot_callsite_fraction: float = 0.30,
        unroll_factor: int = 4,
        unroll_max_body_instrs: int = 24,
        unroll_hot_fraction: float = 1.5,
        cold_count_fraction: float = 0.01,
        if_convert_max_instrs: int = 3,
    ):
        self.enable_simplify = enable_simplify
        self.enable_inline = enable_inline
        self.enable_licm = enable_licm
        self.enable_if_convert = enable_if_convert
        self.enable_unroll = enable_unroll
        self.enable_tail_merge = enable_tail_merge
        self.enable_dce = enable_dce
        self.enable_constprop = enable_constprop
        self.enable_layout = enable_layout
        self.enable_hot_cold_split = enable_hot_cold_split
        self.probes_block_if_convert = probes_block_if_convert
        self.instr_blocks_if_convert = instr_blocks_if_convert
        self.instr_blocks_unroll = instr_blocks_unroll
        self.profile_inlining = profile_inlining
        self.inline_size_threshold = inline_size_threshold
        self.inline_hot_threshold = inline_hot_threshold
        self.inline_hot_callsite_fraction = inline_hot_callsite_fraction
        self.unroll_factor = unroll_factor
        self.unroll_max_body_instrs = unroll_max_body_instrs
        self.unroll_hot_fraction = unroll_hot_fraction
        self.cold_count_fraction = cold_count_fraction
        self.if_convert_max_instrs = if_convert_max_instrs


def _module_shape(module: Module) -> Tuple[int, int, int, int]:
    """(functions, blocks, instructions, probes) — the IR-delta observables
    the per-pass telemetry records (computed only while telemetry is on)."""
    from ..ir.instructions import PseudoProbe
    functions = len(module.functions)
    blocks = 0
    instrs = 0
    probes = 0
    for fn in module.functions.values():
        for block in fn.blocks:
            blocks += 1
            instrs += len(block.instrs)
            for instr in block.instrs:
                if isinstance(instr, PseudoProbe):
                    probes += 1
    return functions, blocks, instrs, probes


class PassManager:
    """Runs a sequence of module passes, optionally verifying between them.

    This is also the pipeline's ``PassInstrumentation`` point: while
    telemetry is enabled, every pass gets a wall-clock span (category
    ``"pass"``) annotated with the IR deltas it caused — functions, blocks,
    instructions, and probes added or removed — independent of
    ``verify_each``.  Failures in a pass or in the verifier always name the
    offending pass.
    """

    def __init__(self, verify_each: bool = False):
        self.passes: List[Callable[[Module], None]] = []
        self.verify_each = verify_each
        self.pass_names: List[str] = []

    def add(self, pass_fn: Callable[[Module], None], name: Optional[str] = None) -> "PassManager":
        self.passes.append(pass_fn)
        self.pass_names.append(name or getattr(pass_fn, "__name__", "pass"))
        return self

    def run(self, module: Module) -> None:
        from ..ir.verifier import verify_module
        session = telemetry.current()
        for pass_fn, name in zip(self.passes, self.pass_names):
            if session is None:
                try:
                    pass_fn(module)
                except Exception as exc:
                    raise RuntimeError(f"pass {name} failed: {exc}") from exc
            else:
                before = _module_shape(module)
                with session.span(name, "pass") as span:
                    try:
                        pass_fn(module)
                    except Exception as exc:
                        raise RuntimeError(f"pass {name} failed: {exc}") from exc
                after = _module_shape(module)
                span.set(functions=after[0], blocks=after[1],
                         instrs=after[2], probes=after[3],
                         functions_delta=after[0] - before[0],
                         blocks_delta=after[1] - before[1],
                         instrs_delta=after[2] - before[2],
                         probes_delta=after[3] - before[3])
                session.count("pass." + name, "runs")
            if self.verify_each:
                try:
                    verify_module(module)
                except Exception as exc:  # pragma: no cover - diagnostics path
                    raise RuntimeError(f"verification failed after pass {name}: {exc}") from exc
