"""Profile-quality evaluation (paper sec. IV.C, Table I).

Measures block-overlap degree of each sampling variant's *annotated* profile
against instrumentation ground truth, on the same pristine IR:

1. ground truth — run the instrumented binary, map exact counters back to
   blocks (perfect correlation by construction);
2. each variant — run its profiling pipeline, annotate a fresh module, and
   extract the block counts *before* any optimization distorts them;
3. compare with the paper's D(P) formula.

CSSPGO's context profile is flattened for this measurement (the metric is
defined per function over a common CFG).

Only the runs behind the overhead column (the plain, INSTR and probe builds)
carry the cycle cost model; the sampling runs attach the PMU alone.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..annotate.sample_loader import (annotate_autofdo, annotate_instr,
                                      annotate_probe_flat)
from ..correlate.profgen import (generate_context_profile,
                                 generate_dwarf_profile,
                                 generate_probe_profile)
from ..hw.executor import execute, make_pmu
from ..hw.pmu import PMUConfig
from ..ir.function import Module
from ..perfmodel.cost_model import CostModel
from ..probes.insertion import insert_pseudo_probes
from ..quality.overlap import block_overlap_program, module_block_counts
from .build import build
from .driver import PGODriverConfig
from .variants import PGOVariant


class QualityReport:
    """Block overlap + profiling overhead per variant (Table I rows)."""

    def __init__(self) -> None:
        self.block_overlap: Dict[str, float] = {}
        self.profiling_overhead: Dict[str, float] = {}

    def __repr__(self) -> str:
        rows = ", ".join(f"{k}={v:.3f}" for k, v in self.block_overlap.items())
        return f"<QualityReport {rows}>"


def _annotated_counts(source: Module, variant: PGOVariant, profile,
                      imap=None) -> Dict[str, Dict[str, float]]:
    module = source.clone()
    if variant.uses_probes:
        insert_pseudo_probes(module)
    if variant is PGOVariant.AUTOFDO:
        annotate_autofdo(module, profile)
    elif variant is PGOVariant.INSTR:
        annotate_instr(module, profile, imap)
    else:
        annotate_probe_flat(module, profile)
    return module_block_counts(module)


def evaluate_profile_quality(source: Module, train_args: Sequence[int],
                             config: Optional[PGODriverConfig] = None
                             ) -> QualityReport:
    """Run all profiling pipelines on ``source`` and score them."""
    config = config or PGODriverConfig()
    report = QualityReport()

    # -- baseline (plain binary) for overhead ratios ------------------------
    plain = build(source, PGOVariant.NONE, opt_config=config.opt,
                  lower_config=config.lower)
    plain_cost = CostModel()
    execute(plain.binary, train_args, cost_model=plain_cost,
            max_instructions=config.max_instructions)

    # -- ground truth: instrumentation --------------------------------------
    instr_build = build(source, PGOVariant.INSTR, instrument=True,
                        opt_config=config.opt, lower_config=config.lower)
    instr_cost = CostModel()
    run = execute(instr_build.binary, train_args, cost_model=instr_cost,
                  max_instructions=config.max_instructions)
    gt_counts = _annotated_counts(source, PGOVariant.INSTR,
                                  dict(run.instr_counters), instr_build.imap)
    report.profiling_overhead["instr"] = (
        instr_cost.cycles / plain_cost.cycles - 1.0)
    report.block_overlap["instr"] = 1.0  # ground truth, by definition

    # -- AutoFDO (profiled on the previous PGO-optimized release) ----------
    dwarf_profile = None
    for _iteration in range(max(1, config.profile_iterations)):
        autofdo_build = build(source, PGOVariant.AUTOFDO,
                              profile=dwarf_profile, opt_config=config.opt,
                              lower_config=config.lower)
        pmu = make_pmu(config.pmu)
        run = execute(autofdo_build.binary, train_args, pmu=pmu,
                      max_instructions=config.max_instructions)
        dwarf_profile = generate_dwarf_profile(
            autofdo_build.binary, pmu.finish(run.instructions_retired))
    autofdo_counts = _annotated_counts(source, PGOVariant.AUTOFDO,
                                       dwarf_profile)
    report.block_overlap["autofdo"] = block_overlap_program(
        autofdo_counts, gt_counts)
    # Sampling is passive: AutoFDO profiles the stock release binary.
    report.profiling_overhead["autofdo"] = 0.0

    # -- CSSPGO (probe anchors + context, flattened for the metric) --------
    probe_profile = None
    for _iteration in range(max(1, config.profile_iterations)):
        cs_build = build(source, PGOVariant.CSSPGO_PROBE_ONLY,
                         profile=probe_profile, opt_config=config.opt,
                         lower_config=config.lower)
        pmu = make_pmu(config.pmu)
        run = execute(cs_build.binary, train_args, pmu=pmu,
                      max_instructions=config.max_instructions)
        ctx_profile, _ = generate_context_profile(
            cs_build.binary, pmu.finish(run.instructions_retired),
            cs_build.probe_meta)
        probe_profile = ctx_profile.flatten()
    cs_counts = _annotated_counts(source, PGOVariant.CSSPGO_PROBE_ONLY,
                                  probe_profile)
    report.block_overlap["csspgo"] = block_overlap_program(
        cs_counts, gt_counts)
    # Pseudo-instrumentation overhead: a probe build vs an identically
    # configured probe-less build (the Fig. 8 measurement) — probes lower
    # to zero instructions but may block optimizations or pin a nop.
    probe_build = build(source, PGOVariant.CSSPGO_PROBE_ONLY,
                        opt_config=config.opt, lower_config=config.lower)
    probe_cost = CostModel()
    execute(probe_build.binary, train_args, cost_model=probe_cost,
            max_instructions=config.max_instructions)
    report.profiling_overhead["csspgo"] = (
        probe_cost.cycles / plain_cost.cycles - 1.0)
    return report
