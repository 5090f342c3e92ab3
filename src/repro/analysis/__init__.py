"""Reusable static analyses over the repro IR.

The compile-time half of the profile story: dominator/post-dominator
trees, loop nesting, Ball–Larus-style branch-probability heuristics, and
static block-frequency propagation (the BPI/BFI analogues), plus the two
clients built on them — a static profile estimator for never-sampled
functions (blended into ``inference.flow``) and a flow-consistency
profile linter (``repro lint``).  See DESIGN.md sec. 12.

Everything here is pure and deterministic: analyses are recomputed from
the IR on demand and never cache across mutations.
"""

from ..ir.cfg import DominatorTree
from .block_freq import BlockFrequencyInfo
from .branch_prob import (PROB_EQ_TAKEN, PROB_LOOP_STAY, PROB_RETURN_TAKEN,
                          BranchProbabilityInfo)
from .domtree import VIRTUAL_EXIT, PostDominatorTree
from .lint import (RULES, LintConfig, LintFinding, LintReport, lint_profile)
from .loops import LoopInfo
from .static_profile import (COLD_ENTRY_FALLBACK, estimate_entry_counts,
                             fill_static_counts, function_frequencies,
                             synthesize_function_samples, top_down_order)

__all__ = [
    "BlockFrequencyInfo", "BranchProbabilityInfo", "COLD_ENTRY_FALLBACK",
    "DominatorTree", "LintConfig", "LintFinding", "LintReport", "LoopInfo",
    "PROB_EQ_TAKEN", "PROB_LOOP_STAY", "PROB_RETURN_TAKEN",
    "PostDominatorTree", "RULES", "VIRTUAL_EXIT", "estimate_entry_counts",
    "fill_static_counts", "function_frequencies", "lint_profile",
    "synthesize_function_samples", "top_down_order",
]
