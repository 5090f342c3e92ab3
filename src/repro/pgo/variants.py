"""PGO variants (paper Table/Fig. comparisons) and their pipeline configs."""

from __future__ import annotations

import enum

from ..opt.pass_manager import OptConfig


class PGOVariant(enum.Enum):
    """The build flavors the evaluation compares (the paper's four
    plus FS-AutoFDO, which the paper evaluated and excluded — sec. IV.A)."""

    NONE = "none"                      # plain optimized build, no profile
    INSTR = "instr"                    # instrumentation-based PGO
    AUTOFDO = "autofdo"                # DWARF-correlated sampling PGO
    FS_AUTOFDO = "fs-autofdo"          # + flow-sensitive discriminators
    CSSPGO_PROBE_ONLY = "probe-only"   # pseudo-probes, no context sensitivity
    CSSPGO_FULL = "csspgo"             # probes + context + pre-inliner

    @property
    def uses_probes(self) -> bool:
        return self in (PGOVariant.CSSPGO_PROBE_ONLY, PGOVariant.CSSPGO_FULL)

    @property
    def is_sampled(self) -> bool:
        return self in (PGOVariant.AUTOFDO, PGOVariant.FS_AUTOFDO,
                        PGOVariant.CSSPGO_PROBE_ONLY, PGOVariant.CSSPGO_FULL)

    @property
    def uses_fs_discriminators(self) -> bool:
        return self is PGOVariant.FS_AUTOFDO


def opt_config_for(variant: PGOVariant,
                   base: OptConfig = None) -> OptConfig:
    """Per-variant pipeline config.

    All variants share the same pipeline (fair comparison, sec. IV.A); only
    the correlation-anchor semantics differ, and those are encoded in the
    instructions themselves.  Tail merge keeps probes and counters apart
    through their per-block signatures, LICM never hoists either, and
    if-convert and unroll treat counters as barriers through the
    ``instr_blocks_if_convert`` and ``instr_blocks_unroll`` flags, which
    default on.
    """
    return base or OptConfig()
