"""End-to-end PGO driver: profile collection, rebuild, evaluation.

The full cycle for each variant (mirroring the paper's production workflow):

1. **profiling build** — sampled variants profile a release-style binary
   (probes inserted for CSSPGO variants); Instr PGO profiles a special
   instrumented binary (the operational burden the paper quantifies);
2. **collection** — run the training input; sampled variants attach the PMU
   and nothing else (synchronized LBR + stack for full CSSPGO), Instr reads
   exact counters under the cost model, which prices its overhead;
3. **profile generation** — llvm-profgen equivalent; full CSSPGO also runs
   cold-context trimming and the pre-inliner here (offline, sec. III.B(b));
4. **optimizing build** — fresh compile consuming the profile;
5. **evaluation** — run the final binary on the evaluation input under the
   cycle cost model.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs, telemetry
from ..codegen.lower import LowerConfig
from ..correlate.profgen import (generate_context_profile,
                                 generate_dwarf_profile,
                                 generate_probe_profile)
from ..faults import FaultSpec, apply_perf_faults, apply_profile_faults
from ..hw.executor import execute, make_pmu
from ..obs import ProfileManifest, profile_block_counts, trim_overlap_score
from ..hw.perf_data import PerfData
from ..hw.pmu import PMU, PMUConfig
from ..inference import incremental as inference_session
from ..ir.function import Module
from ..opt.pass_manager import OptConfig
from ..perfmodel.cost_model import CostModel
from ..preinline.preinliner import PreInlinerConfig, run_preinliner
from ..preinline.size_extractor import extract_function_sizes
from ..profile.errors import ProfileError
from ..profile.profiles import ContextProfile, FlatProfile
from ..profile.stats import profile_stats
from ..profile.trimming import trim_cold_contexts
from .build import BuildArtifacts, build
from .variants import PGOVariant


class RunMeasurement:
    """One execution: retired instructions, plus the cycle cost model's
    ``cycles`` and ``summary`` when the run carried one.  A sampled
    profiling run carries none, so its ``cycles`` is None and its
    ``summary`` is empty."""

    def __init__(self, cycles: Optional[float], instructions: int,
                 summary: Dict[str, float]):
        self.cycles = cycles
        self.instructions = instructions
        self.summary = summary


def measure_run(artifacts: BuildArtifacts, args: Sequence[int],
                max_instructions: int = 100_000_000) -> RunMeasurement:
    cost = CostModel()
    result = execute(artifacts.binary, args, cost_model=cost,
                     max_instructions=max_instructions)
    return RunMeasurement(cost.cycles, result.instructions_retired,
                          cost.summary())


class PGORunResult:
    """Everything one variant's full PGO cycle produced."""

    def __init__(self, variant: PGOVariant):
        self.variant = variant
        self.profile: Optional[Union[FlatProfile, ContextProfile]] = None
        self.profiling_build: Optional[BuildArtifacts] = None
        self.final: Optional[BuildArtifacts] = None
        self.eval: Optional[RunMeasurement] = None
        #: Profiling-phase run of the *last* continuous-profiling iteration
        #: (kept for backward compatibility; see :attr:`profiling_runs`).
        self.profiling_run: Optional[RunMeasurement] = None
        #: One entry per continuous-profiling iteration, in order — overhead
        #: analysis sees every iteration, not just the last.  Only the INSTR
        #: build's run is priced (``cycles`` and ``summary``); a sampled
        #: run collects without the cost model, so it records
        #: ``instructions`` with ``cycles`` None and an empty ``summary``.
        self.profiling_runs: List[RunMeasurement] = []
        self.profile_stats: Dict[str, float] = {}
        self.raw_profile_stats: Dict[str, float] = {}
        self.extras: Dict[str, object] = {}

    def __repr__(self) -> str:
        cycles = f"{self.eval.cycles:.0f}" if self.eval else "?"
        return f"<PGORunResult {self.variant.value} cycles={cycles}>"


class PGODriverConfig:
    """Knobs shared across a comparison (identical for every variant)."""

    def __init__(self, *,
                 pmu: Optional[PMUConfig] = None,
                 opt: Optional[OptConfig] = None,
                 lower: Optional[LowerConfig] = None,
                 preinline: Optional[PreInlinerConfig] = None,
                 trim_hot_fraction: float = 0.002,
                 trim_cold_contexts: bool = True,
                 profile_iterations: int = 2,
                 independent_profiling: bool = False,
                 max_instructions: int = 100_000_000,
                 fault_spec: Optional[FaultSpec] = None,
                 strict_profile: bool = False,
                 static_fill_cold: bool = False,
                 verify_each: bool = False):
        self.pmu = pmu or PMUConfig()
        self.opt = opt
        self.lower = lower
        self.preinline = preinline
        self.trim_hot_fraction = trim_hot_fraction
        self.trim_cold_contexts = trim_cold_contexts
        #: Continuous-deployment depth for sampled variants: with 2 (the
        #: production situation the paper describes), profiles are collected
        #: on the previous *PGO-optimized* release, whose aggressive
        #: optimizations are exactly what damages DWARF correlation.
        self.profile_iterations = profile_iterations
        #: Fleet-style collection: instead of the sequential continuous-
        #: deployment chain (each iteration profiles the previous iteration's
        #: optimized binary), profile one *plain* release build
        #: ``profile_iterations`` times with per-iteration PMU jitter seeds
        #: and aggregate all samples before a single profile generation.
        #: Iterations are independent, so they parallelize across processes
        #: (``jobs`` in :func:`run_pgo`) with byte-identical results.
        self.independent_profiling = independent_profiling
        self.max_instructions = max_instructions
        #: Deterministic fault injection (DESIGN.md sec. 10): perf-data faults
        #: are applied to every collection's samples before profile
        #: generation, profile faults to every generated profile before it is
        #: consumed downstream.  ``None`` disables injection entirely.
        self.fault_spec = fault_spec
        #: Loud-failure mode: profile application raises typed
        #: :class:`~repro.profile.errors.ProfileError` subclasses instead of
        #: degrading (per-function drop + fallback chain).
        self.strict_profile = strict_profile
        #: Hybrid static/sampled profiles: fill never-sampled functions
        #: with static pseudo-counts (``analysis.static_profile``) during
        #: profile application.  Sampled functions are untouched.
        self.static_fill_cold = static_fill_cold
        #: Run the IR verifier after every optimization pass in every build.
        self.verify_each = verify_each


def run_pgo(source: Module, variant: PGOVariant,
            train_args: Sequence[int], eval_args: Sequence[int],
            config: Optional[PGODriverConfig] = None,
            jobs: int = 1) -> PGORunResult:
    """Run the complete PGO cycle for one variant.

    While telemetry is enabled, each cycle opens a ``variant:<name>`` span
    with nested ``iteration:<i>`` spans and per-stage spans (profiling-build,
    collect, profile-generation, trim, preinline, optimizing-build,
    evaluate) — the Chrome trace of the whole cycle.

    ``jobs`` only matters with ``config.independent_profiling``: independent
    collections fan out over a process pool (each worker re-decodes its
    pickled binary; sample streams are seeded per iteration, so the merged
    profile is byte-identical to a serial run).
    """
    config = config or PGODriverConfig()
    result = PGORunResult(variant)

    # An inference session counts this cycle's solves (the telemetry
    # pattern).  An already-installed session (an enclosing caller's) is
    # left alone.
    installed_session = None
    if inference_session.current() is None:
        installed_session = inference_session.install()

    try:
        obs.emit("run_started", variant=variant.value,
                 iterations=config.profile_iterations,
                 independent=config.independent_profiling,
                 strict=config.strict_profile)
        with telemetry.span(f"variant:{variant.value}", "pgo",
                            variant=variant.value):
            result = _run_pgo_cycle(source, variant, train_args, eval_args,
                                    config, result, jobs)
        obs.emit("run_finished", variant=variant.value,
                 cycles=result.eval.cycles if result.eval else None,
                 degraded_to=result.extras.get("degraded_variant"))
        obs.snapshot(f"variant:{variant.value}")
    finally:
        if installed_session is not None:
            inference_session.uninstall()
    return result


def _fault_perf(data: PerfData, config: PGODriverConfig,
                result: PGORunResult) -> PerfData:
    """Apply the configured perf-data faults (copy-on-write; passthrough
    when no spec is set)."""
    if config.fault_spec is None:
        return data
    data, report = apply_perf_faults(data, config.fault_spec)
    if report.total():
        telemetry.count("pgo", "perf_faults_injected", report.total())
        result.extras["perf_faults_injected"] = (
            int(result.extras.get("perf_faults_injected", 0)) + report.total())
        _merge_fault_digest(result, report)
    return data


def _fault_profile(profile, config: PGODriverConfig, result: PGORunResult):
    """Apply the configured profile faults to a freshly generated profile."""
    if config.fault_spec is None:
        return profile
    profile, report = apply_profile_faults(profile, config.fault_spec)
    if report.total():
        telemetry.count("pgo", "profile_faults_injected", report.total())
        result.extras["profile_faults_injected"] = (
            int(result.extras.get("profile_faults_injected", 0))
            + report.total())
        _merge_fault_digest(result, report)
    return profile


def _merge_fault_digest(result: PGORunResult, report) -> None:
    """Accumulate an injection report into the run's provenance digest."""
    digest = result.extras.setdefault("fault_digest", {})
    for (injector, metric), count in report.events.items():
        key = f"{injector}.{metric}"
        digest[key] = digest.get(key, 0) + count


def _record_provenance(result: PGORunResult, variant: PGOVariant, kind: str,
                       profiling: BuildArtifacts, data: PerfData,
                       config: PGODriverConfig, profile,
                       counters_before: Optional[Dict],
                       quality: Dict[str, float]) -> None:
    """Build this profile's provenance manifest, stash it on the result,
    and emit it as a ``profile_generated`` event.  No-op unless an
    observability session is installed."""
    session_obs = obs.active()
    if session_obs is None:
        return
    session = telemetry.current()
    drops: Dict[str, int] = {}
    samples_used = None
    if session is not None and counters_before is not None:
        for (component, name), value in session.counters.items():
            delta = value - counters_before.get((component, name), 0)
            if delta and component.endswith(".drop"):
                drops[f"{component}.{name}"] = delta
        samples_used = (session.counter("correlate", "samples_used")
                        - counters_before.get(("correlate", "samples_used"),
                                              0))
    samples = len(data)
    unique = len(data.aggregated()) if samples else 0
    manifest = ProfileManifest(
        variant=variant.value, kind=kind,
        binary_identity=profiling.binary.identity(),
        perf={"samples": samples, "unique_samples": unique,
              "dedup_ratio": unique / samples if samples else 0.0,
              "period": data.period, "lbr_depth": data.lbr_depth,
              "pebs": data.pebs,
              "instructions_retired": data.instructions_retired,
              "binary_id": data.binary_id,
              "samples_used": samples_used},
        faults={"spec": (repr(config.fault_spec)
                         if config.fault_spec is not None else None),
                "injected": dict(result.extras.get("fault_digest", {}))},
        drops=drops, quality=dict(quality),
        profile_stats=profile_stats(profile),
        created_at=session_obs.log.now())
    record = manifest.to_dict()
    result.extras.setdefault("manifests", []).append(record)
    obs.emit("profile_generated", variant=variant.value, kind=kind,
             manifest=record)


def _generate_profile(variant: PGOVariant, profiling: BuildArtifacts,
                      data: PerfData, config: PGODriverConfig,
                      result: PGORunResult):
    """Steps 3+ of one collection: profgen, trim, pre-inline.

    Returns ``(profile, inference)`` where ``inference`` is the full-CSSPGO
    frame-inference ``(attempted, recovered)`` pair (``None`` otherwise).

    When ``config.fault_spec`` is set, perf-data faults corrupt the samples
    before profgen and profile faults corrupt the generated profile *before*
    trimming and pre-inlining, so every downstream consumer sees them.

    With an observability session installed, every generated profile gets a
    provenance manifest (binary identity, sample lineage, fault digest,
    drop accounting, trim-fidelity score) recorded under
    ``result.extras["manifests"]`` and emitted as a ``profile_generated``
    event.
    """
    observing = obs.enabled()
    session = telemetry.current()
    counters_before = (dict(session.counters)
                       if observing and session is not None else None)
    data = _fault_perf(data, config, result)
    quality: Dict[str, float] = {}
    with telemetry.span("profile-generation", "stage"):
        if variant in (PGOVariant.AUTOFDO, PGOVariant.FS_AUTOFDO):
            profile = _fault_profile(
                generate_dwarf_profile(profiling.binary, data), config,
                result)
            _record_provenance(result, variant, "dwarf", profiling, data,
                               config, profile, counters_before, quality)
            return profile, None
        if variant is PGOVariant.CSSPGO_PROBE_ONLY:
            profile = _fault_profile(
                generate_probe_profile(profiling.binary, data,
                                       profiling.probe_meta), config, result)
            _record_provenance(result, variant, "probe", profiling, data,
                               config, profile, counters_before, quality)
            return profile, None
        profile, inferrer = generate_context_profile(
            profiling.binary, data, profiling.probe_meta)
        inference = (inferrer.attempted, inferrer.recovered)
    result.extras["frame_inference"] = inference
    profile = _fault_profile(profile, config, result)
    result.raw_profile_stats = profile_stats(profile)
    raw_counts = profile_block_counts(profile) if observing else None
    if config.trim_cold_contexts:
        with telemetry.span("trim", "stage"):
            kept, merged = trim_cold_contexts(
                profile, config.trim_hot_fraction)
        result.extras["trimmed_contexts"] = merged
        telemetry.count("pgo", "contexts_trimmed", merged)
    if raw_counts is not None:
        quality["trim_overlap"] = trim_overlap_score(raw_counts, profile)
    with telemetry.span("preinline", "stage"):
        sizes = extract_function_sizes(profiling.binary)
        decisions = run_preinliner(profile, sizes, config.preinline)
    result.extras["preinline_decisions"] = decisions
    _record_provenance(result, variant, "context", profiling, data, config,
                       profile, counters_before, quality)
    return profile, inference


#: Degradation chain (graceful degradation, DESIGN.md sec. 10): each step
#: trades optimization quality for certainty that the build completes.
#: Probe-based variants retreat to DWARF correlation (regenerated from the
#: same samples — checksums and probe ids no longer matter), DWARF variants
#: retreat to a plain no-PGO build.
_FALLBACK_NEXT = {
    PGOVariant.CSSPGO_FULL: PGOVariant.AUTOFDO,
    PGOVariant.CSSPGO_PROBE_ONLY: PGOVariant.AUTOFDO,
    PGOVariant.FS_AUTOFDO: PGOVariant.NONE,
    PGOVariant.AUTOFDO: PGOVariant.NONE,
}


def _profile_is_empty(profile) -> bool:
    if profile is None:
        return True
    if isinstance(profile, ContextProfile):
        return not profile.contexts
    if isinstance(profile, FlatProfile):
        return not profile.functions
    return not profile  # INSTR counter dict


def _build_optimized(source: Module, variant: PGOVariant, profile,
                     config: PGODriverConfig, result: PGORunResult,
                     profiling: Optional[BuildArtifacts] = None,
                     data: Optional[PerfData] = None,
                     imap_from_profiling=None) -> BuildArtifacts:
    """The optimizing build, behind the degradation chain.

    A profile that applies to zero functions (fully stale checksums, moved
    GUIDs, a corrupt file) must cost optimization, never the build: retry as
    the next variant in :data:`_FALLBACK_NEXT`, regenerating a DWARF profile
    from the same samples when one is reachable, bottoming out at a plain
    no-PGO build.  Every hop bumps ``pgo.fallback.<from>_to_<to>``, emits a
    ``ProfileFallback`` remark and a ``fallback_taken`` event, and is
    appended to ``result.extras["fallback_chain"]`` with its *reason*
    (the :mod:`repro.profile.errors` exception type, or
    ``EmptyAnnotation``) recorded in the parallel
    ``result.extras["fallback_reasons"]`` list.

    In strict mode (``config.strict_profile``) the sample loaders raise a
    typed :class:`~repro.profile.errors.ProfileError` instead of dropping;
    the chain re-raises it — loud failure is the point of strict.
    """
    chain: List[str] = []
    reasons: List[str] = []
    hops: List[Dict[str, str]] = []
    current_variant, current_profile = variant, profile
    current_imap = imap_from_profiling
    while True:
        try:
            artifacts = build(source, current_variant,
                              profile=current_profile,
                              imap_from_profiling=current_imap,
                              opt_config=config.opt,
                              lower_config=config.lower,
                              strict_profile=config.strict_profile,
                              static_fill_cold=config.static_fill_cold,
                              verify_each=config.verify_each)
            stats = artifacts.annotation
            usable = stats is None or stats.usable(
                not _profile_is_empty(current_profile))
            reason = "EmptyAnnotation" if not usable else ""
            detail = "0 functions annotated" if not usable else ""
        except ProfileError as exc:
            if config.strict_profile:
                raise
            artifacts, usable = None, False
            reason = type(exc).__name__
            detail = f"{reason}: {exc}"
        next_variant = _FALLBACK_NEXT.get(current_variant)
        if usable or next_variant is None:
            break
        telemetry.count(
            "pgo.fallback",
            f"{current_variant.value}_to_{next_variant.value}")
        telemetry.remark(
            "pgo-driver", "ProfileFallback", "<module>",
            f"profile unusable for {current_variant.value} ({detail}); "
            f"degrading to {next_variant.value}", reason=reason)
        obs.emit("fallback_taken", from_variant=current_variant.value,
                 to_variant=next_variant.value, reason=reason,
                 detail=detail)
        chain.append(f"{current_variant.value}->{next_variant.value}")
        reasons.append(reason)
        hops.append({"from": current_variant.value,
                     "to": next_variant.value, "reason": reason})
        if (next_variant.is_sampled and profiling is not None
                and data is not None):
            current_profile = generate_dwarf_profile(profiling.binary, data)
        else:
            current_profile = None
        current_variant = next_variant
        current_imap = None
    if artifacts is None:
        # Terminal variant raised in permissive mode (should not happen —
        # DWARF/plain loads never raise): last-ditch plain build.
        artifacts = build(source, PGOVariant.NONE, opt_config=config.opt,
                          lower_config=config.lower,
                          verify_each=config.verify_each)
    if chain:
        result.extras["fallback_chain"] = chain
        result.extras["fallback_reasons"] = reasons
        result.extras["degraded_variant"] = current_variant.value
        # The degradation story belongs to the profile's provenance: stamp
        # the hops onto the most recent manifest of this run.
        manifests = result.extras.get("manifests")
        if manifests:
            manifests[-1]["fallbacks"] = hops
    stats = artifacts.annotation
    if stats is not None:
        obs.emit("profile_applied", variant=current_variant.value,
                 annotated=len(stats.annotated),
                 rejected_checksum=len(stats.rejected_checksum),
                 no_profile=len(stats.no_profile))
    return artifacts


def _profile_collection(binary, train_args: Sequence[int],
                        pmu_config: PMUConfig, max_instructions: int):
    """One sampling run (picklable, so it can run in a pool worker).

    The PMU is the only observer.  Profile generation reads the (LBR,
    stack, IP) sample stream alone, so no cost model is attached: the run
    decodes and executes the PMU-only variant, and its measurement records
    ``instructions`` with ``cycles`` None and an empty ``summary``.
    """
    pmu = make_pmu(pmu_config)
    run = execute(binary, train_args, pmu=pmu,
                  max_instructions=max_instructions)
    measurement = RunMeasurement(None, run.instructions_retired, {})
    return pmu.finish(run.instructions_retired), measurement


def _collect_star(task):
    return _profile_collection(*task)


def _collect_independent(profiling: BuildArtifacts,
                         train_args: Sequence[int],
                         config: PGODriverConfig,
                         result: PGORunResult, jobs: int):
    """Fleet-style collection: N independent runs of one plain build.

    Each iteration gets its own jitter seed (``base + i``), so the per-run
    sample streams — and therefore the aggregate, merged in iteration
    order — do not depend on whether runs happened serially or in a pool.
    """
    iterations = max(1, config.profile_iterations)
    base = config.pmu
    tasks = [(profiling.binary, tuple(train_args),
              PMUConfig(period=base.period, lbr_depth=base.lbr_depth,
                        pebs=base.pebs,
                        jitter_seed=base.jitter_seed + iteration),
              config.max_instructions)
             for iteration in range(iterations)]
    merged = PerfData(base.period, base.lbr_depth, base.pebs)
    samples_per_iteration: List[int] = []

    def merge(data: PerfData, measurement: RunMeasurement) -> None:
        merged.extend(data, site="driver.independent_profiling")
        merged.instructions_retired += data.instructions_retired
        result.profiling_runs.append(measurement)
        samples_per_iteration.append(len(data))

    if jobs > 1 and iterations > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, iterations)) as pool:
            for outcome in pool.map(_collect_star, tasks):
                merge(*outcome)
    else:
        # Each run's samples join the merge, and its session is let go,
        # before the next run starts.
        for task in tasks:
            merge(*_profile_collection(*task))
    result.profiling_run = result.profiling_runs[-1]
    return merged, samples_per_iteration


def _run_pgo_cycle(source: Module, variant: PGOVariant,
                   train_args: Sequence[int], eval_args: Sequence[int],
                   config: PGODriverConfig,
                   result: PGORunResult, jobs: int = 1) -> PGORunResult:
    if variant is PGOVariant.NONE:
        with telemetry.span("optimizing-build", "stage"):
            result.final = build(source, variant, opt_config=config.opt,
                                 lower_config=config.lower,
                                 verify_each=config.verify_each)
        with telemetry.span("evaluate", "stage"):
            result.eval = measure_run(result.final, eval_args,
                                      config.max_instructions)
        return result

    # ---- 1-3: profiling build, collection, profile generation ------------
    if variant is PGOVariant.INSTR:
        with telemetry.span("iteration:0", "stage", iteration=0):
            with telemetry.span("profiling-build", "stage"):
                profiling = build(source, variant, instrument=True,
                                  opt_config=config.opt,
                                  lower_config=config.lower,
                                  verify_each=config.verify_each)
            with telemetry.span("collect", "stage"):
                cost = CostModel()
                run = execute(profiling.binary, train_args, cost_model=cost,
                              max_instructions=config.max_instructions)
            result.profiling_run = RunMeasurement(cost.cycles,
                                                  run.instructions_retired,
                                                  cost.summary())
            result.profiling_runs.append(result.profiling_run)
            profile: Dict[Tuple[str, int], float] = dict(run.instr_counters)
            result.profile = profile
            result.profiling_build = profiling
            session_obs = obs.active()
            if session_obs is not None:
                # Instr PGO reads exact counters, so lineage is just the
                # instrumented binary and its counter census — no perf-data
                # chain, no drops, no trim.
                manifest = ProfileManifest(
                    variant=variant.value, kind="instr",
                    binary_identity=profiling.binary.identity(),
                    perf={"counters": len(profile),
                          "instructions_retired": run.instructions_retired},
                    faults={"spec": (repr(config.fault_spec)
                                     if config.fault_spec is not None
                                     else None),
                            "injected": {}},
                    drops={}, quality={}, profile_stats={},
                    created_at=session_obs.log.now())
                record = manifest.to_dict()
                result.extras.setdefault("manifests", []).append(record)
                obs.emit("profile_generated", variant=variant.value,
                         kind="instr", manifest=record)
            obs.snapshot(f"{variant.value}/iter:0")
        with telemetry.span("optimizing-build", "stage"):
            final = _build_optimized(source, variant, profile, config, result,
                                     imap_from_profiling=profiling.imap)
    elif config.independent_profiling:
        # Fleet-style collection: one plain release build, profiled N times
        # independently (per-iteration jitter seeds), samples aggregated
        # before a single profile generation.
        with telemetry.span("profiling-build", "stage"):
            profiling = build(source, variant, opt_config=config.opt,
                              lower_config=config.lower,
                              verify_each=config.verify_each)
        result.profiling_build = profiling
        with telemetry.span("collect", "stage", jobs=jobs):
            data, samples_per_iteration = _collect_independent(
                profiling, train_args, config, result, jobs)
        result.extras["samples"] = len(data)
        result.extras["samples_per_iteration"] = samples_per_iteration
        obs.snapshot(f"{variant.value}/collect")
        profile, inference = _generate_profile(variant, profiling, data,
                                               config, result)
        if inference is not None:
            result.extras["frame_inference_per_iteration"] = [inference]
        result.profile = profile
        result.profile_stats = profile_stats(profile)
        with telemetry.span("optimizing-build", "stage"):
            final = _build_optimized(source, variant, profile, config, result,
                                     profiling=profiling, data=data)
        del data  # spent: evaluation reads no samples
    else:
        # Continuous deployment: iteration 0 profiles a plain release build,
        # each following iteration profiles the binary optimized with the
        # previous iteration's profile (the production steady state).
        profile = None
        samples_per_iteration: List[int] = []
        inference_per_iteration: List[Tuple[int, int]] = []
        for iteration in range(max(1, config.profile_iterations)):
            # The previous iteration's samples are spent once its profile
            # exists: free them before this build and collection.  The
            # last iteration's stay for the fallback chain.
            data = None
            with telemetry.span(f"iteration:{iteration}", "stage",
                                iteration=iteration):
                with telemetry.span("profiling-build", "stage"):
                    profiling = build(source, variant, profile=profile,
                                      opt_config=config.opt,
                                      lower_config=config.lower,
                                      static_fill_cold=config.static_fill_cold,
                                      verify_each=config.verify_each)
                result.profiling_build = profiling
                with telemetry.span("collect", "stage"):
                    data, measurement = _profile_collection(
                        profiling.binary, train_args, config.pmu,
                        config.max_instructions)
                result.profiling_run = measurement
                result.profiling_runs.append(measurement)
                # Last-iteration scalar kept for backward compatibility; the
                # per-iteration list is what overhead analysis should read.
                result.extras["samples"] = len(data)
                samples_per_iteration.append(len(data))
                profile, inference = _generate_profile(
                    variant, profiling, data, config, result)
                if inference is not None:
                    inference_per_iteration.append(inference)
            obs.snapshot(f"{variant.value}/iter:{iteration}")
        result.extras["samples_per_iteration"] = samples_per_iteration
        if inference_per_iteration:
            result.extras["frame_inference_per_iteration"] = \
                inference_per_iteration
        result.profile = profile
        result.profile_stats = profile_stats(profile)
        with telemetry.span("optimizing-build", "stage"):
            final = _build_optimized(source, variant, profile, config, result,
                                     profiling=profiling, data=data)
        del data  # spent: evaluation reads no samples

    # ---- 4-5: optimizing build and evaluation -----------------------------
    result.final = final
    with telemetry.span("evaluate", "stage"):
        result.eval = measure_run(final, eval_args, config.max_instructions)
    return result


def _run_pgo_worker(source: Module, variant: PGOVariant,
                    train_args: Sequence[int], eval_args: Sequence[int],
                    config: Optional[PGODriverConfig],
                    collect_telemetry: bool, collect_events: bool):
    """Pool-worker wrapper around :func:`run_pgo` (module-level, picklable).

    When the parent is collecting telemetry/events, the worker collects
    into fresh local sessions and ships them back with the result so the
    parent can merge — parallelism must not punch holes in observability.
    """
    session = (telemetry.enable(telemetry.TelemetrySession())
               if collect_telemetry else None)
    obs_session = obs.install() if collect_events else None
    try:
        result = run_pgo(source, variant, train_args, eval_args, config)
    finally:
        if collect_telemetry:
            telemetry.disable()
        if collect_events:
            obs.uninstall()
    events = (obs.events_to_dicts(obs_session.log.events)
              if obs_session is not None else None)
    return result, session, events


def compare_variants(source: Module, train_args: Sequence[int],
                     eval_args: Sequence[int],
                     variants: Optional[List[PGOVariant]] = None,
                     config: Optional[PGODriverConfig] = None,
                     jobs: int = 1) -> Dict[PGOVariant, PGORunResult]:
    """Run several variants on identical inputs; keyed results.

    With ``jobs > 1`` the variants run in a :class:`ProcessPoolExecutor`.
    Each variant's cycle is fully deterministic and shares no mutable state
    with the others (every cycle builds from a fresh clone of ``source`` and
    seeds its own PMU), so the result dict — still in ``variants`` order —
    is byte-identical to a serial run.  Telemetry and observability events
    recorded inside worker processes are merged back into the parent's
    sessions in ``variants`` order: counters add, spans/remarks append, and
    worker events are re-emitted (re-stamped with parent sequence/clock).
    """
    if variants is None:
        variants = [PGOVariant.NONE, PGOVariant.AUTOFDO,
                    PGOVariant.CSSPGO_PROBE_ONLY, PGOVariant.CSSPGO_FULL,
                    PGOVariant.INSTR]
    if jobs <= 1 or len(variants) <= 1:
        return {variant: run_pgo(source, variant, train_args, eval_args,
                                 config)
                for variant in variants}
    telemetry.count("pgo", "parallel_compare_jobs", min(jobs, len(variants)))
    parent_session = telemetry.current()
    parent_obs = obs.active()
    results: Dict[PGOVariant, PGORunResult] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(variants))) as pool:
        futures = [pool.submit(_run_pgo_worker, source, variant, train_args,
                               eval_args, config,
                               parent_session is not None,
                               parent_obs is not None)
                   for variant in variants]
        for variant, future in zip(variants, futures):
            result, worker_session, worker_events = future.result()
            if parent_session is not None and worker_session is not None:
                parent_session.merge(worker_session)
            if parent_obs is not None and worker_events:
                for record in worker_events:
                    fields = {key: value for key, value in record.items()
                              if key not in ("type", "seq", "ts")}
                    parent_obs.emit(record["type"], **fields)
            results[variant] = result
    return results


def speedup_over(baseline: PGORunResult, other: PGORunResult) -> float:
    """Relative performance of ``other`` vs ``baseline`` (positive = faster),
    the paper's "% improvement" metric."""
    return baseline.eval.cycles / other.eval.cycles - 1.0
