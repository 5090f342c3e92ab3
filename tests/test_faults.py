"""Fault-injection fuzz tests: graceful degradation and exact accounting.

Property style over the injector taxonomy (``repro.faults.INJECTORS``):

* permissive mode never lets an exception out of the pipeline, for any
  injector at any intensity under every seed in ``REPRO_FAULT_SEEDS``;
* strict mode raises the *typed* errors, nothing else;
* everything discarded is accounted for, exactly: drop counters reconcile
  against a non-memoized per-sample reference unwind and against the
  injectors' own ground-truth reports.
"""

import os

import pytest

from repro import PGODriverConfig, PGOVariant, build, run_pgo, telemetry
from repro.correlate.profgen import (aggregate_samples,
                                     generate_context_profile,
                                     generate_probe_profile)
from repro.faults import (INJECTORS, FaultSpec, apply_perf_faults,
                          apply_profile_faults, apply_text_faults,
                          clone_perf_data, parse_fault_spec)
from repro.hw import PMUConfig, execute, make_pmu
from repro.hw.perf_data import PerfData
from repro.profile import (BinaryMismatchError, ProfileParseError,
                           ProfileStaleError, dump_context_profile,
                           load_context_profile)

SEEDS = [int(s) for s in
         os.environ.get("REPRO_FAULT_SEEDS", "11,23,47").split(",")]
PERF_INJECTORS = sorted(n for n, i in INJECTORS.items() if i.kind == "perf")
PROFILE_INJECTORS = sorted(n for n, i in INJECTORS.items()
                           if i.kind == "profile")


@pytest.fixture(scope="module")
def workload():
    # Exactly what ``repro --seed 5 validate <file> faults`` rebuilds, so the
    # CLI tests and the library tests audit the same binary.
    from repro.workloads import WorkloadSpec, build_workload
    return build_workload(WorkloadSpec("faults", seed=5))


@pytest.fixture(scope="module")
def collected(workload):
    """One CSSPGO build and one PMU collection, shared by every test."""
    artifacts = build(workload, PGOVariant.CSSPGO_FULL)
    pmu = make_pmu(PMUConfig(period=67))
    run = execute(artifacts.binary, [40], pmu=pmu)
    return artifacts, pmu.finish(run.instructions_retired)


@pytest.fixture(scope="module")
def context_profile(collected):
    artifacts, data = collected
    profile, _ = generate_context_profile(artifacts.binary, data,
                                          artifacts.probe_meta)
    return profile


def _drop_counters(session):
    return {name: count for (comp, name), count in session.counters.items()
            if comp == "correlate.drop"}


def _probed(module):
    """A probe-inserted clone — what ``build()`` hands the sample loaders
    (checksum enforcement needs the IR's probe checksums in place)."""
    from repro.probes.insertion import insert_pseudo_probes
    clone = module.clone()
    insert_pseudo_probes(clone)
    return clone


# ---------------------------------------------------------------------------
# spec + determinism
# ---------------------------------------------------------------------------


def test_spec_parse_and_validation():
    spec = parse_fault_spec("stale_checksum:1,drop_samples:0.25@seed=7")
    assert spec.seed == 7
    assert dict(spec.faults)["drop_samples"] == 0.25
    with pytest.raises(ValueError):
        parse_fault_spec("no_such_fault:0.5")
    with pytest.raises(ValueError):
        parse_fault_spec("drop_samples:1.5")


def test_unknown_injector_kind_entries_empty():
    spec = FaultSpec([("malformed_text", 1.0)], seed=1)
    assert spec.entries_of_kind("perf") == []
    assert [n for n, _ in spec.entries_of_kind("text")] == ["malformed_text"]


@pytest.mark.parametrize("seed", SEEDS)
def test_perf_injection_is_deterministic(collected, seed):
    _, data = collected
    spec = FaultSpec([(n, 0.4) for n in PERF_INJECTORS], seed=seed)
    first, report_a = apply_perf_faults(data, spec)
    second, report_b = apply_perf_faults(data, spec)
    assert report_a.events == report_b.events
    assert [(s.lbr, s.stack, s.ip) for s in first.samples] == \
           [(s.lbr, s.stack, s.ip) for s in second.samples]


def test_injection_copies_not_mutates(collected, context_profile):
    _, data = collected
    before = [(s.lbr, s.stack, s.ip) for s in data.samples]
    spec = FaultSpec([(n, 1.0) for n in PERF_INJECTORS], seed=11)
    apply_perf_faults(data, spec)
    assert [(s.lbr, s.stack, s.ip) for s in data.samples] == before
    checksums = {str(k): s.checksum
                 for k, s in context_profile.contexts.items()}
    apply_profile_faults(context_profile,
                         FaultSpec([("stale_checksum", 1.0)], seed=11))
    assert {str(k): s.checksum
            for k, s in context_profile.contexts.items()} == checksums


# ---------------------------------------------------------------------------
# perf faults: no uncaught exceptions + exact drop accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PERF_INJECTORS)
def test_perf_fault_accounting_exact(collected, name, seed):
    """For every perf injector: profgen completes, and the dedup-path drop
    counters equal a fresh non-memoized per-sample reference unwind."""
    artifacts, data = collected
    faulted, _ = apply_perf_faults(data, FaultSpec([(name, 0.6)], seed=seed))

    session = telemetry.enable()
    profile, _ = generate_context_profile(artifacts.binary, faulted,
                                          artifacts.probe_meta)
    used = session.counter("correlate", "samples_used")
    drops = _drop_counters(session)
    telemetry.disable()

    assert used + sum(drops.values()) == len(faulted.samples)
    assert profile is not None

    reference, _ = aggregate_samples(artifacts.binary, faulted,
                                     use_inferrer=True, dedup=False)
    assert dict(reference.dropped) == drops
    assert reference.used_samples == used


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_addrs_full_intensity_drops_everything(collected, seed):
    """All-out-of-range samples must *all* be dropped — and classified."""
    artifacts, data = collected
    faulted, report = apply_perf_faults(
        data, FaultSpec([("corrupt_addrs", 1.0)], seed=seed))
    assert report.total("samples_corrupted") == len(data.samples)

    session = telemetry.enable()
    generate_context_profile(artifacts.binary, faulted, artifacts.probe_meta)
    used = session.counter("correlate", "samples_used")
    drops = _drop_counters(session)
    telemetry.disable()

    assert used == 0
    assert sum(drops.values()) == len(faulted.samples)
    expected_empty = report.get("corrupt_addrs", "samples_corrupted_empty_lbr")
    assert drops.get("empty_lbr", 0) == expected_empty
    assert drops.get("lbr_outside_binary", 0) == \
        len(faulted.samples) - expected_empty


@pytest.mark.parametrize("seed", SEEDS)
def test_drop_dup_change_sample_count_exactly(collected, seed):
    _, data = collected
    spec = FaultSpec([("drop_samples", 0.3), ("dup_samples", 0.3)], seed=seed)
    faulted, report = apply_perf_faults(data, spec)
    expected = (len(data.samples)
                - report.get("drop_samples", "samples_dropped")
                + report.get("dup_samples", "samples_duplicated"))
    assert len(faulted.samples) == expected


@pytest.mark.parametrize("name", PERF_INJECTORS)
def test_probe_only_mode_survives_perf_faults(collected, name):
    artifacts, data = collected
    faulted, _ = apply_perf_faults(data, FaultSpec([(name, 1.0)], seed=23))
    profile = generate_probe_profile(artifacts.binary, faulted,
                                     artifacts.probe_meta)
    assert profile is not None


# ---------------------------------------------------------------------------
# profile faults: permissive application + strict typed errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROFILE_INJECTORS)
def test_profile_fault_permissive_application(workload, context_profile,
                                              name, seed):
    """Every profile injector: the CS sample loader applies the corrupted
    profile without raising in permissive mode."""
    from repro.annotate import csspgo_sample_loader
    faulted, _ = apply_profile_faults(context_profile,
                                      FaultSpec([(name, 0.7)], seed=seed))
    session = telemetry.enable()
    stats = csspgo_sample_loader(_probed(workload), faulted, strict=False)
    telemetry.disable()
    assert stats is not None
    rejected = session.counter("annotate.drop", "checksum_mismatch")
    assert rejected == len(stats.rejected_checksum)


def test_stale_checksum_rejects_every_function(workload, context_profile):
    from repro.annotate import csspgo_sample_loader
    faulted, report = apply_profile_faults(
        context_profile, FaultSpec([("stale_checksum", 1.0)], seed=11))
    assert report.total("checksums_staled") == len(context_profile.contexts)

    session = telemetry.enable()
    stats = csspgo_sample_loader(_probed(workload), faulted, strict=False)
    telemetry.disable()
    assert not stats.annotated
    assert stats.rejected_checksum
    assert session.counter("annotate.drop", "checksum_mismatch") == \
        len(stats.rejected_checksum)


@pytest.mark.parametrize("seed", SEEDS)
def test_stale_checksum_strict_raises_typed(workload, context_profile, seed):
    from repro.annotate import csspgo_sample_loader
    faulted, _ = apply_profile_faults(
        context_profile, FaultSpec([("stale_checksum", 1.0)], seed=seed))
    with pytest.raises(ProfileStaleError):
        csspgo_sample_loader(_probed(workload), faulted, strict=True)


# ---------------------------------------------------------------------------
# text faults: permissive drop counters + strict parse errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_malformed_text_permissive_exact_accounting(context_profile, seed):
    text = dump_context_profile(context_profile)
    corrupt, report = apply_text_faults(
        text, FaultSpec([("malformed_text", 0.5)], seed=seed))
    lines_corrupted = report.total("lines_corrupted")
    assert lines_corrupted > 0

    session = telemetry.enable()
    profile = load_context_profile(corrupt, strict=False)
    dropped = session.counter("profile.drop", "malformed_line")
    telemetry.disable()
    assert dropped == lines_corrupted
    # Headers were untouched: every record survives, minus corrupted lines.
    assert set(profile.contexts) == set(context_profile.contexts)


def test_malformed_text_strict_raises_with_line_number(context_profile):
    text = dump_context_profile(context_profile)
    corrupt, _ = apply_text_faults(
        text, FaultSpec([("malformed_text", 1.0)], seed=11))
    with pytest.raises(ProfileParseError) as err:
        load_context_profile(corrupt, strict=True)
    assert "line" in str(err.value)


# ---------------------------------------------------------------------------
# binary identity
# ---------------------------------------------------------------------------


def test_perf_extend_rejects_other_binary(collected):
    _, data = collected
    assert data.binary_id is not None  # stamped by execute()
    other = clone_perf_data(data)
    other.binary_id = "f" * 16
    mine = clone_perf_data(data)
    with pytest.raises(BinaryMismatchError):
        mine.extend(other)


def test_perf_extend_adopts_missing_identity(collected):
    _, data = collected
    merged = PerfData(data.period, data.lbr_depth, data.pebs)
    assert merged.binary_id is None
    merged.extend(data)
    assert merged.binary_id == data.binary_id


def test_binary_identity_distinguishes_builds(workload):
    from tests.conftest import build_call_module
    a = build(workload, PGOVariant.CSSPGO_FULL).binary
    b = build(build_call_module(), PGOVariant.CSSPGO_FULL).binary
    assert a.identity() == a.identity()
    assert a.identity() != b.identity()


# ---------------------------------------------------------------------------
# driver: degradation chain
# ---------------------------------------------------------------------------


def _driver_config(fault_spec=None, strict=False):
    return PGODriverConfig(profile_iterations=1, max_instructions=2_000_000,
                           fault_spec=fault_spec, strict_profile=strict)


def test_driver_degrades_on_fully_stale_profile(workload):
    """Acceptance: a fully stale profile must still complete the cycle —
    CSSPGO falls back to AutoFDO, with counter + remark + extras."""
    spec = FaultSpec.parse("stale_checksum:1@seed=11")
    session = telemetry.enable()
    result = run_pgo(workload, PGOVariant.CSSPGO_FULL, [40], [40],
                     _driver_config(fault_spec=spec))
    telemetry.disable()
    assert result.eval is not None
    assert result.extras["fallback_chain"] == ["csspgo->autofdo"]
    assert result.extras["fallback_reasons"] == ["EmptyAnnotation"]
    assert result.extras["degraded_variant"] == "autofdo"
    assert result.final.variant is PGOVariant.AUTOFDO
    # The AutoFDO profile is regenerated from the same samples, so the
    # driver must still hold them, and it annotates the fallback build.
    assert result.final.annotation is not None
    assert result.final.annotation.annotated
    assert session.counter("pgo.fallback", "csspgo_to_autofdo") == 1
    fallback_remarks = [r for r in session.remarks
                        if r.name == "ProfileFallback"]
    assert fallback_remarks
    assert fallback_remarks[0].args["reason"] == "EmptyAnnotation"


def test_driver_strict_raises_on_stale_profile(workload):
    spec = FaultSpec.parse("stale_checksum:1@seed=11")
    with pytest.raises(ProfileStaleError):
        run_pgo(workload, PGOVariant.CSSPGO_FULL, [40], [40],
                _driver_config(fault_spec=spec, strict=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_driver_survives_every_fault_at_once(workload, seed):
    """The whole taxonomy, every boundary, full pipeline: still completes."""
    spec = FaultSpec([(name, 0.5) for name in sorted(INJECTORS)], seed=seed)
    result = run_pgo(workload, PGOVariant.CSSPGO_FULL, [40], [40],
                     _driver_config(fault_spec=spec))
    assert result.eval is not None
    assert result.final is not None


def test_chain_bottoms_out_at_no_pgo(workload):
    """A DWARF profile naming only unknown functions degrades to plain."""
    from repro.pgo.driver import PGORunResult, _build_optimized
    from repro.profile import FlatProfile
    from repro.profile.function_samples import FunctionSamples
    bogus = FlatProfile(FlatProfile.KIND_DWARF)
    samples = FunctionSamples("__no_such_function")
    samples.add_body((1, 0), 100.0)
    samples.finalize()
    bogus.functions["__no_such_function"] = samples
    result = PGORunResult(PGOVariant.AUTOFDO)
    artifacts = _build_optimized(workload, PGOVariant.AUTOFDO, bogus,
                                 _driver_config(), result)
    assert artifacts.variant is PGOVariant.NONE
    assert result.extras["fallback_chain"] == ["autofdo->none"]
    assert result.extras["fallback_reasons"] == ["EmptyAnnotation"]


# ---------------------------------------------------------------------------
# CLI: validate + --fault-spec
# ---------------------------------------------------------------------------


def test_cli_validate_pass_and_fail(tmp_path, context_profile):
    from repro.cli import main
    good = tmp_path / "good.prof"
    good.write_text(dump_context_profile(context_profile))
    assert main(["--seed", "5", "validate", str(good), "faults"]) == 0

    stale, _ = apply_profile_faults(
        context_profile, FaultSpec([("stale_checksum", 1.0)], seed=11))
    bad = tmp_path / "stale.prof"
    bad.write_text(dump_context_profile(stale))
    assert main(["--seed", "5", "validate", str(bad), "faults"]) == 1


def test_cli_validate_min_match_rate(tmp_path, context_profile):
    from repro.cli import main
    stale, _ = apply_profile_faults(
        context_profile, FaultSpec([("stale_checksum", 1.0)], seed=11))
    bad = tmp_path / "stale.prof"
    bad.write_text(dump_context_profile(stale))
    assert main(["--seed", "5", "validate", str(bad), "faults",
                 "--min-match-rate", "0"]) == 0


def test_cli_validate_strict_rejects_malformed(tmp_path, context_profile):
    from repro.cli import main
    corrupt, _ = apply_text_faults(
        dump_context_profile(context_profile),
        FaultSpec([("malformed_text", 1.0)], seed=11))
    path = tmp_path / "corrupt.prof"
    path.write_text(corrupt)
    assert main(["--strict-profile", "--seed", "5", "validate",
                 str(path), "faults"]) == 2
    # Permissive: malformed lines drop, the rest still validates.
    assert main(["--seed", "5", "validate", str(path), "faults"]) == 0


def test_cli_rejects_bad_fault_spec():
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["--fault-spec", "no_such_fault:1", "workloads"])


# ---------------------------------------------------------------------------
# lint cross-check: corrupted counts are *detectable*, not just survivable
# ---------------------------------------------------------------------------

#: Count-corrupting profile injectors -> (rules that must fire, rules that
#: may fire).  The linter's side of the graceful-degradation story: the
#: pipeline survives the corruption above, and ``repro lint`` names it.
LINT_DETECTED = {
    "missing_probes": ({"flow-conservation"},
                       {"flow-conservation", "entry-inversion",
                        "loop-monotonicity", "unreachable-block"}),
    "extra_probes": ({"unknown-probe"}, {"unknown-probe"}),
    "counter_overflow": ({"counter-overflow"},
                         {"counter-overflow", "flow-conservation",
                          "entry-inversion", "loop-monotonicity"}),
}


@pytest.mark.parametrize("name", sorted(LINT_DETECTED))
@pytest.mark.parametrize("seed", SEEDS)
def test_count_corruption_flagged_by_lint(workload, context_profile, name,
                                          seed):
    from repro.analysis import lint_profile
    probed = _probed(workload)
    assert lint_profile(context_profile, probed).clean
    faulted, report = apply_profile_faults(
        context_profile, FaultSpec([(name, 0.6)], seed=seed))
    assert report.total() > 0
    must_fire, may_fire = LINT_DETECTED[name]
    fired = lint_profile(faulted, probed).rules_fired()
    assert must_fire <= fired <= may_fire


def test_lint_survives_every_profile_injector(workload, context_profile):
    """Non-count injectors (stale checksums, inline-tree mutations) may or
    may not lint clean, but the linter itself never raises on them."""
    from repro.analysis import lint_profile
    probed = _probed(workload)
    for name in PROFILE_INJECTORS:
        faulted, _ = apply_profile_faults(
            context_profile, FaultSpec([(name, 1.0)], seed=11))
        lint_profile(faulted, probed)  # must not raise
