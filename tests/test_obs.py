"""Observability subsystem tests (DESIGN.md sec. 11).

Covers the four layers and their contracts:

* event log — schema validation at emit, JSONL round-trip, permissive vs
  strict reads;
* metrics registry — the telemetry bridge re-enumerates counters on every
  sync, so lazily-created counters can never be silently omitted from a
  later export (the exporter-plumbing regression class);
* provenance manifests — write/read round-trip, drop-accounting
  consistency, and one manifest per profile generated by the driver;
* health — SLO rule grammar, pass/warn/fail verdicts for budgets and
  floors, indicator computation from a synthetic event stream;
* CLI — ``--events-out`` through ``repro report --html --check`` and
  ``repro validate --manifest`` end to end.
"""

import json

import pytest

from repro import (PGODriverConfig, PGOVariant, compare_variants, obs,
                   run_pgo, telemetry)
from repro.cli import main
from repro.obs import (EVENT_TYPES, EventLog, MetricsRegistry, ProfileManifest,
                       SLORule, build_report, evaluate_health,
                       manifest_path_for, parse_rules, read_event_log,
                       render_html, render_text)


@pytest.fixture(autouse=True)
def clean_global_state():
    telemetry.disable()
    obs.uninstall()
    yield
    telemetry.disable()
    obs.uninstall()


@pytest.fixture(scope="module")
def workload():
    from repro.workloads import WorkloadSpec, build_workload
    return build_workload(WorkloadSpec("obs", seed=3))


def _small_config(**kwargs):
    return PGODriverConfig(profile_iterations=1, max_instructions=2_000_000,
                           **kwargs)


@pytest.fixture(scope="module")
def observed_run(workload):
    """One CSSPGO cycle with telemetry + observability installed."""
    session = telemetry.enable(telemetry.TelemetrySession())
    obs_session = obs.install()
    try:
        result = run_pgo(workload, PGOVariant.CSSPGO_FULL, [40], [40],
                         _small_config())
    finally:
        telemetry.disable()
        obs.uninstall()
    return result, obs_session, session


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_schema_registry_is_well_formed(self):
        for etype, required in EVENT_TYPES.items():
            assert isinstance(etype, str)
            assert all(isinstance(name, str) for name in required)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ticks = iter(range(100))
        with EventLog(str(path), clock=lambda: float(next(ticks))) as log:
            log.emit("run_started", variant="csspgo", iterations=2)
            log.emit("samples_dropped", stage="correlate",
                     reason="unmapped_address", count=7)
            log.emit("fallback_taken", from_variant="csspgo",
                     to_variant="autofdo", reason="ProfileStaleError")
        events, malformed = read_event_log(str(path), strict=True)
        assert malformed == 0
        assert [e.to_dict() for e in events] == \
            [e.to_dict() for e in log.events]
        assert [e.seq for e in events] == [0, 1, 2]
        assert [e.ts for e in events] == [0.0, 1.0, 2.0]

    def test_emit_rejects_unknown_type(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("not_a_thing", foo=1)

    def test_emit_rejects_missing_required_fields(self):
        log = EventLog()
        with pytest.raises(ValueError, match="missing required fields"):
            log.emit("samples_dropped", stage="correlate")

    def test_extra_fields_are_allowed(self):
        log = EventLog()
        event = log.emit("run_started", variant="csspgo", custom="yes")
        assert event.get("custom") == "yes"

    def test_permissive_read_skips_bad_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"type": "run_started", "seq": 0, "ts": 1.0,
                        "variant": "csspgo"}) + "\n"
            + "this is not json\n"
            + json.dumps({"type": "from_the_future", "seq": 1, "ts": 2.0})
            + "\n"
            + json.dumps({"type": "run_finished", "seq": 2})  # missing field
            + "\n"
            + json.dumps({"type": "run_finished", "seq": 3, "ts": 3.0,
                          "variant": "csspgo"}) + "\n")
        events, malformed = read_event_log(str(path))
        assert [e.type for e in events] == ["run_started", "run_finished"]
        assert malformed == 3

    def test_strict_read_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "run_started", "seq": 0, "ts": 1.0, '
                        '"variant": "x"}\nbroken\n')
        with pytest.raises(ValueError, match="line 2"):
            read_event_log(str(path), strict=True)

    def test_module_level_emit_is_noop_when_uninstalled(self):
        assert not obs.enabled()
        obs.emit("run_started", variant="csspgo")  # must not raise
        obs.snapshot("nowhere")


# ---------------------------------------------------------------------------
# metrics registry + telemetry bridge (satellite: exporter plumbing)
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_bridge_equals_session_counters_exactly(self):
        session = telemetry.TelemetrySession()
        session.count("correlate", "samples_unwound", 100)
        session.count("correlate.drop", "unmapped_address", 3)
        session.count("pgo.fallback", "csspgo_to_autofdo")
        registry = MetricsRegistry()
        registry.sync_telemetry(session)
        totals = registry.totals()
        expected = {f"{component}.{name}": float(value)
                    for (component, name), value in session.counters.items()}
        assert {k: v for k, v in totals.items()
                if not k.startswith("span.")} == expected

    def test_counters_created_after_first_export_are_not_omitted(self):
        """The exporter-plumbing regression: lazily-created counters (e.g.
        correlate.cache.* appearing mid-run) must show up in every later
        export, not be frozen out by the first one."""
        session = telemetry.TelemetrySession()
        session.count("correlate", "samples_used", 10)
        registry = MetricsRegistry()
        registry.sync_telemetry(session)
        assert registry.totals()["correlate.samples_used"] == 10.0
        # A brand-new counter family arrives after the first export.
        session.count("correlate.cache", "stack_memo_hits", 7)
        registry.sync_telemetry(session)
        totals = registry.totals()
        assert totals["correlate.cache.stack_memo_hits"] == 7.0
        assert totals["correlate.samples_used"] == 10.0

    def test_sync_is_idempotent_for_counters_and_spans(self):
        session = telemetry.enable(telemetry.TelemetrySession())
        session.count("a", "b", 5)
        with session.span("collect", "stage"):
            pass
        telemetry.disable()
        registry = MetricsRegistry()
        registry.sync_telemetry(session)
        registry.sync_telemetry(session)
        assert registry.totals()["a.b"] == 5.0
        histogram = registry.histogram("span.duration_us",
                                       category="stage", name="collect")
        assert histogram.count == 1  # not doubled by the second sync

    def test_snapshot_series_sees_late_metrics(self):
        registry = MetricsRegistry()
        registry.inc("x", 1.0)
        first = registry.snapshot(1.0, "first")
        registry.inc("late.metric", 2.0)
        second = registry.snapshot(2.0, "second")
        assert "late.metric" not in first.values
        assert second.values["late.metric"] == 2.0
        assert [p.label for p in registry.series] == ["first", "second"]

    def test_labels_spell_stably(self):
        registry = MetricsRegistry()
        registry.inc("hits", 1.0, b="2", a="1")
        registry.inc("hits", 1.0, a="1", b="2")
        assert registry.totals() == {"hits{a=1,b=2}": 2.0}

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 8.0):
            registry.observe("latency", value)
        histogram = registry.histogram("latency")
        assert histogram.count == 3
        assert histogram.min == 1.0 and histogram.max == 8.0
        assert histogram.mean == pytest.approx(4.0)


class TestTelemetryEnable:
    def test_enable_keeps_active_session(self):
        """Satellite regression: a library calling enable() under an already
        collecting CLI must not clobber counters registered so far."""
        first = telemetry.enable()
        first.count("early", "counter", 3)
        second = telemetry.enable()
        assert second is first
        assert telemetry.current().counter("early", "counter") == 3

    def test_enable_with_explicit_session_replaces(self):
        telemetry.enable()
        mine = telemetry.TelemetrySession()
        assert telemetry.enable(mine) is mine
        assert telemetry.current() is mine

    def test_session_merge(self):
        parent = telemetry.TelemetrySession()
        parent.count("a", "b", 1)
        child = telemetry.TelemetrySession()
        child.count("a", "b", 2)
        child.count("c", "d", 5)
        with child.span("collect", "stage"):
            pass
        parent.merge(child)
        assert parent.counter("a", "b") == 3
        assert parent.counter("c", "d") == 5
        assert len(parent.spans) == 1


# ---------------------------------------------------------------------------
# provenance manifests
# ---------------------------------------------------------------------------


class TestProfileManifest:
    def _manifest(self):
        return ProfileManifest(
            variant="csspgo", kind="context",
            binary_identity="deadbeefdeadbeef",
            perf={"samples": 100, "samples_used": 97, "unique_samples": 60},
            drops={"correlate.drop.unmapped_address": 3},
            quality={"trim_overlap": 0.98},
            profile_stats={"records": 12.0},
            created_at=123.5)

    def test_write_read_round_trip(self, tmp_path):
        path = manifest_path_for(str(tmp_path / "ctx.prof"))
        manifest = self._manifest()
        manifest.write(path)
        loaded = ProfileManifest.read(path)
        assert loaded.to_dict() == manifest.to_dict()

    def test_reads_manifest_with_legacy_shards_key(self):
        record = self._manifest().to_dict()
        record["shards"] = [{"shard": 0, "samples": 100, "used": 97,
                             "dropped": {"unmapped_address": 3}}]
        loaded = ProfileManifest.from_dict(record)
        assert loaded.to_dict() == self._manifest().to_dict()
        assert loaded.drop_accounting_consistent()

    def test_rejects_wrong_schema_version(self):
        record = self._manifest().to_dict()
        record["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            ProfileManifest.from_dict(record)

    def test_rejects_missing_kind(self):
        record = self._manifest().to_dict()
        del record["kind"]
        with pytest.raises(ValueError, match="kind"):
            ProfileManifest.from_dict(record)

    def test_drop_accounting_consistency(self):
        manifest = self._manifest()
        assert manifest.drop_accounting_consistent()  # 97 + 3 == 100
        manifest.drops["correlate.drop.unmapped_address"] = 4
        assert not manifest.drop_accounting_consistent()
        # Without sample accounting there is nothing to contradict.
        bare = ProfileManifest(variant="csspgo", kind="context")
        assert bare.drop_accounting_consistent()


# ---------------------------------------------------------------------------
# health / SLO rules
# ---------------------------------------------------------------------------


class TestSLORules:
    def test_parse_round_trip(self):
        rule = SLORule.parse("drop-rate: drop_rate <= 0.02/0.1")
        assert (rule.name, rule.indicator, rule.op) == \
            ("drop-rate", "drop_rate", "<=")
        assert (rule.warn, rule.fail) == (0.02, 0.1)
        assert SLORule.parse(rule.spec()).spec() == rule.spec()

    @pytest.mark.parametrize("line", [
        "no colon here",
        "name: too few",
        "name: indicator <= 1.0",       # thresholds not warn/fail
        "name: indicator <= a/b",       # not numbers
        "name: indicator == 1/2",       # bad op
    ])
    def test_parse_rejects_bad_lines(self, line):
        with pytest.raises(ValueError):
            SLORule.parse(line)

    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError, match="budget"):
            SLORule("r", "x", "<=", warn=0.5, fail=0.1)
        with pytest.raises(ValueError, match="floor"):
            SLORule("r", "x", ">=", warn=0.5, fail=0.9)

    def test_budget_verdicts(self):
        rule = SLORule("r", "x", "<=", warn=0.02, fail=0.10)
        assert rule.evaluate(0.01) == "pass"
        assert rule.evaluate(0.05) == "warn"
        assert rule.evaluate(0.20) == "fail"
        assert rule.evaluate(None) == "skip"

    def test_floor_verdicts(self):
        rule = SLORule("r", "x", ">=", warn=0.95, fail=0.5)
        assert rule.evaluate(0.99) == "pass"
        assert rule.evaluate(0.7) == "warn"
        assert rule.evaluate(0.3) == "fail"

    def test_parse_rules_file(self):
        rules = parse_rules("# comment\n\nclean: fault_events <= 0/0\n")
        assert len(rules) == 1 and rules[0].name == "clean"
        with pytest.raises(ValueError, match="empty"):
            parse_rules("# only comments\n")


def _synthetic_events():
    log = EventLog(clock=lambda: 0.0)
    log.emit("run_started", variant="csspgo")
    log.emit("metrics_snapshot", label="final", totals={
        "correlate.samples_unwound": 100.0,
        "correlate.drop.unmapped_address": 6.0,
        "annotate.drop.checksum_mismatch": 4.0,
    })
    log.emit("fallback_taken", from_variant="csspgo", to_variant="autofdo",
             reason="EmptyAnnotation")
    log.emit("profile_applied", variant="autofdo", annotated=9,
             rejected_checksum=1)
    log.emit("profile_generated", variant="csspgo", kind="context",
             manifest={"quality": {"trim_overlap": 0.97}})
    log.emit("bench_point", bench="profgen", metric="throughput",
             value=1000.0, regression=0.1)
    log.emit("faults_injected", kind="profile", count=3)
    return log.events


class TestHealthReport:
    def test_indicators_from_synthetic_stream(self):
        from repro.obs import compute_indicators
        indicators = compute_indicators(_synthetic_events())
        assert indicators["drop_rate"] == pytest.approx(0.10)
        assert indicators["fallback_rate"] == pytest.approx(1.0)
        assert indicators["checksum_match_rate"] == pytest.approx(0.9)
        assert indicators["min_trim_overlap"] == pytest.approx(0.97)
        assert indicators["bench_regression"] == pytest.approx(0.1)
        assert indicators["fault_events"] == pytest.approx(3.0)

    def test_default_scorecard_exercises_every_verdict(self):
        report = evaluate_health(_synthetic_events())
        verdicts = {r.rule.name: r.verdict for r in report.results}
        assert verdicts["fallback-rate"] == "fail"    # 1.0 > fail 0.5
        assert verdicts["drop-rate"] == "warn"        # 0.02 < 0.10 <= 0.10
        assert verdicts["checksum-match"] == "warn"   # 0.5 <= 0.9 < 0.95
        assert verdicts["trim-overlap"] == "pass"     # 0.97 >= 0.95
        assert report.worst == "fail"
        assert [r.rule.name for r in report.failed] == ["fallback-rate"]

    def test_empty_stream_skips_everything(self):
        report = evaluate_health([])
        assert report.worst == "skip"
        assert all(r.verdict == "skip" for r in report.results)


# ---------------------------------------------------------------------------
# dashboard rendering
# ---------------------------------------------------------------------------


class TestDashboard:
    def test_text_report_sections(self):
        report = build_report(_synthetic_events(), malformed=2)
        text = render_text(report)
        assert "2 malformed lines skipped" in text
        assert "--- fallbacks ---" in text
        assert "csspgo -> autofdo  (EmptyAnnotation)" in text
        assert "SLO scorecard (worst: fail)" in text

    def test_html_report_pairs_icon_with_verdict(self):
        html = render_html(build_report(_synthetic_events()))
        assert html.startswith("<!DOCTYPE html>")
        # Verdict color never carries meaning alone: icon + label.
        assert "✗ fail" in html and "⚠ warn" in html and "✓ pass" in html
        assert "trim_overlap" in html or "trim overlap" in html


# ---------------------------------------------------------------------------
# driver integration
# ---------------------------------------------------------------------------


class TestDriverIntegration:
    def test_one_manifest_per_generated_profile(self, observed_run):
        result, obs_session, _session = observed_run
        manifests = result.extras["manifests"]
        generated = obs_session.log.of_type("profile_generated")
        assert len(manifests) == len(generated) == 1
        manifest = ProfileManifest.from_dict(manifests[0])
        assert manifest.variant == "csspgo" and manifest.kind == "context"
        assert len(manifest.binary_identity) == 16
        assert manifest.perf["samples"] > 0
        assert 0.0 < manifest.quality["trim_overlap"] <= 1.0

    def test_manifest_drop_accounting_is_exact(self, observed_run):
        result, _obs_session, _session = observed_run
        manifest = ProfileManifest.from_dict(result.extras["manifests"][0])
        assert manifest.drop_accounting_consistent()

    def test_run_lifecycle_events(self, observed_run):
        _result, obs_session, _session = observed_run
        started = obs_session.log.of_type("run_started")
        finished = obs_session.log.of_type("run_finished")
        assert [e.get("variant") for e in started] == ["csspgo"]
        assert finished[0].get("cycles") > 0
        assert obs_session.log.of_type("metrics_snapshot")

    def test_registry_matches_session_after_snapshot(self, observed_run):
        _result, obs_session, session = observed_run
        totals = obs_session.metrics.totals()
        for (component, name), value in session.counters.items():
            assert totals[f"{component}.{name}"] == float(value)

    def test_parallel_compare_merges_worker_observability(self, workload):
        session = telemetry.enable(telemetry.TelemetrySession())
        obs_session = obs.install()
        try:
            results = compare_variants(
                workload, [40], [40],
                variants=[PGOVariant.AUTOFDO, PGOVariant.CSSPGO_FULL],
                config=_small_config(), jobs=2)
        finally:
            telemetry.disable()
            obs.uninstall()
        assert len(results) == 2
        # Worker telemetry merged: correlation counters visible in parent.
        assert session.counter("correlate", "samples_unwound") > 0
        assert any(s.name.startswith("variant:") for s in session.spans)
        # Worker events re-emitted into the parent log.
        started = obs_session.log.of_type("run_started")
        assert {e.get("variant") for e in started} == {"autofdo", "csspgo"}
        assert obs_session.log.of_type("profile_generated")


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


class TestCliObservability:
    def test_events_out_report_html_check(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        html_path = tmp_path / "dash.html"
        assert main(["--iterations", "1", "--period", "31", "--seed", "4",
                     "--events-out", str(events_path),
                     "compare", "demo", "--variants", "autofdo,csspgo"]) == 0
        events, malformed = read_event_log(str(events_path))
        assert malformed == 0
        types = {event.type for event in events}
        assert {"run_started", "run_finished", "profile_generated",
                "metrics_snapshot", "span"} <= types
        capsys.readouterr()

        assert main(["report", str(events_path),
                     "--html", str(html_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "SLO scorecard" in out and "provenance" in out
        html = html_path.read_text()
        assert "SLO scorecard" in html and "Provenance" in html
        # Verdicts were appended back onto the log.
        events, _ = read_event_log(str(events_path))
        assert any(event.type == "slo_evaluated" for event in events)

    def test_obs_uninstalled_after_cli_run(self, tmp_path):
        main(["--iterations", "1", "--period", "31", "--seed", "4",
              "--events-out", str(tmp_path / "e.jsonl"),
              "compare", "demo", "--variants", "none"])
        assert not obs.enabled()
        assert not telemetry.enabled()

    def test_report_check_fails_on_slo_breach(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), clock=lambda: 0.0)
        log.emit("run_started", variant="csspgo")
        log.emit("fallback_taken", from_variant="csspgo",
                 to_variant="autofdo", reason="EmptyAnnotation")
        log.emit("fallback_taken", from_variant="autofdo",
                 to_variant="none", reason="EmptyAnnotation")
        log.close()
        assert main(["report", str(path), "--check"]) == 1
        captured = capsys.readouterr()
        assert "SLO check FAILED: fallback-rate" in captured.err
        # Without --check the same log reports without failing the build.
        assert main(["report", str(path)]) == 0

    def test_report_custom_slo_rules(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), clock=lambda: 0.0)
        log.emit("faults_injected", kind="profile", count=2)
        log.close()
        rules = tmp_path / "rules.slo"
        rules.write_text("clean-pipeline: fault_events <= 0/0\n")
        assert main(["report", str(path), "--slo", str(rules),
                     "--check"]) == 1
        assert "clean-pipeline" in capsys.readouterr().err

    def test_report_rejects_bad_inputs(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read event log" in capsys.readouterr().err
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "run_started", "seq": 0, "ts": 0, '
                        '"variant": "x"}\n')
        bad_rules = tmp_path / "bad.slo"
        bad_rules.write_text("nonsense\n")
        assert main(["report", str(path), "--slo", str(bad_rules)]) == 2
        assert "bad SLO rules" in capsys.readouterr().err

    def test_profile_writes_manifest_and_validate_cross_checks(
            self, tmp_path, capsys):
        profile_path = tmp_path / "ctx.prof"
        assert main(["--period", "31", "--seed", "4",
                     "profile", "demo", "-o", str(profile_path)]) == 0
        manifest_path = manifest_path_for(str(profile_path))
        manifest = ProfileManifest.read(manifest_path)
        assert manifest.kind == "context"
        assert manifest.perf["samples"] > 0
        capsys.readouterr()

        assert main(["--seed", "4", "validate", str(profile_path), "demo",
                     "--manifest", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "binary identity" in out and "MISMATCH" not in out
        assert "verdict             PASS" in out

        # Tampered identity: the same profile now fails validation.
        record = json.loads(open(manifest_path).read())
        record["binary_identity"] = "0" * 16
        with open(manifest_path, "w") as handle:
            json.dump(record, handle)
        assert main(["--seed", "4", "validate", str(profile_path), "demo",
                     "--manifest", manifest_path]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "verdict             FAIL" in out

    def test_validate_manifest_unreadable(self, tmp_path, capsys):
        profile_path = tmp_path / "ctx.prof"
        main(["--period", "31", "--seed", "4",
              "profile", "demo", "-o", str(profile_path)])
        capsys.readouterr()
        assert main(["--seed", "4", "validate", str(profile_path), "demo",
                     "--manifest", str(tmp_path / "nope.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err
