"""CLI smoke tests."""

import json

import pytest

from repro.cli import main
from repro.obs import ProfileManifest


class TestCli:
    def test_workloads_lists_fleet(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("adranker", "hhvm", "haas"):
            assert name in out

    def test_profile_dump(self, tmp_path, capsys):
        out_file = tmp_path / "ctx.prof"
        assert main(["--period", "31", "--seed", "4",
                     "profile", "demo", "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.startswith("# kind: context")
        assert "[main" in text

    def test_profile_round_trips(self, tmp_path):
        from repro.profile import load_context_profile
        out_file = tmp_path / "ctx.prof"
        main(["--period", "31", "--seed", "4",
              "profile", "demo", "-o", str(out_file)])
        profile = load_context_profile(out_file.read_text())
        assert profile.total_samples() > 0

    def test_profile_manifest_records_drop_accounting(self, tmp_path,
                                                      capsys):
        """repro profile -o writes exact sample accounting, and repro
        validate --manifest checks it."""
        profile_path = tmp_path / "ctx.prof"
        assert main(["--period", "31", "--seed", "4",
                     "profile", "demo", "-o", str(profile_path)]) == 0
        manifest_path = str(profile_path) + ".manifest.json"
        manifest = ProfileManifest.read(manifest_path)
        used = manifest.perf["samples_used"]
        assert used is not None and used > 0
        assert used + sum(manifest.drops.values()) == manifest.perf["samples"]
        assert manifest.drop_accounting_consistent()
        capsys.readouterr()

        assert main(["--seed", "4", "validate", str(profile_path), "demo",
                     "--manifest", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "drop accounting" in out
        assert "verdict             PASS" in out

    def test_validate_flags_corrupt_drop_accounting(self, tmp_path, capsys):
        profile_path = tmp_path / "ctx.prof"
        main(["--period", "31", "--seed", "4",
              "profile", "demo", "-o", str(profile_path)])
        manifest_path = str(profile_path) + ".manifest.json"
        record = json.loads(open(manifest_path).read())
        record["perf"]["samples_used"] += 7  # samples counted twice
        with open(manifest_path, "w") as handle:
            json.dump(record, handle)
        capsys.readouterr()
        assert main(["--seed", "4", "validate", str(profile_path), "demo",
                     "--manifest", manifest_path]) == 1
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines()
                    if "drop accounting" in line)
        assert "MISMATCH" in line

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCompareVariants:
    def test_variant_subset(self, capsys):
        assert main(["--iterations", "1", "--period", "31", "--seed", "4",
                     "compare", "demo",
                     "--variants", "autofdo,csspgo"]) == 0
        out = capsys.readouterr().out
        assert "autofdo" in out and "csspgo" in out
        assert "instr" not in out
        assert "vs AutoFDO" in out

    def test_subset_without_autofdo_baseline(self, capsys):
        # Regression: used to KeyError on results[PGOVariant.AUTOFDO].
        assert main(["--iterations", "1", "--period", "31", "--seed", "4",
                     "compare", "demo", "--variants", "none,csspgo"]) == 0
        out = capsys.readouterr().out
        assert "csspgo" in out
        assert "vs AutoFDO" not in out

    def test_unknown_variant_rejected(self, capsys):
        assert main(["compare", "demo", "--variants", "csspgo,bogus"]) == 2
        assert "unknown variant 'bogus'" in capsys.readouterr().err

    def test_empty_variant_list_rejected(self, capsys):
        assert main(["compare", "demo", "--variants", ","]) == 2
        assert "empty variant list" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_compare_with_full_telemetry(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        remarks_path = tmp_path / "remarks.json"
        assert main(["--stats", "--trace-out", str(trace_path),
                     "--remarks-out", str(remarks_path),
                     "--iterations", "2", "--period", "31", "--seed", "4",
                     "compare", "demo",
                     "--variants", "autofdo,csspgo"]) == 0
        out = capsys.readouterr().out

        # (a) stats report with pass timing and correlation drop counters.
        assert "Statistics Collected" in out
        assert "-time-passes analogue" in out
        assert "correlate" in out and "samples_unwound" in out

        # (b) Chrome trace with nested stage spans per variant x iteration.
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        assert len(events) > 1
        names = [e["name"] for e in events if e.get("ph") == "X"]
        for variant in ("autofdo", "csspgo"):
            assert f"variant:{variant}" in names
        assert names.count("iteration:0") == 2  # one per variant
        assert names.count("iteration:1") == 2
        assert names.count("collect") == 4      # per variant x iteration
        for event in events:
            if event.get("ph") == "X":
                assert event["dur"] >= 0 and "ts" in event

        # (c) remarks JSON with an inline decision carrying a DebugLoc.
        remarks = json.loads(remarks_path.read_text())
        inlined = [r for r in remarks
                   if r["Name"] == "Inlined" and "DebugLoc" in r]
        assert inlined
        loc = inlined[0]["DebugLoc"]
        assert set(loc) == {"Function", "Line", "Discriminator"}

    def test_telemetry_disabled_after_run(self, tmp_path):
        from repro import telemetry
        main(["--trace-out", str(tmp_path / "t.json"),
              "--iterations", "1", "--period", "31", "--seed", "4",
              "compare", "demo", "--variants", "none"])
        assert not telemetry.enabled()

    def test_stats_subcommand(self, capsys):
        assert main(["--iterations", "1", "--period", "31", "--seed", "4",
                     "stats", "demo"]) == 0
        out = capsys.readouterr().out
        assert "Statistics Collected" in out
        assert "variant:csspgo" in out
        assert "preinline_decisions_replayed" in out

    def test_stats_unknown_variant(self, capsys):
        assert main(["stats", "demo", "--variant", "nope"]) == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_unwritable_trace_path_fails_cleanly(self, capsys):
        assert main(["--stats", "--trace-out", "/nonexistent/dir/t.json",
                     "workloads"]) == 1
        captured = capsys.readouterr()
        assert "cannot write telemetry output" in captured.err
        assert "Statistics Collected" in captured.out  # work not lost
