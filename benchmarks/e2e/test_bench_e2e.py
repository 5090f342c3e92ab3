"""Self-test of the end-to-end benchmark on a tiny generated module.

Outside tier-1's test paths; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import bench_e2e
import timing

SPEC = bench_e2e.load_spec()
DETERMINISTIC = ("autofdo_eval_cycles", "csspgo_eval_cycles",
                 "autofdo_text_bytes", "csspgo_text_bytes")


def run(argv):
    """``main(argv)`` with its stdout captured: (status, output lines)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = bench_e2e.main(argv)
    return status, buffer.getvalue().splitlines()


def run_smoke(out, *extra):
    status, lines = run(["--workload", "smoke", "--repeats", "1",
                         "--out", str(out), *extra])
    with open(out) as handle:
        return status, lines, json.load(handle)["workloads"]["smoke"]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    return [run_smoke(tmp_path_factory.mktemp("smoke") / "report.json")
            for _ in range(2)]


def test_every_metric_is_printed_with_its_unit(smoke_runs):
    status, lines, _ = smoke_runs[0]
    assert status == 0
    printed = {line.split()[0]: line.split()[2] for line in lines
               if line.startswith("  ") and len(line.split()) >= 3}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric


def test_traced_pass_attributes_the_pass(smoke_runs):
    _, _, result = smoke_runs[0]
    assert result["per_layer"]["pgo.attributed_pct"] >= 95.0
    assert result["failed"] == 0 and result["attempted"] >= 4


def test_deterministic_metrics_repeat_exactly(smoke_runs):
    (_, _, first), (_, _, second) = smoke_runs
    for metric in DETERMINISTIC:
        assert (first["end_to_end"][metric]["values"]
                == second["end_to_end"][metric]["values"]), metric


def test_wrong_reference_fails_the_cycle(tmp_path, monkeypatch):
    correct = bench_e2e.reference_outputs
    monkeypatch.setattr(bench_e2e, "reference_outputs",
                        lambda inputs: [value + 1
                                        for value in correct(inputs)])
    status, lines, result = run_smoke(tmp_path / "report.json")
    assert status != 0
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("FAIL smoke:") for line in lines)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_contract_result_line(trace, section):
    status, lines = run(["--workload", "smoke", "--seed", "1",
                         "--seconds", "0", "--trace", trace])
    result = json.loads(lines[-1])
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fastest_turnaround_takes_each_cycles_best_pass():
    def timed_pass(*seconds):
        return {"cycles": [{"seconds": value} for value in seconds]}

    passes = [timed_pass(1.0, 3.0), timed_pass(2.0, 1.5)]
    assert bench_e2e.fastest_turnaround(passes) == 1.25


def test_verdicts():
    def sample(*values):
        summary = timing.summarize(values)
        summary["value"] = summary["median"]
        return summary

    base = sample(10.0, 10.1, 10.2, 10.3, 10.4)
    assert bench_e2e.verdict(base, sample(10.0, 10.1, 10.2, 10.3, 10.4),
                             0.1, "lower") == "unchanged"
    assert bench_e2e.verdict(base, sample(12.0, 12.1, 12.2, 12.3, 12.4),
                             0.1, "lower") == "worse"
    assert bench_e2e.verdict(base, sample(12.0, 12.1, 12.2, 12.3, 12.4),
                             0.1, "higher") == "better"
    noisy = sample(8.0, 10.0, 12.0, 14.0, 16.0)
    assert bench_e2e.verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert bench_e2e.verdict(sample(20.0, 30.0), sample(5.0, 9.0), 0.1,
                             "lower") == "better"
