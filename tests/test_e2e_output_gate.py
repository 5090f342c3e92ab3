"""The exact-output gate (``benchmarks/check_e2e_outputs.py``) fails on any
change of a build output and on a failed cycle, and passes on a match."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_e2e_outputs", BENCHMARKS / "check_e2e_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
BASELINE = BENCHMARKS / "results" / "e2e_outputs_baseline.json"


def _run_file(tmp_path, outputs, failed=0):
    metrics = {name: {"value": value, "unit": "x"}
               for name, value in outputs.items()}
    metrics["turnaround_s"] = {"value": 1.5, "unit": "s"}
    run = {"correct": failed == 0, "attempted": 8, "failed": failed,
           "metrics": metrics}
    path = tmp_path / "e2e.txt"
    path.write_text("servers-dense turnaround_s 1.5 s\n" + json.dumps(run)
                    + "\n")
    return str(path)


def test_checked_in_baseline_holds_the_four_outputs():
    baseline = json.loads(BASELINE.read_text())
    assert sorted(baseline["outputs"]) == sorted(gate.OUTPUTS)


def test_match_passes_and_any_change_fails(tmp_path):
    outputs = dict(json.loads(BASELINE.read_text())["outputs"])
    assert gate.main([_run_file(tmp_path, outputs),
                      "--baseline", str(BASELINE)]) == 0
    for name in gate.OUTPUTS:
        moved = dict(outputs)
        moved[name] = moved[name] + moved[name] * 2.0 ** -52
        assert moved[name] != outputs[name]
        assert gate.main([_run_file(tmp_path, moved),
                          "--baseline", str(BASELINE)]) == 1


def test_failed_cycle_fails(tmp_path):
    outputs = dict(json.loads(BASELINE.read_text())["outputs"])
    assert gate.main([_run_file(tmp_path, outputs, failed=1),
                      "--baseline", str(BASELINE)]) == 1


def test_update_rewrites_outputs(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(BASELINE.read_text())
    outputs = {name: 1.0 + i for i, name in enumerate(gate.OUTPUTS)}
    run = _run_file(tmp_path, outputs)
    assert gate.main([run, "--baseline", str(baseline), "--update"]) == 0
    assert json.loads(baseline.read_text())["outputs"] == outputs
    assert gate.main([run, "--baseline", str(baseline)]) == 0


def test_empty_output_is_an_error(tmp_path):
    path = tmp_path / "e2e.txt"
    path.write_text("\n")
    with pytest.raises(ValueError):
        gate.main([str(path), "--baseline", str(BASELINE)])
