"""Exact-output gate for the end-to-end benchmark.

For a fixed seed, one AutoFDO + CSSPGO cycle repeats its build outputs bit
for bit: the evaluation cycles and text bytes of both final binaries.
``bench_e2e.py --compare`` bounds these by 2% and 10%, which is sized for
spread across seeds; this gate compares one seed's outputs exactly, so a
change that should leave outputs alone shows any output it moves.  It
reads the JSON object that ``bench_e2e.py --workload W --seed S --seconds 0
--trace 0`` prints as its last line, and compares no timing.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench_e2e.py --workload servers-dense --seed 0 \\
        --seconds 0 --trace 0 > e2e.txt
    python3 benchmarks/check_e2e_outputs.py e2e.txt \\
        --baseline benchmarks/results/e2e_outputs_baseline.json

``--update`` rewrites the baseline from the run instead, for a change that
moves outputs on purpose.  Exit status 1 when an output differs or a cycle
failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

#: The deterministic end-to-end metrics of BENCHMARK.json.
OUTPUTS = ("autofdo_eval_cycles", "csspgo_eval_cycles",
           "autofdo_text_bytes", "csspgo_text_bytes")


def read_run(path: str) -> dict:
    """The benchmark's final JSON line from its captured stdout."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no output")
    return json.loads(lines[-1])


def outputs_of(run: dict) -> Dict[str, float]:
    return {name: run["metrics"][name]["value"] for name in OUTPUTS}


def compare(run: dict, baseline: dict) -> List[str]:
    """One line per problem: a failed cycle or an output that differs."""
    problems = []
    if run.get("failed") or not run.get("correct"):
        problems.append(f"run not clean: failed={run.get('failed')} "
                        f"correct={run.get('correct')}")
    got = outputs_of(run)
    for name in OUTPUTS:
        want = baseline["outputs"][name]
        if got[name] != want:
            problems.append(f"{name}: {got[name]!r} != baseline {want!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", help="captured stdout of one bench_e2e.py "
                                    "--seconds 0 run")
    parser.add_argument("--baseline", required=True, metavar="PATH",
                        help="checked-in outputs to compare with")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline's outputs from the run")
    args = parser.parse_args(argv)

    run = read_run(args.run)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    if args.update:
        baseline["outputs"] = outputs_of(run)
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.baseline}")
        return 0
    problems = compare(run, baseline)
    for name in OUTPUTS:
        print(f"  {name:22s} {outputs_of(run)[name]!r}")
    for line in problems:
        print(f"  DIFF {line}", file=sys.stderr)
    print("e2e outputs " + ("differ" if problems else "match the baseline"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
