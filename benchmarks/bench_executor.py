"""Executor micro-benchmark: decoded engine vs legacy dispatch loop.

Times both engines over a realistic optimized binary under every observer
configuration (pure, PEBS PMU, skid PMU, cost model, PMU+cost) and writes
``BENCH_executor.json`` with ns/instr, instr/sec, decode time, and decode-
cache hit rate.  Used two ways:

* locally: ``PYTHONPATH=src python benchmarks/bench_executor.py``
* in CI (smoke): the same workload, compared against the checked-in baseline
  (``benchmarks/results/BENCH_executor_baseline.json``); the job fails when
  a configuration's decoded-to-legacy time ratio grows by more than
  ``--max-regression`` (default 2x) over the baseline's.  Both engines run
  back to back in one process, so host load slows both and largely cancels
  out of the ratio, while "the decode cache stopped working" class bugs
  slow the decoded engine alone and still fail the gate.

The engine's performance contract (pinned by the driver defaulting to it):
pure-functional runs at least 3x legacy throughput, observed runs at least
2x.  ``--check`` enforces the contract and is deliberately separate from the
baseline comparison: the contract is machine-independent, the baseline is
not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.codegen import link
from repro.hw import PMUConfig, execute, make_pmu
from repro.opt import OptConfig, optimize_module
from repro.perfmodel import CostModel
from repro.probes import insert_pseudo_probes
from repro.workloads import WorkloadSpec, build_workload

ARGS = [300]

#: observer factories: name -> () -> (pmu, cost_model)
CONFIGS = {
    "pure": lambda: (None, None),
    "pmu_pebs": lambda: (make_pmu(PMUConfig(pebs=True)), None),
    "pmu_skid": lambda: (make_pmu(PMUConfig(pebs=False)), None),
    "cost": lambda: (None, CostModel()),
    "pmu_cost": lambda: (make_pmu(PMUConfig()), CostModel()),
}

#: minimum decoded/legacy throughput ratio per configuration (--check).
REQUIRED_SPEEDUP = {"pure": 3.0, "pmu_pebs": 2.0, "pmu_skid": 2.0,
                    "cost": 2.0, "pmu_cost": 2.0}


def build_binary():
    module = build_workload(WorkloadSpec("bench", seed=7))
    insert_pseudo_probes(module)
    clone = module.clone()
    optimize_module(clone, OptConfig(), profile_annotated=False)
    return link(clone)


def _measure(binary, engine: str, factory, repeats: int):
    """Best-of-N wall time for one engine/observer pair."""
    best_ns = None
    instructions = 0
    for _ in range(repeats + 1):  # +1 warmup (fills the decode cache)
        pmu, cost = factory()
        start = time.perf_counter_ns()
        result = execute(binary, ARGS, pmu=pmu, cost_model=cost,
                         engine=engine)
        elapsed = time.perf_counter_ns() - start
        if best_ns is None:  # warmup: record instruction count only
            best_ns = float("inf")
        else:
            best_ns = min(best_ns, elapsed)
        instructions = result.instructions_retired
    return best_ns, instructions


def run_bench(repeats: int):
    binary = build_binary()
    report = {"workload": {"name": "bench", "seed": 7, "args": ARGS},
              "repeats": repeats, "configs": {}}
    for name, factory in CONFIGS.items():
        legacy_ns, instructions = _measure(binary, "legacy", factory, repeats)
        decoded_ns, _ = _measure(binary, "decoded", factory, repeats)
        report["configs"][name] = {
            "instructions": instructions,
            "legacy_ns_per_instr": legacy_ns / instructions,
            "decoded_ns_per_instr": decoded_ns / instructions,
            "legacy_instr_per_sec": instructions / (legacy_ns / 1e9),
            "decoded_instr_per_sec": instructions / (decoded_ns / 1e9),
            "speedup": legacy_ns / decoded_ns,
        }
    # Decode cost and cache effectiveness over the whole sweep.
    decode_ns = sum(p.decode_ns for p in binary._decoded_cache.values())
    stats = binary.decode_stats
    lookups = stats["decodes"] + stats["cache_hits"]
    report["decode"] = {
        "decode_ms": decode_ns / 1e6,
        "programs_decoded": stats["decodes"],
        "cache_hits": stats["cache_hits"],
        "cache_hit_rate": stats["cache_hits"] / lookups if lookups else 0.0,
    }
    return report


def check_contract(report) -> int:
    failures = 0
    for name, required in REQUIRED_SPEEDUP.items():
        got = report["configs"][name]["speedup"]
        status = "ok" if got >= required else "FAIL"
        if got < required:
            failures += 1
        print(f"  contract {name:9s} speedup {got:5.2f}x "
              f"(required {required:.1f}x) {status}")
    return failures


def _relative_cost(entry) -> float:
    """Decoded time per instruction in units of the same run's legacy time."""
    return entry["decoded_ns_per_instr"] / entry["legacy_ns_per_instr"]


def check_baseline(report, baseline_path: str, max_regression: float) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = 0
    for name, entry in report["configs"].items():
        base = baseline["configs"].get(name)
        if base is None:
            continue
        ratio = _relative_cost(entry) / _relative_cost(base)
        status = "ok" if ratio <= max_regression else "FAIL"
        if ratio > max_regression:
            failures += 1
        print(f"  baseline {name:9s} decoded/legacy ratio {ratio:5.2f} "
              f"(limit {max_regression:.1f}x) {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per engine/config (best-of)")
    parser.add_argument("--out", default="BENCH_executor.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare decoded/legacy ns/instr against this "
                             "report's")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when decoded/legacy ns/instr exceeds the "
                             "baseline's by this factor")
    parser.add_argument("--check", action="store_true",
                        help="enforce the decoded-vs-legacy speedup contract")
    args = parser.parse_args(argv)

    report = run_bench(args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"executor bench: {report['configs']['pure']['instructions']:,} "
          f"instructions, repeats={args.repeats}")
    for name, entry in report["configs"].items():
        print(f"  {name:9s} legacy {entry['legacy_ns_per_instr']:7.1f} "
              f"ns/i   decoded {entry['decoded_ns_per_instr']:7.1f} ns/i   "
              f"speedup {entry['speedup']:5.2f}x")
    decode = report["decode"]
    print(f"  decode    {decode['decode_ms']:.1f} ms for "
          f"{decode['programs_decoded']} programs, cache hit rate "
          f"{decode['cache_hit_rate']*100:.1f}%")
    print(f"wrote {args.out}")

    failures = 0
    if args.check:
        failures += check_contract(report)
    if args.baseline:
        failures += check_baseline(report, args.baseline,
                                   args.max_regression)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
