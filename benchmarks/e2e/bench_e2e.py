"""End-to-end PGO-turnaround benchmark with outside-in layer attribution.

Runs the whole ``run_pgo`` cycle -- profiling build, PMU collection,
profile generation, trim and preinline, annotation with inference,
optimizing build, evaluation -- for AutoFDO and CSSPGO on each workload,
checks every optimized binary's output against the IR interpreter, and
prints every metric named in ``BENCHMARK.json`` with its unit.  A separate
traced pass attributes the pass's wall time to layers (``layers.py``).

Load shape: a closed-loop batch.  One cycle runs at a time, in one
process, with the default driver configuration at PMU period 59.  Every
timed pass is a fresh child process; children run one after another,
after one untimed warm-up child.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench_e2e.py [--seed S] [--repeats N]
        all four workloads, N timed passes and one traced pass each;
        writes benchmarks/e2e/results/BENCH_e2e.json
    python3 benchmarks/e2e/bench_e2e.py --workload W --seed S \\
            --seconds T --trace 0|1
        one workload: at least two timed passes, for T seconds
        (--trace 0), or one timed and one traced pass (--trace 1); the
        last line of stdout is one JSON object with correct, attempted,
        failed and metrics
    python3 benchmarks/e2e/bench_e2e.py --compare BASE.json NEW.json
        one verdict per (workload, end-to-end metric)

The exit status is non-zero when a cycle failed, when a traced pass
attributed less than 95% of its wall time, or when --compare found a
regression.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

VARIANTS = ("autofdo", "csspgo")
#: Default PMU sampling period (the CLI's); servers-dense samples 8x denser.
PERIOD = 59
DENSE_PERIOD = 7
#: The large module's generator seed stays fixed: across generator seeds
#: its compile time spreads by ~15% and its simulated cycles by ~37%, more
#: than any regression bound could absorb.  ``--seed`` still sets the PMU
#: jitter, which changes every profile and so every optimized binary.
LARGE_MODULE_SEED = 0
#: Setup-time samples per workload; setup-only children top up the count.
SETUP_SAMPLES = 5
#: A --seconds run times at least this many passes, so that
#: ``fastest_turnaround`` always has a second observation of every cycle.
MIN_TIMED_PASSES = 2
MIN_ATTRIBUTED_PCT = 95.0
CHILD_TIMEOUT_S = 120


class Input(NamedTuple):
    """One generated module and how a cycle trains and evaluates it."""

    module: object
    train: int
    eval: int
    period: int
    jitter_seed: int


def workload_inputs(name: str, seed: int) -> List[Input]:
    """The inputs of workload ``name``; each runs once per variant."""
    from repro.workloads import (CLANG_SPEC, EVAL_REQUESTS, SERVER_WORKLOADS,
                                 TRAIN_REQUESTS, WorkloadSpec,
                                 build_workload, large_module_spec)
    if name == "servers":
        return [Input(build_workload(spec), spec.requests, spec.requests,
                      PERIOD, seed) for spec in SERVER_WORKLOADS.values()]
    if name == "servers-dense":
        return [Input(build_workload(SERVER_WORKLOADS[service]), 300, 300,
                      DENSE_PERIOD, seed) for service in ("hhvm", "haas")]
    if name == "client":
        # Three jitter seeds keep the pass long enough to repeat steadily.
        module = build_workload(CLANG_SPEC)
        return [Input(module, TRAIN_REQUESTS, EVAL_REQUESTS, PERIOD,
                      seed + offset) for offset in range(3)]
    if name == "large-module":
        spec = large_module_spec(functions=200, seed=LARGE_MODULE_SEED)
        return [Input(build_workload(spec), spec.requests, spec.requests,
                      PERIOD, seed)]
    if name == "smoke":
        # A tiny module for the benchmark's own self-test.
        spec = WorkloadSpec("smoke", seed=7, n_leaf=4, n_dispatch=1,
                            n_mid=2, n_wrapper=1, n_workers=1, n_services=2,
                            requests=30)
        return [Input(build_workload(spec), spec.requests, spec.requests,
                      PERIOD, seed)]
    raise ValueError(f"unknown workload {name!r}")


def load_spec() -> Dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child process: set up, run one pass, report
# ---------------------------------------------------------------------------

def run_child(role: str, name: str, seed: int, protocol) -> None:
    """Set up, then (unless ``role`` is ``setup``) run one timed pass.

    The first protocol line marks the end of set-up; the parent times it.
    ``traced`` installs the layer wrappers for the pass and writes its
    Chrome trace to ``results/trace_<workload>.json``.
    """
    from repro.hw.executor import execute
    from repro.hw.pmu import PMUConfig
    from repro.pgo.driver import PGODriverConfig, run_pgo
    from repro.pgo.variants import PGOVariant
    inputs = workload_inputs(name, seed)
    _send(protocol, {"ready": True})
    if role == "setup":
        return

    tracer = None
    if role == "traced":
        import layers
        tracer = layers.Tracer()
        tracer.install()
    cycles = [(index, item, PGOVariant(variant))
              for index, item in enumerate(inputs) for variant in VARIANTS]
    records: List[Dict] = []
    binaries = []
    gc.collect()
    start = time.perf_counter()
    for number, (index, item, variant) in enumerate(cycles):
        record = {"input": index, "module": item.module.name,
                  "variant": variant.value, "jitter_seed": item.jitter_seed}
        config = PGODriverConfig(pmu=PMUConfig(period=item.period,
                                               jitter_seed=item.jitter_seed))
        binary = None
        if tracer is not None:
            tracer.context = {"workload": name, "module": item.module.name,
                              "variant": variant.value, "cycle": number}
            span = tracer.open(layers.CYCLE, "run_pgo")
        cycle_start = time.perf_counter()
        try:
            result = run_pgo(item.module, variant, [item.train], [item.eval],
                             config)
        except Exception as exc:  # reported as a failed cycle
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record.update(eval_cycles=result.eval.cycles,
                          text_bytes=result.final.sizes.text,
                          fallback_chain=result.extras.get("fallback_chain",
                                                           []))
            binary = result.final.binary
        finally:
            record["seconds"] = time.perf_counter() - cycle_start
            if tracer is not None:
                tracer.close(span)
        records.append(record)
        binaries.append(binary)
    pass_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    message = {"pass_s": pass_s, "peak_rss_mb": peak_rss_mb,
               "cycles": records}
    if tracer is not None:
        tracer.uninstall()
        message["layers"] = tracer.metrics(pass_s, len(cycles))
        message["layer_share_pct"] = tracer.shares(pass_s)
        tracer.write_chrome_trace(RESULTS / f"trace_{name}.json")
    # Outputs are read after the pass, outside its timing.
    for record, binary, (_, item, _) in zip(records, binaries, cycles):
        if binary is not None:
            record["output"] = execute(binary, [item.eval]).return_value
    _send(protocol, message)


def _send(protocol, message: Dict) -> None:
    protocol.write(json.dumps(message) + "\n")
    protocol.flush()


# ---------------------------------------------------------------------------
# Parent: children, correctness gate, statistics
# ---------------------------------------------------------------------------

def spawn(role: str, name: str, seed: int) -> Dict:
    """Run one child to completion; adds its parent-timed ``setup_s``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", role,
               "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as child:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            ready = child.stdout.readline()
            setup_s = time.perf_counter() - start
            lines = child.stdout.read().splitlines()
            child.wait()
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
    if child.returncode != 0 or not ready:
        raise RuntimeError(f"{role} child for {name} exited with "
                           f"{child.returncode}")
    message = json.loads(lines[-1]) if role != "setup" else {}
    message["setup_s"] = setup_s
    return message


def reference_outputs(inputs: List[Input]) -> List[int]:
    """The IR interpreter's return value for each input's evaluation run,
    computed once per module."""
    from repro.ir.interpreter import IRInterpreter
    outputs: Dict[tuple, int] = {}
    for item in inputs:
        key = (id(item.module), item.eval)
        if key not in outputs:
            outputs[key] = IRInterpreter(item.module).run(
                [item.eval]).return_value
    return [outputs[(id(item.module), item.eval)] for item in inputs]


def failed_cycles(message: Dict, references: List[int]) -> List[str]:
    """A cycle fails if it raised, took a fallback hop, or its optimized
    binary's output differs from the interpreter's."""
    failures = []
    for cycle in message["cycles"]:
        label = (f"{cycle['module']}/{cycle['variant']}"
                 f"/jitter {cycle['jitter_seed']}")
        expected = references[cycle["input"]]
        if "error" in cycle:
            failures.append(f"{label}: raised {cycle['error']}")
        elif cycle["fallback_chain"]:
            failures.append(f"{label}: fell back "
                            f"{' '.join(cycle['fallback_chain'])}")
        elif cycle["output"] != expected:
            failures.append(f"{label}: returned {cycle['output']}, "
                            f"interpreter {expected}")
    return failures


def fastest_turnaround(passes: List[Dict]) -> float:
    """Mean over cycles of each cycle's fastest time in any timed pass.

    Interference from other tenants of a shared host only ever adds time,
    and it comes in bursts of a few seconds.  Taking each cycle's fastest
    observation filters the bursts that a per-pass median keeps.
    """
    times = zip(*([cycle["seconds"] for cycle in message["cycles"]]
                  for message in passes))
    fastest = [min(cycle_times) for cycle_times in times]
    return sum(fastest) / len(fastest)


def pass_metrics(message: Dict) -> Dict[str, float]:
    """End-to-end metrics of one timed pass (all but ``setup_s``)."""
    cycles = message["cycles"]
    values = {"turnaround_s": message["pass_s"] / len(cycles),
              "peak_rss_mb": message["peak_rss_mb"]}
    for variant in VARIANTS:
        done = [cycle for cycle in cycles
                if cycle["variant"] == variant and "error" not in cycle]
        values[f"{variant}_eval_cycles"] = _geomean(
            [cycle["eval_cycles"] for cycle in done])
        values[f"{variant}_text_bytes"] = sum(cycle["text_bytes"]
                                              for cycle in done)
    return values


def _geomean(values: List[float]) -> float:
    if not values:
        return math.nan
    return math.exp(sum(math.log(value) for value in values) / len(values))


def measure_workload(name: str, seed: int, *, repeats: Optional[int] = None,
                     seconds: Optional[float] = None,
                     traced: bool = True) -> Dict:
    """Warm up, run timed passes (``repeats`` of them, or at least
    ``MIN_TIMED_PASSES`` and until ``seconds`` have elapsed), then
    optionally one traced pass, and check every cycle.

    Each end-to-end summary's ``value`` is the number reported: the median
    over timed passes, or :func:`fastest_turnaround` for ``turnaround_s``.
    """
    inputs = workload_inputs(name, seed)
    references = reference_outputs(inputs)
    spawn("setup", name, seed)  # untimed warm-up
    passes: List[Dict] = []
    start = time.perf_counter()

    def more() -> bool:
        if repeats is not None:
            return len(passes) < repeats
        return (len(passes) < MIN_TIMED_PASSES
                or time.perf_counter() - start < seconds)

    while more():
        passes.append(spawn("timed", name, seed))
    children = list(passes)
    trace_pass = spawn("traced", name, seed) if traced else None
    if trace_pass is not None:
        children.append(trace_pass)
    while len(children) < SETUP_SAMPLES:
        children.append(spawn("setup", name, seed))

    failures = [failure for child in children if "cycles" in child
                for failure in failed_cycles(child, references)]
    per_pass = [pass_metrics(message) for message in passes]
    end_to_end = {metric: timing.summarize(values[metric]
                                           for values in per_pass)
                  for metric in per_pass[0]}
    end_to_end["setup_s"] = timing.summarize(child["setup_s"]
                                             for child in children)
    for summary in end_to_end.values():
        summary["value"] = summary["median"]
    end_to_end["turnaround_s"]["value"] = fastest_turnaround(passes)
    result = {"seed": seed, "cycles_per_pass": len(passes[0]["cycles"]),
              "timed_passes": len(passes),
              "attempted": sum(len(child.get("cycles", ()))
                               for child in children),
              "failed": len(failures), "failures": failures,
              "end_to_end": end_to_end}
    if trace_pass is not None:
        layer_metrics = dict(trace_pass["layers"])
        untraced = end_to_end["turnaround_s"]["median"]
        traced_turnaround = trace_pass["pass_s"] / result["cycles_per_pass"]
        layer_metrics["trace.overhead_pct"] = (
            100.0 * (traced_turnaround / untraced - 1.0))
        result["per_layer"] = layer_metrics
        result["layer_share_pct"] = trace_pass["layer_share_pct"]
    return result


def gate(name: str, result: Dict) -> int:
    """Print why ``result`` fails the benchmark's gates; 1 if it does."""
    status = 0
    for failure in result["failures"]:
        print(f"FAIL {name}: {failure}")
        status = 1
    attributed = result.get("per_layer", {}).get("pgo.attributed_pct")
    if attributed is not None and attributed < MIN_ATTRIBUTED_PCT:
        print(f"FAIL {name}: traced pass attributed {attributed:.1f}% of "
              f"its wall time (< {MIN_ATTRIBUTED_PCT:.0f}%)")
        status = 1
    return status


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_workload(name: str, result: Dict, spec: Dict) -> None:
    print(f"== {name}: seed {result['seed']}, {result['cycles_per_pass']} "
          f"cycles/pass, {result['timed_passes']} timed passes, "
          f"{result['failed']}/{result['attempted']} cycles failed")
    for metric in spec["end_to_end"]:
        summary = result["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<30} {summary['value']:>14.6g} "
              f"{metric['unit']:<8} median {_cell(summary)}  "
              f"n={summary['n']}")
    if "per_layer" not in result:
        return
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<30} "
              f"{result['per_layer'][metric['name']]:>14.6g} "
              f"{metric['unit']}")
    shares = ", ".join(f"{layer} {share:.1f}%" for layer, share
                       in result["layer_share_pct"].items())
    print(f"  traced pass shares: {shares}")


def run_suite(names: List[str], seed: int, repeats: int, out: Path) -> int:
    spec = load_spec()
    report = {"benchmark": "e2e", "seed": seed, "repeats": repeats,
              "environment": timing.environment(), "workloads": {}}
    status = 0
    for name in names:
        result = measure_workload(name, seed, repeats=repeats)
        report["workloads"][name] = result
        print_workload(name, result, spec)
        status |= gate(name, result)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")
    return status


def run_contract(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload; the last stdout line is the machine-readable result."""
    spec = load_spec()
    if trace:
        result = measure_workload(name, seed, repeats=1)
    else:
        result = measure_workload(name, seed, seconds=seconds, traced=False)
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        value = result[section][metric["name"]]
        if not trace:
            value = value["value"]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{name} {metric['name']} {value:.6g} {metric['unit']}")
    status = gate(name, result)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return status


def verdict(base: Dict, new: Dict, bound: float, better: str) -> str:
    """better / unchanged / worse by the reported values, or unresolved
    when the run-to-run spread exceeds the bound and the runs overlap."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new["value"] - base["value"]) / base["value"]
    spread = max(timing.relative_spread(base), timing.relative_spread(new))
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new["values"]
               for b in base["values"]):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(base_path: Path, new_path: Path) -> int:
    spec = load_spec()
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    print(f"{'workload':<14} {'metric':<22} {'base':>10} {'new':>10} "
          f"{'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'change':>8} {'bound':>6}  verdict")
    worse = 0
    for name, base_result in base["workloads"].items():
        new_result = new["workloads"].get(name)
        if new_result is None:
            print(f"{name:<14} missing from {new_path}")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            b = base_result["end_to_end"][metric["name"]]
            n = new_result["end_to_end"][metric["name"]]
            outcome = verdict(b, n, metric["bound"], metric["better"])
            worse += outcome == "worse"
            change = 100.0 * (n["value"] - b["value"]) / b["value"]
            print(f"{name:<14} {metric['name']:<22} {b['value']:>10.6g} "
                  f"{n['value']:>10.6g} {_cell(b):>34} {_cell(n):>34} "
                  f"{change:>+7.2f}% "
                  f"{100 * metric['bound']:>5.1f}%  {outcome}")
    return 1 if worse else 0


def _cell(summary: Dict) -> str:
    return (f"{summary['median']:.6g} [{summary['q1']:.6g}, "
            f"{summary['q3']:.6g}]")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all "
                             "four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="PMU jitter seed base (default 0)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes per workload (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="with --trace 0: run timed passes (at least "
                             "2) until this many seconds have elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload and print its end-to-end "
                             "(0) or per-layer (1) metrics as the last line")
    parser.add_argument("--out", type=Path,
                        default=RESULTS / "BENCH_e2e.json",
                        help="report path (suite mode)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"),
                        help="compare two reports and exit")
    parser.add_argument("--child", choices=("setup", "timed", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: {SRC / 'repro'} not found; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = args.workload or [workload["name"]
                              for workload in load_spec()["workloads"]]
    if args.child:
        protocol = sys.stdout
        sys.stdout = sys.stderr  # keep the protocol stream clean
        run_child(args.child, names[0], args.seed, protocol)
        return 0
    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace runs exactly one --workload")
        return run_contract(names[0], args.seed, args.seconds or 0.0,
                            bool(args.trace))
    return run_suite(names, args.seed, args.repeats, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
