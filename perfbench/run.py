"""End-to-end campaign benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  The workload runs in a fresh Python
process (``local.py``) started by this client process, which prints one
JSON result as its last line: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--seconds`` fixes the work: each workload makes as
many campaign rounds as fill that many seconds on the reference box
(see README.md), so the same arguments always do the same work.

    python3 perfbench/run.py --steadiness [--runs 5] [--workloads ...]

runs the benchmark itself, two sets of ``--runs`` seeds per workload,
prints per workload and metric the median, quartiles and spread
against the bounds, and checks that per-layer counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, timeout=CHILD_TIMEOUT_S):
    """Run a workload process; returns its JSON result."""
    done = subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{args[0]} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def time_setup(workload: str):
    """Seconds from spawning a cold process until it can inject.

    Rescaled (see ``workloads.SpeedClock``) by the mean of the speed
    factors measured here just before the spawn and in the child just
    after it was ready.
    """
    before = wl.SpeedClock().measure()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "local.py"),
                             "--setup", workload], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        after = float(proc.stdout.readline() or "nan")
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed")
    return elapsed / ((before + after) / 2.0)


def run_workload(name: str, seed: int, rounds: int, traced: bool, work,
                 setup: bool = False):
    """One run of a workload; with ``setup``, also time cold set-ups."""
    work.mkdir(parents=True)
    args = [str(HERE / "local.py"), name, str(seed), str(rounds), str(work)]
    result = run_child(args + (["--trace"] if traced else []))
    if setup:
        result["setup_s"] = [time_setup(name) for _ in range(wl.SETUP_SAMPLES)]
    return result


def end_to_end(result):
    hit = result["hit_ms"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "runs_per_s": result["runs"] / sum(result["round_s"]),
        "hit_p50_ms": statistics.median(hit),
        "hit_p95_ms": wl.percentile(hit, 95),
        "render_p50_ms": statistics.median(result["render_ms"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(traced, untraced, names):
    """Per-layer metrics of a traced run, against an untraced one."""
    values = {name: 0.0 for name in names}
    layers = traced["layers"]
    # The benchmark's own calibration is not part of any phase.
    covered = sum(seconds for layer, seconds in layers.items()
                  if not layer.startswith("bench."))
    for layer, seconds in layers.items():
        if f"{layer}_s" in values:
            values[f"{layer}_s"] = seconds
    for key, count in traced["counts"].items():
        if key in values:
            values[key] = count
    lanes = traced["counts"].get("sim.lanes", 0)
    if lanes:
        values["sim.lockstep_ratio"] = (
            1.0 - traced["counts"]["sim.lanes_retired"] / lanes)
    forked = traced["counts"].get("sim.forked_runs", 0)
    if forked:
        values["sim.splice_ratio"] = (
            traced["counts"]["sim.spliced_runs"] / forked)
    # Overhead compares rescaled times, so host speed drift between the
    # two runs cancels; coverage compares host times, as spans are.
    overhead = traced["scaled_s"] - untraced["scaled_s"]
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / untraced["scaled_s"]
    values["trace.coverage"] = covered / sum(traced["phases"].values())
    return values


def measure(args, spec):
    """One benchmark run as the contract defines it; the result line."""
    workload = wl.WORKLOADS[args.workload]
    rounds = wl.rounds_for(workload, args.seconds)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        untraced = run_workload(args.workload, args.seed, rounds, False,
                                work / "untraced", setup=not args.trace)
        results = [untraced]
        if args.trace:
            traced = run_workload(args.workload, args.seed, rounds, True,
                                  work / "traced")
            results.append(traced)
            names = [metric["name"] for metric in spec["per_layer"]]
            values = per_layer(traced, untraced, names)
            units = {metric["name"]: metric["unit"]
                     for metric in spec["per_layer"]}
        else:
            values = end_to_end(untraced)
            units = {metric["name"]: metric["unit"]
                     for metric in spec["end_to_end"]}
        # Keep the traced run's spans; the work directory goes.
        for spans in work.glob("traced/*.spans.json"):
            shutil.copyfile(spans, WORK / f"{args.workload}-{spans.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = WORK / f"last-{args.workload}.json"
    details.write_text(json.dumps(results, indent=1) + "\n")
    for result in results:
        for note in result["notes"]:
            print(f"check failed: {note}", file=sys.stderr)
    failed = sum(result["failed"] for result in results)
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(args, spec) -> int:
    """Two sets of runs per workload: spreads, medians, repeated counts."""
    names = args.workloads or list(wl.WORKLOADS)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    steady = True
    for name in names:
        sets = []
        for _ in range(2):
            runs = [invoke(name, seed, args.seconds, 0)
                    for seed in range(1, args.runs + 1)]
            sets.append(runs)
        print(f"{name}:")
        for metric, bound in bounds.items():
            medians = []
            for index, runs in enumerate(sets):
                values = [run["metrics"][metric]["value"] for run in runs]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median
                medians.append(median)
                ok = metric == "setup_s" or spread <= bound
                steady &= ok
                print(f"  {metric:14s} set {index + 1}: median {median:10.4f}"
                      f"  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}"
                      f"  bound {bound:.2f} {'ok' if ok else 'WIDE'}")
            drift = abs(medians[1] - medians[0]) / medians[0]
            steady &= drift <= bound
            print(f"  {metric:14s} medians differ by {drift:.3f} "
                  f"{'ok' if drift <= bound else 'OVER BOUND'}")
        traces = [invoke(name, wl.DEFAULT_SEED, args.seconds, 1)
                  for _ in range(2)]
        counts = [{key: metric["value"] for key, metric
                   in run["metrics"].items()
                   if metric["unit"] == "count"} for run in traces]
        repeat = counts[0] == counts[1]
        steady &= repeat and all(run["correct"] for run in traces)
        print(f"  per-layer counts repeat exactly: {repeat}")
        for key, value in sorted(traces[0]["metrics"].items()):
            print(f"    {key:28s} {value['value']:.6g} {value['unit']}")
    return 0 if steady else 1


def invoke(workload, seed, seconds, trace):
    """Run this benchmark as the contract's command line does."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", nargs="*", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no repro sources under {ROOT / 'src'}: run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    WORK.mkdir(exist_ok=True)
    if args.steadiness:
        return steadiness(args, spec)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args, spec)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"workload failed: {error}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
