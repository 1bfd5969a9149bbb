#!/usr/bin/env python
"""Benchmark regression gate: BENCH_*.json vs the committed baselines.

Two reports are gated:

* ``BENCH_interp.json`` (written by ``benchmarks/test_perf_interpreter.py``)
  against ``benchmarks/baseline_interp.json`` — per-app and total decoded
  engine speedups over the preserved seed interpreter;
* ``BENCH_campaign.json`` (written by ``benchmarks/test_perf_campaign.py``)
  against ``benchmarks/baseline_campaign.json`` — the fork engine's
  campaign-cell speedup over the full-run path, plus the bit-identity flag;
* ``BENCH_batch.json`` (written by ``benchmarks/test_perf_batch.py``)
  against ``benchmarks/baseline_batch.json`` — the lockstep batch engine's
  campaign-cell speedup over the fork engine, plus its bit-identity flag;
  and, on the unprotected divergent cell, each engine's normalised
  throughput (runs per golden-run time) plus that cell's identity flag.

A measured speedup below ``baseline * (1 - tolerance)`` fails the gate
(exit 1).  The tolerance band is wide by default because CI machines are
noisy and smoke mode uses a single timing repetition — the gate exists to
catch a speedup getting *structurally* slower (a 12x speedup quietly
decaying to 4x), not 10% jitter.

Usage::

    python benchmarks/check_bench_regression.py [--tolerance 0.5]

Run both benchmarks first so the BENCH JSONs exist at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

INTERP_BENCH_PATH = REPO_ROOT / "BENCH_interp.json"
INTERP_BASELINE_PATH = Path(__file__).with_name("baseline_interp.json")
CAMPAIGN_BENCH_PATH = REPO_ROOT / "BENCH_campaign.json"
CAMPAIGN_BASELINE_PATH = Path(__file__).with_name("baseline_campaign.json")
BATCH_BENCH_PATH = REPO_ROOT / "BENCH_batch.json"
BATCH_BASELINE_PATH = Path(__file__).with_name("baseline_batch.json")


def _baseline_block(bench: dict, baseline_path: Path) -> tuple:
    # Smoke-mode runs (shrunken workloads, one timing repetition) measure
    # systematically different speedups than full runs, so each mode is
    # gated against its own committed baseline — the tolerance band then
    # covers machine noise only, not the mode mismatch.
    mode = "smoke" if bench.get("smoke") else "full"
    return mode, json.loads(baseline_path.read_text())[mode]


def _gate_rows(title: str, rows, tolerance: float) -> list:
    """Print measured-vs-baseline rows; return the names that regressed."""
    failures = []
    print(f"{title} (tolerance band: -{tolerance:.0%})")
    for name, measured, expected in rows:
        floor = expected * (1.0 - tolerance)
        status = "ok" if measured >= floor else "REGRESSED"
        if measured < floor:
            failures.append(name)
        print(f"  {name:10s} measured {measured:6.2f}x  baseline {expected:6.2f}x"
              f"  floor {floor:6.2f}x  {status}")
    return failures


def check_interp(tolerance: float) -> int:
    bench = json.loads(INTERP_BENCH_PATH.read_text())
    mode, baseline = _baseline_block(bench, INTERP_BASELINE_PATH)

    missing = sorted(set(baseline["apps"]) - set(bench["apps"]))
    if missing:
        # An app silently vanishing from the benchmark would otherwise
        # shrink the gate's coverage without anyone noticing.
        print(f"FAIL: baseline apps missing from BENCH_interp.json: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    rows = [("TOTAL", bench["total"]["speedup"], baseline["total_speedup"])]
    rows += [
        (name, bench["apps"][name]["speedup"], expected)
        for name, expected in sorted(baseline["apps"].items())
    ]
    failures = _gate_rows(f"interpreter gate ({mode} baseline)", rows, tolerance)
    if failures:
        print(f"FAIL: interpreter speedup regression in {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def check_campaign(tolerance: float) -> int:
    bench = json.loads(CAMPAIGN_BENCH_PATH.read_text())
    mode, baseline = _baseline_block(bench, CAMPAIGN_BASELINE_PATH)

    if not bench.get("identical_records", False):
        # The speedup is meaningless if the fork engine stopped being
        # bit-identical to the full-run path.
        print("FAIL: BENCH_campaign.json reports identical_records=false",
              file=sys.stderr)
        return 1
    failures = _gate_rows(f"campaign gate ({mode} baseline)",
                          [("fork-cell", bench["speedup"], baseline["speedup"])],
                          tolerance)
    if failures:
        print("FAIL: campaign fork-engine speedup regression", file=sys.stderr)
        return 1
    return 0


def check_batch(tolerance: float) -> int:
    bench = json.loads(BATCH_BENCH_PATH.read_text())
    mode, baseline = _baseline_block(bench, BATCH_BASELINE_PATH)

    if not bench.get("identical_records", False):
        # The speedup is meaningless if the batch engine stopped being
        # bit-identical to the fork-engine record stream.
        print("FAIL: BENCH_batch.json reports identical_records=false",
              file=sys.stderr)
        return 1
    failures = _gate_rows(f"batch gate ({mode} baseline)",
                          [("batch-cell", bench["speedup"], baseline["speedup"])],
                          tolerance)
    if failures:
        print("FAIL: campaign batch-engine speedup regression", file=sys.stderr)
        return 1
    unprotected = bench.get("unprotected")
    if unprotected is None or not unprotected.get("identical_records", False):
        print("FAIL: BENCH_batch.json has no unprotected cell, or its fork "
              "and batch records differ", file=sys.stderr)
        return 1
    rows = [(f"div-{engine}",
             unprotected[engine]["normalised_throughput"],
             baseline[f"unprotected_{engine}"])
            for engine in ("fork", "batch")]
    failures = _gate_rows(f"divergent-cell gate ({mode} baseline, runs per "
                          f"golden-run time)", rows, tolerance)
    if failures:
        print(f"FAIL: divergent-cell throughput regression in "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


#: The pytest invocation that (re)generates each gated BENCH report.
#: The reports are build artifacts — gitignored, never committed — so a
#: missing file means "run the benchmarks first", not a repo bug.
BENCH_SOURCES = {
    INTERP_BENCH_PATH: "python -m pytest benchmarks/test_perf_interpreter.py -q -s",
    CAMPAIGN_BENCH_PATH: "python -m pytest benchmarks/test_perf_campaign.py -q -s",
    BATCH_BENCH_PATH: "python -m pytest benchmarks/test_perf_batch.py -q -s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional drop below baseline (default 0.5)")
    args = parser.parse_args()
    status = 0
    for path, check in ((INTERP_BENCH_PATH, check_interp),
                        (CAMPAIGN_BENCH_PATH, check_campaign),
                        (BATCH_BENCH_PATH, check_batch)):
        if not path.exists():
            print(f"{path.name} not found: the BENCH reports are generated "
                  f"(and gitignored), so run the benchmarks first:\n"
                  f"    {BENCH_SOURCES[path]}\n"
                  f"then re-run this gate.", file=sys.stderr)
            return 2
        status = max(status, check(args.tolerance))
    if status == 0:
        print("PASS: all speedups within the tolerance band")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
