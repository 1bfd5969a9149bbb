"""Batch-engine performance benchmark: lockstep cell vs the fork engine.

Times one injected campaign cell under ``engine="fork"`` (PR 2's
checkpoint-and-splice path, one run at a time) and ``engine="batch"`` (the
numpy lockstep engine of :mod:`repro.sim.batch`, which walks the golden
trace once and carries every run of the cell as a divergence column), and
writes the numbers to ``BENCH_batch.json`` at the repository root.

The two campaigns must produce **bit-identical** records (also asserted at
matrix scale in ``tests/test_fork_engine.py``); here the check guards the
timed configuration itself.  Smoke mode (``REPRO_BENCH_SMOKE=1``, used by
CI) shrinks the cell and relaxes the speedup floor; the full run uses the
24x24-pixel Susan cell of 240 runs — the same cell ``BENCH_campaign.json``
reports — and requires the >=10x over the fork engine the batch engine is
built to deliver.

A second, unprotected 4-error Susan cell covers the divergent regime: a
third or more of its lanes retire from the lockstep walk to the fork
engine's scalar path, and in the full cell some runs hang.  Both engines time it, their records
must be equal, and the report gives absolute runs/s, the scalar path's
replayed and skipped instruction counts, and each engine's normalised
throughput: runs per golden-run time, the cell's runs/s times the time one
decoded golden run of the same workload takes in the same process, so a
slower or faster machine cancels out.  ``check_bench_regression.py`` gates
the normalised throughputs, which a slowdown of the scalar path moves for
both engines alike, where the speedup ratio above would not see it.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.apps import create_app
from repro.core import CampaignConfig, CampaignRunner
from repro.sim import ProtectionMode

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_batch.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Benchmark cell: identical to ``benchmarks/test_perf_campaign.py`` so the
#: fork timing is directly comparable across the two reports.
APP_NAME = "susan"
APP_KWARGS = {"width": 16, "height": 16} if SMOKE else {"width": 24, "height": 24}
RUNS = 60 if SMOKE else 240
ERRORS = 1
MODE = ProtectionMode.PROTECTED
MIN_SPEEDUP = 4.0 if SMOKE else 10.0

#: The divergent cell: unprotected, 4 errors per run.
UNPROTECTED_RUNS = 30 if SMOKE else 120
UNPROTECTED_ERRORS = 4
UNPROTECTED_MODE = ProtectionMode.UNPROTECTED


def _time_cell(engine: str, runs: int = RUNS, errors: int = ERRORS,
               mode: ProtectionMode = MODE):
    """Run the benchmark cell on a pre-warmed application under ``engine``.

    Compilation, tagging, the golden run, and the checkpoint-store capture
    happen *outside* the timed region: a sweep pays that setup once per
    application and then executes many cells against it, so per-cell
    throughput — the number this gate defends — is the cell alone.  (The
    cold-start comparison lives in ``benchmarks/test_perf_campaign.py``.)
    """
    app = create_app(APP_NAME, **APP_KWARGS)
    runner = CampaignRunner(
        app, CampaignConfig(runs=runs, base_seed=314, engine=engine)
    )
    runner.warm_goldens()
    start = time.perf_counter()
    cell = runner.run_campaign(errors, mode)
    elapsed = time.perf_counter() - start
    return cell, elapsed, app


def _golden_s(app) -> float:
    """Fastest of nine decoded golden runs of the app's workload 0.

    The garbage collector is off meanwhile, as ``timeit`` does: a
    collection would walk the heap the timed cells left behind, which
    measures the benchmark's own history, not the machine's speed.
    """
    timings = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(9):
            machine = app._make_machine(app.workload(0))
            start = time.perf_counter()
            machine.run()
            timings.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return min(timings)


def _unprotected_report():
    """Time the divergent cell on both engines; return its report block."""
    block = {"runs": UNPROTECTED_RUNS, "errors": UNPROTECTED_ERRORS,
             "mode": UNPROTECTED_MODE.value}
    cells = {}
    for engine in ("fork", "batch"):
        cell, seconds, app = _time_cell(engine, UNPROTECTED_RUNS,
                                        UNPROTECTED_ERRORS, UNPROTECTED_MODE)
        store = app.golden(0).checkpoint_store
        cells[engine] = cell
        block[engine] = {
            "seconds": round(seconds, 6),
            "runs_per_s": round(UNPROTECTED_RUNS / seconds, 3),
            "retired_runs": store.batch_retired_runs,
            "replayed_instructions": store.replayed_instructions,
            "skipped_instructions": store.skipped_instructions,
            "cycle_hangs": store.cycle_hangs,
        }
    golden_s = _golden_s(app)
    block["golden_s"] = round(golden_s, 6)
    for engine in ("fork", "batch"):
        block[engine]["normalised_throughput"] = round(
            block[engine]["runs_per_s"] * golden_s, 3)
    block["identical_records"] = cells["batch"].records == cells["fork"].records
    block["hangs"] = sum(record.outcome == "hang"
                         for record in cells["fork"].records)
    return block


def test_perf_batch_writes_benchmark_json(show):
    fork_cell, fork_s, _ = _time_cell("fork")
    batch_cell, batch_s, batch_app = _time_cell("batch")
    unprotected = _unprotected_report()

    identical = batch_cell.records == fork_cell.records
    speedup = fork_s / batch_s
    store = batch_app.golden(0).checkpoint_store
    retired = store.batch_retired_runs if store is not None else 0

    report = {
        "schema": "batch-bench-v1",
        "smoke": SMOKE,
        "cell": {
            "app": APP_NAME,
            "app_kwargs": APP_KWARGS,
            "runs": RUNS,
            "errors": ERRORS,
            "mode": MODE.value,
            "golden_instructions": batch_app.golden(0).executed,
        },
        "fork_s": round(fork_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(speedup, 2),
        "identical_records": identical,
        "batch": {
            # Lanes the lockstep engine could not carry and handed to the
            # fork engine's scalar path (0 on this cell: every divergence
            # stays data-only, the paper's point about protecting control).
            "retired_runs": retired,
            "batch_size": 256,
        },
        "outcomes": {
            "failures_pct": batch_cell.failure_percent,
            "acceptable_pct": batch_cell.acceptable_percent,
        },
        "unprotected": unprotected,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    show(
        f"batch cell: {APP_NAME}{APP_KWARGS} x {RUNS} runs, "
        f"{ERRORS} error(s), {MODE.value}\n"
        f"  fork  (checkpointed): {fork_s:8.3f}s\n"
        f"  batch (lockstep):     {batch_s:8.3f}s   -> {speedup:.2f}x\n"
        f"  retired {retired}/{RUNS} lanes to the scalar path, "
        f"identical={identical}\n"
        f"unprotected cell: {UNPROTECTED_RUNS} runs, "
        f"{UNPROTECTED_ERRORS} errors, {unprotected['hangs']} hangs, "
        f"identical={unprotected['identical_records']}\n"
        + "".join(
            f"  {engine:5s} {block['runs_per_s']:8.2f} runs/s  "
            f"{block['normalised_throughput']:6.2f} runs/golden-run  "
            f"retired {block['retired_runs']}  "
            f"replayed {block['replayed_instructions']}  "
            f"skipped {block['skipped_instructions']}\n"
            for engine, block in ((engine, unprotected[engine])
                                  for engine in ("fork", "batch")))
    )

    assert identical, "batch campaign diverged from the fork runner"
    assert unprotected["identical_records"], (
        "unprotected batch campaign diverged from the fork runner")
    assert speedup >= MIN_SPEEDUP, (
        f"batch-engine campaign speedup regressed to {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP}x, smoke={SMOKE})"
    )
