"""Run one local workload in this (fresh) process; print a JSON result.

``python3 perfbench/local.py WORKLOAD SEED ROUNDS WORKDIR [--trace]``
runs the campaign, hit and render phases through ``repro.api`` and then
checks the records.  ``python3 perfbench/local.py --setup WORKLOAD``
only sets up (import, compile and tag, golden run, checkpoint stores)
and prints ``ready``: the client times that from spawn as ``setup_s``.
``run.py`` starts both; neither is meant to be run by hand.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

import workloads as wl


def setup(workload: wl.Workload) -> None:
    import repro.api  # noqa: F401  (the import is part of set-up)
    import repro.experiments  # noqa: F401
    from repro.service.spec import CampaignSpec

    spec = CampaignSpec(**workload.spec)
    suite = spec.experiment_config().suite()
    for name in {cell.app_name for cell in spec.cells()}:
        suite[name].program()
        suite[name].warm(seeds=(0,), checkpoints=True)
    print("ready", flush=True)
    # The speed this process ran at, for rescaling (outside the timing).
    factors = [wl.SpeedClock().measure() for _ in range(5)]
    print(sorted(factors)[2], flush=True)


def render(workload: wl.Workload, spec, store) -> bool:
    """Draw what a round's store holds in full; True when complete.

    ``paper``: Table 2 and every figure, as text.  ``records``: no paper
    artefact is complete in these stores, so every cell's records.
    """
    import repro.api as api

    if workload.render == "paper":
        text = [table.to_text() for table in api.tables(store, [2])]
        text += [figure.to_table() for figure in api.figures(store)]
        return all(text)
    return all(len(api.results(store, cell.app_name, cell.mode, cell.errors))
               == spec.runs_per_cell for cell in spec.cells())


def shares(total: int, parts: int):
    """``total`` split into ``parts`` counts that differ by at most one."""
    return [total // parts + (1 if part < total % parts else 0)
            for part in range(parts)]


def main(argv) -> int:
    if argv[0] == "--setup":
        setup(wl.WORKLOADS[argv[1]])
        return 0
    workload = wl.WORKLOADS[argv[0]]
    seed, rounds, workdir = int(argv[1]), int(argv[2]), Path(argv[3])
    traced = "--trace" in argv[4:]

    import repro.api as api
    import repro.experiments  # noqa: F401  (import stays out of timing)
    from repro.service.spec import CampaignSpec

    import tracer

    capture = tracer.capture_stores()
    trace = None
    if traced:
        trace = tracer.Tracer()
        tracer.install(trace)
        # Calibration is the benchmark's own time, never a layer's.
        wl.calibration_unit = functools.partial(
            trace.span, "bench.calibration", wl.calibration_unit)
    ops = wl.Ops()
    specs = [CampaignSpec(base_seed=wl.round_seed(seed, index),
                          **workload.spec) for index in range(rounds)]
    stores = [str(workdir / f"round{index}") for index in range(rounds)]
    clock = wl.SpeedClock()

    # Every round runs the campaign into a fresh store, then takes its
    # share of the hit and render samples from that store, in slices
    # that alternate hits and renders, so both kinds of sample spread
    # over the whole run instead of one stretch of it each.
    hit_slices = shares(wl.HIT_SAMPLES, rounds * wl.SAMPLE_SLICES)
    render_slices = shares(wl.RENDER_SAMPLES, rounds * wl.SAMPLE_SLICES)
    engine = Counter()
    rounds_host, rounds_s = [], []
    hit_phase, hits, render_phase, renders = [], [], [], []
    runs = 0
    for index, (spec, store) in enumerate(zip(specs, stores)):
        capture.clear()
        laps = []
        clock.start()
        job = api.submit(spec, store=store,
                         progress=lambda _line: laps.append(clock.lap()),
                         **workload.execution)
        laps.append(clock.lap())
        rounds_host.append(sum(host for host, _ in laps))
        rounds_s.append(sum(scaled for _, scaled in laps))
        engine.update(capture.counters())
        report = job["report"]
        runs += report["runs_executed"]
        expected = len(spec.cells()) * spec.runs_per_cell
        ops.tally(report["cells_total"],
                  report["cells_total"] - report["cells_complete"],
                  f"round seed {spec.base_seed}: cells left incomplete")
        ops.check(report["runs_executed"] == expected,
                  f"round seed {spec.base_seed}: "
                  f"{report['runs_executed']}/{expected} runs")

        def hit(spec=spec, store=store):
            return api.submit(spec, store=store, **workload.execution)

        def draw(spec=spec, store=store):
            return render(workload, spec, store)

        if index == 0:
            hit_phase += wl.timed_samples(clock, wl.HIT_WARMUP, hit)
            render_phase += wl.timed_samples(clock, wl.RENDER_WARMUP, draw)
        for _ in range(wl.SAMPLE_SLICES):
            samples = wl.timed_samples(clock, hit_slices.pop(), hit)
            hit_phase += samples
            hits += samples
            samples = wl.timed_samples(clock, render_slices.pop(), draw)
            render_phase += samples
            renders += samples
    for _, _, job in hits:
        ops.check(job["state"] == "complete"
                  and job["report"]["runs_executed"] == 0,
                  "a hit executed runs or left cells incomplete")
    for _, _, complete in renders:
        ops.check(complete, "a render found a cell incomplete")
    rss = wl.peak_rss_mb()
    layers, counts = {}, {}
    if trace is not None:
        counts = dict(trace.counts)
        layers = trace.summary()
        trace.dump(workdir / "local.spans.json")

    # Checks, outside every timed region.
    digests = [wl.store_digest(store) for store in stores]
    wl.check_digests(ops, workload.name, seed, digests)
    wl.check_oracle(ops, specs[0], stores[0])
    counts.update(engine)
    counts.update(wl.record_counts(specs, stores))
    wl.check_regime(ops, workload, counts)

    print(json.dumps({
        "runs": runs, "round_s": rounds_s, "round_host_s": rounds_host,
        "hit_ms": [scaled * 1000.0 for _, scaled, _ in hits],
        "hit_host_ms": [host * 1000.0 for host, _, _ in hits],
        "render_ms": [scaled * 1000.0 for _, scaled, _ in renders],
        "render_host_ms": [host * 1000.0 for host, _, _ in renders],
        "phases": {"campaign": sum(rounds_host),
                   "hit": sum(host for host, _, _ in hit_phase),
                   "render": sum(host for host, _, _ in render_phase)},
        "scaled_s": (sum(rounds_s)
                     + sum(scaled for _, scaled, _ in hit_phase)
                     + sum(scaled for _, scaled, _ in render_phase)),
        "speed": statistics.median(clock.factors), "peak_rss_mb": rss,
        "attempted": ops.attempted, "failed": ops.failed, "notes": ops.notes,
        "digests": digests, "counts": counts, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
