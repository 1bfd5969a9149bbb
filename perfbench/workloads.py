"""Workload definitions and the correctness checks every run applies.

Importing this module does not import ``repro``: the client process
(``run.py``) reads the table below without paying the import.  The
workload process (``local.py``) calls the check helpers, which import
``repro`` lazily.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: The seed whose store digests are pinned in ``pins.json``.
DEFAULT_SEED = 2006
#: A seed no tuning looked at; claims are re-checked on it (oracle check
#: only, since its digests are deliberately not pinned).
HELDOUT_SEED = 4099

#: Timed hit samples (after :data:`HIT_WARMUP` discarded ones).  The p95
#: has 30 samples beyond it: with 200 (ten beyond), resampling the blocks
#: of one run moved its p95 by up to 20%, because the host's slow spells
#: make slow hits come in clusters.
HIT_SAMPLES = 600
HIT_WARMUP = 20
#: Timed renders (after :data:`RENDER_WARMUP` discarded ones).  A
#: ``grid-default`` render takes about 0.2 s, and its time drifts with
#: the host's spells more than a hit's does: with 30 renders in one
#: stretch, the median spread by 17% over five runs.
RENDER_SAMPLES = 45
RENDER_WARMUP = 3
#: Slices per round that alternate hits and renders (see ``local.py``).
SAMPLE_SLICES = 5
#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Records re-run on the decoded engine per run.
ORACLE_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``CampaignSpec`` fields of one round, except ``base_seed``.
    spec: Dict
    #: Execution options passed to ``repro.api.submit``.
    execution: Dict = field(default_factory=dict)
    #: Nominal seconds of one campaign round on the reference box; with
    #: ``--seconds`` it fixes how many rounds a run makes.
    round_s: float = 1.0
    max_rounds: int = 8
    #: What the render phase draws from the store (see README).
    render: str = "records"
    #: Regime signature asserted on every run: ``lockstep`` (about no
    #: lane retired), ``divergent`` (> 1/3 retired, some hangs) or None.
    regime: Optional[str] = None


#: Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="grid-default",
        spec={"suite": "small", "runs_per_cell": 8},
        round_s=34.0, max_rounds=1, render="paper"),
    Workload(
        name="lockstep-protected",
        spec={"suite": "small", "runs_per_cell": 60,
              "apps": ("susan", "blowfish", "adpcm"),
              "modes": ("protected",), "errors": (1, 8)},
        execution={"engine": "batch"},
        round_s=3.75, regime="lockstep"),
    Workload(
        name="divergent-unprotected",
        spec={"suite": "small", "runs_per_cell": 60,
              "apps": ("susan", "blowfish", "mcf"),
              "modes": ("unprotected",), "errors": (4,)},
        execution={"engine": "batch"},
        round_s=2.5, regime="divergent"),
)}


def round_seed(seed: int, round_index: int) -> int:
    """``base_seed`` of one round: round 0 runs the seed itself."""
    return seed + 1009 * round_index


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds a run makes: ``seconds`` of nominal work, at least one."""
    return max(1, min(workload.max_rounds,
                      round(seconds / workload.round_s)))


#: The calibration document: about 10 KB of JSON shaped like a shard of
#: stored records.  Parsing it allocates a few thousand small objects,
#: as reading records and simulating do.  The host's slow spells slow
#: such code more than a loop that stays in registers (README.md gives
#: the measurements).  The parse uses only the standard library, so no
#: change to ``repro`` can move it.
CALIBRATION_DOC = json.dumps([
    {"app": "calibration", "run_index": index, "outcome": "masked",
     "fidelity": index * 0.37,
     "events": [[index, slot, "reg", 3.5] for slot in range(4)]}
    for index in range(60)])
#: Parses per timing, and one timing's length in seconds on the
#: reference box at rest.  Times are rescaled by how much slower the
#: parses run now than that (see :class:`SpeedClock`).
CALIBRATION_PARSES = 10
CALIBRATION_REF_S = 0.00130


def calibration_unit() -> float:
    """Seconds :data:`CALIBRATION_PARSES` parses of the calibration
    document take right now.

    The median of three timings: a timing the host preempted reads two
    or three times too slow and would rescale the work around it by as
    much.  The garbage collector is off meanwhile, as ``timeit`` does: a
    collection the parses set off would walk the whole heap of the
    process, which measures the program's heap, not the host's speed.
    """
    timings = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(CALIBRATION_PARSES):
                json.loads(CALIBRATION_DOC)
            timings.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return sorted(timings)[1]


class SpeedClock:
    """Host time rescaled to the reference box's speed.

    On a shared VM the whole CPU slows down and speeds up by 20% or more
    over seconds to minutes, which no amount of work inside one run
    averages away.  A clock times a fixed parse between pieces of work
    and divides each piece's host time by how much slower than at rest
    the parse ran around it (the mean of the speed factors measured just
    before and just after), so each piece counts as the time it would
    have taken on the reference box at rest.  Calibration time itself
    is never counted.
    """

    def __init__(self) -> None:
        self.factors: List[float] = []
        self.factor = self.measure()
        self.mark = time.perf_counter()

    def measure(self) -> float:
        """One speed factor (1.0 at rest; 1.2 when 20% slower)."""
        factor = calibration_unit() / CALIBRATION_REF_S
        self.factors.append(factor)
        return factor

    def start(self) -> None:
        """Start a piece of work now, with a fresh speed factor."""
        self.factor = self.measure()
        self.mark = time.perf_counter()

    def lap(self) -> Tuple[float, float]:
        """End the piece of work begun at the last start or lap.

        Returns its ``(host seconds, rescaled seconds)`` and starts the
        next piece.
        """
        host = time.perf_counter() - self.mark
        factor = self.measure()
        scaled = host / ((self.factor + factor) / 2.0)
        self.factor = factor
        self.mark = time.perf_counter()
        return host, scaled


#: Short samples (hits, renders) are timed in blocks between
#: calibrations; a block ends once it holds this many seconds of work.
#: A 5-ms hit shares its block with about nine others, so a calibration
#: disturbs one hit in ten; a 0.2-s render has a block of its own, as
#: with blocks of ten renders (2 s or more) the speed the factors
#: measured at the two ends of a block missed the host's shorter spells.
SAMPLE_BLOCK_S = 0.05


def timed_samples(clock: SpeedClock, count: int, operation):
    """Time ``operation()`` ``count`` times.

    Returns one ``(host seconds, rescaled seconds, result)`` per call;
    each call is rescaled by the speed of the block it ran in.
    """
    samples = []
    clock.start()
    block = []
    for index in range(count):
        start = time.perf_counter()
        result = operation()
        block.append((time.perf_counter() - start, result))
        if (index + 1 == count
                or sum(seconds for seconds, _ in block) >= SAMPLE_BLOCK_S):
            host, scaled = clock.lap()
            factor = host / scaled
            samples.extend((seconds, seconds / factor, result)
                           for seconds, result in block)
            block = []
    return samples


class Ops:
    """Attempted and failed operations of one run, with failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def tally(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> bool:
        self.tally(1, 0 if ok else 1, note)
        return ok


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def store_digest(root) -> str:
    """SHA-256 over every shard of a store: relative path, then bytes.

    ``meta.json`` is included; sidecars that are not records
    (``fleet.json``, the lock file) are not.
    """
    root = Path(root)
    digest = hashlib.sha256()
    paths = [root / "meta.json"] + sorted(root.glob("*/*.jsonl"))
    for path in paths:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def load_pins() -> Dict[str, List[str]]:
    return json.loads((HERE / "pins.json").read_text())


def check_digests(ops: Ops, workload: str, seed: int,
                  digests: Sequence[str]) -> None:
    """Pinned digests apply to the default seed only."""
    if seed != DEFAULT_SEED:
        return
    pinned = load_pins().get(workload, [])
    for index, digest in enumerate(digests[:len(pinned)]):
        ops.check(digest == pinned[index],
                  f"round {index} store digest {digest[:12]} != pinned "
                  f"{pinned[index][:12]}")


def oracle_sample(spec, count: int = ORACLE_SAMPLES):
    """A fixed spread of ``(cell, run_index)`` pairs over the spec's grid."""
    cells = spec.cells()
    step = max(1, len(cells) // count)
    picks = []
    for index, cell in enumerate(cells[::step][:count]):
        picks.append((cell, (3 * index + 1) % spec.runs_per_cell))
    return picks


def check_oracle(ops: Ops, spec, store) -> None:
    """Re-run sampled records on the decoded engine; they must be equal."""
    import repro.api as api
    from repro.exec import make_record

    suite = spec.experiment_config().suite()
    config = spec.campaign_config(engine="decoded")
    for cell, run_index in oracle_sample(spec):
        stored = [record for record in api.results(
            store, cell.app_name, cell.mode, cell.errors)
            if record.run_index == run_index]
        fresh = make_record(suite[cell.app_name], config, run_index,
                            cell.errors, cell.mode)
        ops.check(len(stored) == 1
                  and stored[0].to_json() == fresh.to_json(),
                  f"oracle mismatch at {cell.app_name} {cell.mode.value} "
                  f"e={cell.errors} run {run_index}")


def record_counts(specs, stores) -> Dict[str, int]:
    """Counts read from the persisted records of every round."""
    import repro.api as api

    counts = {"records": 0, "lanes": 0, "sim.hang_runs": 0,
              "sim.hang_instructions": 0}
    for spec, store in zip(specs, stores):
        for cell in spec.cells():
            for record in api.results(store, cell.app_name, cell.mode,
                                      cell.errors):
                counts["records"] += 1
                if record.errors_requested > 0:
                    counts["lanes"] += 1
                if record.outcome == "hang":
                    counts["sim.hang_runs"] += 1
                    counts["sim.hang_instructions"] += record.executed
    return counts


def check_regime(ops: Ops, workload: Workload, counts: Dict) -> None:
    """The workload still stresses the regime it exists for."""
    retired = counts.get("sim.lanes_retired", 0)
    lanes = max(1, counts["lanes"])
    if workload.regime == "lockstep":
        ops.check(retired <= 0.02 * lanes,
                  f"lockstep regime lost: {retired}/{lanes} lanes retired")
    elif workload.regime == "divergent":
        ops.check(retired > lanes / 3 and counts["sim.hang_runs"] > 0,
                  f"divergent regime lost: {retired}/{lanes} lanes "
                  f"retired, {counts['sim.hang_runs']} hangs")
