"""Timing wrappers installed around calls into each layer of ``repro``.

The benchmark never edits ``src/``: :func:`install` replaces a fixed set
of module and class attributes with wrappers that record a span per
call (name, start, end, parent, thread) and bump counters.  Spans stay
in memory; :meth:`Tracer.summary` folds them into per-layer self times
(a span's duration minus the time its child spans cover) and
:meth:`Tracer.dump` writes them out at the end of a run.

:func:`capture_stores` is the only hook untraced runs install: it keeps
a reference to every golden checkpoint store a campaign builds (once
per app, never per run) so every run can read the engine counters that
assert its workload's regime.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from typing import Callable, Dict, List

#: Engine counters kept on ``repro.sim.fork.CheckpointStore``, under the
#: per-layer metric name each is reported as.
STORE_COUNTERS = {
    "sim.forked_runs": "forked_runs",
    "sim.spliced_runs": "spliced_runs",
    "sim.replayed_instructions": "replayed_instructions",
    "sim.lanes_retired": "batch_retired_runs",
}


class StoreCapture:
    """Checkpoint stores built since the last :meth:`clear`."""

    def __init__(self) -> None:
        self.stores: List = []

    def clear(self) -> None:
        self.stores = []

    def counters(self) -> Dict[str, int]:
        return {name: sum(getattr(store, attr) for store in self.stores)
                for name, attr in STORE_COUNTERS.items()}


def capture_stores() -> StoreCapture:
    """Record every checkpoint store ``ErrorTolerantApp`` builds."""
    import repro.core.app as app_module

    capture = StoreCapture()
    original = app_module.build_checkpoint_store

    @functools.wraps(original)
    def build(*args, **kwargs):
        store = original(*args, **kwargs)
        capture.stores.append(store)
        return store

    app_module.build_checkpoint_store = build
    return capture


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, thread id]``.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                  threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def inside(self, name: str) -> bool:
        """True when the innermost open span of this thread is ``name``."""
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]][0] == name

    def summary(self) -> Dict[str, float]:
        """Self seconds per span name."""
        return self_times(self.spans)

    def dump(self, path) -> None:
        """Write spans and counters as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      handle)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus the time
    its child spans cover."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _thread in spans:
        # A span still open (end 0.0) has no duration yet.
        if end >= start and parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent, _thread) in enumerate(spans):
        if end >= start:
            totals[name] = (totals.get(name, 0.0)
                            + (end - start) - child_time[index])
    return totals


def _patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions with spans of ``tracer``.

    Layers are named after the ``repro`` package that owns the function.
    Calls that hit a cache (a compiled program, a memoized golden run)
    record no span, so a layer's time is the work it did.
    """
    import repro.api as api
    import repro.exec as exec_pkg
    import repro.exec.base as exec_base
    import repro.sim.batch as batch
    from repro.core.app import ErrorTolerantApp
    from repro.core.store import ShardStore
    from repro.experiments.sweep import SweepOrchestrator

    counts = tracer.counts
    span = tracer.span

    def compile_program(original):
        def program(self):
            if self._program is not None:
                return original(self)
            counts["compiler.programs"] += 1
            return span("compiler.compile", original, self)
        return program

    def golden(original):
        def wrapper(self, seed=0):
            if seed in self._goldens:
                return original(self, seed)
            run = span("sim.golden", original, self, seed)
            counts["sim.golden_instructions"] += run.executed
            return run
        return wrapper

    def checkpoint_store(original):
        def wrapper(self, seed=0):
            cached = self._goldens.get(seed)
            if cached is not None and cached.checkpoint_store is not None:
                return cached.checkpoint_store
            store = span("sim.checkpoint", original, self, seed)
            counts["sim.checkpoints"] += len(store.checkpoints)
            return store
        return wrapper

    def run_once(original):
        def wrapper(self, injection=None, *args, **kwargs):
            if injection is None or not injection.targets:
                counts["sim.errorfree_runs"] += 1
                return span("sim.errorfree", original, self, injection,
                            *args, **kwargs)
            counts["sim.scalar_runs"] += 1
            return span("sim.scalar", original, self, injection,
                        *args, **kwargs)
        return wrapper

    def score_run(original):
        def wrapper(self, result, *args, **kwargs):
            fidelity = span("core.score", original, self, result,
                            *args, **kwargs)
            if fidelity is not None:
                counts["core.scored_runs"] += 1
            return fidelity
        return wrapper

    def append_records(original):
        def wrapper(self, app_name, mode, errors, records):
            path = self.shard_path(app_name, mode, errors)
            before = path.stat().st_size if path.exists() else 0
            result = span("core.append", original, self, app_name, mode,
                          errors, records)
            counts["core.appends"] += 1
            counts["core.bytes_appended"] += path.stat().st_size - before
            return result
        return wrapper

    def read(original):
        def wrapper(self, *args, **kwargs):
            if not tracer.inside("core.read"):
                counts["core.reads"] += 1
            return span("core.read", original, self, *args, **kwargs)
        return wrapper

    def plain(name, count=None):
        def make(original):
            def wrapper(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                return span(name, original, *args, **kwargs)
            return wrapper
        return make

    def lockstep(original):
        def wrapper(machine, plans, *args, **kwargs):
            counts["sim.lanes"] += len(plans)
            return span("sim.lockstep", original, machine, plans,
                        *args, **kwargs)
        return wrapper

    _patch(ErrorTolerantApp, "program", compile_program)
    _patch(ErrorTolerantApp, "golden", golden)
    _patch(ErrorTolerantApp, "checkpoint_store", checkpoint_store)
    _patch(ErrorTolerantApp, "run_once", run_once)
    _patch(ErrorTolerantApp, "score_run", score_run)
    _patch(exec_base, "plan_injections", plain("sim.plan", "sim.plans"))
    _patch(batch, "run_batched", lockstep)
    _patch(batch, "run_forked", plain("sim.replay", "sim.replays"))
    _patch(ShardStore, "append_records", append_records)
    _patch(ShardStore, "load_records", read)
    _patch(ShardStore, "missing_indices", read)
    _patch(SweepOrchestrator, "status", plain("experiments.status"))
    _patch(SweepOrchestrator, "run", plain("experiments.sweep"))
    for executor in (exec_pkg.SerialExecutor, exec_pkg.BatchExecutor,
                     exec_pkg.PoolExecutor, exec_pkg.SocketExecutor):
        if "run" in vars(executor):
            _patch(executor, "run", plain("exec.run", "exec.chunks"))
    _patch(api, "submit", plain("api.submit"))
    _patch(api, "tables", plain("experiments.tables"))
    _patch(api, "figures", plain("experiments.figures"))
