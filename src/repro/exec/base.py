"""Executor protocol: how a campaign cell's runs get executed.

A campaign cell is a list of *run tasks* — ``(run_index, errors, mode)``
tuples — and every injection plan is a pure function of
``(config.base_seed, run_index, errors, config.model)``.  That purity is
the whole contract: an :class:`Executor` may run the tasks in-process, fan them out
over a local process pool, or shard them over TCP to workers on other
hosts, and the resulting :class:`~repro.core.outcomes.RunRecord` stream
must be **bit-identical** in every case (asserted in
``tests/test_executors.py``).

Executors are context managers::

    with create_executor(app, config) as executor:
        records = executor.run([(0, 4, ProtectionMode.PROTECTED), ...])

``run`` always returns records in task order, however the backend
scheduled them.
"""

from __future__ import annotations

import abc
import dataclasses
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.app import ErrorTolerantApp
from ..core.outcomes import RunRecord
from ..sim import ProtectionMode, get_model, plan_injections

#: One campaign run: ``(run_index, errors, mode)``.
RunTask = Tuple[int, int, ProtectionMode]

#: Fault-model names that already triggered the batch-to-decoded fallback
#: warning in this process — state-kind models warn once, not once per run.
_BATCH_FALLBACK_WARNED: set = set()


#: Engines whose error-free records come from the memoized golden run
#: instead of a re-execution.  The ``decoded`` and ``reference`` engines
#: keep executing those runs, so the oracle chain still checks the golden
#: path against them.
GOLDEN_RECORD_ENGINES = ("fork", "batch")


def make_record(app: ErrorTolerantApp, config, run_index: int, errors: int,
                mode: ProtectionMode) -> RunRecord:
    """Execute one campaign run and build its record.

    Shared by every executor backend (and their remote workers), so all
    paths derive the injection plan from identical inputs — the basis of
    the cross-backend determinism guarantee.

    An error-free run (``errors == 0`` or ``mode`` NONE) is the golden
    run itself: under the fork and batch engines its record is built from
    the memoized :class:`GoldenRun` — outcome, instruction count and the
    golden output scored against itself — without executing anything.
    """
    workload_seed = config.workload_seed_for(run_index)
    golden = app.golden(workload_seed)
    model = get_model(config.model)
    if errors <= 0 or mode is ProtectionMode.NONE:
        if config.engine in GOLDEN_RECORD_ENGINES:
            return RunRecord(
                run_index=run_index,
                seed=workload_seed,
                mode=mode,
                errors_requested=errors,
                errors_injected=0,
                outcome=golden.result.outcome,
                executed=golden.executed,
                fidelity=app.golden_fidelity(workload_seed),
                fault_kind=None,
                model=model.name,
            )
        plan = None
    else:
        injection_seed = config.seed_for(run_index) + 104729 * errors
        plan = plan_injections(errors, model.population(golden, mode), mode,
                               seed=injection_seed, model=model.name)
    run = app.run_once(injection=plan, seed=workload_seed, engine=config.engine)
    return _build_record(app, run_index, errors, mode, plan, run,
                         workload_seed, model.name)


def _build_record(app: ErrorTolerantApp, run_index: int, errors: int,
                  mode: ProtectionMode, plan, run, workload_seed: int,
                  model_name: str) -> RunRecord:
    """Score one finished run and assemble its :class:`RunRecord`."""
    fidelity = app.score_run(run, seed=workload_seed)
    return RunRecord(
        run_index=run_index,
        seed=workload_seed,
        mode=mode,
        errors_requested=errors,
        errors_injected=plan.injected_errors if plan is not None else 0,
        outcome=run.outcome,
        executed=run.executed,
        fidelity=fidelity,
        fault_kind=run.fault_kind,
        model=model_name,
    )


def make_records(app: ErrorTolerantApp, config,
                 tasks: Sequence[RunTask]) -> List[RunRecord]:
    """Execute a sequence of campaign run tasks, batching when possible.

    The scalar engines simply map :func:`make_record` over the tasks.
    Under ``config.engine == "batch"`` the injectable tasks are grouped by
    ``(workload_seed, mode)``, chunked to ``config.batch_size`` and fed to
    the numpy lockstep engine (:mod:`repro.sim.batch`); error-free tasks
    keep :func:`make_record`.  Injection plans are derived
    from exactly the same ``(base_seed, run_index, errors, model)`` inputs
    as :func:`make_record`, so the record stream stays bit-identical to
    the scalar engines, in task order.

    State-kind fault models (``supports_fork`` False) cannot start from a
    golden checkpoint, so their cells fall back to the decoded engine with
    a single :class:`RuntimeWarning` per model — not one warning per run.
    """
    tasks = list(tasks)
    if config.engine != "batch" or not tasks:
        return [make_record(app, config, run_index, errors, mode)
                for run_index, errors, mode in tasks]
    model = get_model(config.model)
    if not model.supports_fork:
        if model.name not in _BATCH_FALLBACK_WARNED:
            _BATCH_FALLBACK_WARNED.add(model.name)
            warnings.warn(
                f"fault model {model.name!r} corrupts machine state and "
                f"cannot start from a golden checkpoint; engine='batch' "
                f"falls back to engine='decoded' for its runs",
                RuntimeWarning, stacklevel=2,
            )
        fallback = dataclasses.replace(config, engine="decoded")
        return [make_record(app, fallback, run_index, errors, mode)
                for run_index, errors, mode in tasks]
    records: List[Optional[RunRecord]] = [None] * len(tasks)
    groups: Dict[Tuple[int, ProtectionMode], List[tuple]] = {}
    for pos, (run_index, errors, mode) in enumerate(tasks):
        if errors <= 0 or mode is ProtectionMode.NONE:
            records[pos] = make_record(app, config, run_index, errors, mode)
            continue
        workload_seed = config.workload_seed_for(run_index)
        golden = app.golden(workload_seed)
        population = model.population(golden, mode)
        injection_seed = config.seed_for(run_index) + 104729 * errors
        plan = plan_injections(errors, population, mode, seed=injection_seed,
                               model=model.name)
        groups.setdefault((workload_seed, mode), []).append(
            (pos, run_index, errors, plan))
    batch_size = max(1, getattr(config, "batch_size", 256))
    for (workload_seed, mode), members in groups.items():
        for start in range(0, len(members), batch_size):
            chunk = members[start:start + batch_size]
            runs = app.run_batched([plan for _, _, _, plan in chunk],
                                   seed=workload_seed)
            for (pos, run_index, errors, plan), run in zip(chunk, runs):
                records[pos] = _build_record(app, run_index, errors, mode,
                                             plan, run, workload_seed,
                                             model.name)
    return records  # type: ignore[return-value]


class Executor(abc.ABC):
    """Pluggable backend that executes campaign run tasks.

    Constructed with the application and the campaign config; ``start``
    acquires backend resources (worker processes, TCP connections),
    ``run`` executes one batch of tasks, and ``close`` releases the
    resources.  One executor instance may serve many ``run`` calls — a
    sweep reuses a single warm executor across all of its cells.
    """

    #: Registry name of the backend (``"serial"``, ``"pool"``, ``"socket"``).
    name: str = "abstract"

    def __init__(self, app: ErrorTolerantApp, config) -> None:
        self.app = app
        self.config = config

    def start(self) -> None:
        """Acquire backend resources.  Idempotent for the serial backend."""

    @abc.abstractmethod
    def run(self, tasks: Sequence[RunTask]) -> List[RunRecord]:
        """Execute ``tasks`` and return their records in task order."""

    def close(self) -> None:
        """Release backend resources."""

    def __enter__(self) -> "Executor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
