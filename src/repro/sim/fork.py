"""Checkpoint-and-fork execution engine for injected runs.

A fault-injection campaign re-executes the *same* program on the *same*
workload hundreds to thousands of times; the runs differ only in where the
soft errors land.  Everything before a run's first injection site is
bit-identical to the memoized golden run, and a fully-masked fault makes the
*suffix* bit-identical too.  This module makes injected runs cost
O(divergence) instead of O(program length):

* :func:`build_checkpoint_store` re-executes the golden run once per
  workload seed and snapshots machine state (registers, memory cells
  touched since the previous snapshot, program counter, execution-count
  vector, per-mode exposed-dynamic counters) at periodic instruction-count
  checkpoints.
* :func:`run_forked` restores the nearest checkpoint at or before the
  run's first injection target and simulates forward from there.
* **Skip-ahead**: the run's site counter is the summed execution count of
  the exposed instructions of the plan's stream, and one instruction
  advances it by at most one, so ``targets[fired] - counter`` instructions
  on the fast handler table can never pass the next target.  The
  injection wrappers (:meth:`DecodedProgram.bind_injected`, their shared
  ``state`` seeded with ``[fired, counter]``) only execute the short
  stretch just before each target.
* **Convergence early-exit**: once every planned injection has fired, the
  engine compares machine state against the golden trace at each
  checkpoint-grid boundary (registers and pc directly, memory against an
  incrementally maintained golden shadow image).  On re-convergence the
  golden suffix is spliced in — outputs, remaining execution counts, final
  memory image, exit value — and the run terminates immediately, so
  fully-masked faults cost little more than the replay gap.

* **Periodic hangs**: once every injection has fired and no golden
  checkpoint is left to splice against, the tail runs under Brent's cycle
  detection over pc, both register files, the memory cells and the output
  lengths.  With every fault fired, the next state is a function of
  exactly that state, so an exact repeat after ``period`` instructions
  repeats until the watchdog: the run adds the ``k`` whole periods left in
  the budget to ``executed`` and ``k`` times the per-pc count delta to the
  execution counts, executes the last partial period, and hangs at the
  same dynamic index, with the same state, as a full run.  A run past the
  golden length that stops reaching sites short of a pending target gets
  the same treatment with the wrappers bound and their state compared
  too: a repeat then executed no site, so the target never fires.  Loops
  that count never repeat and run out the budget as before.

The comparisons are *exact*, not probabilistic: a splice happens only when
registers, pc, per-channel output lengths and the full memory image equal
the golden state at the same dynamic instruction index, which (execution
being deterministic) guarantees the spliced :class:`RunResult` is
bit-identical to what a full run would have produced; a cycle is taken
only on the same state down to value types and the sign of zero.  Runs
that do neither — crashes, counting hangs, persistently corrupted state —
run to their natural end under the exact semantics of the decoded
engine, including watchdog and fault behaviour.

Error-free runs never reach this module: under the fork and batch engines
their records come from the memoized golden run
(:func:`repro.exec.base.make_record`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import copysign
from typing import Dict, List, Optional

from ..isa.registers import RV
from .decode import DecodedProgram, decode_program
from .errors import SimFault, WatchdogExpired
from .faults import InjectionPlan, ProtectionMode

#: Default number of checkpoints captured over a golden run.  The grid
#: interval is ``golden_executed // count``: finer grids shorten both the
#: replay gap and the convergence-detection latency, at the cost of capture
#: time and snapshot memory.
DEFAULT_CHECKPOINT_COUNT = 128
#: A forked run binds the injection wrappers once the next target is at
#: most this many exposed instructions away; farther targets are
#: approached on the fast handler table.
WRAP_GAP = 64
#: Instructions per wrapped stretch: after each, the run reads the
#: wrappers' target pointer and site counter to decide how to go on.
WRAP_STRETCH = 128
#: Instructions in the first cycle-detection window of a run's tail; each
#: further window is twice as long (Brent's power-of-two schedule).
CYCLE_WINDOW = 1024


class _TrackingCells(dict):
    """Dict subclass that logs written keys, for incremental memory deltas.

    The capture run swaps this in for ``Memory.cells`` *before* binding
    handlers, so every store — all of which go through plain item
    assignment — lands in ``touched``.  Reads (``get``) stay on the C fast
    path.
    """

    __slots__ = ("touched",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.touched = set()

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        self.touched.add(key)


@dataclass
class Checkpoint:
    """Machine state at one instruction-count grid point of the golden run.

    ``memory_delta`` holds only the cells written since the previous
    checkpoint; the full image at this point is the run's base image plus
    all deltas up to and including this one, applied in order (cells are
    never deleted during a run).  ``output_lens`` exploits that outputs are
    append-only: the golden outputs at this point are a prefix of the final
    golden outputs, so only the per-channel lengths are stored.
    """

    executed: int
    pc: int
    int_regs: List[int]
    float_regs: List[float]
    memory_delta: Dict[int, float]
    output_lens: Dict[int, int]
    exec_counts: List[int]
    exposed_protected: int
    exposed_unprotected: int

    def exposed_count(self, mode: ProtectionMode) -> int:
        if mode is ProtectionMode.PROTECTED:
            return self.exposed_protected
        if mode is ProtectionMode.UNPROTECTED:
            return self.exposed_unprotected
        return 0


@dataclass
class CheckpointStore:
    """Golden-run checkpoint trace plus final artefacts for suffix splicing.

    Built once per (program, workload) by :func:`build_checkpoint_store`;
    consumed by every injected run of the campaign cell.  Checkpoint ``j``
    sits at dynamic index ``j * interval`` (checkpoint 0 is the run start),
    so the fork loop can align its own instruction counter with the golden
    grid.  The store is deliberately **not** shipped to campaign worker
    processes (see ``GoldenRun.__getstate__``); workers rebuild it from the
    decode cache on first use.
    """

    program: object
    interval: int
    checkpoints: List[Checkpoint]
    base_cells: Dict[int, float]
    final_cells: Dict[int, float]
    final_outputs: Dict[int, List[float]]
    final_exec_counts: List[int]
    final_executed: int
    exit_value: Optional[int]

    # Telemetry for benchmarks: how much work forked runs actually did.
    forked_runs: int = 0
    spliced_runs: int = 0
    #: Dynamic instructions forked runs covered past their restore point
    #: (``executed - start.executed``), counting instructions a cycle
    #: jump accounted for without executing them.
    replayed_instructions: int = 0
    #: Forked runs whose tail repeated its state exactly and jumped whole
    #: periods forward to the watchdog.
    cycle_hangs: int = 0
    #: Instructions those jumps accounted for without executing them (a
    #: part of ``replayed_instructions``).
    skipped_instructions: int = 0
    #: Lanes the lockstep batch engine (:mod:`repro.sim.batch`) could not
    #: carry and handed to :func:`run_forked` as scalar runs.
    batch_retired_runs: int = 0

    _exposed_grid: Dict[ProtectionMode, List[int]] = field(default_factory=dict)

    def exposed_grid(self, mode: ProtectionMode) -> List[int]:
        grid = self._exposed_grid.get(mode)
        if grid is None:
            grid = [ckpt.exposed_count(mode) for ckpt in self.checkpoints]
            self._exposed_grid[mode] = grid
        return grid

    def select(self, first_target: int, mode: ProtectionMode,
               max_instructions: int) -> int:
        """Index of the nearest checkpoint at or before the first target.

        A target is an index into the exposed dynamic stream; the chosen
        checkpoint is the last one whose exposed-dynamic counter has not yet
        passed it.  The checkpoint must also lie strictly inside the
        instruction budget so a tiny budget hangs at exactly the same
        dynamic index as a from-scratch run would.
        """
        index = bisect_right(self.exposed_grid(mode), first_target) - 1
        while index > 0 and self.checkpoints[index].executed >= max_instructions:
            index -= 1
        return index


def _snapshot(machine, decoded: DecodedProgram, executed: int, pc: int,
              exec_counts: List[int], delta: Dict[int, float]) -> Checkpoint:
    classes = decoded.classes
    count_at = exec_counts.__getitem__
    return Checkpoint(
        executed=executed,
        pc=pc,
        int_regs=list(machine.int_regs),
        float_regs=list(machine.float_regs),
        memory_delta=delta,
        output_lens={ch: len(values) for ch, values in machine.outputs.items()},
        exec_counts=list(exec_counts),
        exposed_protected=sum(map(count_at, classes.exposed_protected)),
        exposed_unprotected=sum(map(count_at, classes.exposed_unprotected)),
    )


def build_checkpoint_store(machine, expected,
                           count: int = DEFAULT_CHECKPOINT_COUNT) -> CheckpointStore:
    """Re-execute the golden run on ``machine``, capturing checkpoints.

    ``machine`` must be freshly constructed with the workload applied but
    not yet run; ``expected`` is the memoized golden :class:`RunResult` for
    the same workload, used to size the checkpoint grid and to verify that
    the capture run reproduced it exactly (a cheap one-time guard against
    the capture loop ever drifting from the engine it mirrors).
    """
    decoded = decode_program(machine.program)
    text_len = decoded.text_len
    interval = max(1, expected.executed // max(1, count))

    tracked = _TrackingCells(machine.memory.cells)
    machine.memory.cells = tracked
    base_cells = dict(tracked)

    # Handlers must bind *after* the swap so stores hit the tracking dict.
    handlers = decoded.bind(machine)
    exec_counts = [0] * text_len
    pc = decoded.entry_index
    executed = 0
    guard = expected.executed  # golden runs complete in exactly this many

    checkpoints = [_snapshot(machine, decoded, 0, pc, exec_counts, {})]
    next_boundary = interval
    while pc != text_len:
        if executed >= next_boundary:
            if executed > guard:
                break
            delta = {address: tracked[address] for address in tracked.touched}
            tracked.touched.clear()
            checkpoints.append(
                _snapshot(machine, decoded, executed, pc, exec_counts, delta)
            )
            next_boundary += interval
        exec_counts[pc] += 1
        executed += 1
        pc = handlers[pc]()

    final_cells = dict(tracked)
    machine.memory.cells = final_cells
    if (executed != expected.executed
            or exec_counts != expected.exec_counts
            or machine.outputs != expected.outputs
            or final_cells != expected.memory.cells):
        raise RuntimeError(
            "checkpoint capture diverged from the memoized golden run; "
            "refusing to build a fork store from inconsistent state"
        )

    return CheckpointStore(
        program=machine.program,
        interval=interval,
        checkpoints=checkpoints,
        base_cells=base_cells,
        final_cells=final_cells,
        final_outputs={ch: list(values) for ch, values in machine.outputs.items()},
        final_exec_counts=exec_counts,
        final_executed=executed,
        exit_value=machine.int_regs[RV],
    )


def _identical(pairs) -> bool:
    """True when every ``(a, b)`` pair of ``==``-equal values is identical.

    ``==`` equates ``1`` with ``1.0`` and ``0.0`` with ``-0.0``, which
    later instructions and the final memory image tell apart; NaNs only
    compare equal as the same object, so they need no extra care.  (The
    integer registers only ever hold ints, for which ``==`` suffices.)
    """
    for a, b in pairs:
        if type(a) is not type(b) or (not a and copysign(1.0, a) != copysign(1.0, b)):
            return False
    return True


def run_forked(machine, plan: InjectionPlan, store: CheckpointStore,
               max_instructions: int):
    """Execute an injected run by forking off the golden checkpoint trace.

    ``machine`` must be freshly constructed for the store's program; its
    memory, registers and outputs are overwritten wholesale from the store,
    so the workload does not need to be applied (and any applied state is
    discarded).  Returns a :class:`RunResult` bit-identical to
    ``machine.run(engine="decoded")`` on an identically prepared machine.
    """
    # Deferred import: machine.py imports this module lazily for the same
    # reason (RunResult/Outcome live there and fork is an engine of Machine).
    from .machine import Outcome, RunResult, summarise_counts

    if machine.program is not store.program:
        raise ValueError("checkpoint store was built for a different program")
    if not plan.targets:
        raise ValueError("fork engine requires a non-empty injection plan")
    # The plan's fault model names the checkpoint counter grid that tracks
    # its site stream (for the default model: the run mode's exposed
    # stream; for data-bit: always the protected stream).  Models with no
    # tracked stream (memory-bit) never reach this engine — Machine.run
    # falls back to full-run decoded execution for them.
    grid_mode = plan.model_impl.fork_grid_mode(plan.mode)
    if grid_mode is None:
        raise ValueError(
            f"fault model {plan.model!r} cannot resume from checkpoints"
        )

    decoded = decode_program(machine.program)
    text_len = decoded.text_len
    checkpoints = store.checkpoints
    start_index = store.select(plan.targets[0], grid_mode, max_instructions)
    start = checkpoints[start_index]

    # ------------------------------------------------------------------
    # Restore: registers / memory / outputs / counters, all in place so the
    # bound handler closures observe the restored state.
    # ------------------------------------------------------------------
    cells = machine.memory.cells
    cells.clear()
    cells.update(store.base_cells)
    for ckpt in checkpoints[1:start_index + 1]:
        cells.update(ckpt.memory_delta)
    machine.int_regs[:] = start.int_regs
    machine.float_regs[:] = start.float_regs
    outputs = machine.outputs
    outputs.clear()
    for channel, length in start.output_lens.items():
        outputs[channel] = store.final_outputs[channel][:length]
    exec_counts = list(start.exec_counts)

    fast = decoded.bind(machine)
    # The wrappers' [next-target pointer, exposed counter], re-seeded
    # before every wrapped stretch.
    wrapper_state = [0, 0]
    wrapped = decoded.bind_injected(machine, plan, state=wrapper_state,
                                    fast=fast)
    # Every fork-compatible model's sites are the grid mode's exposed
    # instructions, so the site counter is their summed execution counts.
    exposed = decoded.classes.exposed(grid_mode)
    count_at = exec_counts.__getitem__

    pc = start.pc
    executed = start.executed
    budget = max_instructions
    targets = plan.targets
    ntargets = len(targets)
    fired = 0
    sites = start.exposed_count(grid_mode)
    int_regs = machine.int_regs
    float_regs = machine.float_regs

    store.forked_runs += 1
    fault: Optional[SimFault] = None
    outcome = Outcome.COMPLETED
    converged: Optional[Checkpoint] = None
    # Splicing adopts the golden completion, so it is only legal when the
    # golden run fits the instruction budget; otherwise a converged run
    # must still grind forward to hit the watchdog at the same dynamic
    # index a full run would.
    can_splice = store.final_executed <= max_instructions
    # Golden shadow image, advanced lazily to the checkpoint compared.
    shadow = dict(cells) if can_splice else None
    shadow_epoch = start_index + 1

    try:
        # --------------------------------------------------------------
        # 1. Injection: fast stretches that cannot reach the next target
        #    (each instruction advances the site counter by at most one),
        #    then a wrapped stretch that fires it.  A run past the golden
        #    length whose last stretch reached no site may be spinning
        #    short of its next target: it goes on in the tail.
        # --------------------------------------------------------------
        while fired < ntargets:
            gap = targets[fired] - sites
            if gap > WRAP_GAP:
                handlers = fast
                stop = executed + gap
            else:
                wrapper_state[0] = fired
                wrapper_state[1] = sites
                handlers = wrapped
                stop = executed + WRAP_STRETCH
            if stop > budget:
                stop = budget
            while executed < stop and pc != text_len:
                exec_counts[pc] += 1
                executed += 1
                pc = handlers[pc]()
            if pc == text_len:
                break
            if executed >= budget:
                raise WatchdogExpired(executed, budget)
            reached = sites
            if handlers is fast:
                sites = sum(map(count_at, exposed))
            else:
                fired, sites = wrapper_state
            if sites == reached and executed >= store.final_executed:
                break

        # --------------------------------------------------------------
        # 2. Convergence: at each later golden checkpoint, splice the
        #    golden suffix if the state equals the golden state.
        # --------------------------------------------------------------
        # (A run leaves step 1 with a target pending only past the golden
        # length, so past the last checkpoint.)
        epoch = -(-executed // store.interval)
        n_checkpoints = len(checkpoints) if can_splice else 0
        while pc != text_len and epoch < n_checkpoints:
            golden = checkpoints[epoch]
            stop = golden.executed
            while executed < stop and pc != text_len:
                exec_counts[pc] += 1
                executed += 1
                pc = fast[pc]()
            if pc == text_len:
                break
            for ckpt in checkpoints[shadow_epoch:epoch + 1]:
                shadow.update(ckpt.memory_delta)
            shadow_epoch = epoch + 1
            epoch += 1
            if (pc == golden.pc
                    and int_regs == golden.int_regs
                    and float_regs == golden.float_regs
                    and {ch: len(v) for ch, v in outputs.items()}
                    == golden.output_lens
                    and cells == shadow):
                converged = golden
                break

        # --------------------------------------------------------------
        # 3. Tail: Brent cycle detection.  Each window snapshots the
        #    state (the tortoise) and compares it whenever the run is back
        #    at the same pc.  An exact repeat after ``period`` instructions
        #    proves the run loops until the watchdog, so whole periods are
        #    accounted for without executing them.  With targets pending,
        #    the wrappers run and their state is part of the comparison: a
        #    repeat then executed no exposed instruction, so no target
        #    can ever fire.
        # --------------------------------------------------------------
        handlers = fast
        if fired < ntargets:
            wrapper_state[0] = fired
            wrapper_state[1] = sites
            handlers = wrapped
        window = CYCLE_WINDOW
        while converged is None and pc != text_len:
            if executed >= budget:
                raise WatchdogExpired(executed, budget)
            if wrapper_state[0] == ntargets:
                handlers = fast
            anchor = pc
            anchor_wrapper = list(wrapper_state)
            anchor_int = list(int_regs)
            anchor_float = list(float_regs)
            anchor_cells = dict(cells)
            anchor_outputs = {ch: len(v) for ch, v in outputs.items()}
            anchor_counts = list(exec_counts)
            anchor_executed = executed
            stop = min(executed + window, budget)
            window *= 2
            while executed < stop and pc != text_len:
                exec_counts[pc] += 1
                executed += 1
                pc = handlers[pc]()
                if (pc == anchor
                        and wrapper_state == anchor_wrapper
                        and int_regs == anchor_int
                        and float_regs == anchor_float
                        and cells == anchor_cells
                        and {ch: len(v) for ch, v in outputs.items()}
                        == anchor_outputs
                        and _identical(zip(float_regs, anchor_float))
                        and _identical((value, anchor_cells[address])
                                       for address, value in cells.items())):
                    period = executed - anchor_executed
                    periods = (budget - executed) // period
                    if periods:
                        skipped = periods * period
                        executed += skipped
                        exec_counts[:] = [
                            now + periods * (now - then)
                            for now, then in zip(exec_counts, anchor_counts)
                        ]
                        store.cycle_hangs += 1
                        store.skipped_instructions += skipped
                    # Fewer than ``period`` instructions remain: execute
                    # them, stopping mid-period exactly where a full run
                    # would, then hang.
                    while executed < budget:
                        exec_counts[pc] += 1
                        executed += 1
                        pc = handlers[pc]()
                    raise WatchdogExpired(executed, budget)
    except SimFault as exc:
        outcome = Outcome.CRASH
        fault = exc
    except WatchdogExpired:
        outcome = Outcome.HANG
    except (OverflowError, ValueError) as exc:
        # Mirrors Machine.run: grossly corrupted floats can overflow a
        # conversion; the closest hardware analogue is a crash.
        outcome = Outcome.CRASH
        fault = SimFault(f"numeric fault: {exc}", pc)

    store.replayed_instructions += executed - start.executed

    if converged is not None:
        # ------------------------------------------------------------------
        # Golden-suffix splice.  State equals the golden state at this grid
        # point, so the rest of the run is deterministic and already known:
        # append the golden output suffixes, add the golden remaining
        # execution counts, and adopt the golden final memory image.
        # ------------------------------------------------------------------
        store.spliced_runs += 1
        golden_counts = converged.exec_counts
        final_counts = store.final_exec_counts
        exec_counts = [
            here + total - prefix
            for here, total, prefix in zip(exec_counts, final_counts, golden_counts)
        ]
        for channel, values in store.final_outputs.items():
            prefix = converged.output_lens.get(channel, 0)
            if channel in outputs:
                outputs[channel].extend(values[prefix:])
            else:
                outputs[channel] = list(values)
        cells.clear()
        cells.update(store.final_cells)
        return RunResult(
            outcome=Outcome.COMPLETED,
            executed=store.final_executed,
            exit_value=store.exit_value,
            outputs=outputs,
            fault=None,
            fault_kind=None,
            statistics=summarise_counts(decoded, exec_counts),
            exec_counts=exec_counts,
            injection=plan,
            memory=machine.memory,
            program=machine.program,
        )

    return RunResult(
        outcome=outcome,
        executed=executed,
        exit_value=machine.int_regs[RV] if outcome == Outcome.COMPLETED else None,
        outputs=outputs,
        fault=str(fault) if fault is not None else None,
        fault_kind=fault.kind if fault is not None else None,
        statistics=summarise_counts(decoded, exec_counts),
        exec_counts=exec_counts,
        injection=plan,
        memory=machine.memory,
        program=machine.program,
    )
