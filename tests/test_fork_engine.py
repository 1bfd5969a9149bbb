"""Differential tests: checkpoint-and-fork engine vs the full decoded engine.

The fork engine (:mod:`repro.sim.fork`) restores a mid-run golden
checkpoint, replays only the gap to the first injection, and splices the
golden suffix back in when the run re-converges.  Every one of those
shortcuts must be invisible in the results: a forked run's
:class:`RunResult` — outcome, dynamic counts, outputs, memory image,
statistics, injection events, fault messages — must be **bit-identical** to
executing the same plan from scratch on the decoded engine, across all
seven applications, both protection modes, and error counts spanning
masked, degraded, crashed and hung outcomes.

The numpy lockstep batch engine (:mod:`repro.sim.batch`) carries whole
cells of plans along the golden trace at once and owes the decoded engine
the exact same bit-identity, lane by lane — the second half of this module
holds it to that across apps, modes, error counts and fault models,
including the crash/hang/budget-overrun paths and a mid-cell
interrupt/resume through the shard store.
"""

import zlib

import pytest

from repro.apps import small_suite
from repro.assembler import ProgramBuilder
from repro.core import CampaignConfig, CampaignRunner
from repro.isa import F, R
from repro.sim import (InjectionPlan, Machine, ProtectionMode, get_model,
                       plan_injections)
from repro.sim.batch import run_batched
from repro.sim.fork import WRAP_GAP, build_checkpoint_store

from test_engine_differential import nan_equal

APP_NAMES = ["susan", "mpeg", "mcf", "blowfish", "gsm", "art", "adpcm"]
MODES = [ProtectionMode.PROTECTED, ProtectionMode.UNPROTECTED]
#: Fault models the batch engine can carry (fork-compatible plans); the
#: state-kind ``memory-bit`` model falls back to decoded and is covered in
#: ``tests/test_executors.py``.
BATCH_MODELS = ["control-bit", "data-bit", "multi-bit", "opcode"]


@pytest.fixture(scope="module")
def suite():
    return small_suite()


def _assert_identical(full, forked):
    assert forked.outcome == full.outcome
    assert forked.executed == full.executed
    assert forked.exit_value == full.exit_value
    assert forked.fault == full.fault
    assert forked.fault_kind == full.fault_kind
    assert forked.outputs == full.outputs
    assert forked.exec_counts == full.exec_counts
    assert forked.statistics == full.statistics
    assert forked.memory.cells == full.memory.cells
    assert forked.injection.injected_errors == full.injection.injected_errors
    assert forked.injection.events == full.injection.events


def _run_both(app, errors, mode, seed):
    golden = app.golden(0)
    exposed = golden.exposed_count(mode)
    full_plan = plan_injections(errors, exposed, mode, seed=seed)
    fork_plan = plan_injections(errors, exposed, mode, seed=seed)
    assert full_plan.targets == fork_plan.targets
    full = app.run_once(injection=full_plan, seed=0, engine="decoded")
    forked = app.run_once(injection=fork_plan, seed=0, engine="fork")
    return full, forked


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("errors", [1, 4, 16])
def test_forked_run_is_bit_identical(suite, name, mode, errors):
    app = suite[name]
    seed = 1000 + zlib.crc32(f"{name}/{mode.value}/{errors}".encode()) % 10000
    full, forked = _run_both(app, errors, mode, seed)
    _assert_identical(full, forked)
    assert forked.injection.requested_errors == min(
        errors, app.golden(0).exposed_count(mode))


def test_catastrophic_paths_are_identical(suite):
    """Heavy unprotected injection exercises crash and hang paths.

    Forty unprotected flips over several plan seeds produce a mix of
    completed, crashed and hung runs across the applications; the fork
    engine must reproduce each one exactly, including the fault message,
    the partial memory image, and the watchdog's dynamic stopping point.
    """
    outcomes = set()
    for name in ("mcf", "blowfish", "gsm"):
        app = suite[name]
        for seed in (1, 2, 3, 4, 5):
            full, forked = _run_both(app, 40, ProtectionMode.UNPROTECTED, seed)
            _assert_identical(full, forked)
            outcomes.add(full.outcome)
    assert len(outcomes) > 1, "plans produced only one outcome kind"


def test_splice_fires_for_masked_faults(suite):
    """Fully-masked faults must terminate through the golden-suffix splice."""
    app = suite["susan"]
    golden = app.golden(0)
    store = app.checkpoint_store(0)
    before = store.spliced_runs
    spliced_result = None
    for i in range(30):
        seed = 99 + 7919 * i
        plan = plan_injections(1, golden.exposed_count(ProtectionMode.PROTECTED),
                               ProtectionMode.PROTECTED, seed=seed)
        result = app.run_once(injection=plan, seed=0, engine="fork")
        if store.spliced_runs > before:
            spliced_result = result
            break
    assert spliced_result is not None, "no run re-converged in 30 attempts"
    # A spliced, fully-masked run reproduces the golden artefacts exactly
    # even though it only simulated a fraction of the program.
    g = golden.result
    assert spliced_result.outputs == g.outputs
    assert spliced_result.executed == g.executed
    assert spliced_result.exit_value == g.exit_value
    assert spliced_result.memory.cells == g.memory.cells


def test_fork_respects_tiny_instruction_budgets(suite):
    """A budget below the restore point must hang exactly like a full run."""
    app = suite["mcf"]
    golden = app.golden(0)
    mode = ProtectionMode.PROTECTED
    budget = golden.executed // 2
    full_plan = plan_injections(4, golden.exposed_count(mode), mode, seed=77)
    fork_plan = plan_injections(4, golden.exposed_count(mode), mode, seed=77)
    full = app.run_once(injection=full_plan, seed=0, max_instructions=budget,
                        engine="decoded")
    forked = app.run_once(injection=fork_plan, seed=0, max_instructions=budget,
                          engine="fork")
    _assert_identical(full, forked)
    assert full.outcome == "hang"
    assert full.executed == budget


def test_reused_plan_still_fires_every_injection(suite):
    """A plan object reused across runs carries the previous run's events;
    the fork engine must not mistake those for this run's flips (which
    would swap to fast handlers and splice before anything fired)."""
    app = suite["adpcm"]
    golden = app.golden(0)
    mode = ProtectionMode.UNPROTECTED
    reused = plan_injections(8, golden.exposed_count(mode), mode, seed=4711)
    first = app.run_once(injection=reused, seed=0, engine="fork")
    events_after_first = len(reused.events)
    assert events_after_first > 0
    # Second run with the same (now event-laden) plan object: the decoded
    # engine re-fires every reached target, and the fork engine must match
    # its execution state exactly (events accumulate in both).
    forked = app.run_once(injection=reused, seed=0, engine="fork")
    assert len(reused.events) > events_after_first
    fresh = plan_injections(8, golden.exposed_count(mode), mode, seed=4711)
    app.run_once(injection=fresh, seed=0, engine="decoded")   # first use
    decoded = app.run_once(injection=fresh, seed=0, engine="decoded")  # reuse
    assert forked.outcome == decoded.outcome
    assert forked.executed == decoded.executed
    assert forked.outputs == decoded.outputs
    assert forked.exec_counts == decoded.exec_counts
    assert forked.memory.cells == decoded.memory.cells


def test_fork_engine_requires_checkpoint_store(suite):
    app = suite["mcf"]
    plan = plan_injections(1, app.golden(0).exposed_count(ProtectionMode.PROTECTED),
                           ProtectionMode.PROTECTED, seed=3)
    machine = Machine(app.program())
    with pytest.raises(ValueError, match="checkpoint store"):
        machine.run(injection=plan, engine="fork")


def test_fork_engine_with_empty_plan_degrades_to_decoded(suite):
    """Nothing to inject means nothing to fork from: run the golden path."""
    app = suite["mcf"]
    plan = plan_injections(0, 1, ProtectionMode.NONE, seed=5)
    result = app.run_once(injection=plan, seed=0, engine="fork")
    golden = app.golden(0).result
    assert result.outputs == golden.outputs
    assert result.exec_counts == golden.exec_counts


def test_fork_campaigns_match_decoded_campaigns(suite):
    """Campaign records are independent of the configured engine."""
    app = suite["adpcm"]
    decoded = CampaignRunner(
        app, CampaignConfig(runs=8, base_seed=21, engine="decoded")
    ).run_campaign(4, ProtectionMode.PROTECTED)
    forked = CampaignRunner(
        app, CampaignConfig(runs=8, base_seed=21, engine="fork")
    ).run_campaign(4, ProtectionMode.PROTECTED)
    assert forked.records == decoded.records


def test_error_free_records_come_from_the_golden_run(suite, monkeypatch):
    """e=0 and mode=none records under the fork and batch engines are
    built from the memoized golden run, byte-identical to the decoded
    engine's records, which still execute every such run."""
    from repro.exec import make_records

    calls = []
    original_run = Machine.run

    def counting_run(self, *args, **kwargs):
        calls.append(kwargs.get("engine", "decoded"))
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    tasks = [(run_index, errors, mode)
             for run_index in range(3)
             for errors, mode in ((0, ProtectionMode.PROTECTED),
                                  (0, ProtectionMode.UNPROTECTED),
                                  (0, ProtectionMode.NONE),
                                  (4, ProtectionMode.NONE))]
    for name in APP_NAMES:
        app = suite[name]
        records = {}
        for engine in ("decoded", "fork", "batch"):
            config = CampaignConfig(runs=3, base_seed=61, engine=engine)
            app.warm(seeds={config.workload_seed_for(index)
                            for index in range(3)})
            del calls[:]
            records[engine] = [record.to_json()
                               for record in make_records(app, config, tasks)]
            assert len(calls) == (len(tasks) if engine == "decoded" else 0)
        assert records["fork"] == records["decoded"], name
        assert records["batch"] == records["decoded"], name


# ----------------------------------------------------------------------
# Batch (lockstep) engine vs the decoded engine.
# ----------------------------------------------------------------------

def _assert_lane_identical(full, batched):
    """Byte-identity of one batch lane against its from-scratch decoded run.

    Outputs and memory go through ``nan_equal``: injected float runs can
    legitimately hold NaN, and container ``==`` would compare two distinct
    NaN objects unequal on identity alone.
    """
    assert batched.outcome == full.outcome
    assert batched.executed == full.executed
    assert batched.exit_value == full.exit_value
    assert batched.fault == full.fault
    assert batched.fault_kind == full.fault_kind
    assert nan_equal(batched.outputs, full.outputs)
    assert batched.exec_counts == full.exec_counts
    assert batched.statistics == full.statistics
    assert nan_equal(batched.memory.cells, full.memory.cells)
    assert batched.injection.injected_errors == full.injection.injected_errors
    assert batched.injection.events == full.injection.events


def _cell_plans(app, errors_axis, mode, model_name, seed_base):
    """One plan per error count, derived from the model's own population."""
    golden = app.golden(0)
    model = get_model(model_name)
    population = model.population(golden, mode)
    return [plan_injections(errors, population, mode,
                            seed=seed_base + 31 * errors, model=model_name)
            for errors in errors_axis]


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", BATCH_MODELS)
def test_batched_cell_is_bit_identical(suite, name, mode, model_name):
    """A whole {1,4,16}-error cell in one lockstep batch, lane for lane."""
    app = suite[name]
    seed_base = 2000 + zlib.crc32(f"{name}/{mode.value}/{model_name}".encode()) % 10000
    plans = _cell_plans(app, (1, 4, 16), mode, model_name, seed_base)
    assert all(plan.targets for plan in plans)
    batched = app.run_batched(plans, seed=0)
    assert len(batched) == len(plans)
    for errors in (1, 4, 16):
        full_plan, = _cell_plans(app, (errors,), mode, model_name, seed_base)
        full = app.run_once(injection=full_plan, seed=0, engine="decoded")
        _assert_lane_identical(full, batched[(1, 4, 16).index(errors)])


def test_batched_catastrophic_paths_are_identical(suite):
    """Five 40-error unprotected plans per app ride one batch; the crash
    and hang lanes must match the decoded engine exactly, including fault
    messages and partial memory images."""
    outcomes = set()
    mode = ProtectionMode.UNPROTECTED
    for name in ("mcf", "blowfish", "gsm"):
        app = suite[name]
        golden = app.golden(0)
        exposed = golden.exposed_count(mode)
        plans = [plan_injections(40, exposed, mode, seed=seed)
                 for seed in (1, 2, 3, 4, 5)]
        batched = app.run_batched(plans, seed=0)
        for seed, lane in zip((1, 2, 3, 4, 5), batched):
            full_plan = plan_injections(40, exposed, mode, seed=seed)
            full = app.run_once(injection=full_plan, seed=0, engine="decoded")
            _assert_lane_identical(full, lane)
            outcomes.add(lane.outcome)
    assert len(outcomes) > 1, "plans produced only one outcome kind"


def test_batch_respects_tiny_instruction_budgets(suite):
    """A starved batch lane must hang exactly like the decoded run."""
    app = suite["mcf"]
    golden = app.golden(0)
    mode = ProtectionMode.PROTECTED
    budget = golden.executed // 2
    exposed = golden.exposed_count(mode)
    plans = [plan_injections(4, exposed, mode, seed=seed) for seed in (77, 78)]
    batched = app.run_batched(plans, seed=0, max_instructions=budget)
    for seed, lane in zip((77, 78), batched):
        full_plan = plan_injections(4, exposed, mode, seed=seed)
        full = app.run_once(injection=full_plan, seed=0,
                            max_instructions=budget, engine="decoded")
        _assert_lane_identical(full, lane)
        assert lane.outcome == "hang"
        assert lane.executed == budget


def test_batch_reused_plan_still_fires_every_injection(suite):
    """Event-laden plan objects must re-fire through the batch engine just
    as they do through the decoded engine (see the fork twin above)."""
    app = suite["adpcm"]
    golden = app.golden(0)
    mode = ProtectionMode.UNPROTECTED
    reused = plan_injections(8, golden.exposed_count(mode), mode, seed=4711)
    app.run_once(injection=reused, seed=0, engine="batch")
    events_after_first = len(reused.events)
    assert events_after_first > 0
    batched = app.run_once(injection=reused, seed=0, engine="batch")
    assert len(reused.events) > events_after_first
    fresh = plan_injections(8, golden.exposed_count(mode), mode, seed=4711)
    app.run_once(injection=fresh, seed=0, engine="decoded")   # first use
    decoded = app.run_once(injection=fresh, seed=0, engine="decoded")  # reuse
    assert batched.outcome == decoded.outcome
    assert batched.executed == decoded.executed
    assert nan_equal(batched.outputs, decoded.outputs)
    assert batched.exec_counts == decoded.exec_counts
    assert nan_equal(batched.memory.cells, decoded.memory.cells)


def test_batch_engine_requires_checkpoint_store(suite):
    app = suite["mcf"]
    plan = plan_injections(1, app.golden(0).exposed_count(ProtectionMode.PROTECTED),
                           ProtectionMode.PROTECTED, seed=3)
    machine = Machine(app.program())
    with pytest.raises(ValueError, match="checkpoint store"):
        machine.run(injection=plan, engine="batch")


def test_batch_engine_with_empty_plan_degrades_to_decoded(suite):
    """Nothing to inject means nothing to batch: run the golden path."""
    app = suite["mcf"]
    plan = plan_injections(0, 1, ProtectionMode.NONE, seed=5)
    result = app.run_once(injection=plan, seed=0, engine="batch")
    golden = app.golden(0).result
    assert result.outputs == golden.outputs
    assert result.exec_counts == golden.exec_counts


def test_batch_campaigns_match_decoded_campaigns(suite):
    """Campaign records are independent of the configured engine."""
    app = suite["adpcm"]
    decoded = CampaignRunner(
        app, CampaignConfig(runs=8, base_seed=21, engine="decoded")
    ).run_campaign(4, ProtectionMode.PROTECTED)
    batched = CampaignRunner(
        app, CampaignConfig(runs=8, base_seed=21, engine="batch")
    ).run_campaign(4, ProtectionMode.PROTECTED)
    assert batched.records == decoded.records


def test_batch_sweep_interrupted_mid_cell_resumes_bit_identically(tmp_path):
    """Kill a batch-engine sweep mid-cell, resume it (still on the batch
    engine), and the shard store must come out byte-identical to an
    uninterrupted sweep on the default fork engine — batching must be
    invisible in the persisted bytes, whatever chunk boundary it died on."""
    from repro.core.store import ShardStore
    from repro.experiments import ExperimentConfig
    from repro.experiments.sweep import SweepOrchestrator

    config = ExperimentConfig(suite_name="small", runs_per_cell=6, base_seed=29)
    grid = {"apps": ["adpcm"], "errors_axis": [2, 6], "include_table2": False}

    def run_sweep(root, engine, chunk_size, progress=None):
        campaign = CampaignConfig(runs=config.runs_per_cell,
                                  base_seed=config.base_seed, engine=engine)
        orchestrator = SweepOrchestrator(ShardStore(root), config,
                                         campaign=campaign, modes=MODES,
                                         chunk_size=chunk_size,
                                         progress=progress, **grid)
        return orchestrator.run()

    def store_bytes(root):
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    reference_root = tmp_path / "fork-reference"
    run_sweep(reference_root, "fork", chunk_size=6)

    calls = {"left": 2}

    def interrupt(message):
        calls["left"] -= 1
        if calls["left"] <= 0:
            raise KeyboardInterrupt(f"injected interruption at {message!r}")

    batch_root = tmp_path / "batch-interrupted"
    with pytest.raises(KeyboardInterrupt):
        # chunk_size=4 against 6-run cells: the kill lands mid-cell.
        run_sweep(batch_root, "batch", chunk_size=4, progress=interrupt)
    assert store_bytes(batch_root) != store_bytes(reference_root)

    run_sweep(batch_root, "batch", chunk_size=4)
    assert store_bytes(batch_root) == store_bytes(reference_root)


def test_checkpoint_store_is_not_pickled(suite):
    """Worker payloads must not carry the snapshots (workers rebuild them)."""
    import pickle

    app = suite["mcf"]
    store = app.checkpoint_store(0)
    assert app.golden(0).checkpoint_store is store
    revived = pickle.loads(pickle.dumps(app.golden(0)))
    assert revived.checkpoint_store is None
    # The program round-trips without its decode cache either.
    program = app.program()
    assert getattr(program, "_decoded_cache", None) is not None
    revived_program = pickle.loads(pickle.dumps(program))
    assert getattr(revived_program, "_decoded_cache", None) is None


# ----------------------------------------------------------------------
# Skip-ahead and periodic-hang jumps on hand-built programs.
# ----------------------------------------------------------------------
#
# ``_spin_program`` runs a straight block of 100 exposed ``addi``s, counts
# a preamble loop up to 200, then executes the victim ``li $8, 0``
# (exposed dynamic instruction 503: ``la`` and two ``li``, the block, then
# per iteration the counting ``addi`` at an odd index and a harmless
# ``add`` at an even one) and a spin loop that exits at once while ``$8``
# is 0.  Any corruption of the victim's result
# makes ``$8`` non-zero, so the run spins until the watchdog.  Every
# register write is tagged low-reliability, so both protection modes (and
# the protected-stream data-bit model) see the same site stream.

VICTIM = 503


def _spin_program(spin_body):
    builder = ProgramBuilder()
    builder.data("buf", 4)
    with builder.function("main"):
        builder.la(R(9), "buf")
        builder.li(R(10), 0)
        builder.li(R(11), 200)
        for _ in range(100):
            builder.addi(R(15), R(15), 1)
        builder.label("pre")
        builder.addi(R(10), R(10), 1)
        builder.add(R(14), R(10), R(10))
        builder.sw(R(10), R(9), 0)
        builder.blt(R(10), R(11), "pre")
        builder.li(R(8), 0)
        builder.li(R(12), 7)
        builder.label("spin")
        spin_body(builder)
        builder.bnez(R(8), "spin")
        builder.out(R(10))
        builder.halt()
    program = builder.build()
    for instruction in program.instructions:
        instruction.low_reliability = instruction.writes_register
    return program


def _exact_spin(builder):
    """Period 3: re-store an unchanged value, rewrite a constant."""
    builder.sw(R(12), R(9), 1)
    builder.addi(R(13), R(0), 5)


def _store_spin(builder):
    """Period 2 with no register write, so no exposed instruction."""
    builder.sw(R(12), R(9), 1)


def _sign_spin(builder):
    """Toggle ``$f1`` between 0.0 and -0.0 and store it: ``==`` sees a
    repeat after one pass, but the state only repeats after two."""
    builder.fneg(F(1), F(1))
    builder.fsw(F(1), R(9), 2)


def _padded_spin(builder):
    """150 instructions that write no register, then a constant write:
    the machine state repeats every pass, the site counter does not."""
    for _ in range(150):
        builder.nop()
    builder.addi(R(13), R(0), 5)


def _counter_spin(builder):
    """Period 2 in pc, but ``$13`` counts up: the state never repeats."""
    builder.addi(R(13), R(13), 1)


def _hand_store(program, count=128):
    golden = Machine(program).run()
    assert golden.outcome == "completed"
    return golden, build_checkpoint_store(Machine(program), golden, count)


def _hand_plan(targets, model="control-bit", mode=ProtectionMode.UNPROTECTED,
               seed=11):
    return InjectionPlan(mode=mode, targets=list(targets), seed=seed,
                         model=model)


def _hand_pair(program, store, targets, budget, **plan_kwargs):
    """(decoded, forked) results of the same plan under ``budget``."""
    full = Machine(program).run(max_instructions=budget,
                                injection=_hand_plan(targets, **plan_kwargs))
    forked = Machine(program).run(max_instructions=budget,
                                  injection=_hand_plan(targets, **plan_kwargs),
                                  engine="fork", checkpoints=store)
    return full, forked


def test_exact_cycle_jumps_to_the_watchdog():
    program = _spin_program(_exact_spin)
    golden, store = _hand_store(program)
    budget = 8 * golden.executed
    full, forked = _hand_pair(program, store, [VICTIM], budget)
    _assert_identical(full, forked)
    assert full.outcome == "hang" and full.executed == budget
    assert store.cycle_hangs == 1
    # Whole periods of three instructions were accounted for, not run.
    assert store.skipped_instructions > budget // 2
    assert store.skipped_instructions % 3 == 0
    start = store.checkpoints[store.select(VICTIM, ProtectionMode.UNPROTECTED,
                                           budget)]
    assert store.replayed_instructions == budget - start.executed


def test_exact_cycle_with_a_target_left_unreached_jumps():
    """A spin with no exposed instruction never reaches the plan's later
    target; the wrappers' state repeats with the machine state, so the
    run still jumps, and the unreached target never fires."""
    program = _spin_program(_store_spin)
    golden, store = _hand_store(program)
    budget = 8 * golden.executed
    full, forked = _hand_pair(program, store, [VICTIM, VICTIM + 5], budget)
    _assert_identical(full, forked)
    assert full.outcome == "hang" and full.injection.injected_errors == 1
    assert store.cycle_hangs == 1
    assert store.skipped_instructions % 2 == 0


def test_spin_reaching_a_late_target_fires_it_before_jumping():
    """The exact spin rewrites ``$13`` with a constant, so its machine
    state repeats while a later target is still pending; the target's
    counter does not, and the run must spin on until the target fires."""
    program = _spin_program(_exact_spin)
    golden, store = _hand_store(program)
    budget = 8 * golden.executed
    late = VICTIM + 1 + 2 * 700  # the spin's ``addi``, 700 passes in
    full, forked = _hand_pair(program, store, [VICTIM, late], budget)
    _assert_identical(full, forked)
    assert full.outcome == "hang" and full.injection.injected_errors == 2
    assert store.cycle_hangs == 1


def test_tail_with_a_pending_target_compares_the_site_counter():
    """Stretches of the padded spin that reach no site send the run to
    the tail with its target still pending; the machine state repeats
    every pass there, but the wrappers' counter moves on, so the run must
    not jump before the target fires."""
    program = _spin_program(_padded_spin)
    golden, store = _hand_store(program)
    budget = 8 * golden.executed
    late = VICTIM + 2 + 8  # ``li $12``, then one ``addi`` per pass
    full, forked = _hand_pair(program, store, [VICTIM, late], budget)
    _assert_identical(full, forked)
    assert full.outcome == "hang" and full.injection.injected_errors == 2
    assert store.cycle_hangs == 1


def test_skip_ahead_stops_exactly_short_of_the_target():
    """A sparse checkpoint grid leaves long gaps, and in the straight
    block every instruction is exposed: a fast stretch one instruction
    longer than the gap would pass the target."""
    program = _spin_program(_counter_spin)
    golden, store = _hand_store(program, count=2)
    for target in (WRAP_GAP + 1, WRAP_GAP + 2, 100, 102):
        full, forked = _hand_pair(program, store, [target, VICTIM - 1],
                                  8 * golden.executed)
        _assert_identical(full, forked)
        assert forked.injection.injected_errors == 2


def test_cycle_needs_identical_bits_not_just_equal_values():
    """0.0 == -0.0, so a check on ``==`` alone would take half the true
    period and, for an odd number of jumped half-periods, leave the
    stored zero with the wrong sign."""
    program = _spin_program(_sign_spin)
    golden, store = _hand_store(program)
    for budget in range(8 * golden.executed, 8 * golden.executed + 12):
        full, forked = _hand_pair(program, store, [VICTIM], budget)
        _assert_identical(full, forked)
        assert repr(sorted(forked.memory.cells.items())) == repr(
            sorted(full.memory.cells.items()))
    assert store.cycle_hangs == 12


def test_counter_loop_runs_out_the_budget():
    program = _spin_program(_counter_spin)
    golden, store = _hand_store(program)
    budget = 8 * golden.executed
    full, forked = _hand_pair(program, store, [VICTIM], budget)
    _assert_identical(full, forked)
    assert full.outcome == "hang" and full.executed == budget
    assert store.cycle_hangs == 0
    assert store.skipped_instructions == 0


def test_repeat_with_less_than_one_period_left_does_not_jump():
    """The repeat point does not depend on the budget, so the smallest
    budget that jumps skips exactly one period; one instruction less of
    budget leaves the same repeat less than a period to go, and the run
    must stop mid-period exactly where a full run does."""
    program = _spin_program(_exact_spin)
    golden, store = _hand_store(program)

    def jumps(budget):
        before = store.cycle_hangs
        Machine(program).run(max_instructions=budget,
                             injection=_hand_plan([VICTIM]),
                             engine="fork", checkpoints=store)
        return store.cycle_hangs > before

    low, high = golden.executed, 8 * golden.executed
    assert not jumps(low) and jumps(high)
    while high - low > 1:
        middle = (low + high) // 2
        if jumps(middle):
            high = middle
        else:
            low = middle
    skipped = store.skipped_instructions
    assert jumps(high)
    assert store.skipped_instructions - skipped == 3
    for budget in (high - 3, high - 2, high - 1, high):
        full, forked = _hand_pair(program, store, [VICTIM], budget)
        _assert_identical(full, forked)
        assert forked.outcome == "hang" and forked.executed == budget


def test_budget_below_the_restore_point_hangs_like_a_full_run():
    program = _spin_program(_exact_spin)
    golden, store = _hand_store(program)
    restore = store.checkpoints[
        store.select(VICTIM, ProtectionMode.UNPROTECTED, golden.executed)]
    assert restore.executed > 300
    for budget in (0, 1, 300, restore.executed):
        full, forked = _hand_pair(program, store, [VICTIM], budget)
        _assert_identical(full, forked)
        assert forked.outcome == "hang" and forked.executed == budget
    assert store.cycle_hangs == 0


def test_skip_ahead_target_edges():
    """Targets at a checkpoint's own exposed count (no gap to skip),
    adjacent targets, and targets far enough apart to skip between.  Even
    targets hit the harmless ``add``, so those plans fire in full."""
    program = _spin_program(_counter_spin)
    golden, store = _hand_store(program)
    grid = store.exposed_grid(ProtectionMode.UNPROTECTED)
    at_checkpoint = grid[len(grid) // 2]
    cases = [
        [at_checkpoint],
        [at_checkpoint, at_checkpoint + 1],
        [0, 1, 2],
        [4, 6, 300, 302, VICTIM - 1],
        [10, 240, VICTIM],
    ]
    for targets in cases:
        full, forked = _hand_pair(program, store, targets, 8 * golden.executed)
        _assert_identical(full, forked)
    assert forked.injection.injected_errors == 3
    assert full.outcome == "hang"
    even, = [targets for targets in cases if targets[0] == 4]
    full, forked = _hand_pair(program, store, even, 8 * golden.executed)
    _assert_identical(full, forked)
    assert forked.injection.injected_errors == len(even)


def test_skip_ahead_reused_plan():
    program = _spin_program(_counter_spin)
    golden, store = _hand_store(program)
    budget = 8 * golden.executed
    reused = _hand_plan([40, 42, 180])
    fresh = _hand_plan([40, 42, 180])
    for _ in range(2):
        forked = Machine(program).run(max_instructions=budget,
                                      injection=reused, engine="fork",
                                      checkpoints=store)
        full = Machine(program).run(max_instructions=budget, injection=fresh)
        assert forked.outcome == full.outcome
        assert forked.executed == full.executed
        assert forked.exec_counts == full.exec_counts
        assert forked.memory.cells == full.memory.cells
        assert reused.events == fresh.events
    assert len(reused.events) == 6


@pytest.mark.parametrize("model_name", BATCH_MODELS)
def test_cycle_jump_for_every_fork_model(model_name):
    """Fork path and batch-retired path of every fork-compatible model:
    the victim's corruption spins the run, the lane retires from the
    lockstep walk, and both paths jump to the watchdog exactly."""
    program = _spin_program(_exact_spin)
    golden, store = _hand_store(program)
    budget = 8 * golden.executed
    mode = ProtectionMode.PROTECTED
    targets = [60, VICTIM]
    full, forked = _hand_pair(program, store, targets, budget,
                              model=model_name, mode=mode)
    _assert_identical(full, forked)
    assert full.outcome == "hang"
    assert store.cycle_hangs == 1

    lanes = run_batched(Machine(program),
                        [_hand_plan(targets, model=model_name, mode=mode),
                         _hand_plan([VICTIM + 1], model=model_name,
                                    mode=mode)],
                        store, budget)
    assert store.batch_retired_runs >= 1
    assert store.cycle_hangs == 2
    _assert_lane_identical(full, lanes[0])
    quiet = Machine(program).run(
        max_instructions=budget,
        injection=_hand_plan([VICTIM + 1], model=model_name, mode=mode))
    _assert_lane_identical(quiet, lanes[1])
