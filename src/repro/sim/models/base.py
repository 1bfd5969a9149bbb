"""The :class:`FaultModel` protocol: what a pluggable fault model supplies.

The paper studies exactly one fault model — a single bit flip in the
result of a dynamic instruction — but the question its experiment answers
("which corrupted state actually matters?") generalises.  A fault model
packages the two halves of that question:

* **site selection** — which dynamic events of a run can receive a fault,
  and therefore what population injection targets are drawn from
  (:meth:`FaultModel.population` / :meth:`FaultModel.exposure`);
* **corruption** — what happens to machine state when a target fires
  (:meth:`FaultModel.make_corruptor` for result models,
  :meth:`FaultModel.corrupt_state` for state models).

Models come in two kinds:

``kind = "result"``
    Sites are dynamic occurrences of *exposed instructions*; the decode
    layer wraps each exposed static instruction and the model corrupts the
    instruction's computed result before writeback
    (:meth:`repro.sim.decode.DecodedProgram.bind_injected`).

``kind = "state"``
    Sites are positions in the *whole* dynamic instruction stream; the
    machine pauses at each target index and the model mutates machine
    state directly (:class:`~repro.sim.models.memory.MemoryBitModel` flips
    bits in live data memory).  State models cannot resume from fork
    checkpoints — the fork engine's grids count exposed instructions, not
    arbitrary stream positions — so they set ``supports_fork = False`` and
    runs fall back to full-run execution (asserted equivalent in
    ``tests/test_fault_models.py``).

Determinism contract
--------------------
Every model must make a run's record a pure function of
``(base_seed, run_index, errors, model)``: all randomness is drawn from
the :class:`~repro.sim.faults.InjectionPlan`'s seeded generator in firing
order, and firing order is fixed by the plan's strictly-increasing
targets.  That is what lets records stay bit-identical across the serial,
process-pool and socket executors and across the decoded and fork
engines (``tests/test_fault_models.py`` asserts both).
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Tuple

from ..faults import ProtectionMode

#: A result corruptor: maps the instruction's true result to
#: ``(corrupted_value, bit, detail)`` where ``bit`` is the representative
#: flipped bit position (-1 when the corruption is not a single flip) and
#: ``detail`` is a short human-readable note for the injection event.
Corruptor = Callable[[object], Tuple[object, int, Optional[str]]]


class FaultModel(abc.ABC):
    """One way of corrupting machine state (site selection + corruption)."""

    #: Registry name, e.g. ``"control-bit"``; also the value stored in
    #: :class:`~repro.core.outcomes.RunRecord` and shard metadata.
    name: str = "abstract"
    #: ``"result"`` (corrupts instruction results through injection
    #: wrappers) or ``"state"`` (corrupts machine state between
    #: instructions).
    kind: str = "result"
    #: Whether injected runs under this model may resume from golden
    #: checkpoints (:mod:`repro.sim.fork`).  Requires that the model's
    #: site stream is counted by one of the checkpoint grids
    #: (see :meth:`fork_grid_mode`).
    supports_fork: bool = False
    #: Whether the corruptor needs the victim instruction's true result
    #: (result models).  Models that replace the operation outright
    #: (``opcode``) set this False: the victim is then **not executed** at
    #: a fired occurrence, so its faults (e.g. a division by a corrupted
    #: zero divisor) cannot leak through an operation that never ran.
    consumes_result: bool = True
    #: Whether the protection mode changes the model's sites or
    #: corruption.  Mode-independent models (``memory-bit``) produce
    #: identical runs for both modes by construction; consumers like the
    #: cross-model table use this to avoid simulating the duplicate.
    mode_sensitive: bool = True

    #: One-line summary used by the CLI ``--model`` help text.
    summary: str = ""

    # ------------------------------------------------------------------
    # Site selection.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def population(self, golden, mode: ProtectionMode) -> int:
        """Size of the dynamic site stream targets are drawn from.

        ``golden`` is the memoized error-free
        :class:`~repro.core.app.GoldenRun` of the same workload; the
        population must be derived from it alone so every executor backend
        plans identical targets.
        """

    def exposure(self, decoded, mode: ProtectionMode) -> List[bool]:
        """Per-static-instruction site flags for result models.

        ``decoded`` is the program's
        :class:`~repro.sim.decode.DecodedProgram`.  State models never
        call this (their sites are stream positions, not instructions).
        """
        raise NotImplementedError(
            f"fault model {self.name!r} has no instruction-level site set"
        )

    def fork_grid_mode(self, mode: ProtectionMode) -> Optional[ProtectionMode]:
        """Which checkpoint counter grid tracks this model's site stream.

        The fork engine stores per-checkpoint exposed-dynamic counters for
        both protection modes; a model whose site stream equals one of
        those exposure streams returns the corresponding mode so forked
        runs can seed the injection wrappers' exposed counter from the
        grid and from that mode's exposed execution counts.
        ``None`` means the stream is not tracked and the run must fall
        back to full-run execution.
        """
        return None

    # ------------------------------------------------------------------
    # Corruption.
    # ------------------------------------------------------------------
    def make_corruptor(self, op, spec, machine, is_float: bool,
                       plan) -> Corruptor:
        """Build the corruption closure for one exposed static instruction.

        Called once per exposed site at bind time (result models only).
        ``spec`` is the decoded operand tuple and ``machine`` the bound
        machine, so a corruptor may read source registers at fire time
        (the opcode model recomputes a substituted operation from them).
        All randomness must come from ``plan`` (its seeded generator).
        """
        raise NotImplementedError(
            f"fault model {self.name!r} does not corrupt instruction results"
        )

    def corrupt_state(self, machine, plan, dynamic_index: int) -> None:
        """Mutate machine state at stream position ``dynamic_index``.

        Called by the state-model execution loop after ``dynamic_index``
        instructions have executed (state models only).  Must record an
        :class:`~repro.sim.faults.InjectionEvent` on the plan for every
        corruption actually performed.
        """
        raise NotImplementedError(
            f"fault model {self.name!r} does not corrupt machine state"
        )
