"""The ``(A1, A2)`` split of the encoding schemes.

Claim 3.7 (and A.4) factor an MPC execution into:

* ``A1`` -- "all the computation done by ``A`` before the beginning of
  round ``k``"; its output is the ``s``-bit memory state handed to
  machine ``i`` at the start of round ``k``;
* ``A2`` -- "the computation done by machine ``i`` in round ``k``"; its
  output is the ordered list of oracle queries it makes.

Both must be deterministic functions of (oracle, input) and
(oracle, memory) respectively -- Remark 2.3's derandomization.  The
:class:`MPCRoundAlgorithm` adapter derives the split from any protocol
runnable under :class:`~repro.mpc.simulator.MPCSimulator`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.bits import Bits
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCSimulator
from repro.mpc.tape import SharedTape
from repro.oracle.base import Oracle
from repro.oracle.counting import CountingOracle

__all__ = ["Phase1Result", "RoundAlgorithm", "MPCRoundAlgorithm"]


@dataclass(frozen=True)
class Phase1Result:
    """Output of ``A1``: the captured memory plus every prior query."""

    memory: Bits
    prior_queries: tuple[Bits, ...]


class RoundAlgorithm(ABC):
    """The two-phase view of one machine-round of an MPC computation."""

    @abstractmethod
    def phase1(self, oracle: Oracle, x: Sequence[Bits]) -> Phase1Result:
        """Everything before round ``k``: returns machine ``i``'s memory."""

    @abstractmethod
    def phase2(self, oracle: Oracle, memory: Bits) -> list[Bits]:
        """Machine ``i``'s round ``k``: returns its ordered queries.

        Must be deterministic in ``(oracle, memory)`` and must obtain
        every answer by querying ``oracle`` (so that running it against
        a patched oracle changes its behaviour accordingly).
        """


class MPCRoundAlgorithm(RoundAlgorithm):
    """Extract the ``(A1, A2)`` split from a simulated protocol.

    Parameters
    ----------
    setup_builder:
        ``x -> (mpc_params, machines, initial_memories)``.  Must be
        deterministic and place only *data* in the memories; the machine
        objects themselves carry static protocol configuration only.
    machine_index, round_k:
        Which machine-round is being compressed.
    """

    def __init__(
        self,
        setup_builder: Callable[
            [Sequence[Bits]], tuple[MPCParams, Sequence[Machine], Sequence[Bits]]
        ],
        *,
        machine_index: int,
        round_k: int,
        dummy_input: Sequence[Bits],
    ) -> None:
        if machine_index < 0 or round_k < 0:
            raise ValueError(
                f"invalid machine/round ({machine_index}, {round_k})"
            )
        self._builder = setup_builder
        self._machine = machine_index
        self._round = round_k
        # Machine objects carry only static protocol configuration, so
        # any input materializes the same algorithms; the dummy lets
        # phase2 run standalone (the decoder has no X to build from).
        params, machines, _ = setup_builder(dummy_input)
        if not 0 <= machine_index < params.m:
            raise ValueError(
                f"machine {machine_index} out of range for m={params.m}"
            )
        self._static_machine: Machine = machines[machine_index]

    def phase1(self, oracle: Oracle, x: Sequence[Bits]) -> Phase1Result:
        params, machines, initial = self._builder(x)
        captured: dict[str, Bits] = {"memory": Bits(0, 0)}

        def observer(round_k: int, machine: int, incoming) -> None:
            if round_k == self._round and machine == self._machine:
                captured["memory"] = Bits.concat([p for _, p in incoming])

        # Stop right after the inbox of round_k is observable.
        run_params = replace(params, max_rounds=self._round + 1)
        sim = MPCSimulator(
            run_params,
            machines,
            oracle=oracle,
            inbox_observer=observer,
        )
        result = sim.run(list(initial))
        prior = tuple(
            rec.query
            for rec in (result.oracle.transcript if result.oracle else ())
            if rec.round < self._round
        )
        return Phase1Result(memory=captured["memory"], prior_queries=prior)

    def phase2(self, oracle: Oracle, memory: Bits) -> list[Bits]:
        counting = CountingOracle(oracle)
        ctx = RoundContext(
            round=self._round,
            machine_id=self._machine,
            num_machines=1,  # message routing is irrelevant here
            incoming=((-1, memory),) if len(memory) else (),
            oracle=counting,
            tape=SharedTape(),
        )
        result = self._static_machine.run_round(ctx)
        if not isinstance(result, RoundOutput):
            raise TypeError("machine did not return a RoundOutput")
        return [rec.query for rec in counting.transcript]
