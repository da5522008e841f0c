"""One MPC round suffices for ROMix -- memory hardness != round hardness.

The crux of the paper's Section 1.2 comparison: an MPC machine may make
*arbitrarily many adaptive oracle queries within one round*, so it can
evaluate ROMix holding only ``O(n)`` bits -- whenever phase 2 needs
``V[j]`` it recomputes the block from the input with ``j`` fresh
in-round calls.  Total queries ``O(N^2)``, rounds **one**, local memory
a few blocks.  Hence scrypt-style memory hardness gives no MPC round
lower bound, and ``Line`` needs the extra ingredient (the machine
cannot *store* the input pieces the pointer will ask for).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits import Bits
from repro.mhf.romix import romix
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCResult, MPCSimulator
from repro.oracle.base import Oracle

__all__ = ["OneRoundROMixMachine", "build_one_round_romix", "run_one_round_romix"]


class OneRoundROMixMachine(Machine):
    """Evaluate ROMix in one round with O(1) blocks of memory.

    State held at any instant: the running phase-2 state, one scratch
    block being recomputed, and the input block -- never the V table.
    """

    def __init__(self, cost: int) -> None:
        if cost <= 0:
            raise ValueError(f"cost parameter N must be positive, got {cost}")
        self._cost = cost

    def _v_block(self, oracle: Oracle, x: Bits, j: int) -> Bits:
        """Recompute V[j] = H^j(x) from scratch, in-round."""
        block = x
        for _ in range(j):
            block = oracle.query(block)
        return block

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        if not ctx.incoming:
            return RoundOutput(halt=True)
        x = ctx.incoming[0][1]
        state = self._v_block(ctx.oracle, x, self._cost)  # end of phase 1
        for _ in range(self._cost):
            j = state.value % self._cost
            block = self._v_block(ctx.oracle, x, j)
            state = ctx.oracle.query(state ^ block)
        return RoundOutput(output=state, halt=True)


@dataclass
class OneRoundROMixSetup:
    """Configuration for the one-round evaluation."""

    cost: int
    mpc_params: MPCParams
    machines: list[OneRoundROMixMachine]
    initial_memories: list[Bits]


def build_one_round_romix(x: Bits, cost: int) -> OneRoundROMixSetup:
    """One machine, memory = one block, queries ~ N^2 / 2 in the round."""
    params = MPCParams(
        m=1,
        s_bits=len(x),
        q=cost * (cost + 2),  # worst-case in-round query budget
        max_rounds=3,
    )
    return OneRoundROMixSetup(
        cost=cost,
        mpc_params=params,
        machines=[OneRoundROMixMachine(cost)],
        initial_memories=[x],
    )


def run_one_round_romix(
    setup: OneRoundROMixSetup, oracle: Oracle
) -> tuple[MPCResult, Bits]:
    """Run and cross-check against the honest sequential evaluation."""
    sim = MPCSimulator(setup.mpc_params, setup.machines, oracle=oracle)
    result = sim.run(setup.initial_memories)
    reference = romix(oracle, setup.initial_memories[0], setup.cost)
    return result, reference
