"""One-round MPC pointer jumping (the Section 1.2 contrast).

The paper explains why Miltersen's PRAM lower bound does not transfer to
MPC: "in the MPC model, a local machine can make an arbitrary number of
queries to the oracle in one round, and thus solve the problem
considered in [54] in one round."  This protocol is that sentence as
code: machine 0 holds only the start node and jump count (``O(log N)``
bits -- far below the instance size) and walks the oracle-defined
successor chain with ``k`` adaptive in-round queries.

:mod:`repro.baselines.pram` runs the same instance on a PRAM, where each
jump costs a synchronous step; experiment E-BASE reports both numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits import BitReader, BitWriter, Bits, bits_needed
from repro.costmodel.announce import pointer_jump_cost_bindings
from repro.functions.pointer_jump import PointerJumpInstance
from repro.obs.tracer import get_tracer
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCResult, MPCSimulator
from repro.oracle.base import Oracle

__all__ = [
    "PointerJumpSetup",
    "OneRoundPointerJumpMachine",
    "build_pointer_jump_protocol",
    "run_pointer_jump",
]


class OneRoundPointerJumpMachine(Machine):
    """Walk ``k`` oracle-defined jumps with adaptive queries, in one round."""

    #: Output for rounds >= 1 is a pure function of the incoming
    #: messages; safe for the simulator's steady-state replay.
    round_oblivious = True

    def __init__(self, size: int, node_bits: int, count_bits: int) -> None:
        self._size = size
        self._node_bits = node_bits
        self._count_bits = count_bits

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        if not ctx.incoming:
            return RoundOutput(halt=True)
        reader = BitReader(ctx.incoming[0][1])
        node = reader.read(self._node_bits)
        jumps = reader.read(self._count_bits)
        for _ in range(jumps):
            answer = ctx.oracle.query(Bits(node, ctx.oracle.n_in))
            node = answer.value % self._size
        return RoundOutput(output=Bits(node, self._node_bits), halt=True)


@dataclass
class PointerJumpSetup:
    """Configuration for a one-round pointer-jump run."""

    instance: PointerJumpInstance
    mpc_params: MPCParams
    machines: list[OneRoundPointerJumpMachine]
    initial_memories: list[Bits]
    node_bits: int


def build_pointer_jump_protocol(
    oracle: Oracle, size: int, start: int, jumps: int
) -> PointerJumpSetup:
    """Set up the one-round protocol for an oracle-defined instance.

    Local memory is sized at ``O(log N + log k)`` bits: the machine never
    stores the successor table, it queries it.
    """
    if size <= 0 or not 0 <= start < size or jumps < 0:
        raise ValueError(f"invalid instance (size={size}, start={start}, jumps={jumps})")
    instance = PointerJumpInstance.from_oracle(oracle, size, start, jumps)
    node_bits = max(bits_needed(size), 1)
    count_bits = max(bits_needed(jumps + 1), 1)
    writer = BitWriter()
    writer.write(start, node_bits)
    writer.write(jumps, count_bits)
    memory = writer.getvalue()
    params = MPCParams(
        m=1, s_bits=len(memory), q=max(jumps, 1), max_rounds=4
    )
    return PointerJumpSetup(
        instance=instance,
        mpc_params=params,
        machines=[OneRoundPointerJumpMachine(size, node_bits, count_bits)],
        initial_memories=[memory],
        node_bits=node_bits,
    )


def run_pointer_jump(setup: PointerJumpSetup, oracle: Oracle) -> MPCResult:
    """Simulate; the result's single output is the reached node.

    Under a tracer, a ``cost.model`` announcement precedes the run (one
    round, zero messages, exactly ``k`` queries).
    """
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "cost.model",
            model="pointer_jump",
            trigger="mpc.run",
            params=pointer_jump_cost_bindings(setup),
        )
    sim = MPCSimulator(setup.mpc_params, setup.machines, oracle=oracle)
    return sim.run(setup.initial_memories)
