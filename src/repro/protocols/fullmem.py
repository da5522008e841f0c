"""The trivial protocols at the big-memory end of the axis.

Section 1: "if each machine has local memory size ``S``, then trivially
the function can be computed in one round."  Two variants:

* ``colocated=True`` -- the adversarially *friendly* input placement puts
  the whole input on machine 0, which evaluates the chain with ``w``
  in-round adaptive queries and outputs immediately: **1 round**;
* ``colocated=False`` -- the input is spread across machines, which all
  forward their shares to machine 0 in round 0; machine 0 computes in
  round 1: **2 rounds**.

Together with the chain protocol these trace the crossover the
best-possible-hardness statement is about: rounds collapse from
``~(1-f)·w`` to ``O(1)`` exactly when ``s`` reaches ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits import Bits
from repro.costmodel.announce import fullmem_cost_bindings
from repro.functions.line import line_query
from repro.functions.params import LineParams
from repro.obs.tracer import get_tracer
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCResult, MPCSimulator
from repro.oracle.base import Oracle
from repro.protocols.wire import (
    Frontier,
    MessageKind,
    decode_records,
    encode_done,
    encode_store,
    frontier_bits_required,
    store_bits_required,
)

__all__ = ["FullMemorySetup", "FullMemoryMachine", "build_fullmem_protocol", "run_fullmem"]


class FullMemoryMachine(Machine):
    """Gather every piece on machine 0, then evaluate locally."""

    #: Output for rounds >= 1 is a pure function of the incoming
    #: messages; safe for the simulator's steady-state replay.
    round_oblivious = True

    def __init__(self, params: LineParams, machine_id: int) -> None:
        self._params = params
        self._id = machine_id

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        params = self._params
        store: dict[int, Bits] = {}
        for _sender, payload in ctx.incoming:
            for kind, value in decode_records(params, payload):
                if kind is MessageKind.DONE:
                    return RoundOutput(halt=True)
                if kind is MessageKind.STORE:
                    store.update(value)

        if self._id != 0:
            # Forward our share to machine 0 and go quiet.
            if store:
                return RoundOutput(
                    messages={0: encode_store(params, sorted(store.items()))}
                )
            return RoundOutput()

        if len(store) < params.v:
            # Not everything has arrived yet; persist what we have.
            if store:
                return RoundOutput(
                    messages={0: encode_store(params, sorted(store.items()))}
                )
            return RoundOutput()

        # Whole input local: walk the chain with in-round adaptive queries.
        frontier = Frontier(node=0, pointer=0, r=Bits.zeros(params.u))
        answer = Bits.zeros(params.n)
        while frontier.node < params.w:
            answer = ctx.oracle.query(
                line_query(params, frontier.node, store[frontier.pointer], frontier.r)
            )
            frontier = Frontier(frontier.node + 1, *params.next_node(answer))
        return RoundOutput(
            output=answer,
            messages={j: encode_done() for j in range(ctx.num_machines)},
        )


@dataclass
class FullMemorySetup:
    """Configuration for a full-memory run."""

    fn_params: LineParams
    mpc_params: MPCParams
    machines: list[FullMemoryMachine]
    initial_memories: list[Bits]
    x: list[Bits]


def build_fullmem_protocol(
    fn_params: LineParams,
    x: list[Bits],
    *,
    num_machines: int = 2,
    colocated: bool = True,
    slack_bits: int = 0,
) -> FullMemorySetup:
    """Build the trivial protocol; ``s`` is sized to hold all of ``X``."""
    if num_machines <= 0:
        raise ValueError(f"need at least one machine, got {num_machines}")
    v = fn_params.v
    machines = [FullMemoryMachine(fn_params, k) for k in range(num_machines)]
    if colocated:
        shares: list[list[int]] = [list(range(v))] + [[] for _ in range(num_machines - 1)]
    else:
        per = -(-v // num_machines)
        shares = [list(range(k * per, min((k + 1) * per, v))) for k in range(num_machines)]
    initial_memories = [
        encode_store(fn_params, [(p, x[p]) for p in share]) if share else Bits(0, 0)
        for k, share in enumerate(shares)
    ]
    s_bits = (
        store_bits_required(fn_params, v)
        + frontier_bits_required(fn_params)
        + slack_bits
    )
    mpc_params = MPCParams(
        m=num_machines,
        s_bits=s_bits,
        q=fn_params.w,
        max_rounds=num_machines + 5,
    )
    return FullMemorySetup(
        fn_params=fn_params,
        mpc_params=mpc_params,
        machines=machines,
        initial_memories=initial_memories,
        x=list(x),
    )


def run_fullmem(setup: FullMemorySetup, oracle: Oracle) -> MPCResult:
    """Simulate the trivial protocol against ``oracle``.

    Under a tracer, a ``cost.model`` announcement (colocated or spread
    variant, detected from the initial placement) precedes the run for
    the cost oracle's exact counter check.
    """
    tracer = get_tracer()
    if tracer.enabled:
        model_id, bindings = fullmem_cost_bindings(setup)
        tracer.event(
            "cost.model", model=model_id, trigger="mpc.run", params=bindings
        )
    sim = MPCSimulator(setup.mpc_params, setup.machines, oracle=oracle)
    return sim.run(setup.initial_memories)
