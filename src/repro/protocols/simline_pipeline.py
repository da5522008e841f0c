"""Round-robin pipeline for ``SimLine`` -- the matching upper bound.

``SimLine``'s access pattern is the deterministic round robin
``x_0, x_1, ..., x_{v-1}, x_0, ...``, so a machine holding ``b``
*consecutive* pieces advances ``b`` nodes per visit: the frontier sweeps
across the machines like a pipeline, taking ``~w/b = w·u/s`` rounds
total.  This matches Lemma A.2's ``Omega(T·u/s)`` lower bound up to a
constant, demonstrating that the warm-up analysis is tight -- and, by
contrast with :mod:`repro.protocols.chain`, that the *random* pointer of
``Line`` is what destroys this speedup (ablation E-SIMLINE vs E-LINE).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits import Bits
from repro.costmodel.announce import pipeline_cost_bindings
from repro.functions.params import SimLineParams
from repro.functions.simline import simline_query
from repro.obs.tracer import get_tracer
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCResult, MPCSimulator
from repro.oracle.base import Oracle
from repro.protocols.chain import cyclic_replicated_owners
from repro.protocols.wire import (
    Frontier,
    MessageKind,
    decode_records,
    encode_done,
    encode_frontier,
    encode_store,
    frontier_bits_required,
    store_bits_required,
)

__all__ = ["PipelineSetup", "SimLinePipelineMachine", "build_simline_pipeline", "run_pipeline"]


class SimLinePipelineMachine(Machine):
    """One stage of the pipeline: a contiguous window of pieces."""

    #: Output for rounds >= 1 is a pure function of the incoming
    #: messages; safe for the simulator's steady-state replay.
    round_oblivious = True

    def __init__(
        self,
        params: SimLineParams,
        machine_id: int,
        my_pieces: frozenset[int],
        handoff: dict[int, int],
        *,
        starts_frontier: bool,
        q: int | None = None,
    ) -> None:
        self._params = params
        self._id = machine_id
        self._my_pieces = my_pieces
        self._handoff = handoff
        self._starts_frontier = starts_frontier
        self._q = q

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        params = self._params
        store: dict[int, Bits] = {}
        frontier: Frontier | None = None
        # As in the chain protocol: a store that arrived as one lone
        # STORE record is sent back as it came.
        store_payload: Bits | None = None

        for _sender, payload in ctx.incoming:
            records = decode_records(params, payload)
            for kind, value in records:
                if kind is MessageKind.DONE:
                    return RoundOutput(halt=True)
                if kind is MessageKind.STORE:
                    store_payload = (
                        payload if not store and len(records) == 1 else None
                    )
                    store.update(value)
                elif kind is MessageKind.FRONTIER:
                    frontier = value

        if ctx.round == 0 and self._starts_frontier:
            frontier = Frontier(node=0, pointer=0, r=Bits.zeros(params.u))

        out = RoundOutput()
        if frontier is not None:
            frontier, answer = self._advance(ctx, store, frontier)
            if frontier.node >= params.w:
                out.output = answer
                out.messages = {
                    j: encode_done() for j in range(ctx.num_machines)
                }
                return out
            target = self._handoff[frontier.pointer]
            out.messages[target] = encode_frontier(params, frontier)

        if store:
            self_msg = (
                store_payload
                if store_payload is not None
                else encode_store(params, sorted(store.items()))
            )
            prev = out.messages.get(self._id)
            out.messages[self._id] = (prev + self_msg) if prev else self_msg
        return out

    def _advance(
        self, ctx: RoundContext, store: dict[int, Bits], frontier: Frontier
    ) -> tuple[Frontier, Bits | None]:
        params = self._params
        answer: Bits | None = None
        queries = 0
        while (
            frontier.node < params.w
            and frontier.pointer in store
            and (self._q is None or queries < self._q)
        ):
            answer = ctx.oracle.query(
                simline_query(params, store[frontier.pointer], frontier.r)
            )
            queries += 1
            next_node = frontier.node + 1
            frontier = Frontier(
                next_node, params.piece_index(next_node), params.next_r(answer)
            )
        return frontier, answer


@dataclass
class PipelineSetup:
    """Everything needed to simulate one pipeline run."""

    fn_params: SimLineParams
    mpc_params: MPCParams
    machines: list[SimLinePipelineMachine]
    initial_memories: list[Bits]
    x: list[Bits]
    piece_owners: list[list[int]]

    @property
    def pieces_per_machine(self) -> int:
        """Window size ``b`` (pieces per machine)."""
        counts: dict[int, int] = {}
        for owners in self.piece_owners:
            for k in owners:
                counts[k] = counts.get(k, 0) + 1
        return max(counts.values())


def build_simline_pipeline(
    fn_params: SimLineParams,
    x: list[Bits],
    *,
    num_machines: int,
    pieces_per_machine: int | None = None,
    q: int | None = None,
    max_rounds: int | None = None,
    slack_bits: int = 0,
) -> PipelineSetup:
    """Configure the pipeline: contiguous windows, tight memory.

    The realized local memory is ``store(b) + frontier + slack`` bits
    where ``b = pieces_per_machine``, so sweeping ``b`` sweeps ``s``
    while keeping the accounting honest.
    """
    v = fn_params.v
    if pieces_per_machine is None:
        pieces_per_machine = -(-v // num_machines)
    owners = cyclic_replicated_owners(v, num_machines, pieces_per_machine)
    machine_pieces: list[set[int]] = [set() for _ in range(num_machines)]
    for p, lst in enumerate(owners):
        for k in lst:
            machine_pieces[k].add(p)

    def run_length(k: int, p: int) -> int:
        # Consecutive pieces p, p+1, ... (mod v) held by machine k: the
        # number of nodes it can advance before stalling.
        length = 0
        while length < v and (p + length) % v in machine_pieces[k]:
            length += 1
        return length

    # Hand each piece to the owner that can carry the frontier furthest.
    handoff = {
        p: max(lst, key=lambda k: run_length(k, p))
        for p, lst in enumerate(owners)
    }
    start_machine = handoff[0]
    machines = [
        SimLinePipelineMachine(
            fn_params,
            k,
            frozenset(machine_pieces[k]),
            handoff,
            starts_frontier=(k == start_machine),
            q=q,
        )
        for k in range(num_machines)
    ]
    initial_memories = [
        encode_store(fn_params, sorted((p, x[p]) for p in machine_pieces[k]))
        if machine_pieces[k]
        else Bits(0, 0)
        for k in range(num_machines)
    ]
    s_bits = (
        store_bits_required(fn_params, pieces_per_machine)
        + frontier_bits_required(fn_params)
        + slack_bits
    )
    mpc_params = MPCParams(
        m=num_machines,
        s_bits=s_bits,
        q=q,
        max_rounds=max_rounds if max_rounds is not None else 2 * fn_params.w + 10,
    )
    return PipelineSetup(
        fn_params=fn_params,
        mpc_params=mpc_params,
        machines=machines,
        initial_memories=initial_memories,
        x=list(x),
        piece_owners=owners,
    )


def run_pipeline(setup: PipelineSetup, oracle: Oracle) -> MPCResult:
    """Simulate the pipeline against ``oracle``.

    Under a tracer, a ``cost.model`` announcement precedes the run: the
    pipeline is deterministic, so every counter -- including the round
    count -- is predicted exactly (see :mod:`repro.costmodel.models`).
    """
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "cost.model",
            model="simline_pipeline",
            trigger="mpc.run",
            params=pipeline_cost_bindings(setup),
        )
    sim = MPCSimulator(setup.mpc_params, setup.machines, oracle=oracle)
    return sim.run(setup.initial_memories)
