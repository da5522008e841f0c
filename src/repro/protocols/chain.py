"""Frontier chain-following for ``Line`` -- the natural best effort.

One token (the *frontier*: next node index, its pointer, the running
``r``) travels between machines.  The machine holding the token advances
the chain as long as the piece the next node needs is in its local
store, then hands the token to an owner of the missing piece.  Storage
can be replicated: each machine holds a cyclic window of
``pieces_per_machine`` pieces, i.e. a fraction ``f = pieces_per_machine/v``
of the input, which is the knob the hardness is about (``f <= 1/c``).

Expected behaviour under a uniform oracle: each advance step stays local
with probability ``f``, so a round advances ``1/(1-f)`` nodes in
expectation and the whole run takes ``~(1-f)·w + 2`` rounds -- linear in
``T`` however many machines exist, which is the shape Lemma 3.2 proves
unavoidable.  Experiments E-LINE and E-MEM measure exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bits import Bits
from repro.bounds.regimes import hardness_threshold
from repro.bounds.theorem31 import default_lookahead, lemma32_round_bound
from repro.costmodel.announce import chain_cost_bindings
from repro.functions.line import line_query
from repro.obs.tracer import get_tracer
from repro.functions.params import LineParams
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCResult, MPCSimulator
from repro.oracle.base import Oracle
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

__all__ = [
    "ChainSetup",
    "LineChainMachine",
    "build_chain_protocol",
    "cyclic_replicated_owners",
    "run_chain",
]


def cyclic_replicated_owners(
    v: int, m: int, pieces_per_machine: int
) -> list[list[int]]:
    """Cyclic-window storage: machine ``k`` holds ``pieces_per_machine``
    consecutive pieces starting at ``k * v // m`` (indices mod ``v``).

    Returns ``owners[piece] = [machines holding it]``.  Coverage of every
    piece requires ``pieces_per_machine >= ceil(v / m)``.
    """
    if pieces_per_machine <= 0 or pieces_per_machine > v:
        raise ValueError(
            f"pieces_per_machine={pieces_per_machine} out of range for v={v}"
        )
    if m <= 0:
        raise ValueError(f"need at least one machine, got m={m}")
    owners: list[list[int]] = [[] for _ in range(v)]
    for k in range(m):
        start = k * v // m
        for j in range(pieces_per_machine):
            owners[(start + j) % v].append(k)
    missing = [p for p, lst in enumerate(owners) if not lst]
    if missing:
        raise ValueError(
            f"storage windows leave pieces {missing[:5]}... unowned; "
            f"need pieces_per_machine >= ceil(v/m) = {-(-v // m)}"
        )
    return owners


class LineChainMachine(Machine):
    """One machine of the chain-following protocol.

    Static (algorithmic) configuration: which pieces this machine stores,
    where to hand off each piece, whether it creates the initial
    frontier, and the per-round query budget.  Dynamic state -- the piece
    *values* and the frontier -- lives purely in messages.
    """

    #: Output for rounds >= 1 is a pure function of the incoming
    #: messages; safe for the simulator's steady-state replay.
    round_oblivious = True

    def __init__(
        self,
        params: LineParams,
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
        # The payload the whole store arrived in, when that payload is one
        # STORE record: it is sent back as it came (see below).
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
                # Finished: publish the output, tell everyone to stop.
                out.output = answer
                out.messages = {
                    j: encode_done() for j in range(ctx.num_machines)
                }
                return out
            target = self._handoff[frontier.pointer]
            out.messages[target] = encode_frontier(params, frontier)

        if store:
            # The decoder accepts only canonical stores, so re-encoding an
            # unchanged store would rebuild the payload it came in, bit for
            # bit: forward that payload instead.
            self_msg = (
                store_payload
                if store_payload is not None
                else encode_store(params, sorted(store.items()))
            )
            prev = out.messages.get(self._id)
            if prev is not None:
                # The frontier comes back to us when the query budget q
                # stalls it on a piece we are the first owner of; it
                # travels ahead of the store in one payload.
                out.messages[self._id] = prev + self_msg
            else:
                out.messages[self._id] = self_msg
        return out

    def _advance(
        self, ctx: RoundContext, store: dict[int, Bits], frontier: Frontier
    ) -> tuple[Frontier, Bits | None]:
        """Walk the chain while the needed piece is local; return the new
        frontier and the last oracle answer (the output if we finished)."""
        params = self._params
        answer: Bits | None = None
        queries = 0
        while (
            frontier.node < params.w
            and frontier.pointer in store
            and (self._q is None or queries < self._q)
        ):
            query = line_query(
                params, frontier.node, store[frontier.pointer], frontier.r
            )
            answer = ctx.oracle.query(query)
            queries += 1
            frontier = Frontier(frontier.node + 1, *params.next_node(answer))
        return frontier, answer


@dataclass
class ChainSetup:
    """Everything needed to simulate one chain-protocol run."""

    fn_params: LineParams
    mpc_params: MPCParams
    machines: list[LineChainMachine]
    initial_memories: list[Bits]
    x: list[Bits]
    piece_owners: list[list[int]]

    @property
    def storage_fraction(self) -> float:
        """The per-machine input fraction ``f`` (max over machines)."""
        per_machine: dict[int, int] = {}
        for owners in self.piece_owners:
            for k in owners:
                per_machine[k] = per_machine.get(k, 0) + 1
        return max(per_machine.values()) / self.fn_params.v


def build_chain_protocol(
    fn_params: LineParams,
    x: list[Bits],
    *,
    num_machines: int,
    pieces_per_machine: int | None = None,
    q: int | None = None,
    max_rounds: int | None = None,
    slack_bits: int = 0,
) -> ChainSetup:
    """Configure machines, storage windows, and bit-exact memory sizes.

    ``pieces_per_machine`` defaults to an even split ``ceil(v/m)`` (no
    replication); larger values replicate pieces, raising the stored
    fraction ``f`` and with it the per-round progress.  The MPC memory
    ``s`` is set to exactly what the protocol needs (store + frontier)
    plus ``slack_bits``, so the run is as memory-tight as the model
    allows.
    """
    v = fn_params.v
    if pieces_per_machine is None:
        pieces_per_machine = -(-v // num_machines)
    owners = cyclic_replicated_owners(v, num_machines, pieces_per_machine)
    handoff = {p: lst[0] for p, lst in enumerate(owners)}

    machine_pieces: list[set[int]] = [set() for _ in range(num_machines)]
    for p, lst in enumerate(owners):
        for k in lst:
            machine_pieces[k].add(p)

    start_machine = handoff[0]  # owner of piece 0: l_0 = 0
    machines = [
        LineChainMachine(
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
    return ChainSetup(
        fn_params=fn_params,
        mpc_params=mpc_params,
        machines=machines,
        initial_memories=initial_memories,
        x=list(x),
        piece_owners=owners,
    )


def run_chain(setup: ChainSetup, oracle: Oracle) -> MPCResult:
    """Simulate the protocol against ``oracle``.

    Under a tracer, the run is preceded by a ``bounds.expect_rounds``
    event declaring the theory prediction band for the round count:
    the upper edge is the protocol's worst case (one advance per round,
    ``w`` handoffs, plus the halt handshake); the lower edge is Lemma
    3.2's ``w / log^2 w`` whenever the stored fraction ``f = s/S`` sits
    in the hardness regime ``s <= S/c`` (:func:`hardness_threshold`).
    :class:`repro.obs.InvariantMonitor` checks the finished run against
    this band.

    A ``cost.model`` announcement precedes the run as well, so a
    subscribed :class:`repro.costmodel.CostOracle` can check the
    finished run's exact message/bit/query counters against the
    symbolic chain formulas.
    """
    tracer = get_tracer()
    if tracer.enabled:
        fn = setup.fn_params
        f = setup.storage_fraction
        in_hard_regime = f * fn.v <= hardness_threshold(fn.v)
        lo = lemma32_round_bound(fn.w) if in_hard_regime else 1.0
        tracer.event(
            "bounds.expect_rounds",
            lo=lo,
            hi=fn.w + 4,
            w=fn.w,
            f=round(f, 6),
            lookahead=default_lookahead(fn.w),
            hard_regime=in_hard_regime,
            source="lemma32",
        )
        tracer.event(
            "cost.model",
            model="chain",
            trigger="mpc.run",
            params=chain_cost_bindings(setup),
        )
    sim = MPCSimulator(
        setup.mpc_params, setup.machines, oracle=oracle
    )
    return sim.run(setup.initial_memories)
