"""K independent ``Line`` instances in one MPC computation.

The theorem bounds the *latency* of one evaluation; it says nothing
against *throughput*.  This module makes that distinction concrete: K
independent chains (domain-separated through the node-index field, so
one oracle serves all instances) are evaluated concurrently by the same
memory-limited cluster.  All K frontiers circulate at once, so the run
finishes in ``~max_k (1-f)·w`` rounds -- barely more than a single
instance -- while doing ``K·w`` oracle work.  Parallel machines pay for
themselves on many evaluations, never on one: exactly the reading of
"nearly best-possible hardness" the introduction gives.

Wire format (module-local tag space, 2 bits):

* ``STORE``    count + (global piece id, piece) pairs, sent to self;
* ``FRONTIER`` global node index + global piece id + ``r``;
* ``OUTPUT``   instance id + the instance's n-bit answer (to machine 0);
* ``DONE``     broadcast by machine 0 once all K outputs arrived.

Global namespaces: instance ``k``'s node ``i`` has global index
``k·w + i`` (this is also what the oracle query's index field carries --
the domain separation); its piece ``j`` has global id ``k·v + j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

from repro.bits import BitReader, BitWriter, Bits, bits_needed
from repro.functions.line import line_query
from repro.functions.params import LineParams
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCResult, MPCSimulator
from repro.oracle.base import Oracle
from repro.protocols.chain import cyclic_replicated_owners

__all__ = [
    "MultiChainSetup",
    "MultiChainMachine",
    "build_multichain_protocol",
    "run_multichain",
    "evaluate_instance",
]

_TAG_BITS = 2


class _Tag(IntEnum):
    STORE = 0
    FRONTIER = 1
    OUTPUT = 2
    DONE = 3


@dataclass(frozen=True)
class _Layout:
    """Bit widths of the combined namespaces."""

    instances: int
    params: LineParams  # combined: v = per-instance v, w = K * per-instance w
    w_each: int

    @property
    def node_bits(self) -> int:
        return bits_needed(self.params.w + 1)

    @property
    def piece_bits(self) -> int:
        return max(bits_needed(self.instances * self.params.v), 1)

    @property
    def count_bits(self) -> int:
        return max(bits_needed(self.instances * self.params.v + 1), 1)

    @property
    def instance_bits(self) -> int:
        return max(bits_needed(self.instances), 1)


def evaluate_instance(
    layout: _Layout, x: Sequence[Bits], instance: int, oracle: Oracle
) -> Bits:
    """Reference evaluation of instance ``k`` (domain-separated chain)."""
    params = layout.params
    if not 0 <= instance < layout.instances:
        raise ValueError(f"instance {instance} out of range")
    ell = 0
    r = Bits.zeros(params.u)
    answer = Bits.zeros(params.n)
    base = instance * layout.w_each
    for i in range(layout.w_each):
        answer = oracle.query(line_query(params, base + i, x[ell], r))
        ell, r = params.next_node(answer)
    return answer


class MultiChainMachine(Machine):
    """Advances every frontier it holds; machine 0 collects outputs."""

    #: Output for rounds >= 1 is a pure function of the incoming
    #: messages; safe for the simulator's steady-state replay.
    round_oblivious = True

    def __init__(
        self,
        layout: _Layout,
        machine_id: int,
        my_pieces: frozenset[int],  # global piece ids
        handoff: dict[int, int],  # global piece id -> machine
        start_frontiers: tuple[int, ...],  # instances whose chain starts here
    ) -> None:
        self._layout = layout
        self._id = machine_id
        self._my_pieces = my_pieces
        self._handoff = handoff
        self._starts = start_frontiers

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _encode_store(self, store: dict[int, Bits]) -> Bits:
        lay = self._layout
        w = BitWriter()
        w.write(_Tag.STORE, _TAG_BITS)
        w.write(len(store), lay.count_bits)
        for gid in sorted(store):
            w.write(gid, lay.piece_bits)
            w.write_bits(store[gid])
        return w.getvalue()

    def _encode_frontier(self, node: int, pointer: int, r: Bits) -> Bits:
        lay = self._layout
        w = BitWriter()
        w.write(_Tag.FRONTIER, _TAG_BITS)
        w.write(node, lay.node_bits)
        w.write(pointer, lay.piece_bits)
        w.write_bits(r)
        return w.getvalue()

    def _encode_output(self, instance: int, answer: Bits) -> Bits:
        lay = self._layout
        w = BitWriter()
        w.write(_Tag.OUTPUT, _TAG_BITS)
        w.write(instance, lay.instance_bits)
        w.write_bits(answer)
        return w.getvalue()

    def _decode(self, payload: Bits):
        lay = self._layout
        reader = BitReader(payload)
        while not reader.at_end():
            tag = _Tag(reader.read(_TAG_BITS))
            if tag is _Tag.STORE:
                count = reader.read(lay.count_bits)
                store = {}
                for _ in range(count):
                    gid = reader.read(lay.piece_bits)
                    store[gid] = reader.read_bits(lay.params.u)
                yield tag, store
            elif tag is _Tag.FRONTIER:
                node = reader.read(lay.node_bits)
                pointer = reader.read(lay.piece_bits)
                r = reader.read_bits(lay.params.u)
                yield tag, (node, pointer, r)
            elif tag is _Tag.OUTPUT:
                instance = reader.read(lay.instance_bits)
                answer = reader.read_bits(lay.params.n)
                yield tag, (instance, answer)
            else:
                yield tag, None

    # ------------------------------------------------------------------
    def run_round(self, ctx: RoundContext) -> RoundOutput:
        lay = self._layout
        params = lay.params
        store: dict[int, Bits] = {}
        frontiers: list[tuple[int, int, Bits]] = []
        collected: dict[int, Bits] = {}

        for _sender, payload in ctx.incoming:
            for tag, value in self._decode(payload):
                if tag is _Tag.DONE:
                    return RoundOutput(halt=True)
                if tag is _Tag.STORE:
                    store.update(value)
                elif tag is _Tag.FRONTIER:
                    frontiers.append(value)
                elif tag is _Tag.OUTPUT:
                    collected[value[0]] = value[1]

        if ctx.round == 0:
            for instance in self._starts:
                frontiers.append(
                    (instance * lay.w_each, instance * params.v, Bits.zeros(params.u))
                )

        out = RoundOutput()
        outputs_to_send: list[tuple[int, Bits]] = []
        outgoing: dict[int, list[Bits]] = {}
        for node, pointer, r in frontiers:
            node, pointer, r, answer = self._advance(ctx, store, node, pointer, r)
            if node % lay.w_each == 0 and node > 0 and answer is not None:
                # Ran off the end of this instance's chain: finished.
                outputs_to_send.append(((node - 1) // lay.w_each, answer))
            else:
                target = self._handoff[pointer]
                outgoing.setdefault(target, []).append(
                    self._encode_frontier(node, pointer, r)
                )

        # Machine 0 is the collector: local finishes merge directly,
        # remote finishes travel as OUTPUT records.
        if self._id == 0:
            collected.update(outputs_to_send)
            if len(collected) == lay.instances:
                final = Bits.concat([collected[k] for k in range(lay.instances)])
                return RoundOutput(
                    output=final,
                    messages={
                        j: Bits(_Tag.DONE, _TAG_BITS)
                        for j in range(ctx.num_machines)
                    },
                )
            if collected:
                outgoing.setdefault(self._id, []).append(
                    Bits.concat(
                        [self._encode_output(k, a) for k, a in sorted(collected.items())]
                    )
                )
        elif outputs_to_send:
            outgoing.setdefault(0, []).append(
                Bits.concat(
                    [self._encode_output(k, a) for k, a in outputs_to_send]
                )
            )

        if store:
            outgoing.setdefault(self._id, []).append(self._encode_store(store))
        out.messages = {dst: Bits.concat(parts) for dst, parts in outgoing.items()}
        return out

    def _advance(self, ctx, store, node, pointer, r):
        lay = self._layout
        params = lay.params
        answer = None
        while node < params.w and pointer in store:
            answer = ctx.oracle.query(
                line_query(params, node, store[pointer], r)
            )
            ell, next_r = params.next_node(answer)
            node += 1
            if node % lay.w_each == 0:
                break  # end of this instance's chain
            instance = node // lay.w_each
            pointer = instance * params.v + ell
            r = next_r
        return node, pointer, r, answer


@dataclass
class MultiChainSetup:
    """Everything needed to simulate one multi-instance run."""

    layout: _Layout
    mpc_params: MPCParams
    machines: list[MultiChainMachine]
    initial_memories: list[Bits]
    inputs: list[list[Bits]]  # per instance

    @property
    def instances(self) -> int:
        """Number of concurrent chains K."""
        return self.layout.instances


def build_multichain_protocol(
    *,
    n: int,
    u: int,
    v: int,
    w_each: int,
    instances: int,
    inputs: Sequence[Sequence[Bits]],
    num_machines: int,
    pieces_per_machine: int | None = None,
    max_rounds: int | None = None,
) -> MultiChainSetup:
    """Configure K domain-separated chains over one cluster.

    Storage: per instance, each machine holds the same cyclic window of
    ``pieces_per_machine`` pieces, so the per-instance stored fraction
    ``f`` matches the single-chain protocol at equal window size.
    """
    if instances <= 0:
        raise ValueError(f"need at least one instance, got {instances}")
    if len(inputs) != instances:
        raise ValueError(
            f"got {len(inputs)} inputs for {instances} instances"
        )
    params = LineParams(n=n, u=u, v=v, w=instances * w_each)
    layout = _Layout(instances=instances, params=params, w_each=w_each)
    if pieces_per_machine is None:
        pieces_per_machine = -(-v // num_machines)
    owners = cyclic_replicated_owners(v, num_machines, pieces_per_machine)
    handoff_local = {p: lst[0] for p, lst in enumerate(owners)}

    machine_pieces: list[set[int]] = [set() for _ in range(num_machines)]
    handoff: dict[int, int] = {}
    for k in range(instances):
        for p, lst in enumerate(owners):
            gid = k * v + p
            handoff[gid] = handoff_local[p]
            for machine in lst:
                machine_pieces[machine].add(gid)

    start_owner = handoff_local[0]
    machines = [
        MultiChainMachine(
            layout,
            mid,
            frozenset(machine_pieces[mid]),
            handoff,
            start_frontiers=tuple(range(instances)) if mid == start_owner else (),
        )
        for mid in range(num_machines)
    ]
    initial_memories = []
    for mid in range(num_machines):
        store = {}
        for gid in machine_pieces[mid]:
            k, p = divmod(gid, v)
            store[gid] = inputs[k][p]
        initial_memories.append(
            machines[mid]._encode_store(store) if store else Bits(0, 0)
        )
    # Memory: store + up to K frontiers + K collected outputs (machine 0).
    store_bits = max(len(m) for m in initial_memories)
    frontier_bits = _TAG_BITS + layout.node_bits + layout.piece_bits + u
    output_bits = _TAG_BITS + layout.instance_bits + n
    # Worst inbox: the store, K frontiers, K fresh outputs, and machine
    # 0's persisted partial collection of K outputs.
    s_bits = store_bits + instances * (frontier_bits + 2 * output_bits) + 16
    mpc_params = MPCParams(
        m=num_machines,
        s_bits=s_bits,
        max_rounds=max_rounds if max_rounds is not None else 3 * w_each + 20,
    )
    return MultiChainSetup(
        layout=layout,
        mpc_params=mpc_params,
        machines=machines,
        initial_memories=initial_memories,
        inputs=[list(xs) for xs in inputs],
    )


def run_multichain(setup: MultiChainSetup, oracle: Oracle) -> MPCResult:
    """Simulate; machine 0's output is the K concatenated answers."""
    sim = MPCSimulator(setup.mpc_params, setup.machines, oracle=oracle)
    return sim.run(setup.initial_memories)
