"""Store forwarding in the chain and SimLine-pipeline protocols.

A machine whose whole store arrived as one lone STORE record sends that
same payload back to itself instead of re-encoding the store.  This must
be invisible: every payload that carries a STORE equals the re-encoding
of its records, and a run equals -- in rounds, outputs, per-round
:class:`RoundStats` (edges included) and the oracle transcript -- a run
of machines that re-encode every message they send themselves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import Bits
from repro.functions import (
    LineParams,
    SimLineParams,
    evaluate_line,
    evaluate_simline,
    sample_input,
)
from repro.mpc import MPCSimulator
from repro.oracle import LazyRandomOracle
from repro.protocols import build_chain_protocol, build_simline_pipeline
from repro.protocols.chain import LineChainMachine
from repro.protocols.simline_pipeline import SimLinePipelineMachine
from repro.protocols.wire import (
    MessageKind,
    decode_records,
    encode_done,
    encode_frontier,
    encode_store,
)


def reencode(params, records) -> Bits:
    out = Bits(0, 0)
    for kind, value in records:
        if kind is MessageKind.STORE:
            out += encode_store(params, sorted(value.items()))
        elif kind is MessageKind.FRONTIER:
            out += encode_frontier(params, value)
        else:
            out += encode_done()
    return out


class ForwardCounter:
    """Counts the executed steps whose self message is a payload the
    step received."""

    forwards = 0

    def run_round(self, ctx):
        out = super().run_round(ctx)
        own = out.messages.get(self._id)
        if any(own is payload for _, payload in ctx.incoming):
            self.forwards += 1
        return out


class Reencoding:
    """Re-encodes every message the machine sends itself from its
    records, so no payload is ever forwarded."""

    def run_round(self, ctx):
        out = super().run_round(ctx)
        own = out.messages.get(self._id)
        if own is not None:
            out.messages[self._id] = reencode(
                self._params, decode_records(self._params, own)
            )
        return out


class CountedChainMachine(ForwardCounter, LineChainMachine):
    pass


class ReencodingChainMachine(ForwardCounter, Reencoding, LineChainMachine):
    pass


class CountedPipelineMachine(ForwardCounter, SimLinePipelineMachine):
    pass


class ReencodingPipelineMachine(
    ForwardCounter, Reencoding, SimLinePipelineMachine
):
    pass


def as_class(machines, cls):
    clones = []
    for machine in machines:
        clone = cls.__new__(cls)
        clone.__dict__.update(vars(machine))
        clones.append(clone)
    return clones


def simulate(setup, cls, seed):
    """Run ``setup`` with its machines recast as ``cls``; return the
    result, the metered oracle, and counts of what the run did."""
    params = setup.fn_params
    machines = as_class(setup.machines, cls)
    seen = {"stalled_self_handoffs": 0}

    def observer(round_k, machine, incoming):
        for sender, payload in incoming:
            records = decode_records(params, payload)
            kinds = [kind for kind, _ in records]
            if MessageKind.STORE in kinds:
                assert payload == reencode(params, records)
            if sender == machine and kinds == [
                MessageKind.FRONTIER,
                MessageKind.STORE,
            ]:
                seen["stalled_self_handoffs"] += 1

    oracle = LazyRandomOracle(params.n, params.n, seed=seed)
    sim = MPCSimulator(
        setup.mpc_params, machines, oracle=oracle, inbox_observer=observer
    )
    result = sim.run(setup.initial_memories)
    seen["forwards"] = sum(machine.forwards for machine in machines)
    return result, sim.oracle, seen


def assert_same_run(a, b):
    (res_a, oracle_a, _), (res_b, oracle_b, _) = a, b
    assert res_a.rounds == res_b.rounds
    assert res_a.halted == res_b.halted
    assert res_a.outputs == res_b.outputs
    assert res_a.first_output_round == res_b.first_output_round
    assert res_a.stats.rounds == res_b.stats.rounds
    assert oracle_a.transcript == oracle_b.transcript


configs = st.sampled_from([2, 4, 8, 16]).flatmap(
    lambda v: st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.just(v),
            st.just(m),
            st.integers(-(-v // m), v),
            st.sampled_from([None, 1, 2]),
            st.integers(0, 2**16),
        )
    )
)


class TestForwardingIsInvisible:
    @settings(max_examples=40, deadline=None)
    @given(configs)
    def test_chain(self, config):
        v, m, per_machine, q, seed = config
        params = LineParams(n=36, u=8, v=v, w=24)
        x = sample_input(params, np.random.default_rng(seed))
        setup = build_chain_protocol(
            params, x, num_machines=m, pieces_per_machine=per_machine, q=q
        )
        forwarding = simulate(setup, CountedChainMachine, seed)
        reference = simulate(setup, ReencodingChainMachine, seed)
        assert_same_run(forwarding, reference)
        oracle = LazyRandomOracle(params.n, params.n, seed=seed)
        assert forwarding[0].combined_output() == evaluate_line(params, x, oracle)
        assert reference[2]["forwards"] == 0
        if m >= 2 and forwarding[0].rounds >= 2:
            assert forwarding[2]["forwards"] > 0

    @settings(max_examples=40, deadline=None)
    @given(configs)
    def test_simline_pipeline(self, config):
        v, m, per_machine, q, seed = config
        params = SimLineParams(n=24, u=8, v=v, w=24)
        x = sample_input(params, np.random.default_rng(seed))
        setup = build_simline_pipeline(
            params, x, num_machines=m, pieces_per_machine=per_machine, q=q
        )
        forwarding = simulate(setup, CountedPipelineMachine, seed)
        reference = simulate(setup, ReencodingPipelineMachine, seed)
        assert_same_run(forwarding, reference)
        oracle = LazyRandomOracle(params.n, params.n, seed=seed)
        assert forwarding[0].combined_output() == evaluate_simline(
            params, x, oracle
        )
        assert reference[2]["forwards"] == 0
        if m >= 2 and forwarding[0].rounds >= 2:
            assert forwarding[2]["forwards"] > 0


class TestStalledSelfHandoff:
    def test_frontier_and_store_share_a_payload(self):
        """With q=1 the budget can stall the frontier on a piece its
        holder is the first owner of; the frontier then goes to itself
        in front of the store, and that store is re-encoded, not
        forwarded."""
        params = LineParams(n=36, u=8, v=8, w=64)
        stalls = 0
        for seed in range(5):
            x = sample_input(params, np.random.default_rng(seed))
            setup = build_chain_protocol(params, x, num_machines=4, q=1)
            forwarding = simulate(setup, CountedChainMachine, seed)
            reference = simulate(setup, ReencodingChainMachine, seed)
            assert_same_run(forwarding, reference)
            assert (
                forwarding[2]["stalled_self_handoffs"]
                == reference[2]["stalled_self_handoffs"]
            )
            oracle = LazyRandomOracle(params.n, params.n, seed=seed)
            assert forwarding[0].combined_output() == evaluate_line(
                params, x, oracle
            )
            stalls += forwarding[2]["stalled_self_handoffs"]
        assert stalls == 74
