"""Steady-state replay in :class:`MPCSimulator` changes nothing observable.

Every protocol whose machine class declares ``round_oblivious`` runs
twice: as built (replay on) and with ``round_oblivious = False`` set on
its machine instances (replay off).  Everything a caller can observe --
outputs, round counts, per-round :class:`RoundStats` (including the
communication edges), the oracle's query transcript, and the traced
deterministic record stream -- must match record by record.  Wall
clock (``ts``, span ``dur``, the step's ``dur`` attr) is the only
permitted difference, and :mod:`repro.obs.schema` never compares it.

The negative control at the end shows that the on/off harness catches a
machine that declares ``round_oblivious`` falsely.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bits import Bits
from repro.functions import LineParams, sample_input
from repro.functions.params import SimLineParams
from repro.mpc import Machine, MPCParams, MPCResult, MPCSimulator, RoundOutput
from repro.obs import Tracer, use_tracer
from repro.obs.forensics import explain_divergence
from repro.oracle import CountingOracle, LazyRandomOracle
from repro.protocols import (
    build_chain_protocol,
    build_fullmem_protocol,
    build_pointer_jump_protocol,
    run_chain,
    run_fullmem,
    run_pointer_jump,
)
from repro.protocols.chain import LineChainMachine
from repro.protocols.fullmem import FullMemoryMachine
from repro.protocols.multichain import (
    MultiChainMachine,
    build_multichain_protocol,
    run_multichain,
)
from repro.protocols.pointer_jump import OneRoundPointerJumpMachine
from repro.protocols.simline_pipeline import (
    SimLinePipelineMachine,
    build_simline_pipeline,
    run_pipeline,
)

#: Every machine class in ``repro`` that opts into replay; each one has
#: an equivalence test class below.
OPTED_IN = {
    LineChainMachine,
    SimLinePipelineMachine,
    MultiChainMachine,
    FullMemoryMachine,
    OneRoundPointerJumpMachine,
}


@dataclass
class Run:
    """What one protocol run exposed to its caller."""

    result: MPCResult
    oracle: CountingOracle
    records: list | None
    calls: int  # run_round invocations across all machines


def run_protocol(build, *, replay: bool, traced: bool = False) -> Run:
    """Build and run one protocol, counting ``run_round`` calls.

    ``build()`` returns ``(setup, oracle, runner)``; ``replay=False``
    sets ``round_oblivious = False`` on every machine instance.
    """
    setup, oracle, runner = build()
    calls = 0
    for machine in setup.machines:
        if not replay:
            machine.round_oblivious = False
        inner = machine.run_round

        def counted(ctx, inner=inner):
            nonlocal calls
            calls += 1
            return inner(ctx)

        machine.run_round = counted
    records = None
    if traced:
        tracer = Tracer()
        with use_tracer(tracer):
            result = runner(setup, oracle)
        records = list(tracer.records)
    else:
        result = runner(setup, oracle)
    return Run(result=result, oracle=oracle, records=records, calls=calls)


def replay_mismatches(on: Run, off: Run) -> list[str]:
    """Names of the observables on which the two runs differ."""
    a, b = on.result, off.result
    checks = {
        "outputs": a.outputs == b.outputs,
        "rounds": a.rounds == b.rounds,
        "halted": a.halted == b.halted,
        "first_output_round": a.first_output_round == b.first_output_round,
        # RoundStats is a frozen dataclass: == covers counts, bits,
        # queries, active machines, and the (sender, receiver, bits) edges.
        "stats": a.stats.rounds == b.stats.rounds,
        "transcript": on.oracle.transcript == off.oracle.transcript,
        "attributed_transcript": (
            (a.oracle.transcript if a.oracle else None)
            == (b.oracle.transcript if b.oracle else None)
        ),
    }
    if on.records is not None and off.records is not None:
        checks["trace"] = explain_divergence(off.records, on.records) is None
    return [name for name, same in checks.items() if not same]


def assert_replay_equivalent(build, *, traced: bool = False) -> Run:
    on = run_protocol(build, replay=True, traced=traced)
    off = run_protocol(build, replay=False, traced=traced)
    assert replay_mismatches(on, off) == []
    assert on.calls <= off.calls
    return on


def _lazy(n: int, seed: int) -> CountingOracle:
    return CountingOracle(LazyRandomOracle(n, n, seed=seed))


def _chain(w, num_machines, input_seed, oracle_seed):
    params = LineParams(n=36, u=8, v=8, w=w)
    x = sample_input(params, np.random.default_rng(input_seed))

    def build():
        setup = build_chain_protocol(params, x, num_machines=num_machines)
        return setup, _lazy(params.n, oracle_seed), run_chain

    return build


def _pipeline(w, num_machines, input_seed, oracle_seed):
    params = SimLineParams(n=36, u=8, v=8, w=w)
    x = sample_input(params, np.random.default_rng(input_seed))

    def build():
        setup = build_simline_pipeline(params, x, num_machines=num_machines)
        return setup, _lazy(params.n, oracle_seed), run_pipeline

    return build


def _multichain(instances, w_each, num_machines, extra_pieces, seed):
    n, u, v = 40, 8, 8
    # Every piece needs an owner: at least ceil(v / m) pieces per machine.
    ppm = min(v, -(-v // num_machines) + extra_pieces)
    rng = np.random.default_rng(seed)
    piece_params = LineParams(n=n, u=u, v=v, w=instances * w_each)
    inputs = [sample_input(piece_params, rng) for _ in range(instances)]

    def build():
        setup = build_multichain_protocol(
            n=n, u=u, v=v, w_each=w_each, instances=instances,
            inputs=inputs, num_machines=num_machines,
            pieces_per_machine=ppm,
        )
        return setup, _lazy(n, seed + 1), run_multichain

    return build


def _fullmem(w, num_machines, colocated, seed):
    params = LineParams(n=36, u=8, v=8, w=w)
    x = sample_input(params, np.random.default_rng(seed))

    def build():
        setup = build_fullmem_protocol(
            params, x, num_machines=num_machines, colocated=colocated
        )
        return setup, _lazy(params.n, seed + 1), run_fullmem

    return build


def _pointer_jump(size, start, jumps, seed):
    def build():
        oracle = _lazy(10, seed)
        setup = build_pointer_jump_protocol(
            oracle.base, size, start % size, jumps
        )
        return setup, oracle, run_pointer_jump

    return build


class TestChainReplay:
    @settings(max_examples=25, deadline=None)
    @given(
        w=st.integers(1, 40),
        num_machines=st.integers(1, 6),
        input_seed=st.integers(0, 2**16),
        oracle_seed=st.integers(0, 2**16),
    )
    def test_untraced_equivalence(
        self, w, num_machines, input_seed, oracle_seed
    ):
        assert_replay_equivalent(
            _chain(w, num_machines, input_seed, oracle_seed)
        )

    @settings(max_examples=10, deadline=None)
    @given(
        w=st.integers(1, 30),
        num_machines=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_traced_streams_identical(self, w, num_machines, seed):
        assert_replay_equivalent(
            _chain(w, num_machines, seed, seed + 1), traced=True
        )

    def test_replay_skips_steps(self):
        """Sanity: the chain really exercises replay (idle machines
        re-mail their STORE records every round)."""
        build = _chain(24, 4, 7, 11)
        on = assert_replay_equivalent(build)
        assert on.calls < run_protocol(build, replay=False).calls


class TestPipelineReplay:
    @settings(max_examples=20, deadline=None)
    @given(
        w=st.integers(1, 40),
        num_machines=st.integers(1, 6),
        input_seed=st.integers(0, 2**16),
        oracle_seed=st.integers(0, 2**16),
    )
    def test_untraced_equivalence(
        self, w, num_machines, input_seed, oracle_seed
    ):
        assert_replay_equivalent(
            _pipeline(w, num_machines, input_seed, oracle_seed)
        )

    @settings(max_examples=5, deadline=None)
    @given(
        w=st.integers(1, 30),
        num_machines=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_traced_streams_identical(self, w, num_machines, seed):
        assert_replay_equivalent(
            _pipeline(w, num_machines, seed, seed + 1), traced=True
        )


class TestMultiChainReplay:
    @settings(max_examples=15, deadline=None)
    @given(
        instances=st.integers(1, 3),
        w_each=st.integers(1, 16),
        num_machines=st.integers(1, 5),
        extra_pieces=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_untraced_equivalence(
        self, instances, w_each, num_machines, extra_pieces, seed
    ):
        assert_replay_equivalent(
            _multichain(instances, w_each, num_machines, extra_pieces, seed)
        )

    @settings(max_examples=5, deadline=None)
    @given(w_each=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_traced_streams_identical(self, w_each, seed):
        assert_replay_equivalent(
            _multichain(2, w_each, 4, 0, seed), traced=True
        )


class TestFullMemoryReplay:
    @settings(max_examples=15, deadline=None)
    @given(
        w=st.integers(1, 30),
        # Spread shares carry per-sender framing; s fits up to 3 senders.
        num_machines=st.integers(1, 3),
        colocated=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_untraced_equivalence(self, w, num_machines, colocated, seed):
        assert_replay_equivalent(_fullmem(w, num_machines, colocated, seed))

    @settings(max_examples=5, deadline=None)
    @given(
        w=st.integers(1, 30),
        num_machines=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_traced_streams_identical(self, w, num_machines, seed):
        assert_replay_equivalent(
            _fullmem(w, num_machines, False, seed), traced=True
        )


class TestPointerJumpReplay:
    @settings(max_examples=15, deadline=None)
    @given(
        size=st.integers(1, 64),
        start=st.integers(0, 63),
        jumps=st.integers(0, 30),
        seed=st.integers(0, 2**16),
    )
    def test_untraced_equivalence(self, size, start, jumps, seed):
        assert_replay_equivalent(_pointer_jump(size, start, jumps, seed))

    @settings(max_examples=5, deadline=None)
    @given(jumps=st.integers(0, 20), seed=st.integers(0, 2**16))
    def test_traced_streams_identical(self, jumps, seed):
        assert_replay_equivalent(
            _pointer_jump(32, 5, jumps, seed), traced=True
        )


class TestOptInGuard:
    def test_every_opted_in_class_has_equivalence_tests(self):
        """A new ``round_oblivious`` class must join :data:`OPTED_IN`
        (and get an equivalence test class) before it may be replayed."""
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        classes, todo = set(), [Machine]
        while todo:
            cls = todo.pop()
            classes.add(cls)
            todo.extend(cls.__subclasses__())
        opted_in = {
            cls for cls in classes
            if cls.__module__.startswith("repro.") and cls.round_oblivious
        }
        assert opted_in == OPTED_IN


class QueryingIdler(Machine):
    """Honestly ``round_oblivious``: one fixed oracle query per round on
    an unchanging inbox."""

    round_oblivious = True

    def run_round(self, ctx):
        ctx.oracle.query(Bits(0, 4))
        return RoundOutput(messages={ctx.machine_id: Bits(0, 1)})


class Alternator(Machine):
    """Honestly ``round_oblivious``: its inbox alternates between A (own
    state ``0``, or round 0's empty inbox), answered without a query,
    and B (own state ``1``), answered after one oracle query.  Each step
    also mails the next machine its id, so replayed steps route to
    other machines too."""

    round_oblivious = True

    def run_round(self, ctx):
        me = ctx.machine_id
        if ctx.from_sender(me) == Bits(1, 1):  # inbox B
            ctx.oracle.query(Bits(me, 4))
            state = Bits(0, 1)
        else:  # inbox A
            state = Bits(1, 1)
        return RoundOutput(
            messages={me: state, (me + 1) % ctx.num_machines: Bits(me, 2)}
        )


class Kicker(Machine):
    """Honestly ``round_oblivious`` (it reads ``ctx.round`` only to
    detect round 0): kicks machine 1 in round 0, then halts."""

    round_oblivious = True

    def run_round(self, ctx):
        if ctx.round == 0:
            return RoundOutput(messages={1: Bits(1, 1)})
        return RoundOutput(halt=True)


class Listener(Machine):
    def run_round(self, ctx):
        kick = ctx.from_sender(0)
        return RoundOutput(output=kick, halt=kick is not None)


def _direct(machines, max_rounds):
    """``build()`` for machines run directly by the simulator, each
    starting with an empty share."""

    def build():
        setup = SimpleNamespace(
            machines=[machine() for machine in machines],
            mpc_params=MPCParams(
                m=len(machines), s_bits=8, max_rounds=max_rounds
            ),
            initial_memories=[Bits(0, 0)] * len(machines),
        )
        return setup, _lazy(4, 0), _run_setup

    return build


def _run_setup(setup, oracle):
    sim = MPCSimulator(setup.mpc_params, setup.machines, oracle=oracle)
    return sim.run(setup.initial_memories)


class TestReplayConditions:
    def test_querying_step_is_never_replayed(self):
        on = assert_replay_equivalent(_direct([QueryingIdler], 6))
        assert on.calls == 6
        assert len(on.oracle.transcript) == 6

    def test_older_cached_step_replays_after_a_querying_step(self):
        """Rounds 0-3 run; from round 4 on, every A step (even rounds)
        replays round 2's step, although a querying B step (odd rounds)
        ran in between.  A querying step leaves the slot as it is."""
        on = assert_replay_equivalent(
            _direct([Alternator, Alternator], 12), traced=True
        )
        off = run_protocol(_direct([Alternator, Alternator], 12), replay=False)
        assert off.calls == 2 * 12
        replayed = len(range(4, 12, 2))
        assert on.calls == 2 * (12 - replayed)
        assert len(on.oracle.transcript) == 2 * 6

    def test_round_zero_step_is_never_replayed(self):
        """Machine 0's inbox is empty in rounds 0 and 1, but only a
        step at round >= 1 may be replayed."""
        on = assert_replay_equivalent(_direct([Kicker, Listener], 6))
        assert (on.result.rounds, on.result.halted) == (2, True)

    def test_span_hooks_turn_replay_off(self):
        class StepWindows:
            count = 0

            def span_start(self, name, attrs):
                if name == "mpc.machine_step":
                    self.count += 1

            def span_end(self, name):
                pass

        build = _chain(24, 4, 7, 11)
        setup, oracle, runner = build()
        tracer = Tracer()
        hook = tracer.add_span_hook(StepWindows())
        with use_tracer(tracer):
            result = runner(setup, oracle)
        off = run_protocol(build, replay=False)
        # Every step ran, as with replay off (test_replay_skips_steps
        # shows this build does replay without hooks).
        assert hook.count == off.calls == result.stats.num_rounds * 4


class Miscounter(Machine):
    """Declares ``round_oblivious`` falsely: it counts its own calls and
    halts on the 5th, while its inbox never changes."""

    round_oblivious = True

    def __init__(self) -> None:
        self.calls = 0

    def run_round(self, ctx):
        self.calls += 1
        if self.calls >= 5:
            return RoundOutput(output=Bits(1, 1), halt=True)
        return RoundOutput(messages={ctx.machine_id: Bits(0, 1)})


class TestNegativeControl:
    def test_misdeclared_machine_is_caught(self):
        build = _direct([Miscounter], 20)
        on = run_protocol(build, replay=True, traced=True)
        off = run_protocol(build, replay=False, traced=True)
        # Replayed from round 2 on, the machine never reaches its 5th call.
        assert (on.result.rounds, on.result.halted) == (20, False)
        assert (off.result.rounds, off.result.halted) == (5, True)
        mismatches = replay_mismatches(on, off)
        assert {"rounds", "halted", "outputs", "trace"} <= set(mismatches)

    def test_honest_machine_is_clean(self):
        """Sanity: the same rig reports nothing for an honest protocol."""
        build = _chain(24, 4, 7, 11)
        on = run_protocol(build, replay=True, traced=True)
        off = run_protocol(build, replay=False, traced=True)
        assert replay_mismatches(on, off) == []
