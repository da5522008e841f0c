"""Tests for the MPC round engine: routing, budgets, halting, stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import Bits
from repro.mpc import (
    Machine,
    MemoryExceeded,
    MPCParams,
    MPCSimulator,
    ProtocolError,
    RoundContext,
    RoundOutput,
)
from repro.oracle import QueryBudgetExceeded, TableOracle


class Echo(Machine):
    """Persist state by self-message; halt after a fixed round."""

    def __init__(self, halt_round: int):
        self.halt_round = halt_round

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        state = ctx.from_sender(ctx.machine_id) or ctx.from_sender(-1) or Bits(0, 0)
        if ctx.round >= self.halt_round:
            return RoundOutput(output=state, halt=True)
        return RoundOutput(messages={ctx.machine_id: state})


class RingForwarder(Machine):
    """Send the payload around the ring once; everyone halts after m rounds."""

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        if ctx.round >= ctx.num_machines:
            payload = ctx.from_sender((ctx.machine_id - 1) % ctx.num_machines)
            out = payload if payload is not None else Bits(0, 0)
            return RoundOutput(output=out, halt=True)
        payload = ctx.incoming[0][1] if ctx.incoming else None
        if payload is None:
            return RoundOutput(messages={})
        nxt = (ctx.machine_id + 1) % ctx.num_machines
        return RoundOutput(messages={nxt: payload})


def mems(params, payloads):
    out = []
    for i in range(params.m):
        out.append(payloads.get(i, Bits(0, 0)))
    return out


#: The round in which machine 0 wakes the sleepers of :func:`run_woken`
#: unless a test picks another.  It is odd: see :func:`run_woken`.
WAKE_ROUND = 5


class Clock(Machine):
    """Machine 0: sends every other machine one bit, once, so that it
    arrives in round ``wake_round``."""

    def __init__(self, wake_round: int):
        self.wake_round = wake_round

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        if ctx.round == self.wake_round - 1:
            return RoundOutput(
                messages={j: Bits(1, 1) for j in range(1, ctx.num_machines)}
            )
        return RoundOutput()


class Sleeper(Machine):
    """Idles until woken, then runs ``act``.

    Idling alternates two self-messages: on ``0`` (or the empty round-0
    inbox) it mails itself ``1`` without a query; on ``1`` it makes one
    oracle query and mails itself ``0``.
    """

    def __init__(self, act, round_oblivious: bool):
        self.act = act
        self.round_oblivious = round_oblivious
        self.calls = 0

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        self.calls += 1
        if ctx.from_sender(0) is not None:
            return self.act(ctx)
        me = ctx.machine_id
        if ctx.from_sender(me) == Bits(1, 1):
            ctx.oracle.query(Bits(me % 8, 3))
            return RoundOutput(messages={me: Bits(0, 1)})
        return RoundOutput(messages={me: Bits(1, 1)})


def run_woken(
    act, error, match, *, sleepers=1, q=None, wake_round=WAKE_ROUND
):
    """Assert that a misbehaviour raises ``error`` with and without replay.

    The misbehaviour ``act`` arrives in ``wake_round``, an odd round
    ``>= 5``.  With ``round_oblivious`` set, a sleeper's querying steps
    (odd rounds) are never cached, but its zero-query step of round 2
    is, and every later even round replays it: the querying step in
    between does not clear the slot.  The check therefore runs on the
    first executed step after a replay from an *older* cached step.
    """
    assert wake_round >= 5 and wake_round % 2
    for round_oblivious in (False, True):
        machines = [Clock(wake_round)] + [
            Sleeper(act, round_oblivious) for _ in range(sleepers)
        ]
        params = MPCParams(
            m=len(machines), s_bits=8, q=q, max_rounds=wake_round + 3
        )
        sim = MPCSimulator(
            params, machines, oracle=TableOracle(3, 3, list(range(8)))
        )
        with pytest.raises(error, match=match):
            sim.run([Bits(0, 0)] * len(machines))
        replayed = len(range(4, wake_round, 2)) if round_oblivious else 0
        executed = wake_round + 1 - replayed
        assert [m.calls for m in machines[1:]] == [executed] * sleepers


def _query_three(ctx):
    for i in range(3):
        ctx.oracle.query(Bits(i, 3))
    return RoundOutput()


#: One misbehaviour per row: (act, error, message, sleepers, q).  With
#: several sleepers, machine 1 is the first to misbehave.
MISBEHAVIOURS = [
    # An inbox over s = 8 from one sender, and summed over two senders.
    (lambda ctx: RoundOutput(messages={1: Bits.zeros(10)}),
     MemoryExceeded, "machine 1 holds 10 bits", 1, None),
    (lambda ctx: RoundOutput(messages={1: Bits.zeros(5)}),
     MemoryExceeded, "machine 1 holds 10 bits", 2, None),
    # Three queries against a per-round budget of q = 2.
    (_query_three, QueryBudgetExceeded, "machine 1 exceeded q=2", 1, 2),
    # Every kind of bad destination: out of range, negative, not an int.
    *[
        (lambda ctx, dst=dst: RoundOutput(messages={dst: Bits(0, 1)}),
         ProtocolError, "machine 1 sent a message to invalid machine", 1,
         None)
        for dst in (2, 99, -1, 1.0, "1", True, None)
    ],
    (lambda ctx: RoundOutput(messages={1: "oops"}),
     ProtocolError, "machine 1 sent a non-Bits payload to 1", 1, None),
    (lambda ctx: RoundOutput(messages={1: b"\x01"}),
     ProtocolError, "machine 1 sent a non-Bits payload to 1", 1, None),
    (lambda ctx: RoundOutput(output=5),
     ProtocolError, "machine 1 output a int, expected Bits", 1, None),
    (lambda ctx: RoundOutput(output="1"),
     ProtocolError, "machine 1 output a str, expected Bits", 1, None),
    (lambda ctx: None,
     ProtocolError, "machine 1 returned NoneType, expected RoundOutput", 1,
     None),
    (lambda ctx: {1: Bits(0, 1)},
     ProtocolError, "machine 1 returned dict, expected RoundOutput", 1, None),
]


class TestMisbehaviourAfterReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        row=st.sampled_from(MISBEHAVIOURS),
        wake_round=st.sampled_from([5, 7, 9, 11]),
    )
    def test_rejected_in_both_replay_states(self, row, wake_round):
        act, error, match, sleepers, q = row
        run_woken(
            act, error, match, sleepers=sleepers, q=q, wake_round=wake_round
        )


class TestRouting:
    def test_self_message_persists_state(self):
        params = MPCParams(m=1, s_bits=64)
        sim = MPCSimulator(params, [Echo(halt_round=3)])
        result = sim.run([Bits.from_str("1011")])
        assert result.halted
        assert result.rounds == 4
        assert result.outputs[0] == Bits.from_str("1011")

    def test_ring_forwarding(self):
        params = MPCParams(m=3, s_bits=64)
        sim = MPCSimulator(params, [RingForwarder() for _ in range(3)])
        result = sim.run(mems(params, {0: Bits.from_str("11")}))
        assert result.halted
        # payload went 0 -> 1 -> 2 -> 0; machine 0 holds it at round m.
        assert result.outputs[0] == Bits.from_str("11")
        assert result.outputs[1] == Bits(0, 0)

    def test_combined_output_order(self):
        params = MPCParams(m=2, s_bits=64)
        sim = MPCSimulator(params, [Echo(0), Echo(0)])
        result = sim.run([Bits.from_str("10"), Bits.from_str("01")])
        assert result.combined_output() == Bits.from_str("1001")

    def test_invalid_recipient_rejected(self):
        # Out of range, negative, and keys that are not ints at all.
        for dst in (99, -1, 1.0, "1", True):
            run_woken(
                lambda ctx: RoundOutput(messages={dst: Bits(0, 1)}),
                ProtocolError, "machine 1 sent a message to invalid",
            )

    def test_non_bits_payload_rejected(self):
        # A non-Bits message payload, and a non-Bits output.
        for bad, match in (
            (RoundOutput(messages={1: "oops"}), "sent a non-Bits payload"),
            (RoundOutput(output=5), "output a int, expected Bits"),
        ):
            run_woken(lambda ctx: bad, ProtocolError, f"machine 1 {match}")

    def test_non_roundoutput_rejected(self):
        run_woken(lambda ctx: None, ProtocolError, "machine 1 returned")


class TestMemoryEnforcement:
    def test_initial_share_must_fit(self):
        params = MPCParams(m=1, s_bits=4)
        sim = MPCSimulator(params, [Echo(0)])
        with pytest.raises(MemoryExceeded):
            sim.run([Bits.zeros(5)])

    @pytest.mark.parametrize(
        "share", [b"\x01\x02", [1, 0], "1011", 16, None]
    )
    def test_initial_share_must_be_bits(self, share):
        # Checked before round 0: len() of bytes would count 2 bits for
        # 16, and an int has no len() at all.
        seen = []
        sim = MPCSimulator(
            MPCParams(m=2, s_bits=4),
            [Echo(0), Echo(0)],
            inbox_observer=lambda r, i, inc: seen.append(i),
        )
        with pytest.raises(
            ProtocolError,
            match=(
                "machine 1 was given a non-Bits initial memory "
                rf"\({type(share).__name__}\)"
            ),
        ):
            sim.run([Bits(0, 0), share])
        assert seen == []

    def test_initial_share_counts_bits(self):
        params = MPCParams(m=1, s_bits=4)
        sim = MPCSimulator(params, [Echo(0)])
        with pytest.raises(MemoryExceeded, match="machine 0 holds 16 bits"):
            sim.run([Bits.from_bytes(b"\x01\x02")])

    def test_incoming_messages_must_fit(self):
        run_woken(
            lambda ctx: RoundOutput(messages={1: Bits.zeros(10)}),
            MemoryExceeded, "machine 1 holds 10 bits",
        )

    def test_many_senders_sum_against_s(self):
        # Two sleepers send 5 bits each to machine 1: 10 bits > s = 8.
        run_woken(
            lambda ctx: RoundOutput(messages={1: Bits.zeros(5)}),
            MemoryExceeded, "machine 1 holds 10 bits", sleepers=2,
        )


class TestOracleBudget:
    def make_querier(self, count):
        class Querier(Machine):
            def run_round(self, ctx):
                for i in range(count):
                    ctx.oracle.query(Bits(i % 8, 3))
                return RoundOutput(halt=True)

        return Querier()

    def test_budget_enforced_per_round(self):
        run_woken(
            _query_three, QueryBudgetExceeded, "machine 1 exceeded q=2", q=2
        )

    def test_budget_resets_between_machines(self):
        base = TableOracle(3, 3, list(range(8)))
        params = MPCParams(m=2, s_bits=8, q=2)
        sim = MPCSimulator(
            params, [self.make_querier(2), self.make_querier(2)], oracle=base
        )
        result = sim.run([Bits(0, 0), Bits(0, 0)])
        assert result.halted
        assert result.stats.total_oracle_queries == 4

    def test_transcript_attribution(self):
        base = TableOracle(3, 3, list(range(8)))
        params = MPCParams(m=2, s_bits=8, q=5)
        sim = MPCSimulator(
            params, [self.make_querier(1), self.make_querier(2)], oracle=base
        )
        result = sim.run([Bits(0, 0), Bits(0, 0)])
        machines = [rec.machine for rec in result.oracle.transcript]
        assert machines == [0, 1, 1]


class TestHaltingAndStats:
    def test_max_rounds_stop(self):
        class Never(Machine):
            def run_round(self, ctx):
                return RoundOutput(messages={ctx.machine_id: Bits(0, 1)})

        params = MPCParams(m=1, s_bits=8, max_rounds=5)
        result = MPCSimulator(params, [Never()]).run([Bits(0, 0)])
        assert not result.halted
        assert result.rounds == 5

    def test_all_must_halt_same_round(self):
        params = MPCParams(m=2, s_bits=64)
        sim = MPCSimulator(params, [Echo(1), Echo(3)])
        result = sim.run([Bits(1, 1), Bits(1, 1)])
        # Echo(1) halts at round 1 but keeps being polled until Echo(3).
        assert result.rounds == 4

    def test_stats_recorded(self):
        params = MPCParams(m=1, s_bits=64)
        result = MPCSimulator(params, [Echo(2)]).run([Bits.from_str("1")])
        assert result.stats.num_rounds == 3
        assert result.stats.rounds[0].message_bits == 1
        assert result.stats.rounds[-1].message_bits == 0
        assert result.stats.total_message_bits == 2

    def test_machine_count_mismatch(self):
        with pytest.raises(ValueError):
            MPCSimulator(MPCParams(m=2, s_bits=8), [Echo(0)])

    def test_initial_memory_count_mismatch(self):
        sim = MPCSimulator(MPCParams(m=2, s_bits=8), [Echo(0), Echo(0)])
        with pytest.raises(ValueError):
            sim.run([Bits(0, 0)])

    def test_simulation_is_deterministic(self):
        """Same machines, memories, oracle -> identical results: rounds,
        outputs, stats, and the full message topology."""
        from repro.oracle import LazyRandomOracle

        def once():
            params = MPCParams(m=3, s_bits=64)
            machines = [RingForwarder() for _ in range(3)]
            oracle = LazyRandomOracle(4, 4, seed=1)
            sim = MPCSimulator(params, machines, oracle=oracle)
            return sim.run(
                [Bits.from_str("1011"), Bits(0, 0), Bits(0, 0)]
            )

        a, b = once(), once()
        assert a.rounds == b.rounds
        assert a.outputs == b.outputs
        assert [r.edges for r in a.stats.rounds] == [
            r.edges for r in b.stats.rounds
        ]

    def test_active_machine_accounting(self):
        params = MPCParams(m=2, s_bits=64)
        sim = MPCSimulator(params, [Echo(1), Echo(1)])
        result = sim.run([Bits(1, 1), Bits(0, 0)])
        # machine 1 has empty input; Echo still emits no message for it.
        assert result.stats.rounds[0].active_machines >= 1


class TestHaltSemantics:
    """Definition 2.4: the run ends only when *all* machines halt in the
    same round; an early ``halt=True`` vote neither retires the machine
    nor latches."""

    class Recorder(Machine):
        """Halt from ``halt_round`` on; log every invocation."""

        def __init__(self, halt_round):
            self.halt_round = halt_round
            self.invoked_rounds = []

        def run_round(self, ctx):
            self.invoked_rounds.append(ctx.round)
            return RoundOutput(
                output=Bits(1, 1) if ctx.round >= self.halt_round else None,
                halt=ctx.round >= self.halt_round,
            )

    def test_early_halter_still_invoked_every_round(self):
        early, late = self.Recorder(0), self.Recorder(2)
        params = MPCParams(m=2, s_bits=8)
        result = MPCSimulator(params, [early, late]).run([Bits(0, 0)] * 2)
        assert result.halted and result.rounds == 3
        # The machine that voted halt in round 0 ran in rounds 1 and 2 too.
        assert early.invoked_rounds == [0, 1, 2]
        assert late.invoked_rounds == [0, 1, 2]

    def test_early_halter_can_still_send_and_be_heard(self):
        class HaltingSender(Machine):
            """Votes halt every round but keeps talking to machine 1."""

            def run_round(self, ctx):
                if ctx.round == 0:
                    return RoundOutput(
                        messages={1: Bits(5, 3)}, output=Bits(0, 1), halt=True
                    )
                return RoundOutput(output=Bits(0, 1), halt=True)

        class Listener(Machine):
            def run_round(self, ctx):
                got = ctx.from_sender(0)
                if got is not None:
                    return RoundOutput(output=got, halt=True)
                return RoundOutput()

        params = MPCParams(m=2, s_bits=8)
        result = MPCSimulator(params, [HaltingSender(), Listener()]).run(
            [Bits(0, 0)] * 2
        )
        assert result.halted and result.rounds == 2
        # The message sent in the halt-voting round was delivered.
        assert result.outputs[1] == Bits(5, 3)

    def test_halt_vote_is_not_a_latch(self):
        class Flipper(Machine):
            """halt=True at round 0, False at 1, True again at 2."""

            def run_round(self, ctx):
                return RoundOutput(
                    output=Bits(1, 1), halt=ctx.round != 1
                )

        params = MPCParams(m=2, s_bits=8)
        # Machine 1 only halts from round 2, so the flip at round 1 must
        # postpone termination to round 2 (3 rounds total), not round 0.
        result = MPCSimulator(
            params, [Flipper(), self.Recorder(2)]
        ).run([Bits(0, 0)] * 2)
        assert result.halted and result.rounds == 3


class TestInboxObserver:
    def test_observer_sees_every_machine_every_round_in_order(self):
        calls = []
        params = MPCParams(m=2, s_bits=64)
        sim = MPCSimulator(
            params,
            [Echo(1), Echo(1)],
            inbox_observer=lambda r, i, inc: calls.append((r, i, inc)),
        )
        result = sim.run([Bits.from_str("10"), Bits(0, 0)])
        assert result.rounds == 2
        assert [(r, i) for r, i, _ in calls] == [
            (r, i) for r in range(2) for i in range(2)
        ]

    def test_observer_sees_input_share_then_routed_messages(self):
        seen = {}
        params = MPCParams(m=1, s_bits=64)
        sim = MPCSimulator(
            params,
            [Echo(1)],
            inbox_observer=lambda r, i, inc: seen.setdefault((r, i), inc),
        )
        sim.run([Bits.from_str("101")])
        # Round 0: the environment's input share, sender id -1.
        assert seen[(0, 0)] == ((-1, Bits.from_str("101")),)
        # Round 1: Echo's self-message carrying the same state, sender 0.
        assert seen[(1, 0)] == ((0, Bits.from_str("101")),)

    def test_empty_share_gives_empty_inbox(self):
        seen = []
        params = MPCParams(m=2, s_bits=64)
        sim = MPCSimulator(
            params,
            [Echo(0), Echo(0)],
            inbox_observer=lambda r, i, inc: seen.append((i, inc)),
        )
        sim.run([Bits.from_str("1"), Bits(0, 0)])
        assert (1, ()) in seen  # machine 1's empty share is not delivered

    def test_observer_runs_before_memory_check_does_not_fire(self):
        """The observer fires before the machine runs but after the
        s-bits check: an oversized inbox raises without observing."""
        seen = []
        params = MPCParams(m=1, s_bits=2)
        sim = MPCSimulator(
            params, [Echo(0)], inbox_observer=lambda r, i, inc: seen.append(r)
        )
        with pytest.raises(MemoryExceeded):
            sim.run([Bits.zeros(5)])
        assert seen == []
