"""Tests for the streaming invariant monitor.

Covers synthetic record streams (injected violations with exact
field-level assertions) and end-to-end runs through the simulator,
including the rogue-machine case where a send exceeds the round's
``s·m`` communication budget.
"""

import numpy as np
import pytest

from repro.bits import Bits
from repro.functions import LineParams, sample_input
from repro.mpc import Machine, MPCParams, MPCSimulator, RoundOutput
from repro.obs import (
    InvariantMonitor,
    InvariantViolation,
    TraceRecord,
    Tracer,
    use_tracer,
)
from repro.oracle import LazyRandomOracle
from repro.protocols import build_chain_protocol, run_chain
from tests.obs.test_schema import undeclared


def ev(name, **attrs):
    return TraceRecord("event", name, 0.0, None, attrs)


def sp(name, **attrs):
    return TraceRecord("span", name, 0.0, 0.001, attrs)


def run_start(m=4, s_bits=100, q=2, **extra):
    return ev("mpc.run_start", m=m, s_bits=s_bits, q=q, max_rounds=1000,
              **extra)


def step(round=0, machine=0, incoming_bits=0, sent_bits=0, oracle_queries=0):
    return ev("mpc.machine_step", round=round, machine=machine, dur=0.0,
              incoming_bits=incoming_bits, sent_messages=1 if sent_bits else 0,
              sent_bits=sent_bits, oracle_queries=oracle_queries)


def feed(monitor, records):
    for record in records:
        monitor(record)


class TestInjectedViolations:
    def test_overbudget_message_carries_round_machine_bits_and_limit(self):
        """The acceptance case: an injected over-budget message yields a
        violation naming the round, machine, observed bits, and s*m."""
        monitor = InvariantMonitor()
        feed(monitor, [run_start(m=4, s_bits=100),
                       step(round=3, machine=2, sent_bits=500)])
        (v,) = monitor.violations
        assert v.check == "round_communication"
        assert v.round == 3
        assert v.machine == 2
        assert v.observed == 500
        assert v.limit == 400  # s*m = 100*4
        assert "500" in v.message and "400" in v.message

    def test_cumulative_sends_cross_the_budget(self):
        monitor = InvariantMonitor()
        feed(monitor, [
            run_start(m=2, s_bits=100),
            step(round=0, machine=0, sent_bits=150),
            step(round=0, machine=1, sent_bits=100),  # cumulative 250 > 200
        ])
        (v,) = monitor.violations
        assert v.machine == 1 and v.observed == 250 and v.limit == 200

    def test_round_span_overbudget_flagged_without_machine(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(m=4, s_bits=100),
                       sp("mpc.round", round=1, message_bits=500,
                          oracle_queries=0)])
        (v,) = monitor.violations
        assert v.check == "round_communication"
        assert v.machine is None and v.observed == 500 and v.limit == 400

    def test_round_flagged_once_not_twice(self):
        """Streaming catch and the closing round span must not double-report."""
        monitor = InvariantMonitor()
        feed(monitor, [
            run_start(m=4, s_bits=100),
            step(round=0, machine=1, sent_bits=500),
            sp("mpc.round", round=0, message_bits=500, oracle_queries=0),
        ])
        assert len(monitor.violations) == 1

    def test_machine_memory_violation(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(m=4, s_bits=100),
                       step(round=2, machine=3, incoming_bits=150)])
        (v,) = monitor.violations
        assert v.check == "machine_memory"
        assert (v.round, v.machine, v.observed, v.limit) == (2, 3, 150, 100)

    def test_query_budget_per_machine_and_per_round(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(m=4, s_bits=100, q=2),
                       step(round=0, machine=0, oracle_queries=3),
                       sp("mpc.round", round=0, message_bits=0,
                          oracle_queries=9)])
        checks = [v.check for v in monitor.violations]
        assert checks == ["query_budget", "query_budget"]
        assert monitor.violations[0].limit == 2       # q
        assert monitor.violations[1].limit == 8       # m*q

    def test_unmetered_q_skips_query_checks(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(m=4, s_bits=100, q=None),
                       step(round=0, machine=0, oracle_queries=50)])
        assert monitor.violations == []

    def test_no_run_start_no_checks(self):
        """A monitor attached mid-run must not judge without budgets."""
        monitor = InvariantMonitor()
        feed(monitor, [step(round=0, machine=0, incoming_bits=10**9)])
        assert monitor.violations == []

    def test_budgets_forgotten_after_run_end(self):
        monitor = InvariantMonitor()
        feed(monitor, [
            run_start(m=2, s_bits=10),
            sp("mpc.run", rounds=0, halted=True, total_message_bits=0,
               total_oracle_queries=0),
            step(round=0, machine=0, incoming_bits=10**6),
        ])
        assert monitor.violations == []


class TestRoundBand:
    def band(self, lo, hi):
        return ev("bounds.expect_rounds", lo=lo, hi=hi, w=64,
                  source="lemma32")

    def run_end(self, rounds, halted=True):
        return sp("mpc.run", rounds=rounds, halted=halted,
                  total_message_bits=0, total_oracle_queries=0)

    def test_rounds_above_band_flagged(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(), self.band(10, 20), self.run_end(25)])
        (v,) = monitor.violations
        assert v.check == "round_band"
        assert v.observed == 25 and v.limit == 20

    def test_rounds_below_band_flagged(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(), self.band(10, 20), self.run_end(3)])
        (v,) = monitor.violations
        assert v.observed == 3 and v.limit == 10

    def test_rounds_inside_band_clean(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(), self.band(10, 20), self.run_end(15)])
        assert monitor.violations == []

    def test_unhalted_run_skips_band(self):
        """max_rounds cutoffs are not a protocol's fault."""
        monitor = InvariantMonitor()
        feed(monitor, [run_start(), self.band(10, 20),
                       self.run_end(5, halted=False)])
        assert monitor.violations == []

    def test_band_consumed_by_one_run(self):
        monitor = InvariantMonitor()
        feed(monitor, [run_start(), self.band(10, 20), self.run_end(15),
                       run_start(), self.run_end(3)])
        assert monitor.violations == []


class TestRunConsistency:
    def test_total_mismatch_flagged(self):
        monitor = InvariantMonitor()
        feed(monitor, [
            run_start(m=4, s_bits=100),
            sp("mpc.round", round=0, message_bits=10, oracle_queries=1),
            sp("mpc.run", rounds=1, halted=True, total_message_bits=11,
               total_oracle_queries=1),
        ])
        (v,) = monitor.violations
        assert v.check == "run_consistency"
        assert v.observed == 11 and v.limit == 10

    def test_partial_observation_skips_consistency(self):
        monitor = InvariantMonitor()
        feed(monitor, [
            run_start(m=4, s_bits=100),
            sp("mpc.round", round=1, message_bits=10, oracle_queries=0),
            sp("mpc.run", rounds=2, halted=True, total_message_bits=25,
               total_oracle_queries=0),
        ])
        assert monitor.violations == []


class TestStrictAndEmission:
    def test_strict_raises_with_violation_attached(self):
        monitor = InvariantMonitor(strict=True)
        monitor(run_start(m=4, s_bits=100))
        with pytest.raises(InvariantViolation) as exc_info:
            monitor(step(round=3, machine=2, sent_bits=500))
        v = exc_info.value.violation
        assert (v.round, v.machine, v.observed, v.limit) == (3, 2, 500, 400)

    def test_violation_events_join_the_trace_stream(self):
        tracer = Tracer()
        monitor = InvariantMonitor(tracer=tracer)
        tracer.subscribe(monitor)
        tracer.event("mpc.run_start", m=4, s_bits=100, q=None)
        tracer.event("mpc.machine_step", round=1, machine=0,
                     incoming_bits=500, sent_bits=0, oracle_queries=0)
        emitted = [r for r in tracer.records if r.name == "monitor.violation"]
        assert len(emitted) == 1
        assert emitted[0].attrs["check"] == "machine_memory"
        assert emitted[0].attrs["observed"] == 500
        # And the monitor must ignore its own emission (no recursion).
        assert len(monitor.violations) == 1

    def test_render_lists_checks(self):
        monitor = InvariantMonitor()
        assert monitor.render() == ""
        feed(monitor, [run_start(m=4, s_bits=100),
                       step(round=0, machine=0, incoming_bits=500)])
        text = monitor.render()
        assert "machine_memory" in text and "violations: 1" in text


class Blaster(Machine):
    """Machine 0 sends one s·m-busting payload; everyone halts at once."""

    def __init__(self, payload_bits: int) -> None:
        self._payload_bits = payload_bits

    def run_round(self, ctx):
        out = RoundOutput(halt=True, output=Bits(0, 1))
        if ctx.round == 0 and ctx.machine_id == 0:
            out.messages = {1: Bits.zeros(self._payload_bits)}
        return out


class TestEndToEnd:
    def test_clean_chain_run_has_zero_violations(self):
        params = LineParams(n=36, u=8, v=8, w=32)
        x = sample_input(params, np.random.default_rng(5))
        oracle = LazyRandomOracle(params.n, params.n, seed=5)
        setup = build_chain_protocol(params, x, num_machines=4)
        tracer = Tracer()
        monitor = InvariantMonitor(tracer=tracer)
        tracer.subscribe(monitor)
        with use_tracer(tracer):
            result = run_chain(setup, oracle)
        assert result.halted
        assert monitor.violations == []
        bands = [r for r in tracer.records if r.name == "bounds.expect_rounds"]
        assert len(bands) == 1
        assert bands[0].attrs["lo"] <= result.rounds <= bands[0].attrs["hi"]

    def test_rogue_send_flagged_live(self):
        params = MPCParams(m=2, s_bits=16)
        tracer = Tracer()
        monitor = InvariantMonitor(tracer=tracer)
        tracer.subscribe(monitor)
        with use_tracer(tracer):
            result = MPCSimulator(
                params, [Blaster(64), Blaster(64)]
            ).run([Bits(0, 0)] * 2)
        assert result.halted  # all voted halt in round 0
        (v,) = monitor.violations
        assert v.check == "round_communication"
        assert (v.round, v.machine, v.observed, v.limit) == (0, 0, 64, 32)
        names = {r.name for r in tracer.records}
        assert "monitor.violation" in names
        assert undeclared(tracer.records) == []

    def test_rogue_send_aborts_strict_run(self):
        params = MPCParams(m=2, s_bits=16)
        tracer = Tracer()
        monitor = InvariantMonitor(strict=True, tracer=tracer)
        tracer.subscribe(monitor)
        with pytest.raises(InvariantViolation):
            with use_tracer(tracer):
                MPCSimulator(
                    params, [Blaster(64), Blaster(64)]
                ).run([Bits(0, 0)] * 2)
