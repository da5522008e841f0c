"""End-to-end tracing through the simulator, oracle, RAM, and experiments.

The acceptance property of the observability layer lives here: the
model-level counters a trace reports must agree exactly with the
ground-truth bookkeeping (``MPCStats``, ``CountingOracle``,
``ExecutionStats``) for the same run.
"""

import numpy as np
import pytest

from repro.bits import Bits
from repro.functions import LineParams, sample_input
from repro.mpc import Machine, MPCParams, MPCSimulator, RoundOutput
from repro.obs import NULL_TRACER, TraceMetrics, Tracer, get_tracer, use_tracer
from repro.oracle import LazyRandomOracle, TableOracle
from repro.protocols import build_chain_protocol, run_chain
from tests.obs.test_schema import undeclared


class Querier(Machine):
    """Query the oracle a machine-dependent number of times, then halt."""

    def run_round(self, ctx):
        if ctx.round == 0:
            for i in range(ctx.machine_id + 1):
                ctx.oracle.query(Bits(i % 8, 3))
            return RoundOutput(messages={ctx.machine_id: Bits(1, 1)})
        return RoundOutput(output=Bits(1, 1), halt=True)


def traced_chain_run():
    params = LineParams(n=36, u=8, v=8, w=32)
    x = sample_input(params, np.random.default_rng(7))
    oracle = LazyRandomOracle(params.n, params.n, seed=7)
    setup = build_chain_protocol(params, x, num_machines=4)
    tracer = Tracer()
    with use_tracer(tracer):
        result = run_chain(setup, oracle)
    return tracer, result


class TestSimulatorTracing:
    def test_round_query_sums_match_stats(self):
        """Per-round ``oracle_queries`` in the trace sum to the exact
        ``MPCStats.total_oracle_queries`` of the same run."""
        tracer, result = traced_chain_run()
        round_spans = [r for r in tracer.records if r.name == "mpc.round"]
        assert sum(r.attrs["oracle_queries"] for r in round_spans) == (
            result.stats.total_oracle_queries
        )
        query_events = [r for r in tracer.records if r.name == "oracle.query"]
        assert len(query_events) == result.stats.total_oracle_queries

    def test_round_spans_mirror_round_stats(self):
        tracer, result = traced_chain_run()
        round_spans = [r for r in tracer.records if r.name == "mpc.round"]
        assert len(round_spans) == result.stats.num_rounds
        for span, rs in zip(round_spans, result.stats.rounds):
            assert span.attrs["round"] == rs.round
            assert span.attrs["messages"] == rs.message_count
            assert span.attrs["message_bits"] == rs.message_bits
            assert span.attrs["oracle_queries"] == rs.oracle_queries
            assert span.attrs["active_machines"] == rs.active_machines
            assert span.dur >= 0

    def test_run_span_totals(self):
        tracer, result = traced_chain_run()
        (run_span,) = [r for r in tracer.records if r.name == "mpc.run"]
        assert run_span.attrs["rounds"] == result.rounds
        assert run_span.attrs["halted"] is True
        assert run_span.attrs["total_oracle_queries"] == (
            result.stats.total_oracle_queries
        )
        assert run_span.attrs["total_message_bits"] == (
            result.stats.total_message_bits
        )

    def test_machine_step_events_cover_every_invocation(self):
        params = MPCParams(m=3, s_bits=8, q=8)
        base = TableOracle(3, 3, list(range(8)))
        tracer = Tracer()
        with use_tracer(tracer):
            MPCSimulator(params, [Querier() for _ in range(3)], oracle=base).run(
                [Bits(0, 0)] * 3
            )
        steps = [r for r in tracer.records if r.name == "mpc.machine_step"]
        # 3 machines x 2 rounds, in deterministic order.
        assert [(s.attrs["round"], s.attrs["machine"]) for s in steps] == [
            (r, m) for r in range(2) for m in range(3)
        ]
        # Round-0 queries per machine are attributed by the oracle context.
        assert [s.attrs["oracle_queries"] for s in steps[:3]] == [1, 2, 3]

    def test_untraced_run_records_nothing_and_matches(self):
        assert get_tracer() is NULL_TRACER
        _, traced = traced_chain_run()
        params = LineParams(n=36, u=8, v=8, w=32)
        x = sample_input(params, np.random.default_rng(7))
        setup = build_chain_protocol(params, x, num_machines=4)
        untraced = run_chain(setup, LazyRandomOracle(params.n, params.n, seed=7))
        assert untraced.rounds == traced.rounds
        assert untraced.outputs == traced.outputs
        assert get_tracer().records == ()


class TestOracleTracing:
    def test_query_events_attributed_and_repeat_flagged(self):
        from repro.oracle import CountingOracle

        base = TableOracle(3, 3, list(range(8)))
        ro = CountingOracle(base)
        tracer = Tracer()
        with use_tracer(tracer):
            ro.set_context(round=2, machine=5)
            ro.query(Bits(1, 3))
            ro.query(Bits(1, 3))
        a, b = [r.attrs for r in tracer.records]
        key = a.pop("key")
        assert a == {"position": 0, "round": 2, "machine": 5, "repeat": False}
        assert b.pop("key") == key  # same input -> same stable key
        assert b == {"position": 1, "round": 2, "machine": 5, "repeat": True}
        assert ro.unique_queries == 1 and ro.total_queries == 2


class TestRamTracing:
    def test_run_span_matches_execution_stats(self):
        from repro.functions import evaluate_line
        from repro.ram import run_line_on_ram

        params = LineParams(n=36, u=8, v=8, w=16)
        oracle = LazyRandomOracle(params.n, params.n, seed=3)
        x = sample_input(params, np.random.default_rng(3))
        tracer = Tracer()
        with use_tracer(tracer):
            out, run = run_line_on_ram(params, x, oracle)
        assert out == evaluate_line(params, x, oracle)
        spans = [r for r in tracer.records if r.name == "ram.run"]
        assert len(spans) >= 1
        span = spans[-1]
        assert span.attrs["instructions"] == run.stats.instructions
        assert span.attrs["time"] == run.stats.time
        assert span.attrs["oracle_queries"] == run.stats.oracle_queries
        assert span.attrs["peak_memory_words"] == run.stats.peak_memory_words

    def test_batch_events_every_n_instructions(self, monkeypatch):
        monkeypatch.setattr("repro.ram.machine.TRACE_BATCH_INSTRUCTIONS", 10)
        from repro.ram import run_line_on_ram

        params = LineParams(n=36, u=8, v=8, w=16)
        oracle = LazyRandomOracle(params.n, params.n, seed=3)
        x = sample_input(params, np.random.default_rng(3))
        tracer = Tracer()
        with use_tracer(tracer):
            _, run = run_line_on_ram(params, x, oracle)
        batches = [r for r in tracer.records if r.name == "ram.batch"]
        assert len(batches) >= run.stats.instructions // 10 > 0
        counts = [b.attrs["instructions"] for b in batches]
        assert all(c % 10 == 0 for c in counts[: run.stats.instructions // 10])
        assert undeclared(tracer.records) == []


class TestExperimentTracing:
    def test_experiment_span_and_metrics(self):
        from repro.experiments import run_experiment

        tracer = Tracer()
        with use_tracer(tracer):
            result = run_experiment("E-BOUND", "quick")
        exp_spans = [r for r in tracer.records if r.name == "experiment"]
        assert len(exp_spans) == 1
        assert exp_spans[0].attrs["experiment_id"] == "E-BOUND"
        assert exp_spans[0].attrs["passed"] == result.passed
        assert result.metrics["duration_s"] > 0
        assert result.to_dict()["metrics"]["duration_s"] > 0

    def test_metrics_aggregate_matches_trace(self):
        tracer, result = traced_chain_run()
        m = TraceMetrics.from_records(tracer.records)
        assert m.mpc_runs == 1
        assert m.mpc_rounds == result.rounds
        assert m.round_oracle_queries.total == result.stats.total_oracle_queries
        assert m.oracle_queries == result.stats.total_oracle_queries
        hist = m.round_oracle_queries.histogram
        assert sum(k * v for k, v in hist.items()) == (
            result.stats.total_oracle_queries
        )


@pytest.fixture(autouse=True)
def _restore_null_tracer():
    """Tracer leaks between tests would be silent; fail loudly instead."""
    yield
    assert get_tracer() is NULL_TRACER, "a test leaked an ambient tracer"
