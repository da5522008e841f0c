"""Tests for the Line^RO evaluator (Section 3 / Figure 1)."""

import numpy as np
import pytest

from repro.bits import Bits
from repro.functions import (
    LineParams,
    evaluate_line,
    line_nodes,
    sample_input,
    trace_line,
)
from repro.functions.line import line_query
from repro.oracle import CountingOracle, LazyRandomOracle, TableOracle


@pytest.fixture
def params():
    return LineParams(n=36, u=8, v=8, w=20)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def oracle(params):
    return LazyRandomOracle(params.n, params.n, seed=7)


class TestEvaluation:
    def test_trace_has_w_nodes(self, params, oracle, rng):
        x = sample_input(params, rng)
        trace = trace_line(params, x, oracle)
        assert len(trace.nodes) == params.w

    def test_trace_output_matches_evaluate(self, params, oracle, rng):
        x = sample_input(params, rng)
        assert trace_line(params, x, oracle).output == evaluate_line(
            params, x, oracle
        )

    def test_output_is_last_answer(self, params, oracle, rng):
        x = sample_input(params, rng)
        trace = trace_line(params, x, oracle)
        assert trace.output == trace.nodes[-1].answer

    def test_chain_consistency(self, params, oracle, rng):
        """Node i+1's (ell, r) must equal the parsed answer of node i."""
        x = sample_input(params, rng)
        trace = trace_line(params, x, oracle)
        for prev, nxt in zip(trace.nodes, trace.nodes[1:]):
            fields = params.answer_codec.unpack(prev.answer)
            assert nxt.ell == params.ell_of_answer(fields["ell"])
            assert nxt.r.value == fields["r"]

    def test_first_node_initial_values(self, params, oracle, rng):
        """Paper: l_1 = 1 (0-based 0) and r_1 = 0^u."""
        x = sample_input(params, rng)
        trace = trace_line(params, x, oracle)
        assert trace.nodes[0].ell == 0
        assert trace.nodes[0].r == Bits.zeros(params.u)

    def test_queries_embed_the_selected_piece(self, params, oracle, rng):
        """Figure 1: the query at node i contains x_{l_i} verbatim."""
        x = sample_input(params, rng)
        trace = trace_line(params, x, oracle)
        for node in trace.nodes:
            fields = params.query_codec.unpack(node.query)
            assert fields["x"] == x[node.ell].value
            assert fields["index"] == node.i
            assert fields["pad"] == 0

    def test_oracle_call_count_is_w(self, params, rng):
        x = sample_input(params, rng)
        counting = CountingOracle(LazyRandomOracle(params.n, params.n, seed=1))
        evaluate_line(params, x, counting)
        assert counting.total_queries == params.w

    def test_deterministic_given_oracle_and_input(self, params, rng):
        x = sample_input(params, rng)
        a = evaluate_line(params, x, LazyRandomOracle(params.n, params.n, seed=3))
        b = evaluate_line(params, x, LazyRandomOracle(params.n, params.n, seed=3))
        assert a == b

    def test_different_inputs_different_outputs(self, params, oracle, rng):
        x = sample_input(params, rng)
        y = list(x)
        y[0] = y[0] ^ Bits.ones(params.u)
        assert evaluate_line(params, x, oracle) != evaluate_line(params, y, oracle)

    def test_pointer_sequence_spreads_over_input(self, params, rng):
        """With a uniform oracle the l_i sequence should touch many pieces."""
        big = LineParams(n=36, u=8, v=8, w=200)
        x = sample_input(big, rng)
        trace = trace_line(big, x, LazyRandomOracle(big.n, big.n, seed=9))
        assert len(set(trace.pieces_used())) == big.v

    def test_works_on_table_oracle(self, rng):
        params = LineParams(n=14, u=4, v=4, w=10)
        ro = TableOracle.sample(params.n, params.n, rng)
        x = sample_input(params, rng)
        out = evaluate_line(params, x, ro)
        assert len(out) == params.n


class TestLineNodes:
    def test_queries_only_the_nodes_taken(self, params, oracle, rng):
        x = sample_input(params, rng)
        counting = CountingOracle(oracle)
        nodes = line_nodes(params, x, counting)
        assert counting.total_queries == 0
        taken = [next(nodes) for _ in range(3)]
        assert counting.total_queries == 3
        assert tuple(taken) == trace_line(params, x, oracle).nodes[:3]

    def test_checks_run_at_the_call(self, params, oracle, rng):
        x = sample_input(params, rng)
        with pytest.raises(ValueError):
            line_nodes(params, x[:-1], oracle)
        with pytest.raises(ValueError):
            line_nodes(params, x, LazyRandomOracle(params.n + 1, params.n + 1))


class TestValidation:
    def test_wrong_piece_count(self, params, oracle):
        with pytest.raises(ValueError):
            evaluate_line(params, [Bits.zeros(params.u)] * (params.v - 1), oracle)

    def test_wrong_piece_width(self, params, oracle):
        bad = [Bits.zeros(params.u)] * (params.v - 1) + [Bits.zeros(params.u + 1)]
        with pytest.raises(ValueError):
            evaluate_line(params, bad, oracle)

    def test_wrong_oracle_dimensions(self, params, rng):
        x = sample_input(params, rng)
        with pytest.raises(ValueError):
            trace_line(params, x, LazyRandomOracle(params.n + 1, params.n + 1))

    def test_line_query_validates_widths(self, params):
        with pytest.raises(ValueError):
            line_query(params, 0, Bits.zeros(params.u + 1), Bits.zeros(params.u))
        with pytest.raises(ValueError):
            line_query(params, 0, Bits.zeros(params.u), Bits.zeros(params.u - 1))

    def test_correct_queries_property(self, params, oracle, rng):
        x = sample_input(params, rng)
        trace = trace_line(params, x, oracle)
        assert len(trace.correct_queries) == params.w
        assert trace.correct_queries[0] == trace.nodes[0].query
