"""Tests for the round-budget success measurement and Remark 2.3."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import Bits
from repro.functions import LineParams, evaluate_line, sample_input
from repro.mpc import Machine, MPCParams, MPCSimulator, RoundContext, RoundOutput
from repro.mpc.correctness import (
    BudgetedRun,
    estimate_success_probability,
    run_with_budget,
    run_with_budgets,
)
from repro.mpc.derandomize import (
    DerandomizedMachine,
    OracleBackedTape,
    PrefixedOracleView,
    split_oracle,
)
from repro.oracle import LazyRandomOracle, TableOracle
from repro.protocols import build_chain_protocol


def make_instance(seed, w=48, ppm=4):
    params = LineParams(n=36, u=8, v=8, w=w)
    oracle = LazyRandomOracle(params.n, params.n, seed=seed)
    x = sample_input(params, np.random.default_rng(seed))
    setup = build_chain_protocol(params, x, num_machines=4, pieces_per_machine=ppm)
    expected = evaluate_line(params, x, oracle)
    return setup, oracle, expected


class TestRunWithBudget:
    def test_sufficient_budget_succeeds(self):
        setup, oracle, expected = make_instance(1)
        run = run_with_budget(
            setup.mpc_params, setup.machines, setup.initial_memories, oracle,
            budget=2 * 48 + 5, expected_output=expected,
        )
        assert run.succeeded

    def test_starved_budget_fails(self):
        setup, oracle, expected = make_instance(2)
        run = run_with_budget(
            setup.mpc_params, setup.machines, setup.initial_memories, oracle,
            budget=3, expected_output=expected,
        )
        assert not run.succeeded
        assert run.rounds_used == 3

    def test_budget_validation(self):
        setup, oracle, expected = make_instance(3)
        with pytest.raises(ValueError):
            run_with_budget(
                setup.mpc_params, setup.machines, setup.initial_memories,
                oracle, budget=0, expected_output=expected,
            )


class TestEstimateSuccessProbability:
    def sample(self, seed):
        setup, oracle, expected = make_instance(seed, w=32)
        return (
            setup.mpc_params, setup.machines, setup.initial_memories,
            oracle, expected,
        )

    def test_monotone_in_budget(self):
        rates = estimate_success_probability(
            self.sample, budgets=[4, 20, 80], trials=6, base_seed=5
        )
        assert rates[4] <= rates[20] <= rates[80]
        assert rates[80] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_success_probability(self.sample, budgets=[], trials=2)
        with pytest.raises(ValueError):
            estimate_success_probability(self.sample, budgets=[1], trials=0)

    @pytest.mark.parametrize(
        "budgets, message",
        [
            ([60, 60], r"distinct, got \[60\] more than once"),
            ([20, 5, 20, 5], r"distinct, got \[5, 20\] more than once"),
            ([0], "positive, got 0"),
            ([20, -3], "positive, got -3"),
        ],
    )
    def test_bad_budgets_rejected_before_sampling(self, budgets, message):
        """A repeated budget used to count each trial's success once per
        occurrence (a rate of 2.0); both it and a non-positive budget
        are refused before any instance is built."""
        sampled = []

        def sample(seed):
            sampled.append(seed)
            return self.sample(seed)

        with pytest.raises(ValueError, match=message):
            estimate_success_probability(sample, budgets=budgets, trials=5)
        assert sampled == []


class OutputsTwice(Machine):
    """Outputs A at round 1 and B at round 3, and halts at round 5."""

    A = Bits(0b01, 2)
    B = Bits(0b10, 2)

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        output = {1: self.A, 3: self.B}.get(ctx.round)
        return RoundOutput(output=output, halt=ctx.round == 5)


class TestBudgetSweep:
    """One run to the largest budget answers every smaller cut."""

    def test_a_cut_sees_the_outputs_logged_before_it(self):
        params = MPCParams(m=1, s_bits=8, max_rounds=10)
        result = MPCSimulator(params, [OutputsTwice()]).run([Bits(0, 0)])
        assert result.rounds == 6 and result.halted
        assert result.output_log == (
            (1, 0, OutputsTwice.A),
            (3, 0, OutputsTwice.B),
        )
        assert result.outputs_at(1) == {}
        assert result.outputs_at(2) == {0: OutputsTwice.A}
        assert result.outputs_at(4) == {0: OutputsTwice.B}
        assert result.outputs_at(50) == result.outputs
        runs = run_with_budgets(
            params, [OutputsTwice()], [Bits(0, 0)], None,
            budgets=[4, 2, 9], expected_output=OutputsTwice.A,
        )
        assert runs == [
            BudgetedRun(4, False, 4),
            BudgetedRun(2, True, 2),
            BudgetedRun(9, False, 6),
        ]

    def test_a_cut_past_an_unhalted_run_is_refused(self):
        params = MPCParams(m=1, s_bits=8, max_rounds=3)
        result = MPCSimulator(params, [OutputsTwice()]).run([Bits(0, 0)])
        assert not result.halted
        assert result.outputs_at(3) == {0: OutputsTwice.A}
        with pytest.raises(ValueError, match="without halting"):
            result.outputs_at(4)
        with pytest.raises(ValueError, match="positive"):
            result.outputs_at(0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        w=st.integers(4, 40),
        budgets=st.lists(st.integers(1, 110), min_size=1, max_size=6, unique=True),
    )
    def test_equals_a_separate_run_per_budget(self, seed, w, budgets):
        """Budgets below and past the halt round alike."""
        setup, oracle, expected = make_instance(seed, w=w)
        sweep = run_with_budgets(
            setup.mpc_params, setup.machines, setup.initial_memories, oracle,
            budgets=budgets, expected_output=expected,
        )
        for run, budget in zip(sweep, budgets, strict=True):
            capped = replace(setup.mpc_params, max_rounds=budget)
            result = MPCSimulator(capped, setup.machines, oracle=oracle).run(
                list(setup.initial_memories)
            )
            assert run == BudgetedRun(
                budget, expected in result.outputs.values(), result.rounds
            )


class TestWorstCaseSuccess:
    """Definition 2.4: min over inputs of the oracle-success rate."""

    def sample_for_input(self, input_index, oracle_seed, budget_w=24):
        params = LineParams(n=36, u=8, v=8, w=budget_w)
        oracle = LazyRandomOracle(params.n, params.n, seed=oracle_seed)
        # The adversarial input is pinned by input_index, not the seed.
        x = sample_input(params, np.random.default_rng(1000 + input_index))
        setup = build_chain_protocol(
            params, x, num_machines=4, pieces_per_machine=4
        )
        expected = evaluate_line(params, x, oracle)
        return (
            setup.mpc_params, setup.machines, setup.initial_memories,
            oracle, expected,
        )

    def test_generous_budget_survives_every_input(self):
        from repro.mpc import estimate_worst_case_success

        rate, _ = estimate_worst_case_success(
            self.sample_for_input,
            num_inputs=3, budget=60, trials_per_input=3, base_seed=9,
        )
        assert rate == 1.0

    def test_starved_budget_fails_on_worst_input(self):
        from repro.mpc import estimate_worst_case_success

        rate, worst = estimate_worst_case_success(
            self.sample_for_input,
            num_inputs=3, budget=3, trials_per_input=3, base_seed=9,
        )
        assert rate == 0.0
        assert 0 <= worst < 3

    def test_validation(self):
        from repro.mpc import estimate_worst_case_success

        with pytest.raises(ValueError):
            estimate_worst_case_success(
                self.sample_for_input, num_inputs=0, budget=5,
                trials_per_input=1,
            )

    def test_non_positive_budget_rejected_before_sampling(self):
        from repro.mpc import estimate_worst_case_success

        sampled = []

        def sample_for_input(input_index, oracle_seed):
            sampled.append(input_index)
            return self.sample_for_input(input_index, oracle_seed)

        with pytest.raises(ValueError, match="positive, got 0"):
            estimate_worst_case_success(
                sample_for_input, num_inputs=2, budget=0, trials_per_input=1,
            )
        assert sampled == []


class TestOracleSplit:
    def test_view_forwards_with_prefix(self):
        base = TableOracle(3, 4, list(range(8)))
        view = PrefixedOracleView(base, 0)
        assert view.n_in == 2
        assert view.query(Bits(2, 2)) == base.query(Bits(0b010, 3))

    def test_tape_reads_prefix_one_blocks(self):
        base = TableOracle(3, 4, list(range(8)))
        tape = OracleBackedTape(base, 1)
        # block 0 = answer to query 100 = value 4 = 0100.
        assert [tape.bit(i) for i in range(4)] == [0, 1, 0, 0]

    def test_tape_and_view_are_disjoint(self):
        """The work view never touches the tape's entries."""
        base = LazyRandomOracle(9, 8, seed=0)
        view, tape = split_oracle(base)
        a = tape.read(0, 16)
        for i in range(16):
            view.query(Bits(i, 8))
        assert tape.read(0, 16) == a  # unaffected

    def test_tape_bits_uniform_across_oracles(self):
        ones = 0
        total = 0
        for seed in range(60):
            base = LazyRandomOracle(9, 8, seed=seed)
            _, tape = split_oracle(base)
            chunk = tape.read(0, 32)
            ones += chunk.popcount()
            total += 32
        assert 0.42 * total < ones < 0.58 * total

    def test_tape_block_overflow(self):
        base = TableOracle(3, 4, list(range(8)))
        tape = OracleBackedTape(base, 1)
        with pytest.raises(ValueError):
            tape.bit(4 * 4)  # block 4 needs 3 index bits

    def test_validation(self):
        base = TableOracle(3, 4, list(range(8)))
        with pytest.raises(ValueError):
            PrefixedOracleView(base, 2)
        with pytest.raises(ValueError):
            OracleBackedTape(base, 5)
        with pytest.raises(ValueError):
            OracleBackedTape(base).read(-1, 2)


class CoinFlipper(Machine):
    """A randomized machine: outputs tape bits (needs true shared tape)."""

    def run_round(self, ctx: RoundContext) -> RoundOutput:
        return RoundOutput(output=ctx.tape.read(0, 16), halt=True)


class TestDerandomizedMachine:
    def test_deterministic_given_oracle(self):
        params = MPCParams(m=1, s_bits=32)
        outs = []
        for _ in range(2):
            base = LazyRandomOracle(9, 8, seed=3)
            sim = MPCSimulator(
                params, [DerandomizedMachine(CoinFlipper())], oracle=base
            )
            outs.append(sim.run([Bits(0, 0)]).outputs[0])
        assert outs[0] == outs[1]

    def test_different_oracles_different_randomness(self):
        params = MPCParams(m=1, s_bits=32)
        outs = set()
        for seed in range(8):
            base = LazyRandomOracle(9, 8, seed=seed)
            sim = MPCSimulator(
                params, [DerandomizedMachine(CoinFlipper())], oracle=base
            )
            outs.add(sim.run([Bits(0, 0)]).outputs[0])
        assert len(outs) >= 6  # 16-bit outputs collide rarely

    def test_plain_model_rejected(self):
        params = MPCParams(m=1, s_bits=32)
        sim = MPCSimulator(params, [DerandomizedMachine(CoinFlipper())])
        with pytest.raises(ValueError):
            sim.run([Bits(0, 0)])

    def test_wrapped_chain_protocol_still_computes_line(self):
        """The work view behaves as an ordinary n-bit oracle, so the
        whole Line protocol runs unchanged behind the split."""
        params = LineParams(n=36, u=8, v=8, w=16)
        big = LazyRandomOracle(params.n + 1, params.n, seed=4)
        view = PrefixedOracleView(big, 0)
        x = sample_input(params, np.random.default_rng(4))
        setup = build_chain_protocol(params, x, num_machines=2)
        from repro.protocols import run_chain

        result = run_chain(setup, view)
        assert evaluate_line(params, x, view) in result.outputs.values()
