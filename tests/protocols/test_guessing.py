"""Tests for the skip-ahead adversaries (Lemma 3.3 / A.7 Monte Carlo)."""

import numpy as np
import pytest

from repro.functions import LineParams, SimLineParams, sample_input
from repro.protocols import (
    estimate_line_skip_probability,
    estimate_simline_skip_probability,
    guessing,
)


class TestLineGuessing:
    @pytest.fixture
    def params(self):
        # u = 3: guessing succeeds with probability 1/8 -- observable.
        return LineParams(n=14, u=3, v=4, w=6)

    def test_uniform_rate_matches_2_to_minus_u(self, params):
        report = estimate_line_skip_probability(
            params, trials=2000, skip_at=2, strategy="uniform", seed=1
        )
        assert report.bound == pytest.approx(1 / 8)
        assert report.rate == pytest.approx(report.bound, abs=0.03)

    def test_zero_guess_within_bound(self, params):
        report = estimate_line_skip_probability(
            params, trials=2000, skip_at=2, strategy="zero", seed=2
        )
        # A fixed guess hits a uniform target with probability 2^-u.
        assert report.rate == pytest.approx(report.bound, abs=0.03)

    def test_rerun_adversary_no_better(self, params):
        report = estimate_line_skip_probability(
            params, trials=1500, skip_at=2, strategy="rerun", seed=3
        )
        assert report.rate <= 3 * report.bound + 0.02

    def test_rate_halves_per_extra_bit(self):
        rates = []
        for u in (2, 3, 4):
            params = LineParams(n=4 + 3 * u, u=u, v=4, w=6)
            report = estimate_line_skip_probability(
                params, trials=4000, skip_at=2, strategy="uniform", seed=u
            )
            rates.append(report.rate)
        assert rates[0] > 1.5 * rates[1] > 1.5 * 1.5 * rates[2]

    def test_skip_at_validation(self, params):
        with pytest.raises(ValueError):
            estimate_line_skip_probability(params, trials=10, skip_at=5)
        with pytest.raises(ValueError):
            estimate_line_skip_probability(params, trials=10, skip_at=-1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_validation(self, params, trials):
        with pytest.raises(ValueError, match="trials"):
            estimate_line_skip_probability(params, trials=trials, skip_at=2)

    def test_report_fields(self, params):
        report = estimate_line_skip_probability(
            params, trials=50, skip_at=1, seed=0
        )
        assert report.trials == 50
        assert 0 <= report.successes <= 50
        assert report.strategy == "uniform"


class TestSimLineGuessing:
    @pytest.fixture
    def params(self):
        return SimLineParams(n=9, u=3, v=4, w=6)

    def test_uniform_rate_matches_bound(self, params):
        report = estimate_simline_skip_probability(
            params, trials=2000, skip_at=2, strategy="uniform", seed=5
        )
        assert report.rate == pytest.approx(1 / 8, abs=0.03)

    def test_rerun_no_better(self, params):
        report = estimate_simline_skip_probability(
            params, trials=1500, skip_at=2, strategy="rerun", seed=6
        )
        assert report.rate <= 3 * report.bound + 0.02

    def test_skip_at_validation(self, params):
        with pytest.raises(ValueError):
            estimate_simline_skip_probability(params, trials=10, skip_at=5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_validation(self, params, trials):
        with pytest.raises(ValueError, match="trials"):
            estimate_simline_skip_probability(params, trials=trials, skip_at=2)


_TRIALS = pytest.mark.parametrize(
    "trial, tracer, params",
    [
        ("line_skip_trial", "trace_line", LineParams(n=14, u=3, v=4, w=6)),
        ("simline_skip_trial", "trace_simline", SimLineParams(n=9, u=3, v=4, w=6)),
    ],
    ids=["line", "simline"],
)


def _record_traces(monkeypatch, tracer: str) -> list:
    """Wrap ``guessing.<tracer>``; each call appends ``(x, oracle, trace)``."""
    runs = []
    real = getattr(guessing, tracer)

    def spy(p, x, oracle):
        trace = real(p, x, oracle)
        runs.append((list(x), oracle, trace))
        return trace

    monkeypatch.setattr(guessing, tracer, spy)
    return runs


class TestTrialStream:
    """One generator per trial: the input first, then the lazy oracle."""

    @_TRIALS
    def test_input_does_not_depend_on_oracle_reads(
        self, monkeypatch, trial, tracer, params
    ):
        # The strategies read different oracle entries (rerun reads a
        # whole second chain), yet each trial seed fixes one input: the
        # first draws of the trial's generator.
        runs = _record_traces(monkeypatch, tracer)
        for seed in (0, 1, 2**40 + 5):
            expected = sample_input(params, np.random.default_rng(seed))
            for strategy in ("uniform", "zero", "rerun"):
                runs.clear()
                getattr(guessing, trial)(params, 2, strategy, seed)
                assert runs and all(x == expected for x, _, _ in runs)

    @_TRIALS
    def test_rerun_oracle_differs_only_at_the_hidden_entry(
        self, monkeypatch, trial, tracer, params
    ):
        runs = _record_traces(monkeypatch, tracer)
        for seed in range(20):
            runs.clear()
            getattr(guessing, trial)(params, 2, "rerun", seed)
            (_, true_oracle, true_trace), (_, rerun_oracle, rerun_trace) = runs
            hidden = true_trace.nodes[2].query
            assert list(rerun_oracle.overrides) == [hidden]
            for node in rerun_trace.nodes:
                if node.query != hidden:
                    # Also on entries the re-run is the first to read.
                    assert node.answer == true_oracle.query(node.query)

    @pytest.mark.parametrize("strategy", ["uniform", "rerun"])
    @pytest.mark.parametrize(
        "estimate, params",
        [
            (estimate_line_skip_probability, LineParams(n=14, u=3, v=4, w=6)),
            (estimate_simline_skip_probability,
             SimLineParams(n=9, u=3, v=4, w=6)),
        ],
        ids=["line", "simline"],
    )
    def test_parallel_matches_serial(self, estimate, params, strategy):
        reports = [
            estimate(params, trials=200, skip_at=2, strategy=strategy,
                     seed=7, jobs=jobs)
            for jobs in (1, 2)
        ]
        assert reports[0] == reports[1]
