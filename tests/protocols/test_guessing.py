"""Tests for the skip-ahead adversaries (Lemma 3.3 / A.7 Monte Carlo)."""

import pytest

from repro.functions import LineParams, SimLineParams
from repro.protocols import (
    estimate_line_skip_probability,
    estimate_simline_skip_probability,
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
