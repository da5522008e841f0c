"""Tests for the statistics and Monte-Carlo helpers."""

import math

import numpy as np
import pytest

from repro.analysis import (
    binomial_ci,
    fit_exponential_decay,
    fit_power_law,
    format_table,
    mean_ci,
    run_trials,
    spawn_seeds,
)
from repro.analysis.statistics import _t_ppf

BAD_CONFIDENCES = [0.0, 1.0, 1.5, -0.5, math.nan]


class TestMeanCI:
    def test_mean(self):
        mean, half = mean_ci([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert half > 0

    def test_constant_data_zero_width(self):
        mean, half = mean_ci([5.0, 5.0, 5.0])
        assert (mean, half) == (5.0, 0.0)

    def test_single_value_infinite_width(self):
        mean, half = mean_ci([4.0])
        assert mean == 4.0
        assert half == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    @pytest.mark.parametrize("confidence", BAD_CONFIDENCES)
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([1, 2, 4], confidence=confidence)
        with pytest.raises(ValueError, match="confidence"):
            mean_ci([4.0], confidence=confidence)

    def test_coverage(self):
        """~95% of CIs over N(0,1) samples should cover 0."""
        rng = np.random.default_rng(0)
        covered = 0
        for _ in range(300):
            sample = rng.normal(size=20)
            mean, half = mean_ci(sample)
            if mean - half <= 0 <= mean + half:
                covered += 1
        assert covered >= 0.9 * 300


class TestBinomialCI:
    def test_contains_rate(self):
        rate, low, high = binomial_ci(40, 100)
        assert low < rate < high
        assert rate == 0.4

    def test_edge_cases(self):
        rate, low, high = binomial_ci(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12)
        rate, low, high = binomial_ci(50, 50)
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_ci(1, 0)
        with pytest.raises(ValueError):
            binomial_ci(5, 4)

    @pytest.mark.parametrize("confidence", BAD_CONFIDENCES)
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            binomial_ci(3, 10, confidence=confidence)

    def test_single_trial(self):
        rate, low, high = binomial_ci(0, 1)
        assert rate == 0.0
        assert 0.0 <= low <= high <= 1.0
        rate, low, high = binomial_ci(1, 1)
        assert rate == 1.0
        assert 0.0 <= low <= high <= 1.0

    def test_all_failures_interval_above_zero(self):
        # Wilson at k=0 still has mass above 0 (unlike a Wald interval).
        _, low, high = binomial_ci(0, 100)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < high < 0.1

    def test_all_successes_interval_below_one(self):
        _, low, high = binomial_ci(100, 100)
        assert 0.9 < low < 1.0
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_narrows_with_trials(self):
        _, lo1, hi1 = binomial_ci(10, 20)
        _, lo2, hi2 = binomial_ci(1000, 2000)
        assert hi2 - lo2 < hi1 - lo1


class TestFits:
    def test_power_law_exact(self):
        xs = [1, 2, 4, 8, 16]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0)
        assert 2.0**fit.log2_constant == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1])

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([1, 2, 4], [0, 1, 2]),
            ([1, 2, 4], [1, -2, 4]),
            ([0, 2, 4], [1, 2, 3]),
            ([-1, 2, 4], [1, 2, 3]),
            ([1, 2, math.nan], [1, 2, 3]),
        ],
    )
    def test_power_law_rejects_non_positive_data(self, xs, ys):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law(xs, ys)

    def test_exponential_decay_exact(self):
        ks = [0, 1, 2, 3, 4]
        ps = [0.8 * 0.5**k for k in ks]
        fit = fit_exponential_decay(ks, ps)
        assert fit.rate == pytest.approx(0.5)
        assert 2.0**fit.log2_constant == pytest.approx(0.8)

    def test_decay_drops_zeros(self):
        fit = fit_exponential_decay([0, 1, 2, 3], [0.5, 0.25, 0.0, 0.0625])
        assert fit.rate == pytest.approx(0.5, rel=0.01)

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([1, 2], [0.0, 0.0])


class TestStudentTQuantile:
    @pytest.mark.parametrize(
        "df, expected",
        # scipy.stats.t.ppf(0.975, df), scipy 1.17.1
        [(1, 12.706204736174694), (7, 2.364624251592784),
         (19, 2.0930240544083087)],
    )
    def test_pinned_values(self, df, expected):
        assert _t_ppf(0.975, df) == pytest.approx(expected, rel=1e-11)

    def test_half_width_uses_n_minus_one_df(self):
        values = [1.0, 2.0, 4.0, 8.0]
        _, half = mean_ci(values, confidence=0.9)
        sem = np.std(values, ddof=1) / math.sqrt(len(values))
        assert half == pytest.approx(sem * _t_ppf(0.95, 3), rel=1e-15)


class TestMonteCarlo:
    def test_seeds_are_distinct_and_reproducible(self):
        a = spawn_seeds(7, 10)
        b = spawn_seeds(7, 10)
        assert a == b
        assert len(set(a)) == 10

    def test_different_base_different_seeds(self):
        assert spawn_seeds(1, 5) != spawn_seeds(2, 5)

    def test_run_trials(self):
        outs = run_trials(lambda seed: seed % 2, trials=8, base_seed=3)
        assert len(outs) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(lambda s: s, trials=0)
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestTables:
    def test_basic_render(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 0.0001]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "1.000e-04" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_zero_renders_plain(self):
        assert "0" in format_table(["x"], [[0.0]])
