"""The scipy-free statistics against scipy.stats, where scipy is installed.

``repro.analysis.statistics`` replaces four scipy.stats calls: ``sem``
and ``linregress`` by the numpy expressions scipy evaluates (so equal
to the last bit), ``norm.ppf`` by :meth:`statistics.NormalDist.inv_cdf`
and ``t.ppf`` by a Newton solve on the exact integer-df CDF.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.analysis import (
    binomial_ci,
    fit_exponential_decay,
    fit_power_law,
    mean_ci,
)
from repro.analysis.statistics import _linregress, _t_ppf

stats = pytest.importorskip("scipy.stats")

CONFIDENCES = [0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 0.9999]
T_PROBS = [0.55, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9999]


def _samples(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 60))
        values = rng.normal(rng.uniform(-5, 50), rng.uniform(0.01, 10), size=n)
        yield np.round(values) if i % 3 == 0 else values


class TestSem:
    def test_equals_scipy(self):
        for values in _samples(0, 300):
            sem = float(values.std(ddof=1) / len(values) ** 0.5)
            assert sem == float(stats.sem(values))

    def test_mean_ci_equals_scipy_formula(self):
        for values in _samples(1, 100):
            ref = float(stats.sem(values)) * float(
                stats.t.ppf(0.975, len(values) - 1)
            )
            _, half = mean_ci(values)
            assert half == pytest.approx(ref, rel=1e-11)


class TestLinregress:
    def test_equals_scipy(self):
        rng = np.random.default_rng(2)
        for i in range(300):
            n = int(rng.integers(2, 12))
            x = np.log2(rng.choice(np.arange(1, 200), size=n, replace=False))
            if i % 5 == 0:  # constant y: r is NaN in both
                y = np.full(n, math.log2(3 + i))
            else:
                y = np.log2(rng.uniform(0.5, 100, size=n))
            slope, intercept, r = _linregress(x, y)
            ref = stats.linregress(x, y)
            assert slope == ref.slope
            assert intercept == ref.intercept
            both_nan = math.isnan(r) and math.isnan(ref.rvalue)
            assert r == ref.rvalue or both_nan

    def test_fits_equal_scipy(self):
        xs, ys = [1, 2, 4, 8, 16], [3.1, 5.9, 13.0, 24.2, 51.5]
        ref = stats.linregress(np.log2(xs), np.log2(ys))
        fit = fit_power_law(xs, ys)
        assert (fit.exponent, fit.log2_constant, fit.r_squared) == (
            ref.slope, ref.intercept, ref.rvalue**2
        )
        ks, ps = [1, 2, 3, 4], [0.5, 0.26, 0.12, 0.07]
        ref = stats.linregress(ks, np.log2(ps))
        fit = fit_exponential_decay(ks, ps)
        assert (fit.rate, fit.log2_constant, fit.r_squared) == (
            2.0**ref.slope, ref.intercept, ref.rvalue**2
        )

    def test_identical_x_error_equals_scipy(self):
        x, y = np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError) as ref:
            stats.linregress(x, y)
        with pytest.raises(ValueError) as got:
            _linregress(x, y)
        assert str(got.value) == str(ref.value)

    def test_too_few_points_rejected_before_the_regression(self):
        # scipy.stats.linregress answers NaN (with a warning) for fewer
        # than two points; the fits reject them with a ValueError.
        for xs, ys in [([], []), ([2.0], [3.0])]:
            with pytest.raises(ValueError, match="two"):
                fit_power_law(xs, ys)
            with pytest.raises(ValueError, match="two"):
                fit_exponential_decay(xs, ys)


class TestWilsonZ:
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_within_4_ulp_of_norm_ppf(self, confidence):
        p = (1 + confidence) / 2
        ref = float(stats.norm.ppf(p))
        assert abs(NormalDist().inv_cdf(p) - ref) <= 4 * math.ulp(ref)

    def test_within_1e15_relative_on_a_grid(self):
        for confidence in np.linspace(0.001, 0.9999, 999):
            p = (1 + float(confidence)) / 2
            ref = float(stats.norm.ppf(p))
            assert NormalDist().inv_cdf(p) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_binomial_ci_matches_scipy_z(self, confidence):
        z = float(stats.norm.ppf((1 + confidence) / 2))
        for successes, trials in [(0, 50), (3, 10), (40, 100), (999, 1000)]:
            phat = successes / trials
            denom = 1 + z**2 / trials
            center = (phat + z**2 / (2 * trials)) / denom
            half = z * math.sqrt(
                phat * (1 - phat) / trials + z**2 / (4 * trials**2)
            ) / denom
            rate, low, high = binomial_ci(successes, trials, confidence)
            assert rate == phat
            ref_low = max(0.0, center - half)
            ref_high = min(1.0, center + half)
            assert low == pytest.approx(ref_low, rel=1e-14, abs=1e-16)
            assert high == pytest.approx(ref_high, rel=1e-14)


class TestStudentT:
    def test_within_1e11_relative_of_t_ppf(self):
        dfs = np.arange(1, 1001)
        ref = stats.t.ppf(np.asarray(T_PROBS)[:, None], dfs[None, :])
        worst = 0.0
        for i, p in enumerate(T_PROBS):
            for j, df in enumerate(dfs.tolist()):
                got = _t_ppf(p, df)
                worst = max(worst, abs(got - ref[i, j]) / ref[i, j])
        assert worst <= 1e-11
