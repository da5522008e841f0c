"""Statistical fits behind the shape checks.

The experiments validate *shapes*: rounds linear in ``T`` (power-law
exponent ~1), inverse in ``s`` (exponent ~-1), advance probabilities
decaying exponentially in the look-ahead depth.  These are ordinary
least squares fits in the appropriate transform, with confidence
intervals so the benchmark tables can state uncertainty.

Everything here is numpy and the standard library.  The standard error
of the mean and the least-squares line are the expressions
``scipy.stats.sem`` and ``scipy.stats.linregress`` evaluate, so their
results are bit-identical to scipy's; the normal quantile is
:meth:`statistics.NormalDist.inv_cdf`, and the Student-t quantile is
solved by Newton's method on the exact finite-sum CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

__all__ = [
    "mean_ci",
    "binomial_ci",
    "fit_power_law",
    "fit_exponential_decay",
    "PowerLawFit",
    "DecayFit",
]


def mean_ci(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Sample mean and half-width of its t-based confidence interval."""
    if len(values) == 0:
        raise ValueError("no values")
    arr = np.asarray(values, dtype=float)
    n = len(arr)
    sem = float(arr.std(ddof=1) / n**0.5) if n > 1 else 0.0
    return float(arr.mean()), _t_half_width(sem, n, confidence)


def binomial_ci(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float, float]:
    """Wilson score interval: (rate, low, high)."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of [0, {trials}]")
    _check_confidence(confidence)
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    phat = successes / trials
    denom = 1 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return phat, max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class PowerLawFit:
    """``y ~ C · x^exponent`` fitted on log-log axes."""

    exponent: float
    log2_constant: float
    r_squared: float


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """OLS on ``log2 y = e·log2 x + c``; requires positive data."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs of equal length")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if not (x > 0).all() or not (y > 0).all():
        raise ValueError("power-law fit needs positive xs and ys")
    slope, intercept, r = _linregress(np.log2(x), np.log2(y))
    return PowerLawFit(
        exponent=float(slope),
        log2_constant=float(intercept),
        r_squared=float(r**2),
    )


@dataclass(frozen=True)
class DecayFit:
    """``p(k) ~ C · rate^k`` fitted on semi-log axes (rate in (0, 1))."""

    rate: float
    log2_constant: float
    r_squared: float


def fit_exponential_decay(
    ks: Sequence[float], probs: Sequence[float]
) -> DecayFit:
    """OLS on ``log2 p = k·log2(rate) + c``; zero probabilities dropped."""
    pairs = [(k, p) for k, p in zip(ks, probs) if p > 0]
    if len(pairs) < 2:
        raise ValueError("need at least two positive-probability points")
    lx = np.asarray([k for k, _ in pairs], dtype=float)
    ly = np.log2(np.asarray([p for _, p in pairs], dtype=float))
    slope, intercept, r = _linregress(lx, ly)
    return DecayFit(
        rate=float(2.0**slope),
        log2_constant=float(intercept),
        r_squared=float(r**2),
    )


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def _t_half_width(sem: float, n: int, confidence: float) -> float:
    """Half-width ``sem · t_{(1+confidence)/2, n-1}`` of a t interval.

    ``inf`` for a single sample, 0 when ``sem`` is 0.  Shared by
    :func:`mean_ci` and the streaming
    :class:`repro.obs.convergence.WelfordAccumulator`.
    """
    _check_confidence(confidence)
    if n == 1:
        return math.inf
    if sem == 0.0:
        return 0.0
    return sem * _t_ppf((1 + confidence) / 2, n - 1)


def _t_ppf(p: float, df: int) -> float:
    """Quantile of Student's t with integer ``df >= 1``, for p in (1/2, 1).

    ``df == 1`` is the Cauchy quantile in closed form.  Otherwise Newton
    steps solve ``P(|T| < t) = 2p - 1`` from the Cornish-Fisher
    expansion (A&S 26.7.5).  That CDF is concave in ``t > 0``, so every
    iterate after the first lies below the root and every exact step
    points up.  The loop stops after a step of relative size 1e-8
    (quadratic convergence leaves an error of order 1e-16), or when
    rounding noise turns a step downward.  Within 1e-11 relative of
    ``scipy.stats.t.ppf`` for df up to 1000 and p up to 0.9999; further
    into the tail, where ``P(|T| < t)`` is within rounding of 1, the
    accuracy degrades.
    """
    if df == 1:
        return 1.0 / math.tan(math.pi * (1.0 - p))
    x = NormalDist().inv_cdf(p)
    x2 = x * x
    t = x * (
        1.0
        + (x2 + 1) / (4 * df)
        + ((5 * x2 + 16) * x2 + 3) / (96 * df**2)
        + (((3 * x2 + 19) * x2 + 17) * x2 - 15) / (384 * df**3)
        + ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945)
        / (92160 * df**4)
    )
    target = 2.0 * p - 1.0
    log_density_norm = (
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
    )
    for i in range(100):
        density = math.exp(
            log_density_norm - (df + 1) / 2 * math.log1p(t * t / df)
        )
        step = (target - _t_central_cdf(t, df)) / (2.0 * density)
        if i and step < 0:
            return t  # past the first step only rounding noise points down
        t += step
        if abs(step) <= 1e-8 * t:
            return t
    raise ArithmeticError(f"t quantile did not converge (p={p}, df={df})")


def _t_central_cdf(t: float, df: int) -> float:
    """``P(|T| < t)`` for ``t >= 0`` and integer ``df >= 2``.

    The finite sums of A&S 26.7.3 (odd df) and 26.7.4 (even df) in
    ``theta = atan(t / sqrt(df))``, evaluated by Horner's rule from the
    highest power of ``cos^2 theta`` down.
    """
    cos2 = df / (df + t * t)
    sin = t / math.sqrt(df + t * t)
    total = 1.0
    if df % 2 == 0:
        for k in range(df // 2 - 1, 0, -1):
            total = 1.0 + cos2 * (2 * k - 1) / (2 * k) * total
        return sin * total
    for k in range((df - 3) // 2, 0, -1):
        total = 1.0 + cos2 * (2 * k) / (2 * k + 1) * total
    theta = math.atan(t / math.sqrt(df))
    return 2.0 / math.pi * (theta + sin * math.sqrt(cos2) * total)


def _linregress(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """``(slope, intercept, r)`` of the least-squares line through two or
    more points.

    The arithmetic of ``scipy.stats.linregress``, with its error for
    all-identical x and its ``r`` (NaN when y is constant, clipped to
    [-1, 1] otherwise).
    """
    if np.amax(x) == np.amin(x):
        raise ValueError(
            "Cannot calculate a linear regression if all x values are "
            "identical"
        )
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(1.0, max(-1.0, ssxym / np.sqrt(ssxm * ssym)))
    slope = ssxym / ssxm
    return slope, np.mean(y) - slope * np.mean(x), r
