"""Skip-ahead adversaries -- the empirical side of Lemma 3.3 / Lemma A.7.

Both lemmas bound the probability that an algorithm queries chain entry
``j+1`` *without having queried entry ``j``*: the unseen running value
``r_{j+1}`` is uniform over ``2^u`` possibilities conditioned on
everything the algorithm has seen, so any guess succeeds with
probability at most ``2^-u``.

The Monte-Carlo drivers here hand the adversary *everything except* the
answer to entry ``j`` -- the full input ``X``, the chain prefix up to
``j``, even the oracle's entire table outside the entry being guessed --
and measure how often a guessed query hits the true entry ``j+1``.
Strategies:

* ``"uniform"`` -- guess ``r`` uniformly (the information-theoretic
  baseline; succeeds with probability exactly ``2^-u``);
* ``"zero"``    -- always guess ``r = 0^u`` (a fixed guess; same bound);
* ``"rerun"``   -- evaluate the chain against a *fresh* oracle that
  agrees with the true one everywhere except entry ``j``, and use the
  value that run produces (models an adversary extrapolating from
  correlated information; the patched entry's answer is independent, so
  the bound still applies).

Each trial draws a fresh uniform oracle -- a fresh sample of the paper's
probability space -- so the measured frequency is an unbiased estimate
of the lemma's probability at the same (small) ``u``.  A trial reads
at most the ``w`` chain entries (twice that for ``"rerun"``), so the oracle
is a :class:`~repro.oracle.table.LazyTableOracle` that draws each entry
on first read rather than a ``2^n``-entry table.

Trials are independent by construction: each one derives its own RNG
from :func:`repro.parallel.trial_seed` keyed on the caller's ``seed``
(the family selector), strategy, and trial index, and the drivers fan
them out with :func:`repro.parallel.map_trials` -- ``jobs=N`` returns
bit-identical reports to a serial run.  Within a trial the input ``X``
is drawn from that RNG first and the oracle draws from it afterwards,
so ``X`` never depends on which entries the trial goes on to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Literal

import numpy as np

from repro.bits import Bits
from repro.functions.line import line_query, trace_line
from repro.functions.params import LineParams
from repro.functions.simline import simline_query, trace_simline
from repro.functions.params import SimLineParams
from repro.functions.inputs import sample_input
from repro.obs.tracer import get_tracer
from repro.oracle.patched import PatchedOracle
from repro.oracle.table import LazyTableOracle, uniform_wide
from repro.parallel import map_trials, seed_sequence

__all__ = ["GuessingReport", "estimate_line_skip_probability", "estimate_simline_skip_probability"]

Strategy = Literal["uniform", "zero", "rerun"]


@dataclass(frozen=True)
class GuessingReport:
    """Outcome of a skip-ahead Monte Carlo."""

    trials: int
    successes: int
    u: int
    strategy: str

    @property
    def rate(self) -> float:
        """Measured success frequency."""
        return self.successes / self.trials

    @property
    def bound(self) -> float:
        """The lemma's bound ``2^-u`` for one guess."""
        return 2.0 ** (-self.u)


def _random_bits(n: int, rng: np.random.Generator) -> Bits:
    """A uniform ``n``-bit string."""
    return Bits(uniform_wide(rng, n), n)


def _guess_r(
    strategy: Strategy, u: int, rng: np.random.Generator, rerun_value: Bits | None
) -> Bits:
    if strategy == "uniform":
        return _random_bits(u, rng)
    if strategy == "zero":
        return Bits.zeros(u)
    if strategy == "rerun":
        assert rerun_value is not None
        return rerun_value
    raise ValueError(f"unknown strategy {strategy!r}")


def line_skip_trial(
    params: LineParams, skip_at: int, strategy: Strategy, seed: int
) -> bool:
    """One Lemma 3.3 trial: did the skip-ahead guess hit entry ``skip_at+1``?"""
    rng = np.random.default_rng(seed)
    x = sample_input(params, rng)
    oracle = LazyTableOracle(params.n, params.n, rng)
    trace = trace_line(params, x, oracle)
    target = trace.nodes[skip_at + 1]

    rerun_value: Bits | None = None
    if strategy == "rerun":
        # Re-run against an oracle whose entry `skip_at` is resampled:
        # everything the adversary can simulate without the true entry.
        # The patch shares first reads with `oracle`, so it agrees with
        # the true oracle everywhere else, even on entries only the
        # re-run reads.
        hidden = trace.nodes[skip_at].query
        fresh = _random_bits(params.n, rng)
        rerun_trace = trace_line(
            params, x, PatchedOracle(oracle, {hidden: fresh})
        )
        rerun_value = rerun_trace.nodes[skip_at + 1].r

    guess_r = _guess_r(strategy, params.u, rng, rerun_value)
    # The adversary knows i and can try every pointer value; success
    # means *some* pointer with the guessed r hits the true entry,
    # i.e. exactly that guess_r == r_{skip_at+1}.
    guessed = line_query(params, target.i, x[target.ell], guess_r)
    return guessed == target.query


def simline_skip_trial(
    params: SimLineParams, skip_at: int, strategy: Strategy, seed: int
) -> bool:
    """One Lemma A.7 trial (the ``SimLine`` twin of :func:`line_skip_trial`)."""
    rng = np.random.default_rng(seed)
    x = sample_input(params, rng)
    oracle = LazyTableOracle(params.n, params.n, rng)
    trace = trace_simline(params, x, oracle)
    target = trace.nodes[skip_at + 1]

    rerun_value: Bits | None = None
    if strategy == "rerun":
        hidden = trace.nodes[skip_at].query
        fresh = _random_bits(params.n, rng)
        rerun_trace = trace_simline(
            params, x, PatchedOracle(oracle, {hidden: fresh})
        )
        rerun_value = rerun_trace.nodes[skip_at + 1].r

    guess_r = _guess_r(strategy, params.u, rng, rerun_value)
    guessed = simline_query(params, x[target.piece], guess_r)
    return guessed == target.query


def estimate_line_skip_probability(
    params: LineParams,
    *,
    trials: int,
    skip_at: int,
    strategy: Strategy = "uniform",
    seed: int = 0,
    jobs: int | None = None,
) -> GuessingReport:
    """Monte-Carlo Lemma 3.3 for ``Line``: guess entry ``skip_at + 1``.

    Per trial: sample ``(RO, X)`` fresh, reveal the chain up to node
    ``skip_at`` (exclusive) plus all of ``X``, and test whether the
    adversary's query for node ``skip_at + 1`` equals the true one --
    which requires guessing the unseen ``r_{skip_at+1}``.  ``seed``
    selects the trial family; ``jobs`` defaults to the ambient
    parallelism (see :mod:`repro.parallel`).
    """
    _check_run(params, trials, skip_at)
    hits = map_trials(
        partial(line_skip_trial, params, skip_at, strategy),
        seed_sequence("guess.line", f"{seed}/{strategy}/skip{skip_at}", trials),
        jobs=jobs,
        estimate=f"guess.line.u={params.u}.{strategy}",
    )
    report = GuessingReport(
        trials=trials, successes=sum(hits), u=params.u, strategy=strategy
    )
    _announce_guessing_cost("guessing.line", report)
    return report


def estimate_simline_skip_probability(
    params: SimLineParams,
    *,
    trials: int,
    skip_at: int,
    strategy: Strategy = "uniform",
    seed: int = 0,
    jobs: int | None = None,
) -> GuessingReport:
    """Monte-Carlo Lemma A.7 for ``SimLine`` (same experiment shape)."""
    _check_run(params, trials, skip_at)
    hits = map_trials(
        partial(simline_skip_trial, params, skip_at, strategy),
        seed_sequence(
            "guess.simline", f"{seed}/{strategy}/skip{skip_at}", trials
        ),
        jobs=jobs,
        estimate=f"guess.simline.u={params.u}.{strategy}",
    )
    report = GuessingReport(
        trials=trials, successes=sum(hits), u=params.u, strategy=strategy
    )
    _announce_guessing_cost("guessing.simline", report)
    return report


def _check_run(
    params: LineParams | SimLineParams, trials: int, skip_at: int
) -> None:
    """Reject arguments that cannot produce a meaningful report."""
    if trials <= 0:
        raise ValueError(f"trials={trials} must be positive")
    if not 0 <= skip_at < params.w - 1:
        raise ValueError(
            f"skip_at={skip_at} must leave a next node: 0 <= skip_at < w-1"
        )


def _announce_guessing_cost(model: str, report: GuessingReport) -> None:
    """Emit an inline ``cost.model`` event: the Lemma 3.3 / A.7 check.

    The Monte Carlo has no run span to pair with, so the announcement
    carries its own measurement; the cost oracle checks the success
    count against ``trials * 2^-u`` plus the declared statistical slack
    on receipt.
    """
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "cost.model",
            model=model,
            trigger="inline",
            params={
                "u": report.u,
                "trials": report.trials,
                "strategy": report.strategy,
            },
            measured={"successes": report.successes},
        )
