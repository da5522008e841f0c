"""E-DECAY -- Section 1.1/3 intuition: advance probability decays
exponentially.

"Since s <= S/c, a machine can only store a constant fraction of x_i's,
and since the l_i's are random, the probability that a machine can learn
the value of p new nodes should decay exponentially in p."  We measure
exactly that: the chain's pointer sequence is walked under fresh
oracles, and the probability that a machine storing a fraction ``f`` of
the pieces can advance ``>= p`` nodes in one round is estimated; it must
fit ``~f^p``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis import fit_exponential_decay
from repro.experiments.base import ExperimentResult, TableData, register
from repro.functions import LineParams, line_nodes, sample_input
from repro.obs.convergence import (
    WelfordAccumulator,
    WilsonAccumulator,
    attach_estimates,
)
from repro.oracle import LazyRandomOracle
from repro.parallel import map_trials, seed_sequence

__all__ = ["run", "advance_length"]


def advance_length(params: LineParams, stored: set[int], seed: int) -> int:
    """Nodes a machine holding ``stored`` advances from node 0.

    The machine can evaluate node ``i`` iff it holds ``x_{l_i}``; the
    run ends at the first pointer outside its store.  The walk queries
    only the nodes it evaluates: node ``i``'s answer names ``l_{i+1}``,
    so the count is the stored prefix of the full trace's
    ``pieces_used()`` without the oracle calls past it.
    """
    oracle = LazyRandomOracle(params.n, params.n, seed=seed)
    x = sample_input(params, np.random.default_rng(seed))
    nodes = line_nodes(params, x, oracle)
    count, ell = 0, 0  # l_0 = 0
    while count < params.w and ell in stored:
        ell, _ = params.next_node(next(nodes).answer)
        count += 1
    return count


@register("E-DECAY")
def run(scale: str) -> ExperimentResult:
    trials = 400 if scale == "quick" else 2000
    params = LineParams(n=36, u=8, v=8, w=24)
    fractions = {"1/4": {0, 1}, "1/2": {0, 1, 2, 3}}
    depths = list(range(1, 7))

    # One seed list shared by both fractions: each trial's chain is
    # evaluated at every stored-fraction, so the curves are directly
    # comparable (paired samples, not independent sweeps).
    seeds = seed_sequence("E-DECAY", "advance", trials)

    rows = []
    passed = True
    fits = {}
    estimates = {}
    for label, stored in fractions.items():
        f = len(stored) / params.v
        lengths = map_trials(
            partial(advance_length, params, stored),
            seeds,
            estimate=f"decay.advance_len.f={label}",
        )
        # One streaming pass over the trial results: a Welford mean of
        # the advance length plus a Wilson (k, n) per depth -- the 95%
        # CIs below need no second traversal of `lengths`.
        mean_len = WelfordAccumulator()
        depth_acc = {p: WilsonAccumulator() for p in depths}
        for length in lengths:
            mean_len.add(float(length))
            for p in depths:
                depth_acc[p].add(length >= p)
        estimates[f"decay.advance_len.f={label}"] = mean_len.stats(
            f"decay.advance_len.f={label}"
        )
        probs = []
        for p in depths:
            stats = depth_acc[p].stats(f"decay.p_advance.f={label}.p={p}")
            estimates[stats.name] = stats
            prob = stats.value
            probs.append(prob)
            expected = f ** (p - 1)  # node 0's pointer is 0, always stored
            rows.append(
                (label, p, f"{prob:.4f}",
                 f"[{stats.low:.4f},{stats.high:.4f}]", f"{expected:.4f}")
            )
        # Fit only the observed support: a depth no trial reached has
        # probability ~f^(p-1) below Monte-Carlo resolution, and feeding
        # a zero (or epsilon placeholder) into a log-space fit would let
        # one empty cell dominate the slope.
        observed = [(p, q) for p, q in zip(depths, probs) if q > 0]
        fit = fit_exponential_decay(
            [p for p, _ in observed], [q for _, q in observed]
        )
        fits[label] = fit
        passed = passed and 0.6 * f <= fit.rate <= 1.4 * f

    table = TableData(
        title="Pr[advance >= p nodes in one round] vs f^(p-1)",
        headers=("f", "p", "measured", "Wilson 95% CI", "f^(p-1)"),
        rows=tuple(rows),
    )
    fit_summary = ", ".join(
        f"f={label}: rate {fit.rate:.3f}/node (R^2={fit.r_squared:.3f})"
        for label, fit in fits.items()
    )
    return ExperimentResult(
        experiment_id="E-DECAY",
        title="Exponential decay of per-round progress",
        paper_claim=(
            "with a fraction f of pieces stored and random pointers, the "
            "probability of learning p new nodes decays exponentially in p"
        ),
        tables=[table],
        summary=f"geometric decay with rate ~f per node: {fit_summary}",
        passed=passed,
        metrics=attach_estimates({}, estimates),
    )
