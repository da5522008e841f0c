"""E-LINE -- Lemma 3.2 / Theorem 3.1: rounds grow linearly in ``T``.

The frontier chain-following protocol (the strongest explicit strategy
we have for ``Line``) is run across a ``T`` sweep at several stored
fractions ``f = s/S``.  The paper's lower bound says any protocol with
``f <= 1/c`` needs ``~Omega(T)`` rounds; the measured rounds must be
linear in ``T`` (power-law exponent ~1) with slope ``~(1-f)``, and the
slope must stay bounded away from 0 for every ``f < 1``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis import fit_power_law, mean_ci
from repro.experiments.base import ExperimentResult, TableData, register
from repro.functions import LineParams, evaluate_line, sample_input
from repro.obs.tracer import phase
from repro.oracle import LazyRandomOracle
from repro.parallel import map_trials, seed_sequence
from repro.protocols import build_chain_protocol, run_chain

__all__ = ["run", "chain_rounds_trial", "measure_chain_rounds"]


def chain_rounds_trial(
    params: LineParams, num_machines: int, pieces_per_machine: int, seed: int
) -> int:
    """One chain-following run on a fresh seeded ``(RO, X)``: its rounds."""
    oracle = LazyRandomOracle(params.n, params.n, seed=seed)
    x = sample_input(params, np.random.default_rng(seed))
    setup = build_chain_protocol(
        params, x, num_machines=num_machines,
        pieces_per_machine=pieces_per_machine,
    )
    result = run_chain(setup, oracle)
    assert evaluate_line(params, x, oracle) in result.outputs.values()
    return result.rounds_to_output


def measure_chain_rounds(
    *,
    w: int,
    pieces_per_machine: int,
    num_machines: int = 8,
    v: int = 8,
    trials: int = 3,
    base_seed: int = 0,
    jobs: int | None = None,
) -> tuple[float, float]:
    """Mean rounds-to-output (+CI half-width) over fresh (RO, X) pairs.

    ``base_seed`` names the sweep point (it keys the trial-seed
    derivation); ``jobs`` defaults to the ambient parallelism.
    """
    params = LineParams(n=36, u=8, v=v, w=w)
    rounds = map_trials(
        partial(chain_rounds_trial, params, num_machines, pieces_per_machine),
        seed_sequence("E-LINE.chain", base_seed, trials),
        jobs=jobs,
    )
    return mean_ci(rounds)


@register("E-LINE")
def run(scale: str) -> ExperimentResult:
    ws = [64, 128, 256] if scale == "quick" else [64, 128, 256, 512, 1024]
    trials = 3 if scale == "quick" else 8
    fractions = {"1/8": 1, "1/4": 2, "1/2": 4}  # pieces per machine of v=8

    rows = []
    fits = {}
    slopes = {}
    for label, ppm in fractions.items():
        with phase("sweep-f", f=label):
            means = []
            for w in ws:
                mean, half = measure_chain_rounds(
                    w=w, pieces_per_machine=ppm, trials=trials, base_seed=w + ppm
                )
                means.append(mean)
                rows.append((label, w, f"{mean:.1f}", f"+-{half:.1f}",
                             f"{mean / w:.3f}"))
            fits[label] = fit_power_law(ws, means)
            slopes[label] = means[-1] / ws[-1]  # rounds/T at the largest T

    f_map = {"1/8": 1 / 8, "1/4": 1 / 4, "1/2": 1 / 2}
    passed = True
    for label, fit in fits.items():
        passed = passed and 0.85 <= fit.exponent <= 1.15
        # rounds/T should be near (1 - f): 1/(1-f) nodes per round.
        expected_slope = 1 - f_map[label]
        passed = passed and 0.7 * expected_slope <= slopes[label] <= 1.3 * expected_slope

    table = TableData(
        title="rounds to output vs T at fixed storage fraction f = s/S",
        headers=("f", "T=w", "rounds", "CI", "rounds/T"),
        rows=tuple(rows),
    )
    fit_summary = ", ".join(
        f"f={label}: T^{fit.exponent:.2f} slope {slopes[label]:.2f}"
        for label, fit in fits.items()
    )
    return ExperimentResult(
        experiment_id="E-LINE",
        title="Line round complexity is linear in T",
        paper_claim=(
            "any MPC algorithm with s <= S/c needs Omega(T/log^2 T) rounds "
            "(Lemma 3.2); best explicit protocol achieves ~(1-f) T"
        ),
        tables=[table],
        summary=f"power-law fits: {fit_summary} (expected slope 1-f)",
        passed=passed,
    )
