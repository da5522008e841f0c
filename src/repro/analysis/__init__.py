"""Measurement and reporting harness.

* :mod:`~repro.analysis.montecarlo` -- seeded trial runners;
* :mod:`~repro.analysis.statistics` -- confidence intervals and the
  log-log / exponential fits the shape checks use (numpy and the
  standard library);
* :mod:`~repro.analysis.tables` -- ASCII rendering of the rows each
  benchmark prints.
"""

from repro.analysis.montecarlo import run_trials, spawn_seeds
from repro.analysis.statistics import (
    binomial_ci,
    fit_exponential_decay,
    fit_power_law,
    mean_ci,
)
from repro.analysis.tables import format_table

__all__ = [
    "binomial_ci",
    "fit_exponential_decay",
    "fit_power_law",
    "format_table",
    "mean_ci",
    "run_trials",
    "spawn_seeds",
]
