"""Success probability under a round budget (Definitions 2.4 / 2.5).

The theorems are statements about *success probability within R rounds*:
"the probability that ``A^RO`` computes ``f^RO`` correctly in
``o(T/log^2 T)`` rounds is at most 1/3 over the random choice of RO and
input" (Theorem 1.1).  This module measures exactly that quantity for a
concrete protocol: run it with a hard round cut ``R`` and check whether
the correct output exists among the machine outputs at the cut
(Definition 2.4's "union of outputs at the end of round R").

``estimate_success_probability`` samples fresh ``(RO, X)`` pairs -- the
average-case distribution of Definition 2.5 -- and returns the success
frequency for each budget in a sweep, which experiment E-BUDGET turns
into the success-probability transition curve.

A sweep runs each instance once, to its largest budget, and reads every
smaller cut from that run (:meth:`~repro.mpc.simulator.MPCResult.outputs_at`):
no machine sees ``max_rounds``, so a run cut after ``R`` rounds is the
first ``R`` rounds of the longer one, call for call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.bits import Bits
from repro.mpc.machine import Machine
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCSimulator
from repro.oracle.base import Oracle

__all__ = [
    "BudgetedRun",
    "run_with_budget",
    "run_with_budgets",
    "estimate_success_probability",
    "estimate_worst_case_success",
]


@dataclass(frozen=True)
class BudgetedRun:
    """Outcome of one budget-limited execution."""

    budget: int
    succeeded: bool
    rounds_used: int


def run_with_budget(
    params: MPCParams,
    machines: Sequence[Machine],
    initial_memories: Sequence[Bits],
    oracle: Oracle,
    *,
    budget: int,
    expected_output: Bits,
) -> BudgetedRun:
    """Execute at most ``budget`` rounds; success iff the expected output
    is among the machine outputs when the cut hits (or at halt).

    The one-budget case of :func:`run_with_budgets`.
    """
    (run,) = run_with_budgets(
        params, machines, initial_memories, oracle,
        budgets=[budget], expected_output=expected_output,
    )
    return run


def run_with_budgets(
    params: MPCParams,
    machines: Sequence[Machine],
    initial_memories: Sequence[Bits],
    oracle: Oracle,
    *,
    budgets: Sequence[int],
    expected_output: Bits,
) -> list[BudgetedRun]:
    """One :class:`BudgetedRun` per budget, in order, from a single run.

    The protocol runs once with ``max_rounds`` set to the largest
    budget.  Each budget's verdict is read from the outputs that run had
    logged by the end of that round, and its rounds used are the cut or
    the halt round, whichever comes first: exactly what a separate run
    with ``max_rounds`` set to that budget returns.  (A protocol that
    raises after a smaller budget's cut raises here too.)  Budgets must
    be positive and distinct.
    """
    budgets = _checked_budgets(budgets)
    capped = replace(params, max_rounds=max(budgets))
    sim = MPCSimulator(capped, machines, oracle=oracle)
    result = sim.run(list(initial_memories))
    return [
        BudgetedRun(
            budget=budget,
            succeeded=expected_output in result.outputs_at(budget).values(),
            rounds_used=min(budget, result.rounds),
        )
        for budget in budgets
    ]


def _checked_budgets(budgets: Sequence[int]) -> list[int]:
    """``budgets`` as a list; raises ``ValueError`` on an empty list, a
    non-positive budget or a repeated one."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("need at least one budget")
    for budget in budgets:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
    if len(set(budgets)) != len(budgets):
        repeated = sorted({b for b in budgets if budgets.count(b) > 1})
        raise ValueError(
            f"budgets must be distinct, got {repeated} more than once"
        )
    return budgets


def estimate_success_probability(
    sample_instance: Callable[
        [int],
        tuple[MPCParams, Sequence[Machine], Sequence[Bits], Oracle, Bits],
    ],
    *,
    budgets: Sequence[int],
    trials: int,
    base_seed: int = 0,
) -> dict[int, float]:
    """Success frequency per budget over fresh ``(RO, X)`` samples.

    ``sample_instance(seed)`` draws one average-case instance and returns
    everything a budgeted run needs, including the correct output (the
    caller computes it with the reference evaluator).  Each trial samples
    one instance and runs it once (:func:`run_with_budgets`), so the
    curves are paired -- lower variance on the transition location.
    Budgets must be positive and distinct; they are checked before the
    first instance is sampled.
    """
    if trials <= 0:
        raise ValueError(f"need at least one trial, got {trials}")
    budgets = _checked_budgets(budgets)
    successes = {b: 0 for b in budgets}
    rng = np.random.default_rng(base_seed)
    for _ in range(trials):
        seed = int(rng.integers(0, 2**62))
        params, machines, memories, oracle, expected = sample_instance(seed)
        for run in run_with_budgets(
            params, machines, memories, oracle,
            budgets=budgets, expected_output=expected,
        ):
            successes[run.budget] += run.succeeded
    return {b: successes[b] / trials for b in budgets}


def estimate_worst_case_success(
    sample_for_input: Callable[
        [int, int],
        tuple[MPCParams, Sequence[Machine], Sequence[Bits], Oracle, Bits],
    ],
    *,
    num_inputs: int,
    budget: int,
    trials_per_input: int,
    base_seed: int = 0,
) -> tuple[float, int]:
    """Definition 2.4's quantifier order: min over inputs of the
    oracle-randomness success probability.

    ``sample_for_input(input_index, oracle_seed)`` must fix the input by
    ``input_index`` (the adversarial choice) while the oracle varies
    with ``oracle_seed``.  Returns ``(worst rate, argmin input index)``
    -- the worst-case analogue of
    :func:`estimate_success_probability`'s average case.
    """
    if num_inputs <= 0 or trials_per_input <= 0:
        raise ValueError(
            f"invalid (num_inputs={num_inputs}, trials={trials_per_input})"
        )
    _checked_budgets([budget])
    rng = np.random.default_rng(base_seed)
    worst_rate = 1.0
    worst_input = 0
    for input_index in range(num_inputs):
        hits = 0
        for _ in range(trials_per_input):
            oracle_seed = int(rng.integers(0, 2**62))
            params, machines, memories, oracle, expected = sample_for_input(
                input_index, oracle_seed
            )
            run = run_with_budget(
                params, machines, memories, oracle,
                budget=budget, expected_output=expected,
            )
            hits += run.succeeded
        rate = hits / trials_per_input
        if rate < worst_rate:
            worst_rate = rate
            worst_input = input_index
    return worst_rate, worst_input
