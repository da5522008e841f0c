"""The two design ablations behind Theorem 3.1's hardness.

``Line`` and ``SimLine`` differ in one choice: whether the next input
piece is picked by the random oracle or by the round robin ``i mod v``.
Section 1.2 attributes MPC's edge over PRAM to free adaptive queries
within a round.  Each test removes one of the two and checks that the
round counts move the way the paper says.  (Input placement, the third
ablation, is the registered experiment E-ABL-PLACE.)
"""

import numpy as np

from repro.experiments.exp_line_rounds import measure_chain_rounds
from repro.experiments.exp_simline_rounds import measure_pipeline_rounds
from repro.functions import LineParams, evaluate_line, sample_input
from repro.oracle import LazyRandomOracle
from repro.protocols import build_chain_protocol, run_chain


def test_oracle_pointers_cost_more_rounds_than_round_robin():
    """At equal storage (f = 1/2, T = 128), Line needs ~(1-f)·T rounds
    and SimLine ~T/b: random pointers must cost > 2.5x the rounds."""
    w = 128
    line_mean, _ = measure_chain_rounds(
        w=w, pieces_per_machine=4, num_machines=4, v=8, trials=3, base_seed=1
    )
    sim_rounds = measure_pipeline_rounds(
        w=w, pieces_per_machine=8, num_machines=2, v=16, seed=1
    )
    assert line_mean > 2.5 * sim_rounds


def test_one_query_per_round_forces_a_round_per_node():
    """With q = 1 the chain protocol advances one node per round (at
    least w rounds); unbounded q batches runs and takes fewer."""
    params = LineParams(n=36, u=8, v=8, w=64)
    mean_rounds = {}
    for q in (None, 1):
        rounds = []
        for t in range(3):
            oracle = LazyRandomOracle(params.n, params.n, seed=t)
            x = sample_input(params, np.random.default_rng(t))
            setup = build_chain_protocol(
                params, x, num_machines=2, pieces_per_machine=4, q=q
            )
            result = run_chain(setup, oracle)
            assert evaluate_line(params, x, oracle) in result.outputs.values()
            rounds.append(result.rounds_to_output)
        mean_rounds[q] = sum(rounds) / len(rounds)
    assert mean_rounds[1] >= params.w
    assert mean_rounds[None] < mean_rounds[1]
