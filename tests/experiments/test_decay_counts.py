"""E-DECAY's advance counts at quick scale, pinned.

``advance_length`` stops at the first pointer a machine does not store,
so it queries only the nodes it evaluates.  Its counts must be the
stored prefix of the full trace's pointer sequence: the hypothesis test
checks that on random oracles and stores, and the pinned counts check
it on the 400 seeds E-DECAY runs at quick scale, where a walk that
moved any one count would move a row of ``EXPERIMENTS.md``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.exp_decay import advance_length
from repro.functions import LineParams, sample_input, trace_line
from repro.oracle import CountingOracle, LazyRandomOracle
from repro.parallel import seed_sequence

PARAMS = LineParams(n=36, u=8, v=8, w=24)

#: Trials (of 400) that advance at least p = 1..6 nodes, per stored set.
QUICK_COUNTS = {
    "1/4": ({0, 1}, [400, 98, 27, 8, 1, 0]),
    "1/2": ({0, 1, 2, 3}, [400, 193, 107, 53, 33, 12]),
}


@pytest.mark.parametrize("label", sorted(QUICK_COUNTS))
def test_quick_counts_are_pinned(label):
    stored, expected = QUICK_COUNTS[label]
    lengths = [
        advance_length(PARAMS, stored, seed)
        for seed in seed_sequence("E-DECAY", "advance", 400)
    ]
    assert [sum(n >= p for n in lengths) for p in range(1, 7)] == expected


def _stored_prefix(params, stored, seed):
    oracle = LazyRandomOracle(params.n, params.n, seed=seed)
    x = sample_input(params, np.random.default_rng(seed))
    count = 0
    for ell in trace_line(params, x, oracle).pieces_used():
        if ell not in stored:
            break
        count += 1
    return count


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    v_log=st.integers(0, 3),
    w=st.integers(1, 12),
    data=st.data(),
)
def test_early_exit_equals_the_traced_stored_prefix(seed, v_log, w, data):
    v = 1 << v_log
    params = LineParams(n=36, u=8, v=v, w=w)
    stored = data.draw(st.sets(st.integers(0, v - 1)))
    assert advance_length(params, stored, seed) == _stored_prefix(
        params, stored, seed
    )


def test_queries_only_the_evaluated_nodes(monkeypatch):
    """A machine that advances k nodes makes k oracle calls, not w."""
    import repro.experiments.exp_decay as exp_decay

    made = []

    def counting(n_in, n_out, *, seed):
        oracle = CountingOracle(LazyRandomOracle(n_in, n_out, seed=seed))
        made.append(oracle)
        return oracle

    monkeypatch.setattr(exp_decay, "LazyRandomOracle", counting)
    stored = {0, 1, 2, 3}
    for seed in seed_sequence("E-DECAY", "advance", 50):
        length = advance_length(PARAMS, stored, seed)
        assert made[-1].total_queries == length
    full = set(range(PARAMS.v))
    assert advance_length(PARAMS, full, 0) == PARAMS.w
    assert made[-1].total_queries == PARAMS.w
