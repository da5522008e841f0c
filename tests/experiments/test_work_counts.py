"""The work E-BUDGET and E-HASH do at quick scale, pinned.

E-BUDGET samples each trial's instance once and runs it once, to the
largest budget, reading every smaller cut from that run; E-HASH's hash
oracles compute each distinct answer once, so the protocol's queries of
the chain nodes ``evaluate_line`` already hashed cost nothing.  A change
that re-ran a budget or re-hashed a node would move these counts while
every rendered number stayed the same, so they are pinned here.
"""

from importlib import import_module

import pytest

from repro.experiments import run_experiment
from repro.mpc import MPCSimulator

# The package re-exports functions named like these modules.
sha3 = import_module("repro.hashes.sha3")
sha256 = import_module("repro.hashes.sha256")


@pytest.fixture
def counted(monkeypatch):
    """Count calls of the wrapped callables, by label."""
    counts: dict[str, int] = {}

    def wrap(owner, name, label, after=None):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[label] = counts.get(label, 0) + 1
            if after is not None:
                after(result)
            return result

        monkeypatch.setattr(owner, name, counting)

    return counts, wrap


def test_budget_sweep_runs_each_trial_once(counted):
    counts, wrap = counted

    def add_rounds(result):
        counts["rounds"] = counts.get("rounds", 0) + result.rounds

    wrap(MPCSimulator, "run", "runs", after=add_rounds)
    result = run_experiment("E-BUDGET", "quick")
    # 10 trials; five separate runs per trial made 50 runs of 1,823 rounds.
    assert (counts["runs"], counts["rounds"]) == (10, 488)
    (table,) = result.tables
    assert [(row[0], row[2]) for row in table.rows] == [
        (14, "0.00"), (28, "0.00"), (43, "0.20"), (62, "1.00"), (86, "1.00"),
    ]


def test_hash_oracles_hash_each_node_once(counted):
    counts, wrap = counted
    wrap(sha3, "keccak_f1600", "keccak")
    wrap(sha256, "_compress", "sha256")
    result = run_experiment("E-HASH", "quick")
    # 48 chain nodes, each hashed once per concrete-hash oracle: hashing
    # them again for the protocol made 96 and 208.
    assert (counts["keccak"], counts["sha256"]) == (48, 160)
    assert result.passed
