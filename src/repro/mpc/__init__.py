"""Massively Parallel Computation substrate (Definitions 2.1 / 2.2).

The simulator enforces the model mechanically:

* ``m`` machines with ``s``-bit local memories -- a machine's entire
  state at the start of round ``k+1`` is the union of messages sent to it
  at the end of round ``k`` (machines persist state only by messaging
  themselves), and the simulator rejects any round in which a machine's
  incoming bits exceed ``s``;
* unlimited local computation per round, including up to ``q`` adaptive
  oracle queries (Definition 2.2), metered by a
  :class:`~repro.oracle.counting.CountingOracle`;
* a shared, read-only random tape (:mod:`~repro.mpc.tape`);
* per-round statistics: message bits, query counts, machine activity.
"""

from repro.mpc.correctness import (
    estimate_success_probability,
    estimate_worst_case_success,
    run_with_budget,
    run_with_budgets,
)
from repro.mpc.derandomize import DerandomizedMachine, split_oracle
from repro.mpc.errors import MemoryExceeded, ProtocolError
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.simulator import MPCResult, MPCSimulator
from repro.mpc.stats import MPCStats, RoundStats
from repro.mpc.tape import SharedTape

__all__ = [
    "DerandomizedMachine",
    "MPCParams",
    "MPCResult",
    "MPCSimulator",
    "MPCStats",
    "Machine",
    "MemoryExceeded",
    "ProtocolError",
    "RoundContext",
    "RoundOutput",
    "RoundStats",
    "SharedTape",
    "estimate_success_probability",
    "estimate_worst_case_success",
    "run_with_budget",
    "run_with_budgets",
    "split_oracle",
]
