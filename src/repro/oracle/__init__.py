"""Random-oracle substrate.

The paper's model gives every party oracle access to a uniformly random
function ``RO : {0,1}^n -> {0,1}^n`` (Definition 2.2).  This package
implements that substrate four ways, matching the ways the paper *uses*
the oracle:

* :class:`~repro.oracle.lazy.LazyRandomOracle` -- the standard lazy-
  sampling view, realized with a seeded PRF so that independently running
  parties (RAM program, MPC machines) see one consistent function even on
  huge domains;
* :class:`~repro.oracle.table.TableOracle` -- an explicit uniformly
  sampled truth table over a small domain.  This *is* a sample from the
  paper's probability space; it also supports the oracle *enumeration*
  and the full-table serialization the Section 3 proof performs;
* :class:`~repro.oracle.table.LazyTableOracle` -- the same uniform
  function with each entry drawn from a generator on first read, so a
  Monte-Carlo trial pays only for the entries it reads; estimates over
  it are unbiased for the paper's probabilities, as over a full table;
* :class:`~repro.oracle.patched.PatchedOracle` -- an oracle with a finite
  set of rewired entries, the object Definition 3.4 calls
  ``RO^(k)_{a_1..a_p}``.

:mod:`~repro.oracle.counting` adds transcripts and per-round query
budgets (the parameter ``q`` of Theorem 3.1).
"""

from repro.oracle.base import DomainError, Oracle, OracleError, QueryBudgetExceeded
from repro.oracle.counting import CountingOracle, QueryRecord
from repro.oracle.lazy import LazyRandomOracle
from repro.oracle.patched import PatchedOracle
from repro.oracle.table import (
    LazyTableOracle,
    TableOracle,
    uniform_bits,
    uniform_wide,
)

__all__ = [
    "CountingOracle",
    "DomainError",
    "LazyRandomOracle",
    "LazyTableOracle",
    "Oracle",
    "OracleError",
    "PatchedOracle",
    "QueryBudgetExceeded",
    "QueryRecord",
    "TableOracle",
    "uniform_bits",
    "uniform_wide",
]
