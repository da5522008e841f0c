"""Oracle interface and errors.

An oracle is a fixed function ``{0,1}^n_in -> {0,1}^n_out``.  All
implementations are *functional*: once a query has been answered, every
later query of it gets the same answer -- the property that lets the RAM
evaluator, every MPC machine, and the compression argument's re-runs
agree on one oracle.  Most oracles fix every answer up front (a PRF
seed, a hash, a sampled table).  A
:class:`~repro.oracle.table.LazyTableOracle` fixes each answer at its
first read, so everyone holding it within a trial sees one function;
the order of first reads decides which function is drawn, but not its
distribution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.bits import Bits

__all__ = [
    "DomainError",
    "MemoOracle",
    "Oracle",
    "OracleError",
    "QueryBudgetExceeded",
]


class OracleError(Exception):
    """Base class for oracle-related failures."""


class DomainError(OracleError):
    """A query or answer had the wrong bit length."""


class QueryBudgetExceeded(OracleError):
    """A machine exceeded its per-round query budget ``q``."""


class Oracle(ABC):
    """A function ``{0,1}^n_in -> {0,1}^n_out`` accessed by queries."""

    def __init__(self, n_in: int, n_out: int) -> None:
        if n_in < 0 or n_out <= 0:
            raise ValueError(f"invalid oracle dimensions ({n_in}, {n_out})")
        self._n_in = n_in
        self._n_out = n_out

    @property
    def n_in(self) -> int:
        """Query length in bits."""
        return self._n_in

    @property
    def n_out(self) -> int:
        """Answer length in bits."""
        return self._n_out

    def query(self, x: Bits) -> Bits:
        """Evaluate the oracle on ``x`` (validates both lengths)."""
        if len(x) != self._n_in:
            raise DomainError(
                f"query has {len(x)} bits, oracle domain is {self._n_in} bits"
            )
        answer = self._evaluate(x)
        if len(answer) != self._n_out:
            raise DomainError(
                f"oracle produced {len(answer)} bits, expected {self._n_out}"
            )
        return answer

    def query_batch(self, xs: Sequence[Bits]) -> list[Bits]:
        """Evaluate the oracle on many queries at once.

        Semantically identical to ``[self.query(x) for x in xs]`` --
        oracles are functional, so batching changes nothing observable.
        Implementations with a vectorized ``_evaluate_batch`` (table
        gather, batched PRF) answer the whole batch without per-query
        Python dispatch.
        """
        n_in = self._n_in
        for x in xs:
            if len(x) != n_in:
                raise DomainError(
                    f"query has {len(x)} bits, oracle domain is {n_in} bits"
                )
        answers = self._evaluate_batch(xs)
        n_out = self._n_out
        for answer in answers:
            if len(answer) != n_out:
                raise DomainError(
                    f"oracle produced {len(answer)} bits, expected {n_out}"
                )
        return answers

    def _evaluate_batch(self, xs: Sequence[Bits]) -> list[Bits]:
        """Batch evaluation hook; the default is the sequential loop."""
        return [self._evaluate(x) for x in xs]

    @abstractmethod
    def _evaluate(self, x: Bits) -> Bits:
        """Compute the answer for an in-domain query."""


class MemoOracle(Oracle):
    """An oracle that computes each distinct answer once.

    A subclass fixes the function through :meth:`_compute`, which maps a
    query's integer value to the answer's; the first read of a query
    calls it, and every later read returns the memoized answer.  The
    memo is recomputable state: :meth:`clear_cache` drops it, and so
    does pickling, which keeps oracles cheap to hand to
    :mod:`repro.parallel` workers.
    """

    def __init__(self, n_in: int, n_out: int) -> None:
        super().__init__(n_in, n_out)
        self._cache: dict[int, int] = {}

    @abstractmethod
    def _compute(self, key: int) -> int:
        """The answer's value for the query value ``key``, in
        ``[0, 2^n_out)``."""

    def _evaluate(self, x: Bits) -> Bits:
        key = x.value
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._compute(key)
        return Bits._make(cached, self._n_out)

    def cache_size(self) -> int:
        """Number of distinct queries answered so far."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop the memo (the function itself is unchanged).

        Every answer is recomputed on its next read, so clearing only
        trades time for memory.
        """
        self._cache.clear()

    def __getstate__(self) -> dict:
        """Pickle without the memo: the restored oracle computes the
        same function and re-derives each answer on its first read."""
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache = {}
