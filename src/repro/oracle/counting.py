"""Query transcripts and per-round query budgets.

Theorem 3.1 bounds each machine to ``q`` oracle queries per round; the
proof of Lemma 3.3 reasons about the *position* of each query in the
global transcript (``t in [(k+1)mq]``).  :class:`CountingOracle` wraps
any oracle with exactly that bookkeeping: an ordered transcript of
:class:`QueryRecord` entries, plus an optional budget that raises
:class:`~repro.oracle.base.QueryBudgetExceeded` when a round exceeds
``q`` queries.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Sequence

from repro.bits import Bits
from repro.obs.tracer import get_tracer
from repro.oracle.base import Oracle, QueryBudgetExceeded

__all__ = ["CountingOracle", "QueryRecord", "query_key"]


def query_key(x: Bits) -> str:
    """A short stable identifier for a query string.

    The ``oracle.query`` trace event carries this instead of the raw
    bits: it is deterministic across runs (so two traces of the same
    seeded experiment agree) and fixed-width no matter how long the
    query is.  ``repro trace-diff`` compares it as model data, so a
    run that asks the oracle a different question diverges at that
    query even when every counter agrees.
    """
    length = len(x)
    payload = x.to_int().to_bytes((length + 7) // 8 or 1, "big")
    digest = hashlib.blake2b(payload, digest_size=8)
    digest.update(length.to_bytes(4, "big"))
    return digest.hexdigest()


class QueryRecord(NamedTuple):
    """One transcript entry: which query, when, by whom, and its answer.

    A named tuple, because one is built per oracle query.
    """

    position: int
    round: int
    machine: int
    query: Bits
    answer: Bits


class CountingOracle(Oracle):
    """An oracle wrapper that records and budgets queries.

    The wrapper carries a ``(round, machine)`` context set by the caller
    (the MPC simulator sets it before each machine's local computation);
    queries are stamped with the current context.  With ``per_round_limit``
    set, the ``q``-queries-per-round-per-machine constraint of Theorem 3.1
    is enforced mechanically.
    """

    def __init__(self, base: Oracle, *, per_round_limit: int | None = None) -> None:
        super().__init__(base.n_in, base.n_out)
        if per_round_limit is not None and per_round_limit <= 0:
            raise ValueError(f"per_round_limit must be positive, got {per_round_limit}")
        self._base = base
        self._limit = per_round_limit
        self._transcript: list[QueryRecord] = []
        self._seen: set[Bits] = set()
        self._round = 0
        self._machine = 0
        self._in_context = 0

    @property
    def base(self) -> Oracle:
        """The wrapped oracle."""
        return self._base

    @property
    def transcript(self) -> tuple[QueryRecord, ...]:
        """All queries so far, in order."""
        return tuple(self._transcript)

    @property
    def total_queries(self) -> int:
        """Number of queries recorded."""
        return len(self._transcript)

    @property
    def unique_queries(self) -> int:
        """Number of *distinct* queries; ``total - unique`` is how many
        a memoizing cache would have answered without touching the base
        oracle (the tracer's cache-behavior metric)."""
        return len(self._seen)

    def set_context(self, *, round: int, machine: int) -> None:
        """Stamp subsequent queries as (round, machine); resets the budget."""
        self._round = round
        self._machine = machine
        self._in_context = 0

    def queries_in_context(self) -> int:
        """Queries made since the last :meth:`set_context`."""
        return self._in_context

    def _evaluate(self, x: Bits) -> Bits:
        if self._limit is not None and self._in_context >= self._limit:
            raise QueryBudgetExceeded(
                f"machine {self._machine} exceeded q={self._limit} queries "
                f"in round {self._round}"
            )
        tracer = get_tracer()
        if tracer.enabled and tracer.has_span_hooks:
            with tracer.hook_scope("oracle.query"):
                answer = self._base.query(x)
        else:
            answer = self._base.query(x)
        position = len(self._transcript)
        repeat = x in self._seen
        self._seen.add(x)
        self._transcript.append(
            QueryRecord(position, self._round, self._machine, x, answer)
        )
        self._in_context += 1
        if tracer.enabled:
            tracer.event(
                "oracle.query",
                position=position,
                round=self._round,
                machine=self._machine,
                repeat=repeat,
                key=query_key(x),
            )
        return answer

    def _evaluate_batch(self, xs: Sequence[Bits]) -> list[Bits]:
        """Batched metering, observably identical to the sequential loop.

        Answers come from the base oracle's vectorized ``query_batch``;
        transcript entries, ``oracle.query`` events, and the budget all
        advance per query in order.  When the batch would overrun the
        per-round budget, the allowed prefix is evaluated and recorded
        first and *then* :class:`QueryBudgetExceeded` is raised --
        exactly the state a query-at-a-time caller would observe.  Span
        hooks need one window per query, so a hooked tracer falls back
        to the sequential path.
        """
        tracer = get_tracer()
        if tracer.enabled and tracer.has_span_hooks:
            return [self._evaluate(x) for x in xs]
        over = False
        if self._limit is not None:
            allowed = self._limit - self._in_context
            if len(xs) > allowed:
                over = True
                xs = xs[:allowed]
        answers = self._base.query_batch(list(xs)) if xs else []
        transcript = self._transcript
        seen = self._seen
        traced = tracer.enabled
        for x, answer in zip(xs, answers):
            position = len(transcript)
            repeat = x in seen
            seen.add(x)
            transcript.append(
                QueryRecord(position, self._round, self._machine, x, answer)
            )
            self._in_context += 1
            if traced:
                tracer.event(
                    "oracle.query",
                    position=position,
                    round=self._round,
                    machine=self._machine,
                    repeat=repeat,
                    key=query_key(x),
                )
        if over:
            raise QueryBudgetExceeded(
                f"machine {self._machine} exceeded q={self._limit} queries "
                f"in round {self._round}"
            )
        return answers

    def queries_by_round(self) -> dict[int, int]:
        """Histogram of query counts per round."""
        hist: dict[int, int] = {}
        for rec in self._transcript:
            hist[rec.round] = hist.get(rec.round, 0) + 1
        return hist

    def queried_set(self) -> set[Bits]:
        """The set of distinct queries made (the proof's ``Q`` sets)."""
        return set(self._seen)
