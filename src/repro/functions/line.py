"""``Line^RO`` -- the hard function of Theorem 3.1.

The function is a chain of ``w`` oracle calls.  Node ``i`` (0-based)
holds a pointer ``l_i`` into the input and a running value ``r_i``;
the oracle answer at node ``i`` yields the next node:

    ``(l_{i+1}, r_{i+1}, z_{i+1}) := RO(i, x_{l_i}, r_i, 0^*)``

starting from ``l_0 = 0`` and ``r_0 = 0^u``.  The output is the full
``n``-bit answer to the last query.  Because the *oracle itself* picks
which input piece the next node needs, no machine that stores only a
fraction of the pieces can advance far in one round -- that is the whole
hardness story, and the property experiments E-LINE and E-DECAY measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from repro.bits import Bits
from repro.functions.params import LineParams
from repro.oracle.base import Oracle

__all__ = [
    "LineNode",
    "LineTrace",
    "evaluate_line",
    "line_nodes",
    "trace_line",
    "line_query",
]


class LineNode(NamedTuple):
    """One chain node: the state *entering* oracle call ``i``.

    ``query``/``answer`` are the actual oracle strings, kept so the proof
    machinery (V-sets, encoders) can match transcript entries exactly.
    """

    i: int
    ell: int
    r: Bits
    query: Bits
    answer: Bits


@dataclass(frozen=True)
class LineTrace:
    """The full evaluation: all ``w`` nodes plus the final output."""

    params: LineParams
    nodes: tuple[LineNode, ...]
    output: Bits

    @property
    def correct_queries(self) -> tuple[Bits, ...]:
        """The ``(i, x_{l_i}, r_i)`` entries, in chain order.

        These are the elements of the proof's ``C`` sets: the queries an
        algorithm *must* make, in order, to learn the chain.
        """
        return tuple(node.query for node in self.nodes)

    def pieces_used(self) -> tuple[int, ...]:
        """The pointer sequence ``l_0, l_1, ..., l_{w-1}``."""
        return tuple(node.ell for node in self.nodes)


def line_query(params: LineParams, i: int, x_piece: Bits, r: Bits) -> Bits:
    """Pack the query ``(i, x_{l_i}, r_i, 0^*)`` for node ``i``.

    Bit for bit ``params.query_codec.pack(index=i, x=x_piece, r=r)``,
    with the same checks, packed with :attr:`LineParams.query_shifts`.
    """
    u = params.u
    if len(x_piece) != u:
        raise ValueError(f"x piece has {len(x_piece)} bits, expected u={u}")
    if len(r) != u:
        raise ValueError(f"r has {len(r)} bits, expected u={u}")
    index_shift, x_shift, r_shift = params.query_shifts
    n = params.n
    if i < 0 or i >> (n - index_shift):
        raise ValueError(
            f"value {i} does not fit field 'index' of width {n - index_shift}"
        )
    # Every field is checked in range for its width.
    return Bits._make(
        (i << index_shift) | (x_piece.value << x_shift) | (r.value << r_shift), n
    )


def _check_input(params: LineParams, x: Sequence[Bits]) -> None:
    if len(x) != params.v:
        raise ValueError(f"input has {len(x)} pieces, expected v={params.v}")
    for idx, piece in enumerate(x):
        if len(piece) != params.u:
            raise ValueError(
                f"piece {idx} has {len(piece)} bits, expected u={params.u}"
            )


def line_nodes(
    params: LineParams, x: Sequence[Bits], oracle: Oracle
) -> Iterator[LineNode]:
    """The chain's nodes in order, each queried only when it is taken.

    The input and the oracle's dimensions are checked at the call.  Node
    ``i``'s oracle call happens when the iterator is advanced to it, so
    a caller that stops early -- say at the first pointer a machine
    does not store -- makes only the calls it reads.
    """
    _check_input(params, x)
    if oracle.n_in != params.n or oracle.n_out != params.n:
        raise ValueError(
            f"oracle is {oracle.n_in}->{oracle.n_out} bits, params need "
            f"{params.n}->{params.n}"
        )
    return _walk(params, x, oracle)


def _walk(
    params: LineParams, x: Sequence[Bits], oracle: Oracle
) -> Iterator[LineNode]:
    ell = 0  # paper's l_1 = 1, 0-based here
    r = Bits.zeros(params.u)
    for i in range(params.w):
        query = line_query(params, i, x[ell], r)
        answer = oracle.query(query)
        yield LineNode(i, ell, r, query, answer)
        ell, r = params.next_node(answer)


def trace_line(params: LineParams, x: Sequence[Bits], oracle: Oracle) -> LineTrace:
    """Evaluate ``Line^RO`` and keep every intermediate node.

    This is the reference evaluator: ``O(w)`` oracle calls and ``O(uv)``
    space, exactly the RAM upper bound of Theorem 3.1 (the word-RAM
    program in :mod:`repro.ram.programs` re-derives the same trace with
    instruction-level accounting).
    """
    # A list first: tuple() over an iterator over-allocates and then
    # shrinks each tuple, which raised E-GUESS's peak RSS by ~0.15 MB.
    nodes = list(line_nodes(params, x, oracle))
    # LineParams requires w >= 1: the output is the last node's answer.
    return LineTrace(params=params, nodes=tuple(nodes), output=nodes[-1].answer)


def evaluate_line(params: LineParams, x: Sequence[Bits], oracle: Oracle) -> Bits:
    """Evaluate ``Line^RO(x)``: the answer to the last correct query."""
    _check_input(params, x)
    ell = 0
    r = Bits.zeros(params.u)
    answer = Bits.zeros(params.n)
    for i in range(params.w):
        answer = oracle.query(line_query(params, i, x[ell], r))
        ell, r = params.next_node(answer)
    return answer
