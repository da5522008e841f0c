"""``SimLine^RO`` -- the Appendix A warm-up function.

Same chain as ``Line`` but the piece used at node ``i`` is the
*deterministic* round robin ``x_{i mod v}``:

    ``(r_{i+1}, z_{i+1}) := RO(x_{i mod v}, r_i, 0^*)``

Because the access pattern is predictable, a machine holding ``s/u``
*consecutive* pieces can advance ``s/u`` nodes per round -- which is why
the warm-up only yields the ``Omega(T·u/s)`` bound of Theorem A.1 rather
than ``Line``'s ``~T``.  The ablation experiment pairs the two evaluators
to show that pointer randomness is precisely what closes the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.bits import Bits
from repro.functions.params import SimLineParams
from repro.oracle.base import Oracle

__all__ = [
    "SimLineNode",
    "SimLineTrace",
    "evaluate_simline",
    "trace_simline",
    "simline_query",
]


class SimLineNode(NamedTuple):
    """One chain node: the state *entering* oracle call ``i``."""

    i: int
    piece: int
    r: Bits
    query: Bits
    answer: Bits


@dataclass(frozen=True)
class SimLineTrace:
    """The full evaluation: all ``w`` nodes plus the final output."""

    params: SimLineParams
    nodes: tuple[SimLineNode, ...]
    output: Bits

    @property
    def correct_queries(self) -> tuple[Bits, ...]:
        """The ``(x_{i mod v}, r_i)`` entries in chain order (the ``C`` sets)."""
        return tuple(node.query for node in self.nodes)


def simline_query(params: SimLineParams, x_piece: Bits, r: Bits) -> Bits:
    """Pack the query ``(x_{i mod v}, r_i, 0^*)``.

    Bit for bit ``params.query_codec.pack(x=x_piece, r=r)``, with the
    same checks, packed with :attr:`SimLineParams.query_shifts`.
    """
    u = params.u
    if len(x_piece) != u:
        raise ValueError(f"x piece has {len(x_piece)} bits, expected u={u}")
    if len(r) != u:
        raise ValueError(f"r has {len(r)} bits, expected u={u}")
    x_shift, r_shift = params.query_shifts
    # Both fields are checked in range for their widths.
    return Bits._make(
        (x_piece.value << x_shift) | (r.value << r_shift), params.n
    )


def _check_input(params: SimLineParams, x: Sequence[Bits]) -> None:
    if len(x) != params.v:
        raise ValueError(f"input has {len(x)} pieces, expected v={params.v}")
    for idx, piece in enumerate(x):
        if len(piece) != params.u:
            raise ValueError(
                f"piece {idx} has {len(piece)} bits, expected u={params.u}"
            )


def trace_simline(
    params: SimLineParams, x: Sequence[Bits], oracle: Oracle
) -> SimLineTrace:
    """Evaluate ``SimLine^RO`` keeping every intermediate node."""
    _check_input(params, x)
    if oracle.n_in != params.n or oracle.n_out != params.n:
        raise ValueError(
            f"oracle is {oracle.n_in}->{oracle.n_out} bits, params need "
            f"{params.n}->{params.n}"
        )
    r = Bits.zeros(params.u)
    nodes: list[SimLineNode] = []
    answer = Bits.zeros(params.n)
    for i in range(params.w):
        piece = params.piece_index(i)
        query = simline_query(params, x[piece], r)
        answer = oracle.query(query)
        nodes.append(SimLineNode(i, piece, r, query, answer))
        r = params.next_r(answer)
    return SimLineTrace(params=params, nodes=tuple(nodes), output=answer)


def evaluate_simline(
    params: SimLineParams, x: Sequence[Bits], oracle: Oracle
) -> Bits:
    """Evaluate ``SimLine^RO(x)``: the answer to the last query."""
    _check_input(params, x)
    r = Bits.zeros(params.u)
    answer = Bits.zeros(params.n)
    for i in range(params.w):
        answer = oracle.query(simline_query(params, x[params.piece_index(i)], r))
        r = params.next_r(answer)
    return answer
