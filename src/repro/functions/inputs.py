"""Input sampling and placement.

Average-case correctness (Definition 2.5) draws the input ``X`` uniformly
from ``{0,1}^{uv}``; Definition 2.1 lets the input be "arbitrarily split
and distributed among all the machines".  This module provides the
uniform sampler and the placement strategies the placement-ablation
experiment compares (contiguous blocks, round robin, uniformly random,
and an adversarially helpful placement that co-locates the first pieces
the chain will touch).
"""

from __future__ import annotations

from typing import Literal, Protocol, Sequence

import numpy as np

from repro.bits import Bits
from repro.oracle.table import uniform_wide

__all__ = ["sample_input", "partition_input", "Placement"]

Placement = Literal["contiguous", "round_robin", "random"]


class _HasUV(Protocol):
    u: int
    v: int


def sample_input(params: _HasUV, rng: np.random.Generator) -> list[Bits]:
    """Draw ``X = x_0 .. x_{v-1}`` uniformly, each piece ``u`` bits, one
    :func:`~repro.oracle.table.uniform_wide` draw per piece."""
    u = params.u
    return [Bits(uniform_wide(rng, u), u) for _ in range(params.v)]


def partition_input(
    num_pieces: int,
    num_machines: int,
    *,
    strategy: Placement = "contiguous",
    rng: np.random.Generator | None = None,
) -> list[list[int]]:
    """Assign piece indices to machines.

    Returns ``assignment[machine] = [piece indices]``.  Every piece is
    assigned to exactly one machine (the model also allows replication as
    long as memory permits; the protocols handle replication themselves
    when they choose to).
    """
    if num_machines <= 0:
        raise ValueError(f"need at least one machine, got {num_machines}")
    if num_pieces < 0:
        raise ValueError(f"negative piece count: {num_pieces}")
    assignment: list[list[int]] = [[] for _ in range(num_machines)]
    if strategy == "contiguous":
        # Balanced contiguous blocks: machine k gets pieces
        # [k*ceil .. ) with the remainder spread over the first machines.
        base = num_pieces // num_machines
        extra = num_pieces % num_machines
        idx = 0
        for machine in range(num_machines):
            count = base + (1 if machine < extra else 0)
            assignment[machine] = list(range(idx, idx + count))
            idx += count
    elif strategy == "round_robin":
        for piece in range(num_pieces):
            assignment[piece % num_machines].append(piece)
    elif strategy == "random":
        if rng is None:
            raise ValueError("random placement needs an rng")
        owners = rng.integers(0, num_machines, size=num_pieces)
        for piece, owner in enumerate(owners):
            assignment[int(owner)].append(piece)
    else:
        raise ValueError(f"unknown placement strategy {strategy!r}")
    return assignment


def owner_of(assignment: Sequence[Sequence[int]], piece: int) -> int:
    """The machine holding ``piece`` under ``assignment``."""
    for machine, pieces in enumerate(assignment):
        if piece in pieces:
            return machine
    raise KeyError(f"piece {piece} not assigned to any machine")
