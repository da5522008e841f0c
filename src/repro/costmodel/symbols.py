"""Shared symbols and bit-width helpers for the cost formulas.

Everything here mirrors a concrete accounting function bit for bit:

* :func:`bits_needed`    -- ``repro.bits.bits_needed`` (0 for one value);
* :func:`log2p`          -- the paper's ``log x`` convention (0 for
  ``x <= 1``), as used throughout :mod:`repro.bounds`;
* :func:`store_bits` / :func:`frontier_bits` -- the exact wire sizes of
  :mod:`repro.protocols.wire` (``store_bits_required`` /
  ``frontier_bits_required``).

The symbol set is the paper's Table 1-3 vocabulary: ``n`` (oracle
width), ``m`` (machines), ``s`` (local memory bits), ``q`` (per-round
queries), ``T`` (chain length, the paper's ``T = w``), ``u``/``v``
(piece width / count), plus the protocol-level ``b`` (pieces per
machine), ``R`` (measured rounds), ``wb`` (RAM word bits), ``k``
(pointer jumps), ``p`` (look-ahead window), ``alpha``/``B`` (encoding
recoveries / blocks).

Access the namespace via :func:`syms` -- import-time sympy use is
forbidden (see :mod:`repro.costmodel.backend`).
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

from repro.costmodel.backend import require_sympy

__all__ = [
    "syms",
    "bits_needed",
    "log2p",
    "piece_index_bits",
    "count_bits",
    "node_index_bits",
    "store_bits",
    "frontier_bits",
]


@lru_cache(maxsize=1)
def syms() -> SimpleNamespace:
    """The shared symbol namespace (one instance, so exprs compare equal)."""
    sp = require_sympy()
    pos = dict(integer=True, positive=True)
    nonneg = dict(integer=True, nonnegative=True)
    return SimpleNamespace(
        n=sp.Symbol("n", **pos),
        m=sp.Symbol("m", **pos),
        s=sp.Symbol("s", **pos),
        q=sp.Symbol("q", **pos),
        T=sp.Symbol("T", **pos),
        u=sp.Symbol("u", **pos),
        v=sp.Symbol("v", **pos),
        b=sp.Symbol("b", **pos),
        R=sp.Symbol("R", **pos),
        wb=sp.Symbol("wb", **pos),
        k=sp.Symbol("k", **nonneg),
        p=sp.Symbol("p", **pos),
        qcap=sp.Symbol("qcap", **pos),
        alpha=sp.Symbol("alpha", **nonneg),
        B=sp.Symbol("B", **nonneg),
        trials=sp.Symbol("trials", **pos),
        S=sp.Symbol("S", **pos),
        ell=sp.Symbol("ell", **pos),
        z=sp.Symbol("z", **nonneg),
    )


def bits_needed(x):
    """``repro.bits.bits_needed``: ``ceil(log2 x)`` for ``x > 1``, else 0."""
    sp = require_sympy()
    return sp.Piecewise((sp.ceiling(sp.log(x, 2)), x > 1), (0, True))


def log2p(x):
    """The bounds modules' ``log2(x) if x > 1 else 0`` convention."""
    sp = require_sympy()
    return sp.Piecewise((sp.log(x, 2), x > 1), (0, True))


def piece_index_bits(v):
    """``wire._layout(...).piece_bits``: ``max(bits_needed(v), 1)``."""
    sp = require_sympy()
    return sp.Max(bits_needed(v), 1)


def count_bits(v):
    """``wire._layout(...).count_bits``: ``max(bits_needed(v + 1), 1)``."""
    sp = require_sympy()
    return sp.Max(bits_needed(v + 1), 1)


def node_index_bits(w):
    """``wire._layout(...).node_bits``: ``bits_needed(w + 1)``."""
    return bits_needed(w + 1)


def store_bits(v, u, num_pieces):
    """``wire.store_bits_required``: one STORE message of ``num_pieces``."""
    return 2 + count_bits(v) + num_pieces * (piece_index_bits(v) + u)


def frontier_bits(v, u, w):
    """``wire.frontier_bits_required``: one FRONTIER message."""
    return 2 + node_index_bits(w) + piece_index_bits(v) + u
