"""Parameterizations of ``Line`` and ``SimLine`` (Tables 2 and 3).

The paper fixes, for target RAM space ``S`` and time ``T``:

* ``u = n/3`` -- bits per input piece ``x_i`` (large enough that guessing
  an unseen piece succeeds with probability ``2^-u``);
* ``v = S/u`` -- number of pieces, so the input is ``uv = S`` bits;
* ``w = T`` -- chain length, one oracle call per node.

Queries and answers are both ``n``-bit strings:

* ``Line`` query ``(i, x_{l_i}, r_i, 0^*)`` and answer
  ``(l_{i+1}, r_{i+1}, z_{i+1})`` where ``l`` takes ``ceil(log v)`` bits,
  ``r`` takes ``u`` bits, and ``z`` is the redundant remainder;
* ``SimLine`` query ``(x_{i mod v}, r_i, 0^*)`` and answer
  ``(r_{i+1}, z_{i+1})``.

Conventions (documented deviations from the paper's 1-indexed prose):
indices are 0-based, so the first node uses ``l_1 = 0`` (the paper's
``l_1 = 1``) and ``SimLine`` node ``i`` (0-based) uses piece
``x_{i mod v}``.  ``v`` must be a power of two so that the ``l`` field of
a uniform answer is itself uniform over ``[v]`` -- at other ``v`` the
paper's "``l_i`` uniform" statement would need rejection sampling; both
constructors enforce the power of two through ``_check_common``, whose
error message records why.

The codecs (:attr:`LineParams.query_codec`, :attr:`LineParams.answer_codec`
and their ``SimLine`` twins) are the reference layouts.  The chain
evaluators and protocols pack a query and parse an answer once per node,
so each family also has one fast path over the same layout, with shifts
and masks computed once per parameter object: :attr:`LineParams.query_shifts`
for packing and :meth:`LineParams.next_node` (:meth:`SimLineParams.next_r`)
for parsing.  The tests require both paths to agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.bits import Bits, Field, RecordCodec, bits_needed

__all__ = ["LineParams", "SimLineParams"]


def _check_common(n: int, u: int, v: int, w: int) -> None:
    if n <= 0 or u <= 0 or v <= 0 or w <= 0:
        raise ValueError(f"parameters must be positive: n={n} u={u} v={v} w={w}")
    if v & (v - 1):
        raise ValueError(
            f"v={v} must be a power of two so that the pointer field of a "
            "uniform oracle answer is uniform over [v]"
        )


@dataclass(frozen=True)
class LineParams:
    """Parameters of ``Line^RO_{n,w,u,v}`` (Table 3).

    Attributes
    ----------
    n: oracle input/output length in bits.
    u: bits per input piece ``x_i``.
    v: number of input pieces (power of two).
    w: number of chain nodes (oracle iterations), the paper's ``T``.
    """

    n: int
    u: int
    v: int
    w: int

    def __post_init__(self) -> None:
        _check_common(self.n, self.u, self.v, self.w)
        if self.index_width + self.u + self.u > self.n:
            raise ValueError(
                f"query fields need {self.index_width + 2 * self.u} bits "
                f"but n={self.n}; increase n or shrink u/w"
            )
        if self.ell_width + self.u > self.n:
            raise ValueError(
                f"answer fields need {self.ell_width + self.u} bits but n={self.n}"
            )

    # ------------------------------------------------------------------
    # Derived widths
    # ------------------------------------------------------------------
    @property
    def index_width(self) -> int:
        """Bits for the node counter ``i`` (ranges over ``[w]``)."""
        return bits_needed(self.w + 1)

    @property
    def ell_width(self) -> int:
        """Bits for the pointer ``l`` -- the paper's ``ceil(log v)``."""
        return bits_needed(self.v)

    @property
    def z_width(self) -> int:
        """Bits of redundant answer payload ``z``."""
        return self.n - self.ell_width - self.u

    @property
    def pad_width(self) -> int:
        """Bits of ``0^*`` padding in the query."""
        return self.n - self.index_width - 2 * self.u

    @property
    def input_bits(self) -> int:
        """Total input length ``uv`` (= the RAM space target ``S``)."""
        return self.u * self.v

    @property
    def space_S(self) -> int:
        """The RAM space parameter ``S = uv``."""
        return self.u * self.v

    @property
    def time_T(self) -> int:
        """The RAM time parameter ``T = w``."""
        return self.w

    # ------------------------------------------------------------------
    # Layouts
    # ------------------------------------------------------------------
    @cached_property
    def query_codec(self) -> RecordCodec:
        """The ``(i, x, r, 0^*)`` query layout."""
        return RecordCodec(
            [
                Field("index", self.index_width),
                Field("x", self.u),
                Field("r", self.u),
                Field("pad", self.pad_width),
            ]
        )

    @cached_property
    def answer_codec(self) -> RecordCodec:
        """The ``(l, r, z)`` answer layout."""
        return RecordCodec(
            [
                Field("ell", self.ell_width),
                Field("r", self.u),
                Field("z", self.z_width),
            ]
        )

    def ell_of_answer(self, answer_value_ell: int) -> int:
        """Map a raw ``l`` field to a piece index in ``[0, v)``.

        With ``v`` a power of two the field is already in range; the
        masking keeps the map total for robustness.
        """
        return answer_value_ell & (self.v - 1)

    @cached_property
    def query_shifts(self) -> tuple[int, int, int]:
        """Left shifts of the ``i``, ``x`` and ``r`` fields in a query
        (:attr:`query_codec`'s layout)."""
        r_shift = self.pad_width
        return r_shift + 2 * self.u, r_shift + self.u, r_shift

    @cached_property
    def _answer_fields(self) -> tuple[int, int, int, int, int]:
        # (n, ell shift, ell mask, r shift, r mask) of answer_codec's
        # layout; the ell mask folds in ell_of_answer's ``& (v - 1)``.
        r_shift = self.z_width
        return self.n, r_shift + self.u, self.v - 1, r_shift, (1 << self.u) - 1

    def next_node(self, answer: Bits) -> tuple[int, Bits]:
        """Parse an oracle answer ``(l, r, z)`` into the next node's
        pointer and running value.

        Equal to ``answer_codec.unpack_bits(answer)`` followed by
        :meth:`ell_of_answer` on the ``l`` field, with the same error for
        an answer that is not ``n`` bits long.
        """
        n, ell_shift, ell_mask, r_shift, r_mask = self._answer_fields
        if len(answer) != n:
            raise ValueError(
                f"record has {len(answer)} bits, codec expects {n}"
            )
        raw = answer.value
        # Shifted and masked: in range for u bits.
        return (raw >> ell_shift) & ell_mask, Bits._make(
            (raw >> r_shift) & r_mask, self.u
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_paper(cls, *, n: int, S: int, T: int) -> "LineParams":
        """Table 3's derivation: ``u = n/3``, ``v = S/u``, ``w = T``.

        ``S`` must be divisible into a power-of-two number of pieces; the
        constructor rounds ``v`` *down* to a power of two and keeps
        ``u = n // 3`` fixed, so the realized space is within a factor 2
        of the requested ``S`` (the theorem only needs ``O(S)``).
        """
        u = n // 3
        if u == 0:
            raise ValueError(f"n={n} too small for u = n/3")
        v_raw = S // u
        if v_raw < 1:
            raise ValueError(f"S={S} smaller than one piece of u={u} bits")
        v = 1 << (v_raw.bit_length() - 1)
        return cls(n=n, u=u, v=v, w=T)

    def describe(self) -> str:
        """One-line summary used by the experiment tables."""
        return (
            f"Line(n={self.n}, u={self.u}, v={self.v}, w={self.w}, "
            f"S={self.space_S}, T={self.time_T})"
        )


@dataclass(frozen=True)
class SimLineParams:
    """Parameters of ``SimLine^RO_{n,w,u,v}`` (Appendix A)."""

    n: int
    u: int
    v: int
    w: int

    def __post_init__(self) -> None:
        _check_common(self.n, self.u, self.v, self.w)
        if 2 * self.u > self.n:
            raise ValueError(
                f"query fields need {2 * self.u} bits but n={self.n}"
            )

    @property
    def z_width(self) -> int:
        """Bits of redundant answer payload ``z``."""
        return self.n - self.u

    @property
    def pad_width(self) -> int:
        """Bits of ``0^*`` padding in the query."""
        return self.n - 2 * self.u

    @property
    def input_bits(self) -> int:
        """Total input length ``uv``."""
        return self.u * self.v

    @property
    def space_S(self) -> int:
        """The RAM space parameter ``S = uv``."""
        return self.u * self.v

    @property
    def time_T(self) -> int:
        """The RAM time parameter ``T = w``."""
        return self.w

    @cached_property
    def query_codec(self) -> RecordCodec:
        """The ``(x, r, 0^*)`` query layout."""
        return RecordCodec(
            [
                Field("x", self.u),
                Field("r", self.u),
                Field("pad", self.pad_width),
            ]
        )

    @cached_property
    def answer_codec(self) -> RecordCodec:
        """The ``(r, z)`` answer layout."""
        return RecordCodec([Field("r", self.u), Field("z", self.z_width)])

    @cached_property
    def query_shifts(self) -> tuple[int, int]:
        """Left shifts of the ``x`` and ``r`` fields in a query
        (:attr:`query_codec`'s layout)."""
        return self.pad_width + self.u, self.pad_width

    @cached_property
    def _answer_fields(self) -> tuple[int, int, int]:
        # (n, r shift, r mask) of answer_codec's layout.
        return self.n, self.z_width, (1 << self.u) - 1

    def next_r(self, answer: Bits) -> Bits:
        """Parse an oracle answer ``(r, z)`` into the next running value.

        Equal to ``answer_codec.unpack_bits(answer)["r"]``, with the same
        error for an answer that is not ``n`` bits long.
        """
        n, r_shift, r_mask = self._answer_fields
        if len(answer) != n:
            raise ValueError(
                f"record has {len(answer)} bits, codec expects {n}"
            )
        # Shifted and masked: in range for u bits.
        return Bits._make((answer.value >> r_shift) & r_mask, self.u)

    def piece_index(self, i: int) -> int:
        """The piece used by 0-based node ``i``: ``i mod v``."""
        return i % self.v

    @classmethod
    def from_paper(cls, *, n: int, S: int, T: int) -> "SimLineParams":
        """Appendix A's derivation: ``u = n/3``, ``v = S/u``, ``w = T``."""
        u = n // 3
        if u == 0:
            raise ValueError(f"n={n} too small for u = n/3")
        v_raw = S // u
        if v_raw < 1:
            raise ValueError(f"S={S} smaller than one piece of u={u} bits")
        v = 1 << (v_raw.bit_length() - 1)
        return cls(n=n, u=u, v=v, w=T)

    def describe(self) -> str:
        """One-line summary used by the experiment tables."""
        return (
            f"SimLine(n={self.n}, u={self.u}, v={self.v}, w={self.w}, "
            f"S={self.space_S}, T={self.time_T})"
        )
