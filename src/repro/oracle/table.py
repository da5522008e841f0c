"""Uniformly random truth tables over small domains, eager and lazy.

A :class:`TableOracle` holds all ``2^n_in`` answers.  Sampling the table
uniformly *is* drawing ``RO`` from the paper's probability space, so
Monte-Carlo estimates computed over fresh tables are unbiased estimates of
the paper's probabilities at the same (scaled-down) parameters.  The class
also supports what the Section 3 proof does on paper: counting the number
of possible oracles (``2^{n_out * 2^n_in}``, the ``2^{n 2^n}`` term in
Claim 3.7's message count) and serializing the full table -- the "add the
entire RO to our encoding" step of the encoders.

The answers live in one private numpy array: ``uint64`` for answers of
at most 62 bits (every experiment), Python ints in an ``object`` array
above that, so for ``uint64`` tables sampling, validation and
(de)serialization are whole-array numpy operations with no per-entry
Python loop.

A :class:`LazyTableOracle` is the same random function sampled one entry
at a time: the first read of an entry draws its answer uniformly from
the generator, and every later read returns that answer.  Since the
answers are independent and uniform, the function it reveals has the
distribution of a :meth:`TableOracle.sample` table, whatever the order of
reads.  A Monte-Carlo trial that reads a handful of entries (the
skip-ahead adversaries of :mod:`repro.protocols.guessing`) then pays for
those entries instead of for ``2^n_in`` of them.

:func:`uniform_wide` is the one scalar draw the Monte-Carlo trials make:
a lazy table's answers, the input pieces of
:func:`~repro.functions.inputs.sample_input` and the skip-ahead guesses.
Up to 64 bits it is one :func:`uniform_bits` draw on the bit generator.
"""

from __future__ import annotations

import ctypes
from typing import Iterator, Sequence

import numpy as np

from repro.bits import Bits
from repro.oracle.base import Oracle

#: Answers up to this width are stored as ``uint64``, a table in one
#: ``rng.integers`` call; wider ones are Python ints.
_UINT64_BITS = 62

__all__ = ["LazyTableOracle", "TableOracle", "uniform_bits", "uniform_wide"]


class _BitGen(ctypes.Structure):
    """The head of numpy's ``bitgen_t`` (``numpy/random/bitgen.h``), the
    struct a bit generator's ``capsule`` points to."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.c_void_p),
        ("next_uint32", ctypes.c_void_p),
    ]


_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))
_NextUint32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NextUint64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)

#: Callables per ``(next_uint32, next_uint64)`` address pair: one entry
#: per bit-generator type, since every instance shares its type's code.
_raw_functions: dict[tuple[int, int], tuple] = {}

#: ``(bit generator, next_uint32, next_uint64, state)`` of the generator
#: :func:`uniform_bits` drew from last.
_last_raw: tuple = (None, None, None, None)


def _read_bitgen(bit_generator) -> tuple:
    """Read ``bit_generator``'s ``bitgen_t`` into the one-entry cache."""
    global _last_raw
    raw = _BitGen.from_address(
        _capsule_pointer(bit_generator.capsule, b"BitGenerator")
    )
    key = (raw.next_uint32, raw.next_uint64)
    functions = _raw_functions.get(key)
    if functions is None:
        functions = _raw_functions[key] = (
            _NextUint32(raw.next_uint32),
            _NextUint64(raw.next_uint64),
        )
    _last_raw = (bit_generator, *functions, ctypes.c_void_p(raw.state))
    return _last_raw


def uniform_bits(rng: np.random.Generator, k: int) -> int:
    """A uniform ``k``-bit integer drawn from ``rng``, ``0 <= k <= 64``.

    Equal to ``int(rng.integers(0, 1 << k, dtype=np.uint64))``, and it
    leaves ``rng`` in the same state, so numpy draws before and after
    it stay in step.  On a range of ``2^k`` numpy's Lemire reduction
    multiplies one raw word by ``2^k``, keeps the high half and never
    rejects: it returns ``next_uint32 >> (32 - k)`` for ``k <= 32`` and
    ``next_uint64 >> (64 - k)`` above, and draws nothing for ``k = 0``.
    This calls those two functions of the bit generator directly.  It
    takes them and the state pointer from the ``bitgen_t`` struct that
    ``rng.bit_generator.capsule`` points to, numpy's documented C API,
    and reads that struct again only when the draws move to another
    generator, so a trial that draws from one generator reads it once.
    It shares the generator's whole state, PCG64's buffered half-word
    included, and skips the per-call argument handling of
    ``Generator.integers``.  Like any direct use of the bit generator it
    does not take the generator's lock: share a generator between
    threads only through numpy's own methods.
    """
    if not 0 <= k <= 64:
        raise ValueError(f"k={k} must be in [0, 64]")
    if k == 0:
        return 0
    bit_generator = rng.bit_generator
    raw = _last_raw
    if raw[0] is not bit_generator:
        raw = _read_bitgen(bit_generator)
    if k <= 32:
        return raw[1](raw[3]) >> (32 - k)
    return raw[2](raw[3]) >> (64 - k)


def uniform_wide(rng: np.random.Generator, k: int) -> int:
    """A uniform ``k``-bit integer drawn from ``rng``, any ``k >= 0``.

    Up to 64 bits this is one :func:`uniform_bits` draw.  A wider value
    is assembled from 32-bit limbs, most significant first, with the
    ``k mod 32`` remaining low bits drawn last.
    """
    if k <= 64:
        return uniform_bits(rng, k)
    value = 0
    while k > 0:
        take = min(32, k)
        value = (value << take) | uniform_bits(rng, take)
        k -= take
    return value


class TableOracle(Oracle):
    """An oracle backed by an explicit table of ``2^n_in`` answers."""

    def __init__(
        self, n_in: int, n_out: int, table: Sequence[int] | np.ndarray
    ) -> None:
        super().__init__(n_in, n_out)
        _check_domain(n_in, len(table))
        self._table = _checked_array(table, n_out, copy=True)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls, n_in: int, n_out: int, rng: np.random.Generator
    ) -> "TableOracle":
        """Draw a uniformly random oracle (one sample of the paper's RO)."""
        size = 1 << n_in
        _check_domain(n_in, size)
        if n_out <= _UINT64_BITS:
            values = rng.integers(0, 1 << n_out, size=size, dtype=np.uint64)
            # Nothing else holds the fresh draw, so keep it rather than
            # copy it.  A copy doubles each trial's large allocations,
            # enough for glibc to trim the freed heap top after every
            # trial and fault it back in on the next one.
            oracle = cls.__new__(cls)
            Oracle.__init__(oracle, n_in, n_out)
            oracle._table = _checked_array(values, n_out, copy=False)
            return oracle
        return cls(n_in, n_out, [uniform_wide(rng, n_out) for _ in range(size)])

    def _evaluate(self, x: Bits) -> Bits:
        # Entries were range-checked against n_out at construction.
        return Bits._make(self._table.item(x.value), self._n_out)

    def _evaluate_batch(self, xs: Sequence[Bits]) -> list[Bits]:
        idx = np.fromiter((x.value for x in xs), dtype=np.int64, count=len(xs))
        n_out = self._n_out
        make = Bits._make
        return [make(v, n_out) for v in self._table[idx].tolist()]

    # ------------------------------------------------------------------
    # Proof-facing operations
    # ------------------------------------------------------------------
    @property
    def table(self) -> tuple[int, ...]:
        """The full answer table (index = query value)."""
        return tuple(self._table.tolist())

    def entries(self) -> Iterator[tuple[Bits, Bits]]:
        """Iterate over all ``(query, answer)`` pairs."""
        for i, v in enumerate(self._table.tolist()):
            yield Bits(i, self._n_in), Bits(v, self._n_out)

    def serialize(self) -> Bits:
        """The table as one bit string of length ``n_out * 2^n_in``.

        This is the "add the entire RO to our encoding" step of the
        Claim 3.7 / A.4 encoders: entry 0 first, each entry MSB-first
        in ``n_out`` bits.
        """
        rows = _to_byte_rows(self._table, self._n_out)
        entry_bits = np.unpackbits(rows, axis=1)[:, -self._n_out:]
        packed = np.packbits(entry_bits)
        total = entry_bits.size
        value = int.from_bytes(packed.tobytes(), "big")
        return Bits(value >> (8 * packed.size - total), total)

    @classmethod
    def deserialize(cls, bits: Bits, n_in: int, n_out: int) -> "TableOracle":
        """Inverse of :meth:`serialize`."""
        total = n_out << n_in
        if len(bits) < total:
            raise EOFError(
                f"oracle table needs {total} bits, stream has {len(bits)}"
            )
        if len(bits) > total:
            raise ValueError("trailing bits after oracle table")
        nbytes = (total + 7) // 8
        raw = (bits.value << (8 * nbytes - total)).to_bytes(nbytes, "big")
        entry_bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=total
        ).reshape(1 << n_in, n_out)
        return cls(n_in, n_out, _from_entry_bits(entry_bits, n_out))

    @staticmethod
    def log2_number_of_oracles(n_in: int, n_out: int) -> int:
        """``log2`` of the number of functions -- the paper's ``n·2^n``."""
        return n_out * (1 << n_in)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableOracle):
            return NotImplemented
        return (
            self._n_in == other._n_in
            and self._n_out == other._n_out
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self) -> int:
        return hash((self._n_in, self._n_out, self.table))


class LazyTableOracle(Oracle):
    """A uniformly random oracle whose entries are drawn on first read.

    The first read of an entry draws its answer from ``rng``, and every
    later read returns it, directly or through a
    :class:`~repro.oracle.patched.PatchedOracle` over this oracle.  So
    everyone holding the oracle sees one function.  The order of first
    reads decides which function is drawn, not its distribution: each
    entry is uniform and independent of the others, as in a
    :meth:`TableOracle.sample` table.  ``rng`` is shared, not copied,
    and draws the caller makes from it are independent of the answers.
    """

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator) -> None:
        super().__init__(n_in, n_out)
        self._rng = rng
        self._answers: dict[int, int] = {}

    def _evaluate(self, x: Bits) -> Bits:
        answers = self._answers
        answer = answers.get(x.value)
        if answer is None:
            answer = answers[x.value] = uniform_wide(self._rng, self._n_out)
        return Bits._make(answer, self._n_out)


def _check_domain(n_in: int, entries: int) -> None:
    """Reject domains too large to tabulate and tables of the wrong size."""
    if n_in > 30:
        raise ValueError(
            f"table oracle over 2^{n_in} entries is impractical; "
            "use LazyRandomOracle for large domains"
        )
    expected = 1 << n_in
    if entries != expected:
        raise ValueError(
            f"table has {entries} entries, domain needs {expected}"
        )


def _checked_array(
    table: Sequence[int] | np.ndarray, n_out: int, *, copy: bool
) -> np.ndarray:
    """``table`` as an array, every entry in ``[0, 2^n_out)``.

    With ``copy`` the array is private, so a caller that keeps ``table``
    cannot change the oracle after the range check.  Without it a
    ``uint64`` array is used as is.
    """
    limit = 1 << n_out
    if n_out <= _UINT64_BITS:
        try:
            convert = np.array if copy else np.asarray
            arr = convert(table, dtype=np.uint64)
            ok = arr.max() < limit
        except OverflowError:  # a Python int below 0 or at least 2^64
            ok = False
    else:
        arr = np.array([int(v) for v in table], dtype=object)
        ok = arr.min() >= 0 and arr.max() < limit
    if not ok:
        bad = next(v for v in map(int, table) if not 0 <= v < limit)
        raise ValueError(f"table entry {bad} out of range for {n_out} bits")
    return arr


def _to_byte_rows(table: np.ndarray, n_out: int) -> np.ndarray:
    """One row of big-endian bytes per entry (8 bytes for ``uint64``)."""
    if table.dtype == object:
        width = (n_out + 7) // 8
        data = b"".join(v.to_bytes(width, "big") for v in table.tolist())
        return np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
    return table.astype(">u8").view(np.uint8).reshape(-1, 8)


def _from_entry_bits(
    entry_bits: np.ndarray, n_out: int
) -> np.ndarray | list[int]:
    """Entry values from one row of ``n_out`` bits (MSB first) per entry."""
    width = 8 if n_out <= _UINT64_BITS else (n_out + 7) // 8
    padded = np.zeros((len(entry_bits), 8 * width), dtype=np.uint8)
    padded[:, 8 * width - n_out:] = entry_bits
    rows = np.packbits(padded, axis=1)
    if n_out <= _UINT64_BITS:
        return rows.view(">u8").ravel()
    return [int.from_bytes(row.tobytes(), "big") for row in rows]
