"""Declarative fixed-width record layouts and sequential bit streams.

Two pieces of machinery live here:

* :class:`RecordCodec` -- a named, fixed-width field layout.  The paper's
  oracle queries are records: ``Line`` queries the oracle on
  ``(i, x_{l_i}, r_i, 0^*)`` packed into ``n`` bits, and parses the
  ``n``-bit answer as ``(l_{i+1}, r_{i+1}, z_{i+1})``.  A codec makes
  those layouts explicit and bit-exact, which is what lets the MPC
  simulator account local memory honestly and the compression encoders
  reproduce the paper's byte-for-byte... bit-for-bit bookkeeping.

* :class:`BitWriter` / :class:`BitReader` -- sequential streams used by
  the encoding schemes of Claim 3.7 and Claim A.4, whose outputs are
  variable-length concatenations (oracle table, memory state, query
  positions, leftover inputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from repro.bits.bitstring import Bits

__all__ = ["Field", "RecordCodec", "BitWriter", "BitReader"]

FieldValue = Union[int, Bits]


@dataclass(frozen=True)
class Field:
    """One fixed-width field of a record.

    ``width`` may be zero (useful for degenerate parameters such as a
    padding field that happens to vanish); such fields always hold 0.
    """

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"field {self.name!r} has negative width {self.width}")
        if not self.name:
            raise ValueError("field name must be non-empty")


class RecordCodec:
    """Packs and unpacks fixed-width records, MSB-first, left to right."""

    def __init__(self, fields: Iterable[Field]) -> None:
        self._fields = tuple(fields)
        names = [f.name for f in self._fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in {names}")
        self._names = frozenset(names)
        self._total = sum(f.width for f in self._fields)

    @property
    def fields(self) -> tuple[Field, ...]:
        """The field layout, in order."""
        return self._fields

    @property
    def total_width(self) -> int:
        """Total record width in bits."""
        return self._total

    def width_of(self, name: str) -> int:
        """Width of the named field."""
        for f in self._fields:
            if f.name == name:
                return f.width
        raise KeyError(name)

    def pack(self, values: Mapping[str, FieldValue] | None = None, /, **kwargs: FieldValue) -> Bits:
        """Pack field values into a record.

        Values may be ints (must fit the field width) or :class:`Bits`
        (must match the field width exactly).  Omitted fields default to
        zero -- this is how the paper's ``0^*`` padding is expressed.
        """
        # kwargs is already a fresh dict: copy only to merge a mapping in.
        merged: dict[str, FieldValue] = kwargs
        if values:
            merged = dict(values)
            merged.update(kwargs)
        if not self._names.issuperset(merged):
            raise KeyError(f"unknown fields: {sorted(set(merged) - self._names)}")
        acc = 0
        for f in self._fields:
            raw = merged.get(f.name, 0)
            if isinstance(raw, Bits):
                if len(raw) != f.width:
                    raise ValueError(
                        f"field {f.name!r} expects {f.width} bits, got {len(raw)}"
                    )
                v = raw.value
            else:
                v = int(raw)
                if v < 0 or (f.width < v.bit_length()):
                    raise ValueError(
                        f"value {v} does not fit field {f.name!r} of width {f.width}"
                    )
            acc = (acc << f.width) | v
        return Bits(acc, self._total)

    def unpack(self, record: Bits) -> dict[str, int]:
        """Unpack a record into a dict of integer field values."""
        if len(record) != self._total:
            raise ValueError(
                f"record has {len(record)} bits, codec expects {self._total}"
            )
        # Walk right to left on the raw integer: per field one shift and
        # one mask, no intermediate Bits objects.
        out: dict[str, int] = {}
        raw = record.value
        shift = self._total
        for f in self._fields:
            shift -= f.width
            out[f.name] = (raw >> shift) & ((1 << f.width) - 1)
        return out

    def unpack_bits(self, record: Bits) -> dict[str, Bits]:
        """Unpack a record into a dict of :class:`Bits` field values."""
        if len(record) != self._total:
            raise ValueError(
                f"record has {len(record)} bits, codec expects {self._total}"
            )
        # The same right-to-left walk as unpack, wrapping each field.
        out: dict[str, Bits] = {}
        raw = record.value
        shift = self._total
        make = Bits._make  # shifted and masked: in range for its width
        for f in self._fields:
            shift -= f.width
            out[f.name] = make((raw >> shift) & ((1 << f.width) - 1), f.width)
        return out


class BitWriter:
    """An append-only bit stream with exact length accounting."""

    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits holding the unsigned integer ``value``."""
        if width < 0:
            raise ValueError(f"negative width: {width}")
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def write_bits(self, bits: Bits) -> None:
        """Append an existing bit string."""
        self._value = (self._value << len(bits)) | bits.value
        self._length += len(bits)

    def __len__(self) -> int:
        return self._length

    def getvalue(self) -> Bits:
        """The stream contents so far."""
        return Bits(self._value, self._length)


class BitReader:
    """Sequential reader over a bit string (the decoder's side).

    The stream's integer value and length are cached locally so the hot
    :meth:`read` path is pure integer arithmetic -- one shift, one mask,
    no intermediate :class:`Bits` allocation per field.
    """

    def __init__(self, bits: Bits) -> None:
        self._bits = bits
        self._value = bits.value
        self._length = len(bits)
        self._pos = 0

    @property
    def position(self) -> int:
        """Current read offset in bits."""
        return self._pos

    def remaining(self) -> int:
        """Number of unread bits."""
        return self._length - self._pos

    def read(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        if width < 0:
            raise ValueError(f"negative width: {width}")
        end = self._pos + width
        if end > self._length:
            raise EOFError(
                f"read of {width} bits at position {self._pos} overruns "
                f"stream of length {self._length}"
            )
        self._pos = end
        return (self._value >> (self._length - end)) & ((1 << width) - 1)

    def read_bits(self, width: int) -> Bits:
        """Read ``width`` bits as a :class:`Bits`."""
        return Bits._make(self.read(width), width)

    def at_end(self) -> bool:
        """True when every bit has been consumed."""
        return self._pos == self._length
