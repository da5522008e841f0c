"""Message formats shared by the chain protocols.

Every message starts with a 2-bit kind tag:

* ``STORE``    -- a machine's persisted input pieces (sent to itself);
* ``FRONTIER`` -- the chain token: current node, pointer, running value;
* ``DONE``     -- termination broadcast from the finishing machine.

Formats are bit-exact records so the simulator's ``s``-bit memory
accounting measures what the model measures.  Each format has exactly
one encoding: the decoders refuse any field the encoders would refuse,
and STORE indices must be strictly increasing, so a payload that decodes
re-encodes to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Iterable, NamedTuple, Protocol

from repro.bits import BitReader, BitWriter, Bits, bits_needed

__all__ = [
    "MessageKind",
    "Frontier",
    "encode_store",
    "decode_store",
    "encode_frontier",
    "decode_frontier",
    "encode_done",
    "decode_records",
    "read_kind",
    "store_bits_required",
    "frontier_bits_required",
]

_KIND_BITS = 2


class MessageKind(IntEnum):
    """The 2-bit message tag."""

    STORE = 0
    FRONTIER = 1
    DONE = 2


class _ChainParams(Protocol):
    u: int
    v: int
    w: int


class _Layout(NamedTuple):
    """The ``(u, v, w)`` part of the parameters that fixes the formats."""

    u: int
    v: int
    w: int


#: Distinct ``(layout, payload)`` pairs :func:`decode_records` keeps
#: parsed.  A steady-state chain machine receives its own unchanged store
#: every round, so a small memo serves most decodes; a larger one only
#: grows the heap.
DECODE_MEMO_SIZE = 256


def _piece_index_bits(params: _ChainParams) -> int:
    return max(bits_needed(params.v), 1)


def _node_index_bits(params: _ChainParams) -> int:
    return bits_needed(params.w + 1)


def _count_bits(params: _ChainParams) -> int:
    return max(bits_needed(params.v + 1), 1)


@dataclass(frozen=True)
class Frontier:
    """The chain token: next node to evaluate and its inputs.

    ``node`` is the next 0-based chain index ``i``; ``pointer`` is the
    piece the node needs (``l_i`` for ``Line``, ``i mod v`` for
    ``SimLine`` -- carried explicitly so both protocols share a format);
    ``r`` is the running ``u``-bit value.
    """

    node: int
    pointer: int
    r: Bits


def read_kind(message: Bits) -> MessageKind:
    """Peek the 2-bit tag of a message."""
    if len(message) < _KIND_BITS:
        raise ValueError(f"message of {len(message)} bits has no kind tag")
    return MessageKind(message[:_KIND_BITS].value)


def decode_records(
    params: _ChainParams, payload: Bits
) -> list[tuple[MessageKind, object]]:
    """Parse a payload as a stream of typed records.

    One physical message may carry several records (e.g. a frontier that
    a budget-stalled machine sends to itself concatenated with its own
    store).  Returns ``(kind, value)`` pairs where the value is a
    ``{index: piece}`` dict for STORE, a :class:`Frontier` for FRONTIER,
    and ``None`` for DONE.  A malformed record raises ``ValueError``
    naming the field, a truncated one ``EOFError``.

    Parses are memoized on ``(u, v, w, payload)`` for the last
    :data:`DECODE_MEMO_SIZE` distinct keys.  Every call returns a new
    list and new STORE dicts, so callers may mutate what they get.
    """
    return [
        (kind, dict(value)) if kind is MessageKind.STORE else (kind, value)
        for kind, value in _parse_records(params.u, params.v, params.w, payload)
    ]


@lru_cache(maxsize=DECODE_MEMO_SIZE)
def _parse_records(
    u: int, v: int, w: int, payload: Bits
) -> tuple[tuple[MessageKind, object], ...]:
    # The memoized parse behind decode_records; the STORE dicts it keeps
    # are never handed out.
    layout = _Layout(u, v, w)
    reader = BitReader(payload)
    records: list[tuple[MessageKind, object]] = []
    while not reader.at_end():
        kind = MessageKind(reader.read(_KIND_BITS))
        if kind is MessageKind.STORE:
            records.append((kind, _read_store(layout, reader)))
        elif kind is MessageKind.FRONTIER:
            records.append((kind, _read_frontier(layout, reader)))
        else:
            records.append((kind, None))
    return tuple(records)


def _read_store(params: _ChainParams, reader: BitReader) -> dict[int, Bits]:
    v = params.v
    count = reader.read(_count_bits(params))
    if count > v:
        raise ValueError(f"STORE count {count} exceeds v={v}")
    idx_bits = _piece_index_bits(params)
    u = params.u
    out: dict[int, Bits] = {}
    prev = -1
    for _ in range(count):
        idx = reader.read(idx_bits)
        if idx >= v:
            raise ValueError(f"STORE index {idx} out of range for v={v}")
        if idx <= prev:
            raise ValueError(
                f"STORE index {idx} follows index {prev}: indices must be "
                "strictly increasing"
            )
        out[idx] = reader.read_bits(u)
        prev = idx
    return out


def _read_frontier(params: _ChainParams, reader: BitReader) -> Frontier:
    node = reader.read(_node_index_bits(params))
    if node > params.w:
        raise ValueError(f"FRONTIER node {node} out of range for w={params.w}")
    pointer = reader.read(_piece_index_bits(params))
    if pointer >= params.v:
        raise ValueError(
            f"FRONTIER pointer {pointer} out of range for v={params.v}"
        )
    rv = reader.read_bits(params.u)
    return Frontier(node=node, pointer=pointer, r=rv)


def encode_store(params: _ChainParams, pieces: Iterable[tuple[int, Bits]]) -> Bits:
    """Pack ``(piece index, piece value)`` pairs, in strictly increasing
    index order, as a STORE message."""
    items = list(pieces)
    w = BitWriter()
    w.write(MessageKind.STORE, _KIND_BITS)
    w.write(len(items), _count_bits(params))
    idx_bits = _piece_index_bits(params)
    prev = -1
    for idx, value in items:
        if not 0 <= idx < params.v:
            raise ValueError(f"piece index {idx} out of range for v={params.v}")
        if idx <= prev:
            raise ValueError(
                f"piece index {idx} follows index {prev}: indices must be "
                "strictly increasing"
            )
        prev = idx
        if len(value) != params.u:
            raise ValueError(
                f"piece has {len(value)} bits, expected u={params.u}"
            )
        w.write(idx, idx_bits)
        w.write_bits(value)
    return w.getvalue()


def decode_store(params: _ChainParams, message: Bits) -> dict[int, Bits]:
    """Inverse of :func:`encode_store`; returns ``{index: value}``."""
    r = BitReader(message)
    kind = MessageKind(r.read(_KIND_BITS))
    if kind is not MessageKind.STORE:
        raise ValueError(f"expected STORE message, got {kind.name}")
    out = _read_store(params, r)
    if not r.at_end():
        raise ValueError("trailing bits after STORE payload")
    return out


def encode_frontier(params: _ChainParams, frontier: Frontier) -> Bits:
    """Pack the chain token as a FRONTIER message."""
    if not 0 <= frontier.node <= params.w:
        raise ValueError(f"node {frontier.node} out of range for w={params.w}")
    if not 0 <= frontier.pointer < params.v:
        raise ValueError(
            f"pointer {frontier.pointer} out of range for v={params.v}"
        )
    if len(frontier.r) != params.u:
        raise ValueError(f"r has {len(frontier.r)} bits, expected u={params.u}")
    w = BitWriter()
    w.write(MessageKind.FRONTIER, _KIND_BITS)
    w.write(frontier.node, _node_index_bits(params))
    w.write(frontier.pointer, _piece_index_bits(params))
    w.write_bits(frontier.r)
    return w.getvalue()


def decode_frontier(params: _ChainParams, message: Bits) -> Frontier:
    """Inverse of :func:`encode_frontier`."""
    r = BitReader(message)
    kind = MessageKind(r.read(_KIND_BITS))
    if kind is not MessageKind.FRONTIER:
        raise ValueError(f"expected FRONTIER message, got {kind.name}")
    frontier = _read_frontier(params, r)
    if not r.at_end():
        raise ValueError("trailing bits after FRONTIER payload")
    return frontier


def encode_done() -> Bits:
    """The 2-bit DONE broadcast."""
    return Bits(MessageKind.DONE, _KIND_BITS)


def store_bits_required(params: _ChainParams, num_pieces: int) -> int:
    """Exact STORE size for ``num_pieces`` pieces (for sizing ``s``)."""
    return (
        _KIND_BITS
        + _count_bits(params)
        + num_pieces * (_piece_index_bits(params) + params.u)
    )


def frontier_bits_required(params: _ChainParams) -> int:
    """Exact FRONTIER size (for sizing ``s``)."""
    return (
        _KIND_BITS
        + _node_index_bits(params)
        + _piece_index_bits(params)
        + params.u
    )
