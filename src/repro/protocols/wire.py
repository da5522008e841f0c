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

The codec works on the payload's integer: the encoders shift each field
into place, and one record parser reads each field off the payload's
integer with a shift and a mask, checking it as it is read.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from typing import Iterable, NamedTuple, Protocol

from repro.bits import Bits, bits_needed

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
    """The ``(u, v, w)`` part of the parameters that fixes the formats,
    and the field widths it implies."""

    u: int
    v: int
    w: int
    #: STORE count field: ``max(bits_needed(v + 1), 1)``.
    count_bits: int
    #: STORE index and FRONTIER pointer fields: ``max(bits_needed(v), 1)``.
    piece_bits: int
    #: FRONTIER node field: ``bits_needed(w + 1)``.
    node_bits: int


#: Distinct ``(layout, payload)`` pairs :func:`decode_records` keeps
#: parsed.  A steady-state chain machine receives its own unchanged store
#: every round, so a small memo serves most decodes; a larger one only
#: grows the heap.
DECODE_MEMO_SIZE = 256


@lru_cache(maxsize=128)
def _layout(u: int, v: int, w: int) -> _Layout:
    # Every encode and decode needs the widths: compute them once per
    # (u, v, w), not once per message.
    return _Layout(
        u,
        v,
        w,
        count_bits=max(bits_needed(v + 1), 1),
        piece_bits=max(bits_needed(v), 1),
        node_bits=bits_needed(w + 1),
    )


def _layout_of(params: _ChainParams) -> _Layout:
    return _layout(params.u, params.v, params.w)


class Frontier(NamedTuple):
    """The chain token: next node to evaluate and its inputs.

    ``node`` is the next 0-based chain index ``i``; ``pointer`` is the
    piece the node needs (``l_i`` for ``Line``, ``i mod v`` for
    ``SimLine`` -- carried explicitly so both protocols share a format);
    ``r`` is the running ``u``-bit value.  A named tuple, because the
    chain protocols build one per oracle call.
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
    layout = _layout(u, v, w)
    value = payload.value
    length = len(payload)
    records: list[tuple[MessageKind, object]] = []
    pos = 0
    while pos < length:
        kind, record, pos = _parse_record(layout, value, length, pos)
        records.append((kind, record))
    return tuple(records)


#: The kinds by tag; tag 3 is not a kind.
_KINDS = (MessageKind.STORE, MessageKind.FRONTIER, MessageKind.DONE)


def _field(value: int, length: int, pos: int, width: int) -> int:
    """The ``width``-bit field at bit ``pos`` of a ``length``-bit payload
    whose integer is ``value``; ``EOFError`` if it runs past the end."""
    end = pos + width
    if end > length:
        raise EOFError(
            f"read of {width} bits at position {pos} overruns "
            f"stream of length {length}"
        )
    return (value >> (length - end)) & ((1 << width) - 1)


def _parse_record(
    layout: _Layout,
    value: int,
    length: int,
    pos: int,
    expect: MessageKind | None = None,
) -> tuple[MessageKind, object, int]:
    """The record at bit ``pos`` of a ``length``-bit payload whose
    integer is ``value``: ``(kind, record, end position)``.

    Fields are read in order and each is checked as it is read, so the
    first bad field decides the error.  With ``expect``, any other kind
    is refused right after the tag.
    """
    tag = _field(value, length, pos, _KIND_BITS)
    kind = _KINDS[tag] if tag < len(_KINDS) else MessageKind(tag)
    if expect is not None and kind is not expect:
        raise ValueError(f"expected {expect.name} message, got {kind.name}")
    pos += _KIND_BITS
    u = layout.u
    v = layout.v
    if kind is MessageKind.FRONTIER:
        node = _field(value, length, pos, layout.node_bits)
        if node > layout.w:
            raise ValueError(
                f"FRONTIER node {node} out of range for w={layout.w}"
            )
        pos += layout.node_bits
        pointer = _field(value, length, pos, layout.piece_bits)
        if pointer >= v:
            raise ValueError(
                f"FRONTIER pointer {pointer} out of range for v={v}"
            )
        pos += layout.piece_bits
        r = Bits._make(_field(value, length, pos, u), u)
        return kind, Frontier(node, pointer, r), pos + u
    if kind is MessageKind.STORE:
        count = _field(value, length, pos, layout.count_bits)
        if count > v:
            raise ValueError(f"STORE count {count} exceeds v={v}")
        pos += layout.count_bits
        idx_bits = layout.piece_bits
        out: dict[int, Bits] = {}
        prev = -1
        for _ in range(count):
            idx = _field(value, length, pos, idx_bits)
            if idx >= v:
                raise ValueError(f"STORE index {idx} out of range for v={v}")
            if idx <= prev:
                raise ValueError(
                    f"STORE index {idx} follows index {prev}: indices must "
                    "be strictly increasing"
                )
            pos += idx_bits
            out[idx] = Bits._make(_field(value, length, pos, u), u)
            pos += u
            prev = idx
        return kind, out, pos
    return kind, None, pos


def _parse_message(
    params: _ChainParams, message: Bits, kind: MessageKind
) -> object:
    """The one record of kind ``kind`` that ``message`` must be."""
    length = len(message)
    _, record, end = _parse_record(
        _layout_of(params), message.value, length, 0, kind
    )
    if end != length:
        raise ValueError(f"trailing bits after {kind.name} payload")
    return record


def encode_store(params: _ChainParams, pieces: Iterable[tuple[int, Bits]]) -> Bits:
    """Pack ``(piece index, piece value)`` pairs, in strictly increasing
    index order, as a STORE message."""
    layout = _layout_of(params)
    items = list(pieces)
    count_bits = layout.count_bits
    count = len(items)
    if count.bit_length() > count_bits:
        raise ValueError(f"value {count} does not fit in {count_bits} bits")
    v = params.v
    u = params.u
    idx_bits = layout.piece_bits
    acc = (MessageKind.STORE << count_bits) | count
    prev = -1
    for idx, value in items:
        if not 0 <= idx < v:
            raise ValueError(f"piece index {idx} out of range for v={v}")
        if idx <= prev:
            raise ValueError(
                f"piece index {idx} follows index {prev}: indices must be "
                "strictly increasing"
            )
        prev = idx
        if len(value) != u:
            raise ValueError(f"piece has {len(value)} bits, expected u={u}")
        acc = (((acc << idx_bits) | idx) << u) | value.value
    return Bits._make(acc, _KIND_BITS + count_bits + count * (idx_bits + u))


def decode_store(params: _ChainParams, message: Bits) -> dict[int, Bits]:
    """Inverse of :func:`encode_store`; returns ``{index: value}``."""
    return _parse_message(params, message, MessageKind.STORE)


def encode_frontier(params: _ChainParams, frontier: Frontier) -> Bits:
    """Pack the chain token as a FRONTIER message."""
    if not 0 <= frontier.node <= params.w:
        raise ValueError(f"node {frontier.node} out of range for w={params.w}")
    if not 0 <= frontier.pointer < params.v:
        raise ValueError(
            f"pointer {frontier.pointer} out of range for v={params.v}"
        )
    u = params.u
    if len(frontier.r) != u:
        raise ValueError(f"r has {len(frontier.r)} bits, expected u={u}")
    layout = _layout_of(params)
    node_bits = layout.node_bits
    piece_bits = layout.piece_bits
    acc = (MessageKind.FRONTIER << node_bits) | frontier.node
    acc = (((acc << piece_bits) | frontier.pointer) << u) | frontier.r.value
    return Bits._make(acc, _KIND_BITS + node_bits + piece_bits + u)


def decode_frontier(params: _ChainParams, message: Bits) -> Frontier:
    """Inverse of :func:`encode_frontier`."""
    return _parse_message(params, message, MessageKind.FRONTIER)


def encode_done() -> Bits:
    """The 2-bit DONE broadcast."""
    return Bits(MessageKind.DONE, _KIND_BITS)


def store_bits_required(params: _ChainParams, num_pieces: int) -> int:
    """Exact STORE size for ``num_pieces`` pieces (for sizing ``s``)."""
    layout = _layout_of(params)
    return (
        _KIND_BITS
        + layout.count_bits
        + num_pieces * (layout.piece_bits + layout.u)
    )


def frontier_bits_required(params: _ChainParams) -> int:
    """Exact FRONTIER size (for sizing ``s``)."""
    layout = _layout_of(params)
    return _KIND_BITS + layout.node_bits + layout.piece_bits + layout.u
