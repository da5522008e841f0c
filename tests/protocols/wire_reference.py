"""Stream forms of the chain wire codec, field by field.

These encoders write each field through a ``BitWriter`` and these
decoders read each field through a ``BitReader``, in the order the
formats list them.  ``repro.protocols.wire`` packs and parses the same
fields on the payload's integer, and must equal these bit for bit and
error for error (``test_wire_reference.py``).
"""

from __future__ import annotations

from repro.bits import BitReader, BitWriter, Bits, bits_needed
from repro.protocols.wire import Frontier, MessageKind


def widths(params):
    """``(count_bits, piece_bits, node_bits)`` of the formats."""
    return (
        max(bits_needed(params.v + 1), 1),
        max(bits_needed(params.v), 1),
        bits_needed(params.w + 1),
    )


def encode_store(params, pieces) -> Bits:
    count_bits, piece_bits, _ = widths(params)
    items = list(pieces)
    w = BitWriter()
    w.write(MessageKind.STORE, 2)
    w.write(len(items), count_bits)
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
        w.write(idx, piece_bits)
        w.write_bits(value)
    return w.getvalue()


def encode_frontier(params, frontier: Frontier) -> Bits:
    if not 0 <= frontier.node <= params.w:
        raise ValueError(f"node {frontier.node} out of range for w={params.w}")
    if not 0 <= frontier.pointer < params.v:
        raise ValueError(
            f"pointer {frontier.pointer} out of range for v={params.v}"
        )
    if len(frontier.r) != params.u:
        raise ValueError(f"r has {len(frontier.r)} bits, expected u={params.u}")
    _, piece_bits, node_bits = widths(params)
    w = BitWriter()
    w.write(MessageKind.FRONTIER, 2)
    w.write(frontier.node, node_bits)
    w.write(frontier.pointer, piece_bits)
    w.write_bits(frontier.r)
    return w.getvalue()


def _read_store(params, reader: BitReader) -> dict[int, Bits]:
    count_bits, piece_bits, _ = widths(params)
    v = params.v
    count = reader.read(count_bits)
    if count > v:
        raise ValueError(f"STORE count {count} exceeds v={v}")
    out: dict[int, Bits] = {}
    prev = -1
    for _ in range(count):
        idx = reader.read(piece_bits)
        if idx >= v:
            raise ValueError(f"STORE index {idx} out of range for v={v}")
        if idx <= prev:
            raise ValueError(
                f"STORE index {idx} follows index {prev}: indices must be "
                "strictly increasing"
            )
        out[idx] = reader.read_bits(params.u)
        prev = idx
    return out


def _read_frontier(params, reader: BitReader) -> Frontier:
    _, piece_bits, node_bits = widths(params)
    node = reader.read(node_bits)
    if node > params.w:
        raise ValueError(f"FRONTIER node {node} out of range for w={params.w}")
    pointer = reader.read(piece_bits)
    if pointer >= params.v:
        raise ValueError(
            f"FRONTIER pointer {pointer} out of range for v={params.v}"
        )
    return Frontier(node, pointer, reader.read_bits(params.u))


def decode_records(params, payload: Bits) -> list:
    reader = BitReader(payload)
    records = []
    while not reader.at_end():
        kind = MessageKind(reader.read(2))
        if kind is MessageKind.STORE:
            records.append((kind, _read_store(params, reader)))
        elif kind is MessageKind.FRONTIER:
            records.append((kind, _read_frontier(params, reader)))
        else:
            records.append((kind, None))
    return records


def decode_store(params, message: Bits) -> dict[int, Bits]:
    reader = BitReader(message)
    kind = MessageKind(reader.read(2))
    if kind is not MessageKind.STORE:
        raise ValueError(f"expected STORE message, got {kind.name}")
    out = _read_store(params, reader)
    if not reader.at_end():
        raise ValueError("trailing bits after STORE payload")
    return out


def decode_frontier(params, message: Bits) -> Frontier:
    reader = BitReader(message)
    kind = MessageKind(reader.read(2))
    if kind is not MessageKind.FRONTIER:
        raise ValueError(f"expected FRONTIER message, got {kind.name}")
    frontier = _read_frontier(params, reader)
    if not reader.at_end():
        raise ValueError("trailing bits after FRONTIER payload")
    return frontier
