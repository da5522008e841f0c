"""Fuzzing the wire parsers: arbitrary bits must fail cleanly.

A machine's inbox is adversary-controllable in principle; the record
parsers must either parse or raise a clean ``ValueError``/``EOFError``
-- never loop forever, never return garbage silently for structurally
invalid input.  What they accept is canonical: it re-encodes to the
same bits, which is what lets a chain machine send its store back to
itself unchanged instead of re-encoding it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitWriter, Bits
from repro.functions import LineParams
from repro.protocols.wire import (
    Frontier,
    MessageKind,
    decode_records,
    encode_done,
    encode_frontier,
    encode_store,
)


PARAMS = LineParams(n=36, u=8, v=8, w=20)


def random_bits(max_len=200):
    return st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1 if n else 0).map(
            lambda v: Bits(v, n)
        )
    )


@st.composite
def field_level_records(draw):
    """Up to three records written field by field, canonical or not:
    STORE indices in any order with repeats, FRONTIER nodes up to 31.
    Returns the payload and whether every record is canonical."""
    w = BitWriter()
    canonical = True
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(list(MessageKind)))
        w.write(kind, 2)
        if kind is MessageKind.STORE:
            indices = draw(st.lists(st.integers(0, 7), max_size=10))
            w.write(len(indices), 4)
            for idx in indices:
                w.write(idx, 3)
                w.write(draw(st.integers(0, 255)), 8)
            canonical &= indices == sorted(set(indices))
        elif kind is MessageKind.FRONTIER:
            node = draw(st.integers(0, 31))
            w.write(node, 5)
            w.write(draw(st.integers(0, 7)), 3)
            w.write(draw(st.integers(0, 255)), 8)
            canonical &= node <= PARAMS.w
    return w.getvalue(), canonical


def reencode(records):
    out = Bits(0, 0)
    for kind, value in records:
        if kind is MessageKind.STORE:
            out += encode_store(PARAMS, sorted(value.items()))
        elif kind is MessageKind.FRONTIER:
            out += encode_frontier(PARAMS, value)
        else:
            out += encode_done()
    return out


class TestWireFuzz:
    @settings(max_examples=200)
    @given(random_bits())
    def test_decode_records_never_hangs_or_corrupts(self, payload):
        """Arbitrary payloads either parse into records or raise."""
        try:
            records = decode_records(PARAMS, payload)
        except (ValueError, EOFError):
            return
        # If it parsed, every record must be structurally valid, and the
        # records re-encode to exactly the payload.
        for kind, value in records:
            if kind is MessageKind.STORE:
                assert isinstance(value, dict)
                for idx, piece in value.items():
                    assert 0 <= idx < PARAMS.v
                    assert len(piece) == PARAMS.u
            elif kind is MessageKind.FRONTIER:
                assert isinstance(value, Frontier)
                assert len(value.r) == PARAMS.u
            else:
                assert kind is MessageKind.DONE and value is None
        assert reencode(records) == payload

    @settings(max_examples=200)
    @given(field_level_records())
    def test_accepts_exactly_the_canonical_records(self, drawn):
        """Well-framed records parse iff every field is one the encoders
        would write; what parses re-encodes bit for bit."""
        payload, canonical = drawn
        if canonical:
            assert reencode(decode_records(PARAMS, payload)) == payload
        else:
            with pytest.raises(ValueError):
                decode_records(PARAMS, payload)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 255)), max_size=8
        ),
        st.integers(0, 20),
        st.integers(0, 7),
        st.integers(0, 255),
    )
    def test_valid_streams_always_roundtrip(self, pieces, node, pointer, r):
        """Any well-formed concatenation parses back to its records."""
        store = {}
        for idx, val in pieces:
            store[idx] = Bits(val, 8)
        frontier = Frontier(node=node, pointer=pointer, r=Bits(r, 8))
        payload = encode_store(PARAMS, sorted(store.items())) + encode_frontier(
            PARAMS, frontier
        )
        records = decode_records(PARAMS, payload)
        assert len(records) == 2
        assert records[0][1] == store
        assert records[1][1] == frontier

    @settings(max_examples=100)
    @given(random_bits(80))
    def test_truncated_valid_prefix_raises(self, junk):
        """A valid record followed by a truncated one raises cleanly."""
        frontier = Frontier(node=3, pointer=2, r=Bits(9, 8))
        full = encode_frontier(PARAMS, frontier)
        truncated = full[: len(full) - 3]
        payload = full + truncated
        with pytest.raises((ValueError, EOFError)):
            decode_records(PARAMS, payload)
