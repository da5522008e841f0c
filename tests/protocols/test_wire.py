"""Tests for the chain-protocol wire formats."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import BitWriter, Bits
from repro.functions import LineParams
from repro.protocols import wire
from repro.protocols.wire import (
    DECODE_MEMO_SIZE,
    Frontier,
    MessageKind,
    decode_frontier,
    decode_records,
    decode_store,
    encode_done,
    encode_frontier,
    encode_store,
    frontier_bits_required,
    read_kind,
    store_bits_required,
)


@pytest.fixture
def params():
    return LineParams(n=36, u=8, v=8, w=20)


class TestStore:
    def test_roundtrip(self, params):
        pieces = [(0, Bits(3, 8)), (5, Bits(200, 8))]
        msg = encode_store(params, pieces)
        assert decode_store(params, msg) == dict(pieces)

    def test_empty_store(self, params):
        msg = encode_store(params, [])
        assert decode_store(params, msg) == {}

    def test_size_matches_predicted(self, params):
        pieces = [(i, Bits(i, 8)) for i in range(5)]
        msg = encode_store(params, pieces)
        assert len(msg) == store_bits_required(params, 5)

    def test_out_of_range_index_rejected(self, params):
        with pytest.raises(ValueError):
            encode_store(params, [(8, Bits(0, 8))])

    def test_wrong_piece_width_rejected(self, params):
        with pytest.raises(ValueError):
            encode_store(params, [(0, Bits(0, 7))])

    def test_unsorted_or_repeated_indices_rejected(self, params):
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_store(params, [(5, Bits(1, 8)), (3, Bits(2, 8))])
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_store(params, [(3, Bits(1, 8)), (3, Bits(2, 8))])

    def test_kind_tag(self, params):
        assert read_kind(encode_store(params, [])) is MessageKind.STORE

    def test_trailing_bits_rejected(self, params):
        msg = encode_store(params, []) + Bits(0, 1)
        with pytest.raises(ValueError):
            decode_store(params, msg)

    @given(st.sets(st.integers(0, 7), max_size=8))
    def test_roundtrip_property(self, indices):
        params = LineParams(n=36, u=8, v=8, w=20)
        pieces = [(i, Bits(i * 31 % 256, 8)) for i in sorted(indices)]
        assert decode_store(params, encode_store(params, pieces)) == dict(pieces)


class TestFrontier:
    def test_roundtrip(self, params):
        f = Frontier(node=17, pointer=3, r=Bits(99, 8))
        assert decode_frontier(params, encode_frontier(params, f)) == f

    def test_node_w_is_encodable(self, params):
        f = Frontier(node=params.w, pointer=0, r=Bits(0, 8))
        assert decode_frontier(params, encode_frontier(params, f)).node == params.w

    def test_validation(self, params):
        with pytest.raises(ValueError):
            encode_frontier(params, Frontier(node=params.w + 1, pointer=0, r=Bits(0, 8)))
        with pytest.raises(ValueError):
            encode_frontier(params, Frontier(node=0, pointer=8, r=Bits(0, 8)))
        with pytest.raises(ValueError):
            encode_frontier(params, Frontier(node=0, pointer=0, r=Bits(0, 7)))

    def test_size_matches_predicted(self, params):
        f = Frontier(node=0, pointer=0, r=Bits(0, 8))
        assert len(encode_frontier(params, f)) == frontier_bits_required(params)

    def test_wrong_kind_rejected(self, params):
        with pytest.raises(ValueError):
            decode_frontier(params, encode_store(params, []))


class TestRecords:
    def test_done(self):
        assert read_kind(encode_done()) is MessageKind.DONE

    def test_empty_message_has_no_kind(self):
        with pytest.raises(ValueError):
            read_kind(Bits(0, 1))

    def test_stream_of_mixed_records(self, params):
        f = Frontier(node=2, pointer=1, r=Bits(4, 8))
        payload = (
            encode_frontier(params, f)
            + encode_store(params, [(0, Bits(9, 8))])
            + encode_done()
        )
        records = decode_records(params, payload)
        kinds = [k for k, _ in records]
        assert kinds == [MessageKind.FRONTIER, MessageKind.STORE, MessageKind.DONE]
        assert records[0][1] == f
        assert records[1][1] == {0: Bits(9, 8)}

    def test_single_record_stream(self, params):
        records = decode_records(params, encode_done())
        assert records == [(MessageKind.DONE, None)]


def raw_store(count, indices, *, params):
    """A STORE record written field by field, bypassing encode_store's
    checks; piece ``j`` holds the value ``j + 1``."""
    w = BitWriter()
    w.write(MessageKind.STORE, 2)
    w.write(count, wire._count_bits(params))
    for j, idx in enumerate(indices):
        w.write(idx, wire._piece_index_bits(params))
        w.write(j + 1, params.u)
    return w.getvalue()


class TestMalformedRecords:
    """The decoder refuses exactly what the encoders refuse to write."""

    def test_repeated_index(self, params):
        payload = raw_store(2, [3, 3], params=params)
        with pytest.raises(ValueError, match="STORE index 3 follows index 3"):
            decode_records(params, payload)
        with pytest.raises(ValueError, match="STORE index"):
            decode_store(params, payload)

    def test_decreasing_indices(self, params):
        payload = raw_store(2, [5, 3], params=params)
        with pytest.raises(ValueError, match="STORE index 3 follows index 5"):
            decode_records(params, payload)

    def test_count_above_v(self, params):
        payload = raw_store(12, [j % 8 for j in range(12)], params=params)
        with pytest.raises(ValueError, match="STORE count 12 exceeds v=8"):
            decode_records(params, payload)

    def test_frontier_node_above_w(self, params):
        w = BitWriter()
        w.write(MessageKind.FRONTIER, 2)
        w.write(31, 5)  # node field: 5 bits for w=20
        w.write(2, 3)
        w.write(7, params.u)
        with pytest.raises(ValueError, match="FRONTIER node 31 out of range for w=20"):
            decode_records(params, w.getvalue())
        with pytest.raises(ValueError, match="FRONTIER node"):
            decode_frontier(params, w.getvalue())

    def test_index_and_pointer_at_least_v(self):
        # v=6 leaves index values 6 and 7 in the 3-bit field.
        layout = SimpleNamespace(u=8, v=6, w=20)
        with pytest.raises(ValueError, match="STORE index 6 out of range for v=6"):
            decode_records(layout, raw_store(1, [6], params=layout))
        w = BitWriter()
        w.write(MessageKind.FRONTIER, 2)
        w.write(4, 5)
        w.write(7, 3)
        w.write(0, 8)
        with pytest.raises(ValueError, match="FRONTIER pointer 7 out of range for v=6"):
            decode_records(layout, w.getvalue())

    def test_well_formed_neighbours_accepted(self, params):
        assert decode_records(params, raw_store(2, [3, 5], params=params)) == [
            (MessageKind.STORE, {3: Bits(1, 8), 5: Bits(2, 8)})
        ]
        f = Frontier(node=params.w, pointer=7, r=Bits(0, 8))
        assert decode_records(params, encode_frontier(params, f)) == [
            (MessageKind.FRONTIER, f)
        ]


class TestDecodeMemo:
    def test_size_stays_bounded(self, params):
        for value in range(DECODE_MEMO_SIZE + 40):
            pieces = [(0, Bits(value % 256, 8)), (1, Bits(value // 256, 8))]
            decode_records(params, encode_store(params, pieces))
        info = wire._parse_records.cache_info()
        assert info.maxsize == DECODE_MEMO_SIZE
        assert info.currsize <= DECODE_MEMO_SIZE

    def test_returned_values_are_private(self, params):
        payload = encode_store(params, [(1, Bits(5, 8)), (4, Bits(6, 8))])
        first = decode_records(params, payload)
        first[0][1][7] = Bits(0, 8)
        del first[0][1][1]
        first.append((MessageKind.DONE, None))
        assert decode_records(params, payload) == [
            (MessageKind.STORE, {1: Bits(5, 8), 4: Bits(6, 8)})
        ]

    def test_same_bits_under_two_layouts(self, params):
        # After the 2-bit tag both layouts read 16 bits: node 5 +
        # pointer 3 + r 8 under (u=8, v=8, w=20), node 5 + pointer 2 +
        # r 9 under (u=9, v=4, w=20).
        other = SimpleNamespace(u=9, v=4, w=20)
        payload = encode_frontier(
            params, Frontier(node=5, pointer=6, r=Bits(0xAB, 8))
        )
        for _ in range(2):
            assert decode_records(params, payload) == [
                (MessageKind.FRONTIER, Frontier(5, 6, Bits(0xAB, 8)))
            ]
            assert decode_records(other, payload) == [
                (MessageKind.FRONTIER, Frontier(5, 3, Bits(0xAB, 9)))
            ]
