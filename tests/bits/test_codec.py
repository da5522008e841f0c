"""Tests for record codecs and sequential bit streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import BitReader, BitWriter, Bits, Field, RecordCodec


@pytest.fixture
def line_query_codec():
    """A layout shaped like the paper's Line query (i, x, r, 0^*)."""
    return RecordCodec(
        [Field("index", 8), Field("x", 6), Field("r", 6), Field("pad", 4)]
    )


class TestRecordCodec:
    def test_total_width(self, line_query_codec):
        assert line_query_codec.total_width == 24

    def test_pack_unpack_roundtrip(self, line_query_codec):
        rec = line_query_codec.pack(index=3, x=17, r=63)
        got = line_query_codec.unpack(rec)
        assert got == {"index": 3, "x": 17, "r": 63, "pad": 0}

    def test_omitted_fields_default_zero(self, line_query_codec):
        rec = line_query_codec.pack(index=1)
        assert line_query_codec.unpack(rec)["pad"] == 0

    def test_pack_accepts_bits_values(self, line_query_codec):
        rec = line_query_codec.pack(x=Bits.from_str("101010"))
        assert line_query_codec.unpack(rec)["x"] == 0b101010

    def test_pack_bits_width_mismatch(self, line_query_codec):
        with pytest.raises(ValueError):
            line_query_codec.pack(x=Bits.from_str("10"))

    def test_pack_overflow_rejected(self, line_query_codec):
        with pytest.raises(ValueError):
            line_query_codec.pack(x=64)

    def test_pack_unknown_field_rejected(self, line_query_codec):
        with pytest.raises(KeyError):
            line_query_codec.pack(bogus=1)

    def test_unpack_wrong_length_rejected(self, line_query_codec):
        with pytest.raises(ValueError):
            line_query_codec.unpack(Bits.zeros(23))

    def test_unpack_bits_variant(self, line_query_codec):
        rec = line_query_codec.pack(index=255)
        fields = line_query_codec.unpack_bits(rec)
        assert fields["index"] == Bits.ones(8)
        assert fields["x"] == Bits.zeros(6)

    def test_pack_errors(self, line_query_codec):
        with pytest.raises(KeyError, match=r"unknown fields: \['bogus', 'zz'\]"):
            line_query_codec.pack({"zz": 0, "x": 1}, bogus=1)
        with pytest.raises(ValueError, match="field 'x' expects 6 bits, got 2"):
            line_query_codec.pack(x=Bits.from_str("10"))
        with pytest.raises(
            ValueError, match="value 64 does not fit field 'x' of width 6"
        ):
            line_query_codec.pack(x=64)
        with pytest.raises(
            ValueError, match="value -1 does not fit field 'r' of width 6"
        ):
            line_query_codec.pack(r=-1)

    def test_unpack_bits_wrong_length_rejected(self, line_query_codec):
        with pytest.raises(ValueError, match="codec expects 24"):
            line_query_codec.unpack_bits(Bits.zeros(25))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RecordCodec([Field("a", 1), Field("a", 2)])

    def test_zero_width_field(self):
        codec = RecordCodec([Field("a", 2), Field("empty", 0)])
        rec = codec.pack(a=3)
        assert codec.unpack(rec) == {"a": 3, "empty": 0}

    def test_width_of(self, line_query_codec):
        assert line_query_codec.width_of("x") == 6
        with pytest.raises(KeyError):
            line_query_codec.width_of("nope")

    def test_negative_field_width_rejected(self):
        with pytest.raises(ValueError):
            Field("a", -1)

    def test_pack_positional_mapping(self, line_query_codec):
        rec = line_query_codec.pack({"index": 2}, x=5)
        assert line_query_codec.unpack(rec)["index"] == 2
        assert line_query_codec.unpack(rec)["x"] == 5

    @given(st.integers(0, 255), st.integers(0, 63), st.integers(0, 63))
    def test_roundtrip_property(self, i, x, r):
        codec = RecordCodec([Field("i", 8), Field("x", 6), Field("r", 6)])
        assert codec.unpack(codec.pack(i=i, x=x, r=r)) == {"i": i, "x": x, "r": r}

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=6).flatmap(
            lambda widths: st.tuples(
                st.just(widths),
                st.tuples(
                    *(st.integers(0, (1 << w) - 1 if w else 0) for w in widths)
                ),
            )
        )
    )
    def test_random_layout_roundtrip(self, layout_and_values):
        """Any field layout round-trips any in-range values."""
        widths, values = layout_and_values
        codec = RecordCodec([Field(f"f{i}", w) for i, w in enumerate(widths)])
        packed = codec.pack({f"f{i}": v for i, v in enumerate(values)})
        assert len(packed) == sum(widths)
        unpacked = codec.unpack(packed)
        assert tuple(unpacked[f"f{i}"] for i in range(len(widths))) == values

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=6).flatmap(
            lambda widths: st.tuples(
                st.just(widths), st.integers(0, (1 << sum(widths)) - 1)
            )
        )
    )
    def test_unpack_bits_matches_slicing(self, layout_and_value):
        """Per field, ``unpack_bits`` is the slice of the record at that
        field's offset, and agrees with ``unpack`` (zero widths included)."""
        widths, value = layout_and_value
        codec = RecordCodec([Field(f"f{i}", w) for i, w in enumerate(widths)])
        record = Bits(value, sum(widths))
        fields = codec.unpack_bits(record)
        ints = codec.unpack(record)
        pos = 0
        for i, width in enumerate(widths):
            piece = fields[f"f{i}"]
            assert piece == record[pos : pos + width]
            assert len(piece) == width
            assert piece.value == ints[f"f{i}"]
            pos += width
        assert list(fields) == [f"f{i}" for i in range(len(widths))]


class TestBitStreams:
    def test_writer_reader_roundtrip(self):
        w = BitWriter()
        w.write(5, 3)
        w.write(0, 2)
        w.write_bits(Bits.from_str("11"))
        out = w.getvalue()
        assert len(out) == 7
        r = BitReader(out)
        assert r.read(3) == 5
        assert r.read(2) == 0
        assert r.read_bits(2) == Bits.from_str("11")
        assert r.at_end()

    def test_writer_overflow_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_writer_negative_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_reader_overrun(self):
        r = BitReader(Bits.zeros(4))
        r.read(3)
        with pytest.raises(EOFError):
            r.read(2)

    def test_reader_position_tracking(self):
        r = BitReader(Bits.zeros(10))
        assert r.position == 0
        r.read(4)
        assert r.position == 4
        assert r.remaining() == 6

    @given(st.lists(st.tuples(st.integers(0, 1023), st.integers(10, 12)), max_size=20))
    def test_stream_roundtrip_property(self, items):
        w = BitWriter()
        for value, width in items:
            w.write(value, width)
        r = BitReader(w.getvalue())
        for value, width in items:
            assert r.read(width) == value
        assert r.at_end()
