"""The query packers and answer parsers agree with the codecs.

:func:`~repro.functions.line.line_query`,
:func:`~repro.functions.simline.simline_query`,
:meth:`LineParams.next_node` and :meth:`SimLineParams.next_r` pack and
parse with shifts computed once per parameter object; ``query_codec``
and ``answer_codec`` are the reference layouts.  Both must agree bit for
bit and reject bad input with the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import Bits, bits_needed
from repro.functions import LineParams, SimLineParams
from repro.functions.line import line_query
from repro.functions.simline import simline_query


@st.composite
def line_params(draw):
    u = draw(st.integers(1, 16))
    v = 1 << draw(st.integers(0, 7))
    w = draw(st.integers(1, 500))
    need = max(bits_needed(w + 1) + 2 * u, bits_needed(v) + u)
    return LineParams(n=need + draw(st.integers(0, 12)), u=u, v=v, w=w)


@st.composite
def simline_params(draw):
    u = draw(st.integers(1, 16))
    v = 1 << draw(st.integers(0, 7))
    w = draw(st.integers(1, 500))
    return SimLineParams(n=2 * u + draw(st.integers(0, 12)), u=u, v=v, w=w)


def draw_bits(data, width):
    return Bits(data.draw(st.integers(0, (1 << width) - 1)), width)


def draw_wrong_width(data, width):
    """A zero string of any width but ``width``."""
    return Bits(0, data.draw(st.integers(0, 2 * width + 2).filter(
        lambda k: k != width)))


def error_of(call):
    """The message of the ValueError ``call()`` raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestLine:
    @settings(max_examples=200)
    @given(params=line_params(), data=st.data())
    def test_query_matches_codec(self, params, data):
        i = data.draw(st.integers(0, (1 << params.index_width) - 1))
        x = draw_bits(data, params.u)
        r = draw_bits(data, params.u)
        assert line_query(params, i, x, r) == params.query_codec.pack(
            index=i, x=x, r=r
        )

    @settings(max_examples=200)
    @given(params=line_params(), data=st.data())
    def test_next_node_matches_codec(self, params, data):
        answer = draw_bits(data, params.n)
        fields = params.answer_codec.unpack_bits(answer)
        assert params.next_node(answer) == (
            params.ell_of_answer(fields["ell"].value),
            fields["r"],
        )

    @given(params=line_params(), data=st.data())
    def test_wrong_field_widths_rejected(self, params, data):
        u = params.u
        good = Bits(0, u)
        bad = draw_wrong_width(data, u)
        assert error_of(lambda: line_query(params, 0, bad, good)) == (
            f"x piece has {len(bad)} bits, expected u={u}"
        )
        assert error_of(lambda: line_query(params, 0, good, bad)) == (
            f"r has {len(bad)} bits, expected u={u}"
        )

    @given(params=line_params(), data=st.data())
    def test_index_out_of_range_rejected(self, params, data):
        top = 1 << params.index_width
        i = data.draw(st.integers(top, 4 * top) | st.integers(-top, -1))
        good = Bits(0, params.u)
        assert error_of(lambda: line_query(params, i, good, good)) == error_of(
            lambda: params.query_codec.pack(index=i, x=good, r=good)
        )

    @given(params=line_params(), data=st.data())
    def test_wrong_answer_length_rejected(self, params, data):
        answer = draw_wrong_width(data, params.n)
        assert error_of(lambda: params.next_node(answer)) == error_of(
            lambda: params.answer_codec.unpack_bits(answer)
        )


class TestSimLine:
    @settings(max_examples=200)
    @given(params=simline_params(), data=st.data())
    def test_query_matches_codec(self, params, data):
        x = draw_bits(data, params.u)
        r = draw_bits(data, params.u)
        assert simline_query(params, x, r) == params.query_codec.pack(x=x, r=r)

    @settings(max_examples=200)
    @given(params=simline_params(), data=st.data())
    def test_next_r_matches_codec(self, params, data):
        answer = draw_bits(data, params.n)
        assert params.next_r(answer) == (
            params.answer_codec.unpack_bits(answer)["r"]
        )

    @given(params=simline_params(), data=st.data())
    def test_wrong_field_widths_rejected(self, params, data):
        u = params.u
        good = Bits(0, u)
        bad = draw_wrong_width(data, u)
        assert error_of(lambda: simline_query(params, bad, good)) == (
            f"x piece has {len(bad)} bits, expected u={u}"
        )
        assert error_of(lambda: simline_query(params, good, bad)) == (
            f"r has {len(bad)} bits, expected u={u}"
        )

    @given(params=simline_params(), data=st.data())
    def test_wrong_answer_length_rejected(self, params, data):
        answer = draw_wrong_width(data, params.n)
        assert error_of(lambda: params.next_r(answer)) == error_of(
            lambda: params.answer_codec.unpack_bits(answer)
        )
