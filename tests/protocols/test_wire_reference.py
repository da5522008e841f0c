"""The integer-field wire codec against its field-by-field stream form.

For random ``(u, v, w)``, the encoders must return the bits the
``BitWriter`` forms in ``wire_reference.py`` write, and refuse what they
refuse with the same error.  The parsers must return what the
``BitReader`` forms read, or raise the same error type with the same
message, on valid payloads and on flipped, truncated and extended ones.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import Bits
from repro.protocols import wire
from repro.protocols.wire import Frontier
from tests.protocols import wire_reference as reference

LAYOUTS = st.builds(
    SimpleNamespace,
    u=st.integers(1, 70),
    v=st.integers(1, 40),
    w=st.integers(1, 300),
)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("returned", fn(*args))
    except (ValueError, EOFError) as exc:
        return ("raised", type(exc), str(exc))


@st.composite
def stores(draw, params):
    """Piece lists, mostly valid: indices may repeat, fall out of order
    or out of range, and a piece may have the wrong length."""
    count = draw(st.integers(0, params.v + 2))
    if draw(st.booleans()):
        indices = sorted(
            draw(st.sets(st.integers(0, params.v - 1), max_size=count))
        )
    else:
        indices = draw(
            st.lists(st.integers(-1, params.v + 1), max_size=count)
        )
    pieces = []
    for idx in indices:
        length = params.u + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        value = draw(st.integers(0, (1 << length) - 1))
        pieces.append((idx, Bits(value, length)))
    return pieces


@st.composite
def frontiers(draw, params):
    """Frontiers, mostly valid: a field may be one past its range."""
    length = params.u + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    return Frontier(
        node=draw(st.integers(-1, params.w + 1)),
        pointer=draw(st.integers(-1, params.v)),
        r=Bits(draw(st.integers(0, (1 << length) - 1)), length),
    )


@st.composite
def payloads(draw, params):
    """Concatenated valid records, then flipped, cut or extended."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["store", "frontier", "done"]))
        if kind == "store":
            indices = sorted(
                draw(st.sets(st.integers(0, params.v - 1), max_size=6))
            )
            parts.append(reference.encode_store(params, [
                (i, Bits(draw(st.integers(0, (1 << params.u) - 1)), params.u))
                for i in indices
            ]))
        elif kind == "frontier":
            parts.append(reference.encode_frontier(params, Frontier(
                draw(st.integers(0, params.w)),
                draw(st.integers(0, params.v - 1)),
                Bits(draw(st.integers(0, (1 << params.u) - 1)), params.u),
            )))
        else:
            parts.append(Bits(2, 2))
    payload = Bits.concat(parts)
    how = draw(st.sampled_from(["valid", "flip", "cut", "extend", "random"]))
    if how == "flip" and len(payload):
        bit = draw(st.integers(0, len(payload) - 1))
        payload = Bits(payload.value ^ (1 << bit), len(payload))
    elif how == "cut" and len(payload):
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    elif how == "extend":
        length = draw(st.integers(1, 12))
        payload = payload + Bits(draw(st.integers(0, (1 << length) - 1)), length)
    elif how == "random":
        length = draw(st.integers(0, 160))
        payload = Bits(draw(st.integers(0, (1 << length) - 1)), length)
    return payload


@settings(max_examples=300, deadline=None)
@given(data=st.data(), params=LAYOUTS)
def test_encoders_equal_the_stream_form(data, params):
    pieces = data.draw(stores(params))
    assert outcome(wire.encode_store, params, pieces) == outcome(
        reference.encode_store, params, pieces
    )
    frontier = data.draw(frontiers(params))
    assert outcome(wire.encode_frontier, params, frontier) == outcome(
        reference.encode_frontier, params, frontier
    )


def test_store_count_overflow_matches():
    """More pieces than the count field holds: the count write refuses
    them before any index is looked at."""
    params = SimpleNamespace(u=4, v=2, w=5)
    pieces = [(i, Bits(0, 4)) for i in range(4)]
    expected = outcome(reference.encode_store, params, pieces)
    assert expected[:2] == ("raised", ValueError)
    assert outcome(wire.encode_store, params, pieces) == expected


@settings(max_examples=400, deadline=None)
@given(data=st.data(), params=LAYOUTS)
def test_parsers_equal_the_stream_form(data, params):
    payload = data.draw(payloads(params))
    for name in ("decode_records", "decode_store", "decode_frontier"):
        got = outcome(getattr(wire, name), params, payload)
        assert got == outcome(getattr(reference, name), params, payload), name
