"""The hash kernels against their loop-form references and every Keccak rate.

``keccak_f1600`` and SHA-256's ``_compress`` are written for speed; the
loop-and-table forms in ``reference.py`` are the standards' own shape.
These tests require the two to agree exactly on random inputs, and drive
a sponge over ``keccak_f1600`` at all six FIPS 202 rates against
``hashlib`` (used here only as a test oracle), so that every lane of the
permutation's output reaches a compared byte.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashes.sha3 import keccak_f1600
from repro.hashes.sha256 import _compress
from tests.hashes import reference

lanes = st.lists(st.integers(0, 2**64 - 1), min_size=25, max_size=25)
words = st.lists(st.integers(0, 2**32 - 1), min_size=8, max_size=8)


class TestKeccakKernel:
    @given(lanes)
    def test_equals_loop_form(self, state):
        assert keccak_f1600(state) == reference.keccak_f1600(state)

    @pytest.mark.parametrize("lane", [0, 1, 2**63, 2**64 - 1])
    def test_equals_loop_form_on_constant_states(self, lane):
        assert keccak_f1600([lane] * 25) == reference.keccak_f1600([lane] * 25)

    @given(lanes)
    def test_caller_list_unchanged(self, state):
        before = list(state)
        out = keccak_f1600(state)
        assert state == before
        assert out is not state

    @pytest.mark.parametrize(
        "state, lane",
        [
            ([1 << 70] + [0] * 24, 0),
            ([-1] + [0] * 24, 0),
            ([0] * 24 + [1 << 64], 24),
        ],
        ids=["71-bit", "negative", "2^64"],
    )
    def test_lane_outside_64_bits_rejected(self, state, lane):
        match = rf"lane {lane} is .*outside \[0, 2\^64\)"
        with pytest.raises(ValueError, match=match):
            keccak_f1600(state)


class TestCompressKernel:
    @given(words, st.binary(min_size=64, max_size=64))
    def test_equals_loop_form(self, state, block):
        state = tuple(state)
        assert _compress(state, block) == reference.compress(state, block)

    @pytest.mark.parametrize("word", [0, 1, 2**31, 2**32 - 1])
    def test_equals_loop_form_on_constant_inputs(self, word):
        state = (word,) * 8
        block = word.to_bytes(4, "big") * 16
        assert _compress(state, block) == reference.compress(state, block)


def sponge(data: bytes, rate: int, suffix: int, out_len: int) -> bytes:
    """The FIPS 202 sponge over ``keccak_f1600``: ``rate`` bytes per block,
    pad10*1 after the domain ``suffix`` byte, ``out_len`` bytes squeezed."""
    msg = bytearray(data)
    msg.append(suffix)
    msg.extend(bytes(-len(msg) % rate))
    msg[-1] |= 0x80
    state = [0] * 25
    for offset in range(0, len(msg), rate):
        for i in range(rate // 8):
            lane = msg[offset + 8 * i : offset + 8 * i + 8]
            state[i] ^= int.from_bytes(lane, "little")
        state = keccak_f1600(state)
    out = bytearray()
    while True:
        out += b"".join(state[i].to_bytes(8, "little") for i in range(rate // 8))
        if len(out) >= out_len:
            return bytes(out[:out_len])
        state = keccak_f1600(state)


# (hashlib name, rate in bytes, domain suffix, output bytes).  The SHAKE
# outputs span three rate blocks, so the capacity lanes of one squeeze
# permutation reach the bytes of the next.
_SPONGES = [
    ("sha3_224", 144, 0x06, 28),
    ("sha3_256", 136, 0x06, 32),
    ("sha3_384", 104, 0x06, 48),
    ("sha3_512", 72, 0x06, 64),
    ("shake_128", 168, 0x1F, 3 * 168),
    ("shake_256", 136, 0x1F, 3 * 136),
]


def _hashlib_digest(name: str, data: bytes, out_len: int) -> bytes:
    h = hashlib.new(name, data)
    return h.digest(out_len) if name.startswith("shake") else h.digest()


@pytest.mark.parametrize(
    "name, rate, suffix, out_len", _SPONGES, ids=[s[0] for s in _SPONGES]
)
class TestSpongeAllRates:
    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=400))
    def test_matches_hashlib(self, name, rate, suffix, out_len, data):
        expected = _hashlib_digest(name, data, out_len)
        assert sponge(data, rate, suffix, out_len) == expected

    def test_rate_boundaries(self, name, rate, suffix, out_len):
        """Lengths around one and two blocks, including rate-1, where the
        suffix and the final padding bit share a byte."""
        for n in (rate - 2, rate - 1, rate, rate + 1, 2 * rate - 1, 2 * rate):
            data = (bytes(range(256)) * 2)[:n]
            expected = _hashlib_digest(name, data, out_len)
            assert sponge(data, rate, suffix, out_len) == expected, n
