"""SHA3-256 correctness: FIPS vectors plus differential tests vs hashlib.

As with SHA-256, ``hashlib`` appears only as a test oracle.
"""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashes import SHA3_256, sha3_256
from repro.hashes.sha3 import keccak_f1600


class TestKnownVectors:
    def test_empty(self):
        assert (
            sha3_256(b"").hex()
            == "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        )

    def test_abc(self):
        assert (
            sha3_256(b"abc").hex()
            == "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        )

    def test_448_bit_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha3_256(msg) == hashlib.sha3_256(msg).digest()

    def test_rate_boundaries(self):
        """Lengths around the 136-byte rate exercise all padding paths,
        including the single-byte 0x86 case at exactly rate-1."""
        for n in (134, 135, 136, 137, 271, 272, 273):
            msg = (bytes(range(256)) * 2)[:n]
            assert sha3_256(msg) == hashlib.sha3_256(msg).digest(), n


class TestPermutation:
    def test_zero_state_known_output(self):
        """Keccak-f[1600] on the zero state (first lane check)."""
        out = keccak_f1600([0] * 25)
        # First lane of Keccak-f[1600] applied to zero state.
        assert out[0] == 0xF1258F7940E1DDE7

    def test_is_a_permutation_step(self):
        a = keccak_f1600([0] * 25)
        b = keccak_f1600([0] * 25)
        assert a == b
        assert a != [0] * 25

    def test_state_size_validated(self):
        with pytest.raises(ValueError):
            keccak_f1600([0] * 24)


class TestStreaming:
    def test_incremental_equals_oneshot(self):
        h = SHA3_256()
        h.update(b"hello ").update(b"world")
        assert h.digest() == sha3_256(b"hello world")

    def test_digest_idempotent(self):
        h = SHA3_256(b"data")
        assert h.digest() == h.digest()

    def test_update_after_digest(self):
        h = SHA3_256(b"ab")
        _ = h.digest()
        h.update(b"c")
        assert h.digest() == sha3_256(b"abc")

    def test_copy_forks_state(self):
        h = SHA3_256(b"prefix")
        fork = h.copy()
        h.update(b"A")
        fork.update(b"B")
        assert h.digest() == sha3_256(b"prefixA")
        assert fork.digest() == sha3_256(b"prefixB")

    def test_hexdigest(self):
        assert SHA3_256(b"q").hexdigest() == sha3_256(b"q").hex()


class TestDifferential:
    @given(st.binary(max_size=400))
    def test_matches_hashlib(self, data):
        assert sha3_256(data) == hashlib.sha3_256(data).digest()

    @given(st.lists(st.binary(max_size=150), max_size=5))
    def test_chunked_updates_match(self, chunks):
        ours = SHA3_256()
        ref = hashlib.sha3_256()
        for c in chunks:
            ours.update(c)
            ref.update(c)
        assert ours.digest() == ref.digest()


class TestAsOracle:
    def test_line_instantiation_with_sha3(self):
        """The paper's literal 'such as SHA3' instantiation end to end."""
        import numpy as np

        from repro.functions import LineParams, evaluate_line, sample_input
        from repro.hashes import HashOracle

        params = LineParams(n=36, u=8, v=8, w=12)
        oracle = HashOracle(sha3_256, params.n, params.n, label=b"sha3")
        x = sample_input(params, np.random.default_rng(0))
        out = evaluate_line(params, x, oracle)
        assert len(out) == params.n
        assert out == evaluate_line(params, x, oracle)
