"""SHA-256 correctness: NIST vectors plus differential tests vs hashlib.

``hashlib`` is used here *only* as a test oracle to validate the
from-scratch implementation.  No hash that instantiates an oracle
computes through ``hashlib`` (``test_from_scratch.py`` checks the
imports of ``repro.hashes``); the library uses it elsewhere only for
bookkeeping digests (trial seeds, trace query keys).
"""

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro.hashes import SHA256, sha256


class TestKnownVectors:
    def test_empty(self):
        assert (
            sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc(self):
        assert (
            sha256(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_message(self):
        msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            sha256(msg).hex()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_exactly_one_block(self):
        msg = b"a" * 64
        assert sha256(msg) == hashlib.sha256(msg).digest()

    def test_padding_boundary_55_56_57(self):
        # 55 bytes fits padding in one block; 56 forces a second block.
        for n in (55, 56, 57, 63, 64, 65, 119, 120, 121):
            msg = bytes(range(256))[:n] * 1
            assert sha256(msg) == hashlib.sha256(msg).digest(), n


class TestStreaming:
    def test_incremental_equals_oneshot(self):
        h = SHA256()
        h.update(b"hello ").update(b"world")
        assert h.digest() == sha256(b"hello world")

    def test_digest_is_idempotent(self):
        h = SHA256(b"data")
        assert h.digest() == h.digest()

    def test_update_after_digest(self):
        h = SHA256(b"ab")
        _ = h.digest()
        h.update(b"c")
        assert h.digest() == sha256(b"abc")

    def test_copy_forks_state(self):
        h = SHA256(b"prefix")
        fork = h.copy()
        h.update(b"A")
        fork.update(b"B")
        assert h.digest() == sha256(b"prefixA")
        assert fork.digest() == sha256(b"prefixB")

    def test_hexdigest(self):
        assert SHA256(b"abc").hexdigest() == sha256(b"abc").hex()

    def test_attributes(self):
        assert SHA256.digest_size == 32
        assert SHA256.block_size == 64


class TestDifferential:
    @given(st.binary(max_size=300))
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(max_size=90), max_size=6))
    def test_chunked_updates_match_hashlib(self, chunks):
        ours = SHA256()
        ref = hashlib.sha256()
        for c in chunks:
            ours.update(c)
            ref.update(c)
        assert ours.digest() == ref.digest()
