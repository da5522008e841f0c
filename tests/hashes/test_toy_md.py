"""Tests for the fast toy Merkle-Damgard hash."""

from hypothesis import given
from hypothesis import strategies as st

from repro.hashes import ToyMDHash, toy_hash
from repro.hashes.toy_md import mix64


class TestMix64:
    def test_is_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_masks_to_64_bits(self):
        assert 0 <= mix64(2**100 + 17) < 2**64

    def test_avalanche_single_bit(self):
        """Flipping one input bit should flip roughly half the output bits."""
        flips = []
        for bit in range(64):
            a = mix64(0xDEADBEEF)
            b = mix64(0xDEADBEEF ^ (1 << bit))
            flips.append(bin(a ^ b).count("1"))
        mean = sum(flips) / len(flips)
        assert 24 <= mean <= 40  # ideal is 32


class TestToyHash:
    def test_deterministic(self):
        assert toy_hash(b"abc") == toy_hash(b"abc")

    def test_distinct_inputs_distinct_outputs(self):
        outputs = {toy_hash(i.to_bytes(4, "little")) for i in range(2000)}
        assert len(outputs) == 2000

    def test_prefix_strengthening(self):
        """Length injection: a message and its zero-extended form differ."""
        assert toy_hash(b"ab") != toy_hash(b"ab\x00")
        assert toy_hash(b"") != toy_hash(b"\x00")

    def test_digest_size(self):
        assert len(toy_hash(b"x", digest_size=20)) == 20

    def test_digest_size_expansion_is_prefix_consistent(self):
        short = toy_hash(b"x", digest_size=8)
        long = toy_hash(b"x", digest_size=16)
        assert long[:8] == short

    def test_seed_changes_output(self):
        assert toy_hash(b"x", seed=1) != toy_hash(b"x", seed=2)

    def test_invalid_digest_size(self):
        import pytest

        with pytest.raises(ValueError):
            ToyMDHash(digest_size=0)
        with pytest.raises(ValueError, match="digest_size"):
            toy_hash(b"x", digest_size=0)

    def test_streaming_matches_oneshot(self):
        h = ToyMDHash()
        h.update(b"hello ").update(b"world!")
        assert h.digest() == toy_hash(b"hello world!")

    def test_copy_forks_state(self):
        h = ToyMDHash(b"pre")
        fork = h.copy()
        h.update(b"A")
        fork.update(b"B")
        assert h.digest() == toy_hash(b"preA")
        assert fork.digest() == toy_hash(b"preB")

    def test_hexdigest(self):
        assert ToyMDHash(b"q").hexdigest() == toy_hash(b"q").hex()

    @given(st.binary(max_size=100), st.integers(1, 40))
    def test_output_length_property(self, data, size):
        assert len(toy_hash(data, digest_size=size)) == size

    @given(st.lists(st.binary(max_size=30), max_size=5))
    def test_chunking_invariance(self, chunks):
        h = ToyMDHash()
        for c in chunks:
            h.update(c)
        assert h.digest() == toy_hash(b"".join(chunks))

    def test_output_bit_balance(self):
        """Across many inputs, each output bit should be ~half ones."""
        counts = [0] * 64
        trials = 4000
        for i in range(trials):
            v = int.from_bytes(toy_hash(i.to_bytes(8, "little")), "little")
            for b in range(64):
                counts[b] += (v >> b) & 1
        for b, c in enumerate(counts):
            assert 0.42 * trials <= c <= 0.58 * trials, (b, c / trials)


class TestOneShotMatchesStreaming:
    """``toy_hash`` runs its own loop; it must stay the streaming hash."""

    @given(
        st.binary(max_size=64),
        st.integers(1, 40),
        st.one_of(st.just(0), st.integers(-(2**70), 2**70)),
    )
    def test_equals_streaming_digest(self, data, size, seed):
        expected = ToyMDHash(data, digest_size=size, seed=seed).digest()
        assert toy_hash(data, digest_size=size, seed=seed) == expected

    def test_pinned_digests(self):
        # Literal values: a change to both paths at once still fails.
        assert toy_hash(b"").hex() == "9a302edda57b9e3f"
        assert (
            toy_hash(b"hello world!", digest_size=20).hex()
            == "731ca26a468f71227a1036f90423c6a6f8f630f5"
        )
        assert toy_hash(bytes(range(21)), digest_size=5, seed=7).hex() == "aa94ad8c79"
