"""A fast toy Merkle-Damgard hash over 64-bit words.

The Monte-Carlo experiments make millions of oracle calls; pure-Python
SHA-256 would dominate their runtime.  This module provides a small,
fast, *non-cryptographic but well-mixing* hash built from the splitmix64
finalizer -- the same role a non-cryptographic PRF plays when lazily
sampling a random oracle for simulation.  It is explicitly NOT a secure
hash; DESIGN.md records this substitution (simulation fidelity only needs
uniform-looking, input-determined outputs).

Construction: absorb the message in 8-byte blocks with a Davies-Meyer-ish
chain ``state = mix(state ^ block) + block``, inject the message length,
then finalize.  Arbitrary digest sizes come from counter-mode expansion
of the final state.  The chain state after a prefix of whole blocks
depends on nothing after it, so a caller that hashes many messages
behind one prefix computes that state once (:func:`toy_absorb`) and runs
only the rest of the chain per message, as
:class:`~repro.oracle.lazy.LazyRandomOracle` does behind its seed.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ToyMDHash", "toy_absorb", "toy_hash", "toy_hash_batch", "mix64"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_IV = 0x9E3779B97F4A7C15  # golden-ratio constant, the splitmix64 increment


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a 64-bit bijection with strong avalanche."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class ToyMDHash:
    """Streaming toy hash with a configurable digest size in bytes."""

    block_size = 8

    def __init__(self, data: bytes = b"", *, digest_size: int = 8, seed: int = 0) -> None:
        if digest_size <= 0:
            raise ValueError(f"digest_size must be positive, got {digest_size}")
        self.digest_size = digest_size
        self._state = mix64(_IV ^ mix64(seed))
        self._length = 0
        self._buffer = b""
        if data:
            self.update(data)

    def update(self, data: bytes) -> "ToyMDHash":
        """Absorb more message bytes; returns self for chaining."""
        self._length += len(data)
        buf = self._buffer + data
        state = self._state
        offset = 0
        n_full = len(buf) // 8
        for i in range(n_full):
            block = int.from_bytes(buf[offset : offset + 8], "little")
            state = (mix64(state ^ block) + block) & _MASK64
            offset += 8
        self._state = state
        self._buffer = buf[offset:]
        return self

    def digest(self) -> bytes:
        """The digest of everything absorbed so far."""
        # Pad the final partial block with a 0x01 marker then zeros, and
        # inject the total length so that, as in real Merkle-Damgard
        # strengthening, prefixes do not collide.
        tail = self._buffer + b"\x01" + b"\x00" * (7 - len(self._buffer) % 8)
        state = self._state
        for offset in range(0, len(tail), 8):
            block = int.from_bytes(tail[offset : offset + 8], "little")
            state = (mix64(state ^ block) + block) & _MASK64
        state = mix64(state ^ self._length)
        # Counter-mode expansion for digests longer than 8 bytes.
        out = bytearray()
        counter = 0
        while len(out) < self.digest_size:
            out += mix64(state + counter).to_bytes(8, "little")
            counter += 1
        return bytes(out[: self.digest_size])

    def hexdigest(self) -> str:
        """The digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "ToyMDHash":
        """An independent copy of the current streaming state."""
        clone = ToyMDHash(digest_size=self.digest_size)
        clone._state = self._state
        clone._length = self._length
        clone._buffer = self._buffer
        return clone


#: The chain state before any block under seed 0, the seed every lazy
#: oracle query uses.
_SEED0_STATE = mix64(_IV ^ mix64(0))


def toy_absorb(prefix: bytes, *, seed: int = 0) -> int:
    """The chain state after absorbing ``prefix``, whole 8-byte blocks.

    :func:`toy_hash` of ``prefix + rest`` continues from this state over
    the blocks of ``rest``, its padded tail and the total length.
    """
    if len(prefix) % 8:
        raise ValueError(f"prefix of {len(prefix)} bytes is not whole blocks")
    state = _SEED0_STATE if seed == 0 else mix64(_IV ^ mix64(seed))
    # Little-endian blocks are the 64-bit words of the little-endian int.
    words = int.from_bytes(prefix, "little")
    for _ in range(len(prefix) // 8):
        block = words & _MASK64
        words >>= 64
        state = (mix64(state ^ block) + block) & _MASK64
    return state


def toy_hash(data: bytes, *, digest_size: int = 8, seed: int = 0) -> bytes:
    """One-shot toy hash of ``data``, bit-identical to
    ``ToyMDHash(data, digest_size=digest_size, seed=seed).digest()``.

    The same chain as :meth:`ToyMDHash.update` then
    :meth:`ToyMDHash.digest`, run straight over ``data`` with no hash
    object: :func:`toy_absorb` over the whole blocks, then the padded
    tail.  Below 8 bytes the padded tail is one block.
    """
    if digest_size <= 0:
        raise ValueError(f"digest_size must be positive, got {digest_size}")
    length = len(data)
    full = length - length % 8
    state = toy_absorb(data[:full], seed=seed)
    # The 0x01 marker ends the tail; its zero fill is the high bytes.
    block = int.from_bytes(data[full:] + b"\x01", "little")
    state = (mix64(state ^ block) + block) & _MASK64
    state = mix64(state ^ length)
    if digest_size <= 8:
        return mix64(state).to_bytes(8, "little")[:digest_size]
    words = b"".join(
        mix64(state + counter).to_bytes(8, "little")
        for counter in range((digest_size + 7) // 8)
    )
    return words[:digest_size]


def toy_hash_batch(
    messages: Sequence[bytes], *, digest_size: int = 8, seed: int = 0
) -> list[bytes]:
    """Hash many equal-length messages at once, bit-identical to
    :func:`toy_hash` on each.

    The Merkle-Damgard chain runs column-wise over a numpy ``uint64``
    block matrix: one vectorized :func:`mix64` per block position for
    the whole batch instead of one Python-level call per message block.
    This is the substrate of the oracle layer's ``query_batch`` fast
    path, where every message is ``seed || key`` at one fixed width.
    """
    if digest_size <= 0:
        raise ValueError(f"digest_size must be positive, got {digest_size}")
    if not messages:
        return []
    length = len(messages[0])
    if any(len(m) != length for m in messages):
        raise ValueError("toy_hash_batch requires equal-length messages")
    import numpy as np

    batch = len(messages)
    # Pad every message exactly as the scalar digest() does: a 0x01
    # marker then zeros up to the next 8-byte boundary -- so the padded
    # block stream equals "full message blocks, then the tail block".
    pad = b"\x01" + b"\x00" * (7 - length % 8)
    data = b"".join(m + pad for m in messages)
    blocks = np.frombuffer(data, dtype="<u8").reshape(batch, -1)

    def _mix(x: "np.ndarray") -> "np.ndarray":
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    with np.errstate(over="ignore"):
        state = np.full(batch, mix64(_IV ^ mix64(seed)), dtype=np.uint64)
        for j in range(blocks.shape[1]):
            block = blocks[:, j]
            state = _mix(state ^ block) + block
        state = _mix(state ^ np.uint64(length))
        # Counter-mode expansion, little-endian words, like digest().
        n_words = (digest_size + 7) // 8
        words = np.empty((batch, n_words), dtype=np.uint64)
        for counter in range(n_words):
            words[:, counter] = _mix(state + np.uint64(counter))
    raw = words.astype("<u8").tobytes()
    stride = 8 * n_words
    return [
        raw[i * stride : i * stride + digest_size] for i in range(batch)
    ]
