"""Lazily sampled random oracle over large domains.

On domains like ``{0,1}^256`` a truth table is out of reach; the standard
equivalent view is lazy sampling: each fresh query gets an independent
uniform answer.  To keep the sampled function consistent across parties
that query in different orders (the RAM evaluator vs. the MPC machines vs.
the compression argument's replays), the "fresh uniform answer" is derived
deterministically from ``(seed, query)`` by a PRF built from the toy
Merkle-Damgard hash.  DESIGN.md records this as the lazy-sampling
substitution: structurally this is an arbitrary fixed function that the
algorithms can only learn by querying, which is exactly the property the
paper's arguments consume.
"""

from __future__ import annotations

from typing import Sequence

from repro.bits import Bits
from repro.hashes.toy_md import mix64, toy_absorb, toy_hash_batch
from repro.oracle.base import MemoOracle

__all__ = ["LazyRandomOracle"]

_MASK64 = (1 << 64) - 1


class LazyRandomOracle(MemoOracle):
    """A PRF-driven lazily sampled oracle ``{0,1}^n_in -> {0,1}^n_out``.

    The answer to ``x`` is the top ``n_out`` bits of
    ``toy_hash(seed_bytes + key_bytes, digest_size=ceil(n_out / 8))``:
    ``seed_bytes`` is ``seed`` in 16 little-endian two's-complement
    bytes, ``key_bytes`` is ``x`` as an integer in ``ceil(n_in / 8)``
    (at least one) little-endian bytes.  The 16 seed bytes are two whole
    blocks of the hash, so the chain state after them is computed once,
    at construction; a first read runs only the rest of the chain, over
    the key's blocks, and its answer is bit for bit the ``toy_hash`` one.

    Parameters
    ----------
    n_in, n_out:
        Query and answer lengths in bits.
    seed:
        Selects the oracle from the family; two oracles with the same
        dimensions and seed are the same function.
    """

    def __init__(self, n_in: int, n_out: int, *, seed: int = 0) -> None:
        super().__init__(n_in, n_out)
        self._seed = seed
        self._seed_bytes = seed.to_bytes(16, "little", signed=True)
        self._seed_state = toy_absorb(self._seed_bytes)
        self._in_bytes = (n_in + 7) // 8 or 1
        self._out_bytes = (n_out + 7) // 8

    @property
    def seed(self) -> int:
        """The family-selection seed."""
        return self._seed

    def _compute(self, key: int) -> int:
        """The answer to ``key``, continuing the chain from the seed."""
        in_bytes = self._in_bytes
        state = self._seed_state
        # The key's whole blocks, then its last bytes and the 0x01 end
        # marker as the padded tail block.
        for _ in range(in_bytes >> 3):
            block = key & _MASK64
            key >>= 64
            state = (mix64(state ^ block) + block) & _MASK64
        block = key | (1 << 8 * (in_bytes & 7))
        state = (mix64(state ^ block) + block) & _MASK64
        state = mix64(state ^ (16 + in_bytes))
        out_bytes = self._out_bytes
        if out_bytes <= 8:
            digest = mix64(state).to_bytes(8, "little")
        else:
            digest = b"".join(
                mix64(state + counter).to_bytes(8, "little")
                for counter in range((out_bytes + 7) // 8)
            )
        return int.from_bytes(digest[:out_bytes], "big") >> (
            8 * out_bytes - self._n_out
        )

    def _evaluate_batch(self, xs: Sequence[Bits]) -> list[Bits]:
        cache = self._cache
        misses: list[int] = []
        seen_miss: set[int] = set()
        for x in xs:
            key = x.value
            if key not in cache and key not in seen_miss:
                seen_miss.add(key)
                misses.append(key)
        if misses:
            in_bytes = self._in_bytes
            seed_bytes = self._seed_bytes
            shift = 8 * self._out_bytes - self._n_out
            digests = toy_hash_batch(
                [seed_bytes + key.to_bytes(in_bytes, "little") for key in misses],
                digest_size=self._out_bytes,
            )
            for key, digest in zip(misses, digests):
                cache[key] = int.from_bytes(digest, "big") >> shift
        n_out = self._n_out
        make = Bits._make  # cached values are < 2**n_out by construction
        return [make(cache[x.value], n_out) for x in xs]
