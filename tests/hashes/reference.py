"""Loop-and-table forms of the two hash kernels, as the standards write them.

These are the reference implementations that the straight-line
``repro.hashes.sha3.keccak_f1600`` and the inlined
``repro.hashes.sha256._compress`` must equal bit for bit
(``test_kernels.py``).  They index lanes and words through tables and
call one rotation helper per rotation, so each line maps onto FIPS 202
section 3.2 or FIPS 180-4 section 6.2.2 directly.
"""

from __future__ import annotations

import struct

from repro.hashes.sha3 import _ROUND_CONSTANTS
from repro.hashes.sha256 import _K

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF

# Rotation offsets r[x][y] (FIPS 202 Table 2, rho step).
_ROTATION = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


def _rotl(x: int, n: int) -> int:
    n %= 64
    return ((x << n) | (x >> (64 - n))) & _MASK64


def keccak_f1600(state: list[int]) -> list[int]:
    """The Keccak-f[1600] permutation over 25 lanes (5x5, column-major:
    lane (x, y) at index ``x + 5*y``)."""
    if len(state) != 25:
        raise ValueError(f"state must have 25 lanes, got {len(state)}")
    a = list(state)
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] ^= d[x]
        # rho + pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl(
                    a[x + 5 * y], _ROTATION[x][y]
                )
        # chi
        for x in range(5):
            for y in range(5):
                a[x + 5 * y] = b[x + 5 * y] ^ (
                    (~b[(x + 1) % 5 + 5 * y] & _MASK64)
                    & b[(x + 2) % 5 + 5 * y]
                )
        # iota
        a[0] ^= rc
    return a


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK32


def compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    """One application of the SHA-256 compression function."""
    w = list(struct.unpack(">16I", block))
    for t in range(16, 64):
        s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK32)

    a, b, c, d, e, f, g, h = state
    for t in range(64):
        big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        t1 = (h + big_s1 + ch + _K[t] + w[t]) & _MASK32
        big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = (big_s0 + maj) & _MASK32
        a, b, c, d, e, f, g, h = (
            (t1 + t2) & _MASK32, a, b, c, (d + t1) & _MASK32, e, f, g,
        )
    return tuple(
        (x + y) & _MASK32 for x, y in zip(state, (a, b, c, d, e, f, g, h))
    )
