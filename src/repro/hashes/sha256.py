"""From-scratch SHA-256 (FIPS 180-4).

This is the concrete hash the reproduction uses to instantiate the random
oracle when exercising Theorem 1.1's "replace RO by a good cryptographic
hash" step.  It is a direct transcription of the standard: 512-bit blocks,
64 rounds, Merkle-Damgard with length padding, in pure Python.

:func:`_compress` keeps the standard's two loops (message schedule, 64
rounds) but writes every rotation, sigma/Sigma, Ch and Maj into the loop
body as plain integer expressions on local variables and masks each sum
once, so a round calls no helper.  The tests keep the textbook form, one
``ROTR`` call per rotation, as the reference this one must equal bit for
bit.  Monte-Carlo sweeps that need millions of oracle calls use
:mod:`repro.hashes.toy_md` instead.
"""

from __future__ import annotations

import struct

__all__ = ["SHA256", "sha256"]

_MASK32 = 0xFFFFFFFF

# First 32 bits of the fractional parts of the cube roots of the first 64
# primes (FIPS 180-4 section 4.2.2).
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

# First 32 bits of the fractional parts of the square roots of the first 8
# primes (FIPS 180-4 section 5.3.3).
_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


def _compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    """One application of the SHA-256 compression function (FIPS 180-4
    section 6.2.2).

    Rotations are written into the sigma/Sigma expressions: with
    ``xx = x | (x << 32)`` (the word written twice), the low 32 bits of
    ``xx >> n`` are ROTR^n(x).  The bits above 32 never reach a low bit
    through xor, or through addition mod 2^32, so each sum is masked once.
    """
    M = _MASK32
    # Message schedule: W[t] = sigma1(W[t-2]) + W[t-7] + sigma0(W[t-15])
    # + W[t-16].
    w = list(struct.unpack(">16I", block))
    for t in range(16, 64):
        x = w[t - 15]
        xx = x | (x << 32)
        y = w[t - 2]
        yy = y | (y << 32)
        w.append(
            (
                w[t - 16]
                + w[t - 7]
                + ((xx >> 7) ^ (xx >> 18) ^ (x >> 3))  # sigma0
                + ((yy >> 17) ^ (yy >> 19) ^ (y >> 10))  # sigma1
            )
            & M
        )

    a, b, c, d, e, f, g, h = state
    for k, wt in zip(_K, w):
        ee = e | (e << 32)
        aa = a | (a << 32)
        # T1 = h + Sigma1(e) + Ch(e, f, g) + K[t] + W[t], with
        # Ch(e, f, g) = (e & f) ^ (~e & g) written as g ^ (e & (f ^ g)).
        t1 = h + ((ee >> 6) ^ (ee >> 11) ^ (ee >> 25)) + (g ^ (e & (f ^ g))) + k + wt
        # T2 = Sigma0(a) + Maj(a, b, c), with
        # Maj(a, b, c) = (a & b) ^ (a & c) ^ (b & c) written as
        # (a & b) | (c & (a | b)).
        t2 = ((aa >> 2) ^ (aa >> 13) ^ (aa >> 22)) + ((a & b) | (c & (a | b)))
        h = g
        g = f
        f = e
        e = (d + t1) & M
        d = c
        c = b
        b = a
        a = (t1 + t2) & M
    return tuple(
        (x + y) & M for x, y in zip(state, (a, b, c, d, e, f, g, h))
    )


class SHA256:
    """Streaming SHA-256: ``update`` with chunks, ``digest`` when done."""

    digest_size = 32
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = _H0
        self._buffer = b""
        self._length = 0  # total message length in bytes
        if data:
            self.update(data)

    def update(self, data: bytes) -> "SHA256":
        """Absorb more message bytes; returns self for chaining."""
        self._length += len(data)
        buf = self._buffer + data
        offset = 0
        while offset + 64 <= len(buf):
            self._state = _compress(self._state, buf[offset : offset + 64])
            offset += 64
        self._buffer = buf[offset:]
        return self

    def digest(self) -> bytes:
        """The 32-byte digest of everything absorbed so far."""
        # Merkle-Damgard strengthening: 0x80, zero pad, 64-bit bit length.
        bit_length = self._length * 8
        pad_len = (55 - self._length) % 64
        tail = b"\x80" + b"\x00" * pad_len + struct.pack(">Q", bit_length)
        state = self._state
        buf = self._buffer + tail
        for offset in range(0, len(buf), 64):
            state = _compress(state, buf[offset : offset + 64])
        return struct.pack(">8I", *state)

    def hexdigest(self) -> str:
        """The digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "SHA256":
        """An independent copy of the current streaming state."""
        clone = SHA256()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data``."""
    return SHA256(data).digest()
