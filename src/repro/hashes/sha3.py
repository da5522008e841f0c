"""From-scratch SHA3-256 (FIPS 202, Keccak-f[1600]).

The paper's random-oracle methodology names its hash: "replace the
random oracle by a 'good cryptographic hashing function' h (such as
SHA3)".  This module provides that literal instantiation: the
Keccak-f[1600] permutation and the SHA3-256 sponge (rate 1088, capacity
512, domain suffix ``0x06``), pure Python, validated against FIPS
vectors and differentially against ``hashlib`` in the tests.

:func:`keccak_f1600` is one straight-line round body over 25 local
lanes: the steps theta, rho, pi, chi and iota of FIPS 202 section 3.2
are written out lane by lane, each marked with its name, and every
rotation amount is a literal.  A round is then a few hundred integer
operations with no indexing and no helper calls.  The tests keep the
standard's loop-and-table form as the reference this body must equal
bit for bit.
"""

from __future__ import annotations

__all__ = ["SHA3_256", "sha3_256", "keccak_f1600"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Round constants (iota step), 24 rounds.
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def keccak_f1600(state: list[int]) -> list[int]:
    """The Keccak-f[1600] permutation over 25 lanes (5x5, column-major:
    lane (x, y) at index ``x + 5*y``), each an integer in ``[0, 2^64)``.

    Returns a new list and leaves ``state`` unmodified.  The local ``aXY``
    holds lane A[X, Y] and ``bXY`` lane B[X, Y]; each rotation amount is
    the offset r[x][y] of FIPS 202 Table 2, written as a literal.
    """
    if len(state) != 25:
        raise ValueError(f"state must have 25 lanes, got {len(state)}")
    if min(state) < 0 or max(state) > _MASK64:
        i = next(i for i, lane in enumerate(state) if not 0 <= lane <= _MASK64)
        raise ValueError(f"lane {i} is {state[i]}, outside [0, 2^64)")
    M = _MASK64
    (a00, a10, a20, a30, a40,
     a01, a11, a21, a31, a41,
     a02, a12, a22, a32, a42,
     a03, a13, a23, a33, a43,
     a04, a14, a24, a34, a44) = state
    for rc in _ROUND_CONSTANTS:
        # theta (3.2.1): C[x] is the parity of column x, and
        # D[x] = C[x-1] ^ rot(C[x+1], 1).
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & M)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & M)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & M)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & M)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & M)
        # theta (3.2.1) applied, then rho (3.2.2) and pi (3.2.3):
        # B[y, 2x+3y] = rot(A[x, y] ^ D[x], r[x][y]).  Lane (0, 0) has
        # r = 0, so it is not rotated.
        b00 = a00 ^ d0
        t = a10 ^ d1
        b02 = ((t << 1) | (t >> 63)) & M
        t = a20 ^ d2
        b04 = ((t << 62) | (t >> 2)) & M
        t = a30 ^ d3
        b01 = ((t << 28) | (t >> 36)) & M
        t = a40 ^ d4
        b03 = ((t << 27) | (t >> 37)) & M
        t = a01 ^ d0
        b13 = ((t << 36) | (t >> 28)) & M
        t = a11 ^ d1
        b10 = ((t << 44) | (t >> 20)) & M
        t = a21 ^ d2
        b12 = ((t << 6) | (t >> 58)) & M
        t = a31 ^ d3
        b14 = ((t << 55) | (t >> 9)) & M
        t = a41 ^ d4
        b11 = ((t << 20) | (t >> 44)) & M
        t = a02 ^ d0
        b21 = ((t << 3) | (t >> 61)) & M
        t = a12 ^ d1
        b23 = ((t << 10) | (t >> 54)) & M
        t = a22 ^ d2
        b20 = ((t << 43) | (t >> 21)) & M
        t = a32 ^ d3
        b22 = ((t << 25) | (t >> 39)) & M
        t = a42 ^ d4
        b24 = ((t << 39) | (t >> 25)) & M
        t = a03 ^ d0
        b34 = ((t << 41) | (t >> 23)) & M
        t = a13 ^ d1
        b31 = ((t << 45) | (t >> 19)) & M
        t = a23 ^ d2
        b33 = ((t << 15) | (t >> 49)) & M
        t = a33 ^ d3
        b30 = ((t << 21) | (t >> 43)) & M
        t = a43 ^ d4
        b32 = ((t << 8) | (t >> 56)) & M
        t = a04 ^ d0
        b42 = ((t << 18) | (t >> 46)) & M
        t = a14 ^ d1
        b44 = ((t << 2) | (t >> 62)) & M
        t = a24 ^ d2
        b41 = ((t << 61) | (t >> 3)) & M
        t = a34 ^ d3
        b43 = ((t << 56) | (t >> 8)) & M
        t = a44 ^ d4
        b40 = ((t << 14) | (t >> 50)) & M
        # chi (3.2.4): A[x, y] = B[x, y] ^ (~B[x+1, y] & B[x+2, y]).  B
        # lanes lie in [0, 2^64), so ~B & B' needs no mask.
        a00 = b00 ^ (~b10 & b20)
        a10 = b10 ^ (~b20 & b30)
        a20 = b20 ^ (~b30 & b40)
        a30 = b30 ^ (~b40 & b00)
        a40 = b40 ^ (~b00 & b10)
        a01 = b01 ^ (~b11 & b21)
        a11 = b11 ^ (~b21 & b31)
        a21 = b21 ^ (~b31 & b41)
        a31 = b31 ^ (~b41 & b01)
        a41 = b41 ^ (~b01 & b11)
        a02 = b02 ^ (~b12 & b22)
        a12 = b12 ^ (~b22 & b32)
        a22 = b22 ^ (~b32 & b42)
        a32 = b32 ^ (~b42 & b02)
        a42 = b42 ^ (~b02 & b12)
        a03 = b03 ^ (~b13 & b23)
        a13 = b13 ^ (~b23 & b33)
        a23 = b23 ^ (~b33 & b43)
        a33 = b33 ^ (~b43 & b03)
        a43 = b43 ^ (~b03 & b13)
        a04 = b04 ^ (~b14 & b24)
        a14 = b14 ^ (~b24 & b34)
        a24 = b24 ^ (~b34 & b44)
        a34 = b34 ^ (~b44 & b04)
        a44 = b44 ^ (~b04 & b14)
        # iota (3.2.5)
        a00 ^= rc
    return [
        a00, a10, a20, a30, a40,
        a01, a11, a21, a31, a41,
        a02, a12, a22, a32, a42,
        a03, a13, a23, a33, a43,
        a04, a14, a24, a34, a44,
    ]


class SHA3_256:
    """Streaming SHA3-256: sponge with rate 136 bytes, suffix 0x06."""

    digest_size = 32
    rate_bytes = 136

    def __init__(self, data: bytes = b"") -> None:
        self._state = [0] * 25
        self._buffer = b""
        if data:
            self.update(data)

    def _absorb_block(self, block: bytes) -> None:
        for i in range(self.rate_bytes // 8):
            self._state[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
        self._state = keccak_f1600(self._state)

    def update(self, data: bytes) -> "SHA3_256":
        """Absorb more message bytes; returns self for chaining."""
        buf = self._buffer + data
        offset = 0
        while offset + self.rate_bytes <= len(buf):
            self._absorb_block(buf[offset : offset + self.rate_bytes])
            offset += self.rate_bytes
        self._buffer = buf[offset:]
        return self

    def digest(self) -> bytes:
        """The 32-byte digest of everything absorbed so far."""
        # Pad: multi-rate padding with the SHA-3 domain suffix 01:
        # append 0x06, zero-fill, set the top bit of the last rate byte.
        pad_len = self.rate_bytes - len(self._buffer)
        if pad_len == 1:
            tail = b"\x86"
        else:
            tail = b"\x06" + b"\x00" * (pad_len - 2) + b"\x80"
        state = list(self._state)
        block = self._buffer + tail
        for i in range(self.rate_bytes // 8):
            state[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
        state = keccak_f1600(state)
        out = b"".join(state[i].to_bytes(8, "little") for i in range(4))
        return out[:32]

    def hexdigest(self) -> str:
        """The digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "SHA3_256":
        """An independent copy of the current streaming state."""
        clone = SHA3_256()
        clone._state = list(self._state)
        clone._buffer = self._buffer
        return clone


def sha3_256(data: bytes) -> bytes:
    """One-shot SHA3-256 digest of ``data``."""
    return SHA3_256(data).digest()
