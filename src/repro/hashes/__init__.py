"""Concrete hash functions for the random-oracle methodology step.

Theorem 1.1's final move is the random oracle methodology: replace the
ideal oracle ``RO`` by a "good cryptographic hash function" ``h`` to get a
concrete hard function ``f^h``.  This package supplies from-scratch hash
functions (no ``hashlib``) and the adapter that exposes them behind the
library's :class:`~repro.oracle.base.Oracle` interface:

* :mod:`~repro.hashes.sha3` -- FIPS 202 SHA3-256, the paper's own pick
  ("such as SHA3"; time complexity ``t_h = poly(n)``), over a
  straight-line Keccak-f[1600] whose round body names each FIPS step;
* :mod:`~repro.hashes.sha256` -- FIPS 180-4 SHA-256, whose compression
  function writes every rotation and boolean function inline;
* :mod:`~repro.hashes.toy_md` -- a fast 64-bit Merkle-Damgard toy hash
  used where millions of oracle calls are needed (Monte-Carlo sweeps);
* :mod:`~repro.hashes.instantiate` -- :class:`HashOracle`, mapping a hash
  over bytes to an ``{0,1}^n_in -> {0,1}^n_out`` oracle via counter-mode
  output expansion.
"""

from repro.hashes.instantiate import HashOracle
from repro.hashes.sha3 import SHA3_256, keccak_f1600, sha3_256
from repro.hashes.sha256 import SHA256, sha256
from repro.hashes.toy_md import ToyMDHash, toy_hash

__all__ = [
    "HashOracle",
    "SHA3_256",
    "SHA256",
    "ToyMDHash",
    "keccak_f1600",
    "sha256",
    "sha3_256",
    "toy_hash",
]
