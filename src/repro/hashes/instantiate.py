"""The random-oracle methodology step: ``f^RO -> f^h``.

:class:`HashOracle` wraps a concrete hash function as an
``{0,1}^n_in -> {0,1}^n_out`` oracle.  Swapping a
:class:`~repro.oracle.lazy.LazyRandomOracle` for a :class:`HashOracle`
in any evaluator realizes the methodology exactly as the paper describes
it: the construction is unchanged, only the oracle box is replaced by a
hash computation of cost ``t_h``.

The wrapper also *measures* ``t_h``: it counts compression-function-level
work (bytes hashed) so the ``O(T * t_h)`` RAM cost claim of Theorem 1.1
becomes a measurable quantity in experiment E-HASH.  Like the lazy random
oracle it computes each distinct answer once, so the counters measure
hashes computed, not queries answered.
"""

from __future__ import annotations

from typing import Callable

from repro.oracle.base import MemoOracle

__all__ = ["HashOracle"]


class HashOracle(MemoOracle):
    """An oracle computed by a concrete hash function.

    Parameters
    ----------
    hash_fn:
        ``bytes -> bytes`` one-shot hash (e.g. :func:`repro.hashes.sha256.sha256`
        or a :func:`repro.hashes.toy_md.toy_hash` partial).
    n_in, n_out:
        Oracle dimensions in bits.  Outputs longer than one digest are
        assembled by counter-mode expansion ``h(x || 0), h(x || 1), ...``
        (the standard domain-extension used by practical RO instantiations).
    label:
        Domain-separation tag mixed into every call, so distinct oracles
        can be instantiated from one hash.
    """

    def __init__(
        self,
        hash_fn: Callable[[bytes], bytes],
        n_in: int,
        n_out: int,
        *,
        label: bytes = b"repro",
    ) -> None:
        super().__init__(n_in, n_out)
        self._hash = hash_fn
        self._label = label
        self._in_bytes = (n_in + 7) // 8 or 1
        self._out_bytes = (n_out + 7) // 8
        self._calls = 0
        self._bytes_hashed = 0

    @property
    def hash_calls(self) -> int:
        """Hash invocations so far (measures ``T`` vs ``t_h``).

        Only a first read hashes: a repeated query is answered from the
        memo and adds nothing, so this counts hashes computed, not
        queries answered.
        """
        return self._calls

    @property
    def bytes_hashed(self) -> int:
        """Total bytes fed to the hash (proxy for ``t_h`` work); like
        :attr:`hash_calls`, it grows on first reads only."""
        return self._bytes_hashed

    def _compute(self, key: int) -> int:
        material = self._label + key.to_bytes(self._in_bytes, "big")
        out = bytearray()
        counter = 0
        while len(out) < self._out_bytes:
            chunk_input = material + counter.to_bytes(4, "big")
            digest = self._hash(chunk_input)
            self._calls += 1
            self._bytes_hashed += len(chunk_input)
            if not digest:
                raise ValueError(
                    f"hash of oracle {self._label!r} returned an empty digest; "
                    f"cannot expand it to n_out={self._n_out} bits"
                )
            out += digest
            counter += 1
        value = int.from_bytes(bytes(out[: self._out_bytes]), "big")
        return value >> (8 * self._out_bytes - self._n_out)
