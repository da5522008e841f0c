"""Deterministic, collision-free trial-seed derivation.

Every experiment in this reproduction is a Monte-Carlo loop over
independent trials, each of which needs its own ``(oracle, input)``
sample -- i.e. its own RNG seed.  The seed derivations the experiments
grew organically (``ppm * 10 + t``, ``base_seed * 1000 + t``,
``1_000_000 + t``) are ad hoc arithmetic with two problems:

* **collisions** -- ``ppm * 10 + t`` maps ``(ppm=2, t=20)`` and
  ``(ppm=4, t=0)`` to the same seed the moment ``t`` reaches 10, so two
  nominally independent trials silently share their entire probability
  sample;
* **coupling** -- nearby ``(knob, t)`` pairs produce nearby integer
  seeds, which a keyed-PRF oracle tolerates but which makes any future
  seed-derived stream correlated by construction.

:func:`trial_seed` replaces all of them with one keyed derivation: the
seed for trial ``t`` of a sweep is ``blake2b(experiment_id | knob | t)``
truncated to 63 bits.  Distinct ``(experiment_id, knob, t)`` triples
give independent-looking, collision-free (up to 2^-63) seeds, the
derivation is stable across Python versions and platforms (pure
``hashlib``), and a worker process can compute the seed of *its* trial
without any shared state -- the property :mod:`repro.parallel.pool`
leans on for deterministic fan-out.

**Seed migration note.** Switching an experiment from its legacy
arithmetic to :func:`trial_seed` changes which oracles/inputs its
trials sample, so measured tables and the pinned deterministic counters
(E-LINE's in ``tests/experiments/test_line_counters.py``) shift *once*
at the migration commit (regenerated knowingly there -- see
docs/PERFORMANCE.md).  The legacy
formulas are kept in :data:`LEGACY_SEED_FORMULAS` so the old streams
remain reproducible and the collision they suffered stays pinned by a
regression test; they must not gain new callers.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

__all__ = [
    "trial_seed",
    "seed_sequence",
    "iter_seed_collisions",
    "LEGACY_SEED_FORMULAS",
]

_SEP = b"\x1f"  # unit separator: cannot appear in the int repr of t


def trial_seed(experiment_id: str, knob: object = "", t: int = 0) -> int:
    """The RNG seed for trial ``t`` of one ``(experiment, knob)`` sweep.

    ``experiment_id`` names the consuming sweep (usually the experiment
    id, e.g. ``"E-DECAY"``); ``knob`` distinguishes sweep points within
    it (a ``w`` value, a ``pieces_per_machine``, a strategy label --
    anything with a stable ``str()``); ``t`` is the trial index.

    Returns a non-negative 63-bit integer, accepted verbatim by
    ``numpy.random.default_rng`` and
    :class:`~repro.oracle.lazy.LazyRandomOracle`.
    """
    if t < 0:
        raise ValueError(f"trial index must be >= 0, got {t}")
    material = (
        str(experiment_id).encode()
        + _SEP
        + str(knob).encode()
        + _SEP
        + str(int(t)).encode()
    )
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def seed_sequence(
    experiment_id: str, knob: object = "", trials: int = 0
) -> list[int]:
    """Seeds for trials ``0 .. trials-1`` of one sweep point.

    The list the experiments hand to
    :func:`repro.parallel.map_trials`; element ``t`` is exactly
    ``trial_seed(experiment_id, knob, t)``.
    """
    return [trial_seed(experiment_id, knob, t) for t in range(trials)]


def _legacy_best_possible(ppm: int, t: int) -> int:
    return ppm * 10 + t


def _legacy_chain_rounds(base_seed: int, t: int) -> int:
    return base_seed * 1000 + t


def _legacy_decay(t: int) -> int:
    return 1_000_000 + t


#: The retired derivations, kept only so the old streams stay
#: reproducible in tests (notably the ``ppm * 10 + t`` collision
#: regression).  Do not add callers.
LEGACY_SEED_FORMULAS: dict[str, Callable[..., int]] = {
    "E-BEST.crossover": _legacy_best_possible,
    "E-LINE.chain": _legacy_chain_rounds,
    "E-DECAY.advance": _legacy_decay,
}


def iter_seed_collisions(seeds: list[int]) -> Iterator[tuple[int, int]]:
    """Yield ``(i, j)`` index pairs (``i < j``) with equal seeds."""
    seen: dict[int, int] = {}
    for j, seed in enumerate(seeds):
        i = seen.setdefault(seed, j)
        if i != j:
            yield (i, j)
