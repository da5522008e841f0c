"""Tests for the lazily sampled uniform table (``LazyTableOracle``).

A lazy table must be the same random function as an eager
``TableOracle.sample`` table: each entry uniform, distinct entries
independent whichever is read first, and every answer fixed from its
first read on, also for a ``PatchedOracle`` sharing it as its base.
"""

import numpy as np
import pytest

from repro.bits import Bits
from repro.oracle import (
    DomainError,
    LazyTableOracle,
    Oracle,
    PatchedOracle,
    TableOracle,
)

# Two distinct entries of a 3-bit -> 2-bit oracle, read over many seeds.
N_IN, N_OUT = 3, 2
A, B = Bits(2, N_IN), Bits(5, N_IN)
SEEDS = range(4000)

#: 0.999 quantiles of chi-square with 3 and 15 degrees of freedom: one
#: entry's 4 answers, and the 16 answer pairs of two entries.
CHI2_3DF = 16.266
CHI2_15DF = 37.697


def _pair_counts(make, a_first: bool) -> np.ndarray:
    """``counts[answer at A, answer at B]`` over :data:`SEEDS`."""
    counts = np.zeros((1 << N_OUT, 1 << N_OUT), dtype=np.int64)
    for seed in SEEDS:
        oracle = make(N_IN, N_OUT, np.random.default_rng(seed))
        if a_first:
            a, b = oracle.query(A), oracle.query(B)
        else:
            b, a = oracle.query(B), oracle.query(A)
        counts[a.value, b.value] += 1
    return counts


def _chi2(counts: np.ndarray) -> float:
    """Pearson's statistic against equal expected counts."""
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2).sum() / expected)


def _marginals_uniform(counts: np.ndarray) -> bool:
    """Each entry's answers, on their own, are uniform."""
    return all(_chi2(counts.sum(axis=axis)) < CHI2_3DF for axis in (0, 1))


def _pairs_uniform(counts: np.ndarray) -> bool:
    """Uniform over all 16 pairs: uniform marginals and independence."""
    return _chi2(counts) < CHI2_15DF


class _SecondReadCopiesFirst(Oracle):
    """Lazy sampling done wrong: the second entry ever read gets the
    first one's answer.  Each entry is still uniform on its own."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        super().__init__(n_in, n_out)
        self._rng = rng
        self._answers: dict[int, int] = {}

    def _evaluate(self, x: Bits) -> Bits:
        if x.value not in self._answers:
            if len(self._answers) == 1:
                (answer,) = self._answers.values()
            else:
                answer = int(self._rng.integers(0, 1 << self.n_out))
            self._answers[x.value] = answer
        return Bits(self._answers[x.value], self.n_out)


class TestDistribution:
    @pytest.mark.parametrize("a_first", [True, False], ids=["A-first", "B-first"])
    @pytest.mark.parametrize(
        "make", [TableOracle.sample, LazyTableOracle], ids=["eager", "lazy"]
    )
    def test_entries_uniform_and_pairwise_independent(self, make, a_first):
        counts = _pair_counts(make, a_first)
        assert _marginals_uniform(counts)
        assert _pairs_uniform(counts)

    @pytest.mark.parametrize("a_first", [True, False], ids=["A-first", "B-first"])
    def test_negative_control_fails_the_independence_check(self, a_first):
        counts = _pair_counts(_SecondReadCopiesFirst, a_first)
        assert _marginals_uniform(counts)
        assert not _pairs_uniform(counts)

    @pytest.mark.parametrize("n_out", [1, 16, 62, 63, 70])
    def test_reads_in_index_order_reproduce_the_sampled_table(self, n_out):
        # numpy draws the same numbers one at a time as in one array,
        # so a lazy table read entry 0 first is the eager table of the
        # same seed; read in any other order it is a permutation of it.
        lazy = LazyTableOracle(6, n_out, np.random.default_rng(8))
        eager = TableOracle.sample(6, n_out, np.random.default_rng(8))
        assert [lazy.query(Bits(i, 6)).value for i in range(64)] == list(
            eager.table
        )


class TestConsistency:
    def test_repeated_reads_return_the_first_answer(self):
        rng = np.random.default_rng(1)
        oracle = LazyTableOracle(16, 16, rng)
        first = oracle.query(Bits(9, 16))
        state = rng.bit_generator.state
        assert oracle.query(Bits(9, 16)) == first
        assert rng.bit_generator.state == state  # no second draw

    def test_batched_reads_match_single_reads(self):
        xs = [Bits(v, 10) for v in (3, 700, 3, 12, 700, 1023)]
        batched = LazyTableOracle(10, 12, np.random.default_rng(2))
        single = LazyTableOracle(10, 12, np.random.default_rng(2))
        answers = batched.query_batch(xs)
        assert answers == [single.query(x) for x in xs]
        assert answers[0] == answers[2] and answers[1] == answers[4]
        assert batched.query_batch(xs) == answers

    def test_patch_shares_first_reads_with_its_base(self):
        rng = np.random.default_rng(3)
        base = LazyTableOracle(8, 8, rng)
        seen, later, hidden = Bits(3, 8), Bits(200, 8), Bits(17, 8)
        override = Bits(0xAB, 8)
        seen_answer = base.query(seen)
        patched = PatchedOracle(base, {hidden: override})
        # The patch sees what the base read before it existed ...
        assert patched.query(seen) == seen_answer
        # ... and the base sees what is first read through the patch,
        later_answer = patched.query(later)
        assert base.query(later) == later_answer
        # except the override itself, which draws nothing into the base.
        state = rng.bit_generator.state
        assert patched.query(hidden) == override
        assert rng.bit_generator.state == state
        base.query(hidden)
        assert rng.bit_generator.state != state

    def test_query_lengths_checked(self):
        oracle = LazyTableOracle(8, 8, np.random.default_rng(4))
        with pytest.raises(DomainError):
            oracle.query(Bits(0, 7))
        with pytest.raises(DomainError):
            oracle.query_batch([Bits(0, 8), Bits(0, 9)])
