"""Tests for the oracle substrate (lazy, table, patched, hash-backed)."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitWriter, Bits
from repro.functions import LineParams, SimLineParams
from repro.hashes import HashOracle, sha256, toy_hash
from repro.oracle import (
    DomainError,
    LazyRandomOracle,
    LazyTableOracle,
    PatchedOracle,
    TableOracle,
)
from repro.protocols import (
    estimate_line_skip_probability,
    estimate_simline_skip_probability,
)


class _UntouchableRng:
    """A generator stand-in that fails the test if anything draws from it."""

    def __getattr__(self, name):
        raise AssertionError(f"generator touched: {name}")


class TestOracleInterface:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LazyRandomOracle(-1, 8)
        with pytest.raises(ValueError):
            LazyRandomOracle(8, 0)

    def test_query_length_checked(self):
        ro = LazyRandomOracle(8, 8)
        with pytest.raises(DomainError):
            ro.query(Bits.zeros(7))


class TestLazyRandomOracle:
    def test_deterministic_within_instance(self):
        ro = LazyRandomOracle(16, 16, seed=3)
        x = Bits(1234, 16)
        assert ro.query(x) == ro.query(x)

    def test_consistent_across_instances_and_order(self):
        a = LazyRandomOracle(16, 16, seed=7)
        b = LazyRandomOracle(16, 16, seed=7)
        xs = [Bits(i * 37 % 65536, 16) for i in range(50)]
        left = [a.query(x) for x in xs]
        right = [b.query(x) for x in reversed(xs)]
        assert left == list(reversed(right))

    def test_seed_selects_different_function(self):
        a = LazyRandomOracle(16, 16, seed=1)
        b = LazyRandomOracle(16, 16, seed=2)
        diffs = sum(a.query(Bits(i, 16)) != b.query(Bits(i, 16)) for i in range(64))
        assert diffs > 32

    def test_output_length_non_byte_aligned(self):
        ro = LazyRandomOracle(10, 13, seed=0)
        out = ro.query(Bits(5, 10))
        assert len(out) == 13

    def test_counter_mode_output_wider_than_a_word(self):
        ro = LazyRandomOracle(16, 300, seed=0)
        out = ro.query(Bits(99, 16))
        assert len(out) == 300
        # 38 bytes: five counter-mode words of the toy hash, cut to 300 bits.
        digest = toy_hash(bytes(16) + (99).to_bytes(2, "little"), digest_size=38)
        assert out.value == int.from_bytes(digest, "big") >> 4

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(-(2**127), 2**127 - 1),
        n_in=st.integers(0, 200),
        n_out=st.integers(1, 130),
        data=st.data(),
    )
    def test_prf_is_the_toy_hash_of_seed_and_key(self, seed, n_in, n_out, data):
        """The seed-absorbed kernel is bit for bit ``toy_hash(seed || key)``,
        on a first read, a cached read and the batch path."""
        key = data.draw(st.integers(0, (1 << n_in) - 1))
        out_bytes = (n_out + 7) // 8
        digest = toy_hash(
            seed.to_bytes(16, "little", signed=True)
            + key.to_bytes((n_in + 7) // 8 or 1, "little"),
            digest_size=out_bytes,
        )
        expected = Bits(int.from_bytes(digest, "big") >> (8 * out_bytes - n_out), n_out)
        ro = LazyRandomOracle(n_in, n_out, seed=seed)
        assert ro.query(Bits(key, n_in)) == expected
        assert ro.query(Bits(key, n_in)) == expected
        fresh = LazyRandomOracle(n_in, n_out, seed=seed)
        assert fresh.query_batch([Bits(key, n_in)]) == [expected]

    def test_cache_size(self):
        ro = LazyRandomOracle(8, 8)
        ro.query(Bits(1, 8))
        ro.query(Bits(1, 8))
        ro.query(Bits(2, 8))
        assert ro.cache_size() == 2

    def test_zero_length_input_domain(self):
        ro = LazyRandomOracle(0, 8)
        assert len(ro.query(Bits(0, 0))) == 8

    def test_clear_cache(self):
        ro = LazyRandomOracle(8, 8, seed=3)
        before = ro.query(Bits(5, 8))
        assert ro.cache_size() == 1
        ro.clear_cache()
        assert ro.cache_size() == 0
        assert ro.query(Bits(5, 8)) == before

    def test_pickle_roundtrip_drops_cache(self):
        """Worker shipping: the PRF state travels, the memo cache does not."""
        import pickle

        ro = LazyRandomOracle(16, 16, seed=11)
        answers = {i: ro.query(Bits(i, 16)) for i in range(32)}
        assert ro.cache_size() == 32
        clone = pickle.loads(pickle.dumps(ro))
        assert clone.cache_size() == 0
        assert all(clone.query(Bits(i, 16)) == out for i, out in answers.items())
        # The original is untouched by the round-trip.
        assert ro.cache_size() == 32

    def test_output_looks_uniform(self):
        """Mean output over many queries should be near the middle."""
        ro = LazyRandomOracle(20, 16, seed=5)
        vals = [ro.query(Bits(i, 20)).value for i in range(2000)]
        mean = sum(vals) / len(vals)
        assert 0.45 * 65535 < mean < 0.55 * 65535


class TestTableOracle:
    def test_sample_shape(self):
        rng = np.random.default_rng(0)
        ro = TableOracle.sample(6, 9, rng)
        assert len(ro.table) == 64
        assert all(0 <= v < 512 for v in ro.table)

    def test_query_reads_table(self):
        ro = TableOracle(2, 4, [5, 9, 0, 15])
        assert ro.query(Bits(1, 2)) == Bits(9, 4)

    def test_table_length_validated(self):
        with pytest.raises(ValueError):
            TableOracle(3, 4, [0] * 7)

    def test_entry_range_validated(self):
        with pytest.raises(ValueError):
            TableOracle(1, 2, [0, 4])

    def test_huge_domain_rejected(self):
        with pytest.raises(ValueError):
            TableOracle(31, 4, [])
        # Rejected before drawing 2^31 values, for uint64 and wide
        # answers alike: the generator is never touched.
        for n_out in (4, 63):
            with pytest.raises(ValueError, match="impractical"):
                TableOracle.sample(31, n_out, _UntouchableRng())

    def test_entries_iteration(self):
        ro = TableOracle(2, 3, [1, 2, 3, 4])
        pairs = list(ro.entries())
        assert pairs[2] == (Bits(2, 2), Bits(3, 3))

    def test_with_overrides(self):
        ro = TableOracle(2, 3, [1, 2, 3, 4])
        patched = PatchedOracle(ro, {Bits(0, 2): Bits(7, 3)})
        assert patched.query(Bits(0, 2)) == Bits(7, 3)
        assert patched.query(Bits(1, 2)) == Bits(2, 3)
        assert ro.query(Bits(0, 2)) == Bits(1, 3)  # original untouched

    def test_serialize_roundtrip(self):
        rng = np.random.default_rng(1)
        ro = TableOracle.sample(5, 7, rng)
        blob = ro.serialize()
        assert len(blob) == 7 * 32
        assert TableOracle.deserialize(blob, 5, 7) == ro

    def test_deserialize_rejects_trailing(self):
        with pytest.raises(ValueError):
            TableOracle.deserialize(Bits.zeros(7 * 32 + 1), 5, 7)

    def test_log2_number_of_oracles(self):
        # n -> n oracle over {0,1}^n: 2^(n 2^n) functions.
        assert TableOracle.log2_number_of_oracles(3, 3) == 3 * 8

    def test_sample_wide_output(self):
        rng = np.random.default_rng(2)
        ro = TableOracle.sample(2, 70, rng)
        assert all(0 <= v < (1 << 70) for v in ro.table)

    def test_sampling_is_roughly_uniform(self):
        rng = np.random.default_rng(3)
        ro = TableOracle.sample(12, 1, rng)
        ones = sum(ro.table)
        assert 0.45 * 4096 < ones < 0.55 * 4096

    def test_equality_and_hash(self):
        a = TableOracle(1, 1, [0, 1])
        b = TableOracle(1, 1, [0, 1])
        c = TableOracle(1, 1, [1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c


def _reference_serialize(ro: TableOracle) -> Bits:
    """The entry-by-entry ``BitWriter`` encoding ``serialize`` must match."""
    w = BitWriter()
    for v in ro.table:
        w.write(v, ro.n_out)
    return w.getvalue()


class TestTableStorage:
    def test_out_of_range_array_entry_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            TableOracle(2, 3, np.array([0, 1, 8, 2], dtype=np.uint64))

    @pytest.mark.parametrize(
        "n_out, bad", [(2, -1), (2, 1 << 64), (70, -1), (70, 1 << 70)]
    )
    def test_out_of_range_list_entry_raises_value_error(self, n_out, bad):
        with pytest.raises(ValueError, match=f"entry {bad} out of range"):
            TableOracle(1, n_out, [0, bad])

    def test_caller_cannot_mutate_after_construction(self):
        values = np.array([1, 2, 3, 4], dtype=np.uint64)
        ro = TableOracle(2, 3, values)
        values[0] = 7
        assert ro.query(Bits(0, 2)) == Bits(1, 3)

    def test_with_overrides_leaves_sampled_original(self):
        ro = TableOracle.sample(8, 8, np.random.default_rng(4))
        before = ro.table
        hidden = Bits(17, 8)
        new = Bits(ro.query(hidden).value ^ 1, 8)
        patched = PatchedOracle(ro, {hidden: new})
        assert patched.query(hidden) == new
        assert ro.table == before

    def test_pickle_roundtrip(self):
        ro = TableOracle.sample(8, 8, np.random.default_rng(5))
        clone = pickle.loads(pickle.dumps(ro))
        assert clone == ro
        assert clone.query(Bits(3, 8)) == ro.query(Bits(3, 8))

    def test_list_built_equals_sampled(self):
        sampled = TableOracle.sample(6, 9, np.random.default_rng(6))
        built = TableOracle(6, 9, list(sampled.table))
        assert built == sampled and hash(built) == hash(sampled)

    def test_batch_matches_single_queries(self):
        ro = TableOracle.sample(6, 9, np.random.default_rng(7))
        xs = [Bits(i * 5 % 64, 6) for i in range(40)]
        assert ro.query_batch(xs) == [ro.query(x) for x in xs]
        assert ro.query_batch([]) == []

    @settings(max_examples=60, deadline=None)
    @given(
        n_in=st.integers(0, 10),
        n_out=st.one_of(st.integers(1, 62), st.sampled_from([63, 70])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_serialize_matches_bitwriter_reference(self, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        values = list(TableOracle.sample(n_in, n_out, rng).table)
        values[0] = (1 << n_out) - 1  # the top bit of an entry is set
        ro = TableOracle(n_in, n_out, values)
        blob = ro.serialize()
        assert blob == _reference_serialize(ro)
        assert TableOracle.deserialize(blob, n_in, n_out) == ro
        with pytest.raises(EOFError):
            TableOracle.deserialize(blob[:-1], n_in, n_out)
        with pytest.raises(ValueError, match="trailing"):
            TableOracle.deserialize(blob + Bits(0, 1), n_in, n_out)


class TestGoldenStream:
    """Pinned draws, so that no change moves a Monte-Carlo outcome in
    EXPERIMENTS.md unnoticed.

    ``TableOracle.sample`` draws exactly the numbers the list-backed
    table drew before array storage.  The E-GUESS counts pin the
    skip-ahead trials' stream: the input first, then each oracle entry
    on its first read.
    """

    def test_sample_draws_the_same_stream(self):
        rng = np.random.default_rng(0)
        ro = TableOracle.sample(16, 16, rng)
        assert rng.integers(0, 1 << 32) == 146433572
        raw = np.asarray(ro.table, dtype="<u8").tobytes()
        assert hashlib.sha256(raw).hexdigest().startswith("98fb1a72e5c2981c")

    @pytest.mark.parametrize("u, successes", [(2, 350), (3, 183), (4, 100)])
    def test_line_guessing_counts(self, u, successes):
        report = estimate_line_skip_probability(
            LineParams(n=4 + 3 * u, u=u, v=4, w=6),
            trials=1500, skip_at=2, strategy="uniform", seed=u,
        )
        assert report.successes == successes

    def test_simline_guessing_count(self):
        report = estimate_simline_skip_probability(
            SimLineParams(n=9, u=3, v=4, w=6),
            trials=1500, skip_at=2, strategy="uniform", seed=42,
        )
        assert report.successes == 165


class TestPatchedOracle:
    def test_override_hit_and_passthrough(self):
        base = TableOracle(2, 3, [1, 2, 3, 4])
        patched = PatchedOracle(base, {Bits(2, 2): Bits(0, 3)})
        assert patched.query(Bits(2, 2)) == Bits(0, 3)
        assert patched.query(Bits(3, 2)) == Bits(4, 3)

    def test_dimension_validation(self):
        base = TableOracle(2, 3, [0, 0, 0, 0])
        with pytest.raises(ValueError):
            PatchedOracle(base, {Bits(0, 1): Bits(0, 3)})
        with pytest.raises(ValueError):
            PatchedOracle(base, {Bits(0, 2): Bits(0, 2)})

    def test_num_patches_and_accessors(self):
        base = TableOracle(1, 1, [0, 1])
        patched = PatchedOracle(base, {Bits(0, 1): Bits(1, 1)})
        assert patched.num_patches() == 1
        assert patched.base is base
        assert patched.overrides == {Bits(0, 1): Bits(1, 1)}

    def test_nested_patching(self):
        base = TableOracle(2, 2, [0, 1, 2, 3])
        once = PatchedOracle(base, {Bits(0, 2): Bits(3, 2)})
        twice = PatchedOracle(once, {Bits(1, 2): Bits(3, 2)})
        assert twice.query(Bits(0, 2)) == Bits(3, 2)
        assert twice.query(Bits(1, 2)) == Bits(3, 2)
        assert twice.query(Bits(2, 2)) == Bits(2, 2)

    @pytest.mark.parametrize(
        "sample", [TableOracle.sample, LazyTableOracle], ids=["eager", "lazy"]
    )
    def test_override_over_sampled_base(self, sample):
        base = sample(8, 8, np.random.default_rng(4))
        before = [base.query(Bits(i, 8)) for i in range(256)]
        hidden = Bits(17, 8)
        new = Bits(before[17].value ^ 1, 8)
        patched = PatchedOracle(base, {hidden: new})
        assert patched.query(hidden) == new
        assert all(
            patched.query(Bits(i, 8)) == before[i] for i in range(256) if i != 17
        )
        assert [base.query(Bits(i, 8)) for i in range(256)] == before

    @pytest.mark.parametrize(
        "sample", [TableOracle.sample, LazyTableOracle], ids=["eager", "lazy"]
    )
    def test_override_dimensions_checked_over_sampled_base(self, sample):
        base = sample(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="query has 3 bits"):
            PatchedOracle(base, {Bits(0, 3): Bits(0, 3)})
        with pytest.raises(ValueError, match="answer has 4 bits"):
            PatchedOracle(base, {Bits(0, 2): Bits(0, 4)})


class TestHashOracle:
    def test_sha256_backed(self):
        ro = HashOracle(sha256, 16, 16)
        assert len(ro.query(Bits(7, 16))) == 16
        assert ro.query(Bits(7, 16)) == ro.query(Bits(7, 16))

    def test_counter_mode_expansion(self):
        ro = HashOracle(sha256, 8, 600)
        out = ro.query(Bits(1, 8))
        assert len(out) == 600
        assert ro.hash_calls >= 3  # 600 bits > 2 digests

    def test_label_separates_domains(self):
        a = HashOracle(sha256, 16, 16, label=b"A")
        b = HashOracle(sha256, 16, 16, label=b"B")
        assert a.query(Bits(5, 16)) != b.query(Bits(5, 16))

    def test_toy_hash_backed(self):
        ro = HashOracle(lambda m: toy_hash(m, digest_size=8), 16, 16)
        assert len(ro.query(Bits(3, 16))) == 16

    def test_work_accounting(self):
        ro = HashOracle(sha256, 16, 16)
        before = ro.bytes_hashed
        ro.query(Bits(3, 16))
        assert ro.bytes_hashed > before
        assert ro.hash_calls == 1

    @given(st.integers(0, 2**16 - 1))
    def test_matches_direct_hash_truncation(self, x):
        ro = HashOracle(sha256, 16, 16, label=b"t")
        material = b"t" + x.to_bytes(2, "big") + (0).to_bytes(4, "big")
        expected = int.from_bytes(sha256(material)[:2], "big")
        assert ro.query(Bits(x, 16)).value == expected

    def test_empty_digest_raises(self):
        calls = []

        def empty_hash(message):
            calls.append(message)
            if len(calls) > 3:
                pytest.fail("HashOracle kept calling a hash that returns b''")
            return b""

        ro = HashOracle(empty_hash, 8, 8, label=b"void")
        with pytest.raises(ValueError, match=r"b'void'.*empty digest.*n_out=8"):
            ro.query(Bits(0, 8))
        assert len(calls) == 1


def _memo_free_answer(x: int, n_in: int, n_out: int, label: bytes) -> int:
    """The counter-mode answer, hashed afresh."""
    material = label + x.to_bytes((n_in + 7) // 8 or 1, "big")
    out_bytes = (n_out + 7) // 8
    digest = b""
    counter = 0
    while len(digest) < out_bytes:
        digest += sha256(material + counter.to_bytes(4, "big"))
        counter += 1
    return int.from_bytes(digest[:out_bytes], "big") >> (8 * out_bytes - n_out)


class TestHashOracleMemo:
    """Each distinct query is hashed once; the counters count hashes."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_in=st.integers(1, 40),
        n_out=st.integers(1, 600),
        data=st.data(),
    )
    def test_repeats_cost_nothing(self, n_in, n_out, data):
        keys = data.draw(
            st.lists(st.integers(0, (1 << n_in) - 1), min_size=1, max_size=12)
        )
        queries = keys + data.draw(st.permutations(keys))
        ro = HashOracle(sha256, n_in, n_out, label=b"m")
        per_query = -(-((n_out + 7) // 8) // 32)  # digests per answer
        material = 1 + ((n_in + 7) // 8 or 1) + 4  # label, key, counter
        seen: set[int] = set()
        for x in queries:
            calls, hashed = ro.hash_calls, ro.bytes_hashed
            answer = ro.query(Bits(x, n_in))
            assert answer == Bits(_memo_free_answer(x, n_in, n_out, b"m"), n_out)
            if x in seen:
                assert (ro.hash_calls, ro.bytes_hashed) == (calls, hashed)
            else:
                assert ro.hash_calls == calls + per_query
                assert ro.bytes_hashed == hashed + per_query * material
            seen.add(x)
        assert ro.cache_size() == len(seen)

    def test_pickle_drops_the_memo_and_keeps_the_function(self):
        ro = HashOracle(sha256, 16, 16, label=b"p")
        answers = [ro.query(Bits(x, 16)) for x in range(8)]
        clone = pickle.loads(pickle.dumps(ro))
        assert clone.cache_size() == 0
        assert clone.hash_calls == ro.hash_calls == 8
        assert [clone.query(Bits(x, 16)) for x in range(8)] == answers
        assert clone.hash_calls == 16
        ro.clear_cache()
        assert ro.cache_size() == 0
        assert ro.query(Bits(3, 16)) == answers[3]
