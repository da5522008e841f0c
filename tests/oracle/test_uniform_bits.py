"""``uniform_bits`` is ``rng.integers`` on a power-of-two range.

The helper reads the bit generator directly, so it must return what
``int(rng.integers(0, 1 << k, dtype=np.uint64))`` returns and leave the
generator where that call leaves it: every numpy draw after it, of any
width and either dtype, must stay in step with a generator that only
ever went through ``Generator.integers``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle import uniform_bits

#: One step of the interleaving: a width ``k`` and how the generator
#: under test draws it -- through the helper, or through
#: ``rng.integers`` with the ``uint64`` or the default dtype.  The
#: reference generator always draws through ``rng.integers``.
STEPS = st.lists(
    st.tuples(
        st.integers(0, 64),
        st.sampled_from(["helper", "uint64", "default"]),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), steps=STEPS)
def test_equals_integers_interleaved(seed, steps):
    ours = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for k, how in steps:
        if how == "helper":
            got = uniform_bits(ours, k)
            want = int(ref.integers(0, 1 << k, dtype=np.uint64))
            assert type(got) is int
            assert got == want, k
        elif how == "uint64":
            assert int(ours.integers(0, 1 << k, dtype=np.uint64)) == int(
                ref.integers(0, 1 << k, dtype=np.uint64)
            )
        else:
            k = min(k, 63)  # the default int64 dtype's range ends at 2^63
            assert int(ours.integers(0, 1 << k)) == int(ref.integers(0, 1 << k))
            assert uniform_bits(ours, k) == int(ref.integers(0, 1 << k))
    # Same state afterwards, PCG64's buffered half-word included.
    assert ours.bit_generator.state == ref.bit_generator.state


def test_zero_bits_draw_nothing():
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert uniform_bits(rng, 0) == 0
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("k", [-1, 65, 128])
def test_out_of_range_widths_raise(k):
    with pytest.raises(ValueError):
        uniform_bits(np.random.default_rng(0), k)


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)),
    widths=st.lists(st.integers(0, 64), min_size=1, max_size=40),
)
def test_two_generators_alternating_draw_by_draw(seeds, widths):
    """Each draw comes from its own generator's state, although every
    draw follows one from the other generator."""
    ours = [np.random.default_rng(seed) for seed in seeds]
    refs = [np.random.default_rng(seed) for seed in seeds]
    for step, k in enumerate(widths):
        which = step % 2
        want = int(refs[which].integers(0, 1 << k, dtype=np.uint64))
        assert uniform_bits(ours[which], k) == want, (step, k)
    for rng, ref in zip(ours, refs):
        assert rng.bit_generator.state == ref.bit_generator.state
