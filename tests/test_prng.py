"""splitmix64 stream tests: frozen reference vectors and statistical sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_fill_gaussian

from memlab import Prng, derive_seed, splitmix64
from memlab.prng import _GAUSSIAN_BLOCK_BYTES

BLOCK = _GAUSSIAN_BLOCK_BYTES // 8  # draws per fill_gaussian block

# Published splitmix64 test vector: first five outputs of the seed-0 stream.
SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_seed0_reference_vector():
    p = Prng(0)
    assert [p.next_u64() for _ in range(5)] == SEED0_STREAM


def test_splitmix64_is_first_stream_output():
    for seed in (0, 1, 42, 0xDEADBEEF, 2**64 - 1):
        assert splitmix64(seed) == Prng(seed).next_u64()


def test_frozen_values():
    assert splitmix64(42) == 0xBDD732262FEB6E95
    p = Prng(0xDEADBEEF)
    assert p.next_u64() == 0x4ADFB90F68C9EB9B
    assert p.next_u64() == 0xDE586A3141A10922


def test_fill_u64_matches_scalar_stream():
    a, b = Prng(12345), Prng(12345)
    bulk = b.fill_u64(100)
    scalars = [a.next_u64() for _ in range(100)]
    assert bulk.dtype == np.uint64
    assert [int(v) for v in bulk] == scalars
    # interleaving bulk and scalar draws stays on the same stream
    assert a.next_u64() == b.next_u64()


def test_seed_wraps_mod_2_64():
    assert Prng(2**64 + 5).next_u64() == Prng(5).next_u64()


def test_next_float_range_and_value():
    p = Prng(2024)
    values = [p.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values[0] == pytest.approx(0.6227655366461097, abs=0)


def test_fill_float_matches_next_float():
    a, b = Prng(9), Prng(9)
    assert list(b.fill_float(50)) == [a.next_float() for _ in range(50)]


def test_below_bounds_and_determinism():
    p = Prng(2024)
    draws = [p.below(10) for _ in range(12)]
    assert draws == [1, 2, 1, 5, 8, 9, 1, 4, 8, 5, 5, 5]
    with pytest.raises(ValueError):
        Prng(0).below(0)
    with pytest.raises(ValueError):
        Prng(0).fill_below(5, -1)


def test_fill_below_matches_scalar():
    a, b = Prng(777), Prng(777)
    bulk = b.fill_below(200, 7)
    assert bulk.dtype == np.int64
    assert list(bulk) == [a.below(7) for _ in range(200)]


def test_gaussian_moments():
    z = Prng(31337).fill_gaussian(200_000)
    assert z.shape == (200_000,)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert np.all(np.isfinite(z))


def test_gaussian_odd_count():
    # odd n draws a full Box-Muller pair and drops the last value
    even = Prng(8).fill_gaussian(10)
    odd = Prng(8).fill_gaussian(9)
    assert np.array_equal(odd, even[:9])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       n=st.sampled_from([0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
       | st.integers(0, 3 * BLOCK))
def test_fill_gaussian_matches_one_shot_oracle(seed, n):
    got, want = Prng(seed), Prng(seed)
    assert got.fill_gaussian(n).tobytes() == reference_fill_gaussian(want, n).tobytes()
    assert got.state == want.state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), total=st.integers(1, 5000), data=st.data())
def test_gaussian_range_is_a_slice_of_the_full_draw(seed, total, data):
    lo = data.draw(st.integers(0, total - 1))
    hi = data.draw(st.integers(lo + 1, total))
    rng = Prng(seed)
    part = rng.gaussian_range(total, lo, hi)
    assert rng.state == Prng(seed).state
    full = reference_fill_gaussian(Prng(seed), total)
    assert part.tobytes() == full[lo:hi].tobytes()


@pytest.mark.parametrize("lo, hi", [(0, 12), (-2, 4), (6, 4)],
                         ids=["past the end", "before the start", "reversed"])
def test_gaussian_range_outside_the_stream(lo, hi):
    rng = Prng(3)
    with pytest.raises(ValueError, match=r"not within the 10 draws"):
        rng.gaussian_range(10, lo, hi)
    assert rng.state == 3


def test_gaussian_range_may_be_empty():
    assert Prng(3).gaussian_range(10, 10, 10).shape == (0,)
    assert Prng(3).gaussian_range(10, 5, 5).shape == (0,)


def test_permutation_is_permutation():
    for seed in range(20):
        perm = Prng(seed).permutation(50)
        assert sorted(perm) == list(range(50))


def test_permutation_frozen():
    assert list(Prng(5).permutation(8)) == [3, 4, 2, 5, 0, 7, 1, 6]


def test_permutation_varies_with_seed():
    seen = {tuple(Prng(s).permutation(20)) for s in range(50)}
    assert len(seen) == 50


def test_derive_seed_definition():
    for seed, tag in [(7, 0x123), (0, 0), (2**63, 2**64 - 1)]:
        assert derive_seed(seed, tag) == splitmix64((seed ^ tag) % 2**64)
    assert derive_seed(7, 0x123) == 0x16ECD10E03CAED1D


def test_derived_streams_differ():
    base = 99
    children = [derive_seed(base, t) for t in range(100)]
    assert len(set(children)) == 100
