"""Tensor container and He initialization."""

import numpy as np
import pytest

from memlab import Prng, SgdMomentum, Tensor
from memlab.nn import he_init


def test_tensor_casts_to_float64():
    t = Tensor(np.array([[1, 2], [3, 4]], dtype=np.int32))
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    assert t.size == 4


def test_tensor_copies_caller_arrays():
    # a C-contiguous float64 input used to be kept as is, so the in-place
    # optimizer step wrote through to the caller's array
    a = np.ones(4)
    t = Tensor(a)
    opt = SgdMomentum([t], lr=0.5, momentum=0.0)
    opt._lend([t])[0][...] = 5.0  # the gradient, folded in at momentum 0
    opt.step()
    assert np.array_equal(t.data, np.full(4, -1.5))
    assert np.array_equal(a, np.ones(4))


def test_bias_init_is_exact_zero():
    t = he_init((16,), fan_in=50, rng=Prng(0))
    assert np.array_equal(t.data, np.zeros(16))


def test_he_variance():
    # 100000 draws with fan_in=50: variance should sit near 2/50 = 0.04
    t = he_init((1000, 100), fan_in=50, rng=Prng(123))
    var = t.data.var()
    assert abs(var - 0.04) < 0.05 * 0.04
    assert abs(t.data.mean()) < 0.005


def test_he_determinism():
    a = he_init((20, 30), fan_in=20, rng=Prng(7))
    b = he_init((20, 30), fan_in=20, rng=Prng(7))
    assert np.array_equal(a.data, b.data)


def test_he_rejects_bad_args():
    with pytest.raises(ValueError):
        he_init((4, 4), fan_in=0, rng=Prng(0))
    with pytest.raises(ValueError):
        he_init((0, 4), fan_in=2, rng=Prng(0))
    with pytest.raises(ValueError):
        he_init((4, -1), fan_in=2, rng=Prng(0))
