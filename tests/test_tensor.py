"""Tensor container and He initialization."""

import numpy as np
import pytest

from memlab import Conv2d, Dense, Prng, SgdMomentum, Tensor
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


def test_he_variance():
    # 100000 draws with fan_in=50: variance should sit near 2/50 = 0.04
    w = np.zeros((1000, 100))
    he_init(w, fan_in=50, rng=Prng(123))
    assert abs(w.var() - 0.04) < 0.05 * 0.04
    assert abs(w.mean()) < 0.005


def test_he_determinism():
    a, b = np.zeros((20, 30)), np.ones((20, 30))
    he_init(a, fan_in=20, rng=Prng(7))
    he_init(b, fan_in=20, rng=Prng(7))
    assert np.array_equal(a, b)


def test_he_rejects_bad_args():
    # an array has no negative dimensions, and layers refuse zero widths:
    # fan_in is the one argument left to check
    w = np.zeros((4, 4))
    with pytest.raises(ValueError):
        he_init(w, fan_in=0, rng=Prng(0))
    assert not w.any()


def test_bias_init_is_exact_zero():
    # init_params draws the weights as he_init does from the layer's stream,
    # and zeroes the bias, trained or not, without a draw: the stream stops
    # where the weights' draws left it
    for layer in (Dense(6, 5), Conv2d(2, 3, 3)):
        w, b = layer.params()
        b.data[...] = -1.5
        rng, ref = Prng(9), Prng(9)
        layer.init_params(rng)
        fan_in = w.size // b.size
        draws = ref.fill_gaussian(w.size).reshape(w.shape) * np.sqrt(2.0 / fan_in)
        assert w.data.tobytes() == draws.tobytes()
        assert b.data.tobytes() == np.zeros(b.size).tobytes()
        assert rng.state == ref.state
