"""Finite-difference verification of the analytic gradients."""

import numpy as np
import pytest

from memlab import Prng, build_network, grad_check


def batch_for(net, n, seed):
    shape = (n,) + net.input_shape
    x = Prng(seed).fill_gaussian(int(np.prod(shape))).reshape(shape)
    y = Prng(seed + 1).fill_below(n, net.num_classes)
    return x, y


def test_linear_net_near_exact():
    net = build_network("flatten dense:6", (4,), 3)
    net.initialize(seed=2)
    x, y = batch_for(net, 8, 100)
    assert grad_check(net, x, y) < 1e-7


def test_mlp_with_relu():
    net = build_network("flatten dense:16 relu dense:8 relu", (10,), 4)
    net.initialize(seed=3)
    x, y = batch_for(net, 6, 200)
    assert grad_check(net, x, y) < 1e-4


def test_conv_pool_net():
    net = build_network("conv:4,3,1,1 relu maxpool:2 flatten dense:10 relu",
                        (1, 8, 8), 3)
    net.initialize(seed=4)
    x, y = batch_for(net, 4, 300)
    assert grad_check(net, x, y) < 1e-4


def test_strided_conv():
    net = build_network("conv:3,3,2 relu flatten", (2, 9, 9), 5)
    net.initialize(seed=5)
    x, y = batch_for(net, 3, 400)
    assert grad_check(net, x, y) < 1e-4


def test_leaves_the_net_holding_no_backward_tape():
    net = build_network("conv:4,3,1,1 relu maxpool:2 flatten dense:10 relu",
                        (1, 8, 8), 3)
    net.initialize(seed=4)
    x, y = batch_for(net, 4, 300)
    grad_check(net, x, y, max_entries=6)
    assert net._tape is None


def test_corrupted_backward_is_detected():
    net = build_network("flatten dense:5", (4,), 3)
    net.initialize(seed=6)
    x, y = batch_for(net, 8, 500)

    head_backward = net.head.backward

    def doubled(dy, saved, velocity, mu, input_grad=True):
        out = head_backward(dy, saved, velocity, mu, input_grad)
        velocity[0] *= 2.0
        return out

    net.head.backward = doubled
    # |2g - g| / 2g = 0.5 on dense weights; anything >= 0.3 counts as caught
    assert grad_check(net, x, y) >= 0.3


def test_eps_must_be_positive():
    net = build_network("flatten dense:4", (3,), 2)
    net.initialize(seed=7)
    x, y = batch_for(net, 2, 600)
    with pytest.raises(ValueError):
        grad_check(net, x, y, eps=0.0)
    with pytest.raises(ValueError):
        grad_check(net, x, y, max_entries=0)


def test_subsampling_large_net():
    net = build_network("flatten dense:64 relu dense:64 relu", (16,), 5)
    net.initialize(seed=8)
    x, y = batch_for(net, 4, 700)
    # parameter count far exceeds max_entries; the seeded subsample must pass
    assert grad_check(net, x, y, max_entries=50) < 1e-4
