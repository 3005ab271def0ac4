"""Layer forward/backward against naive loop oracles."""

import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import memlab
from memlab import Conv2d, Dense, Flatten, MaxPool2d, Prng, ReLU, ShapeError, Tensor
from memlab.nn.blas import _fuses, _matmul
from oracles import ReferenceConv2d, ReferenceMaxPool2d


def rand(shape, seed):
    return Prng(seed).fill_gaussian(int(np.prod(shape))).reshape(shape)


def grads_of(layer):
    """Zero velocities for ``layer``: a backward at momentum 0 writes each
    parameter's gradient into them exactly."""
    return [np.zeros(p.shape) for p in layer.params()]


# ---------------------------------------------------------------- Dense

def test_dense_identity_map():
    layer = Dense(2, 2)
    layer.w.data[:] = np.eye(2)
    out, _ = layer.forward(np.array([[3.0, 5.0]]))
    assert np.array_equal(out, [[3.0, 5.0]])


def test_dense_zero_weights_zero_logits():
    layer = Dense(4, 3)
    out, _ = layer.forward(rand((5, 4), 1))
    assert np.array_equal(out, np.zeros((5, 3)))


def test_dense_forward_matches_matmul():
    layer = Dense(6, 4)
    layer.init_params(Prng(3))
    x = rand((7, 6), 4)
    assert np.allclose(layer.forward(x)[0], x @ layer.w.data + layer.b.data,
                       rtol=0, atol=0)


def test_dense_backward_formulas():
    layer = Dense(3, 2)
    layer.init_params(Prng(5))
    x = rand((4, 3), 6)
    dy = rand((4, 2), 7)
    dw, db = grads = grads_of(layer)
    dx = layer.backward(dy, layer.forward(x)[1], grads, 0.0)
    assert np.array_equal(dw, x.T @ dy)
    assert np.array_equal(db, dy.sum(axis=0))
    assert np.allclose(dx, dy @ layer.w.data.T)


def test_dense_output_shape_validation():
    layer = Dense(3, 2)
    assert layer.output_shape((3,)) == (2,)
    with pytest.raises(ShapeError):
        layer.output_shape((4,))
    with pytest.raises(ShapeError):
        layer.output_shape((3, 1))


@pytest.mark.parametrize("make,x_shape,y_shape", [
    (lambda: Dense(5, 3), (4, 5), (4, 3)),
    (lambda: Conv2d(2, 3, kernel=2, stride=1, padding=1), (2, 2, 4, 4), (2, 3, 5, 5)),
], ids=["dense", "conv"])
def test_backward_overwrites_persistent_grad_buffers(make, x_shape, y_shape):
    layer, fresh = make(), make()
    layer.init_params(Prng(31))
    fresh.init_params(Prng(31))
    x, dy = rand(x_shape, 34), rand(y_shape, 35)
    want = grads_of(fresh)
    fresh.backward(dy, fresh.forward(x)[1], want, 0.0)
    for mu in (0.0, 0.9):
        buffers = grads_of(layer)
        first = layer.forward(rand(x_shape, 32))[1]
        layer.backward(rand(y_shape, 33), first, buffers, 0.0)
        kept = [v * mu for v in buffers]
        layer.backward(dy, layer.forward(x)[1], buffers, mu)
        # the same arrays, rewritten to g + mu * v: at momentum 0 the second
        # pass does not accumulate onto the first pass's values
        for got, v, g in zip(buffers, kept, want):
            v += g
            assert got.tobytes() == v.tobytes()


# ---------------------------------------------------------------- ReLU / Flatten

def test_relu_forward_backward():
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    y, mask = layer.forward(x)
    assert np.array_equal(y, [[0.0, 0.0, 2.0]])
    dx = layer.backward(np.array([[5.0, 5.0, 5.0]]), mask, [], 0.0)
    # gradient passes only where x was strictly positive
    assert np.array_equal(dx, [[0.0, 0.0, 5.0]])


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf])
_FINITE_OR_SPECIAL = _SPECIAL | st.floats(allow_nan=False, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=40))
def test_relu_is_bit_identical_to_where_reference(data, shape):
    x = data.draw(hnp.arrays(np.float64, shape, elements=_FINITE_OR_SPECIAL))
    dy = data.draw(hnp.arrays(np.float64, shape, elements=_FINITE_OR_SPECIAL))
    layer = ReLU()
    y, mask = layer.forward(x)
    assert y.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert layer.backward(dy, mask, [], 0.0).tobytes() == np.where(x > 0, dy, 0.0).tobytes()


def test_relu_keeps_nan():
    out, _ = ReLU().forward(np.array([[np.nan, -1.0]]))
    assert np.isnan(out[0, 0]) and out[0, 1] == 0.0


def test_flatten_round_trip():
    layer = Flatten()
    x = rand((2, 3, 4, 4), 8)
    y, saved = layer.forward(x)
    assert y.shape == (2, 48)
    dx = layer.backward(y, saved, [], 0.0)
    assert np.array_equal(dx, x)
    assert layer.output_shape((3, 4, 4)) == (48,)


# ---------------------------------------------------------------- Conv2d

def conv_naive(x, w, b, stride, padding):
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for img in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = x[img, :, i * stride:i * stride + k,
                              j * stride:j * stride + k]
                    out[img, co, i, j] = (patch * w[co]).sum() + b[co]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_conv_forward_against_naive(stride, padding):
    layer = Conv2d(3, 5, kernel=3, stride=stride, padding=padding)
    layer.init_params(Prng(11))
    x = rand((2, 3, 9, 9), 12)
    want = conv_naive(x, layer.w.data, layer.b.data, stride, padding)
    got, _ = layer.forward(x)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


def test_conv_output_shape():
    layer = Conv2d(1, 4, kernel=5, stride=2, padding=1)
    # (28 + 2 - 5) // 2 + 1 = 13
    assert layer.output_shape((1, 28, 28)) == (4, 13, 13)
    with pytest.raises(ShapeError, match=re.escape(
            "Conv2d(1->4, k=5, s=2, p=1) expects (channels, H, W) input, got (28, 28)")):
        layer.output_shape((28, 28))
    with pytest.raises(ShapeError, match=re.escape(
            "Conv2d(1->4, k=5, s=2, p=1) expects (channels=1, H, W) input, got (2, 28, 28)")):
        layer.output_shape((2, 28, 28))
    with pytest.raises(ShapeError, match=re.escape(
            "Conv2d(1->1, k=9, s=1, p=0): input (1, 4, 4) smaller than window")):
        Conv2d(1, 1, kernel=9).output_shape((1, 4, 4))


def test_conv_backward_input_gradient():
    # check dx by perturbing each input entry of a tiny conv
    layer = Conv2d(1, 2, kernel=2, stride=1, padding=1)
    layer.init_params(Prng(21))
    x = rand((1, 1, 3, 3), 22)
    dy = rand((1, 2, 4, 4), 23)
    dx = layer.backward(dy, layer.forward(x)[1], grads_of(layer), 0.0)
    eps = 1e-6
    for pos in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[pos] += eps
        xm[pos] -= eps
        num = ((layer.forward(xp)[0] * dy).sum()
               - (layer.forward(xm)[0] * dy).sum()) / (2 * eps)
        assert abs(dx[pos] - num) < 1e-6


def test_conv_rejects_bad_params():
    with pytest.raises(ValueError):
        Conv2d(1, 1, kernel=0)
    with pytest.raises(ValueError):
        Conv2d(1, 1, kernel=3, stride=-1)
    with pytest.raises(ValueError):
        Conv2d(1, 1, kernel=3, padding=-1)


# ---------------------------------------------------------------- MaxPool2d

def pool_naive(x, k, s):
    n, c, h, w = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    out = np.zeros((n, c, oh, ow))
    for i in range(oh):
        for j in range(ow):
            out[:, :, i, j] = x[:, :, i * s:i * s + k, j * s:j * s + k].max(axis=(2, 3))
    return out


@pytest.mark.parametrize("k,s", [(2, 2), (2, 1), (3, 2)])
def test_maxpool_forward_against_naive(k, s):
    layer = MaxPool2d(k, s)
    x = rand((2, 3, 7, 7), 31)
    assert np.allclose(layer.forward(x)[0], pool_naive(x, k, s), atol=0)


def test_maxpool_default_stride_equals_kernel():
    layer = MaxPool2d(3)
    assert layer.stride == 3
    assert layer.output_shape((2, 9, 9)) == (2, 3, 3)


def test_maxpool_backward_routes_to_argmax():
    layer = MaxPool2d(2, 2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    dx = layer.backward(np.array([[[[10.0]]]]), layer.forward(x)[1], [], 0.0)
    assert np.array_equal(dx, [[[[0.0, 0.0], [0.0, 10.0]]]])


def test_maxpool_tie_goes_to_first():
    layer = MaxPool2d(2, 2)
    x = np.ones((1, 1, 2, 2))
    dx = layer.backward(np.array([[[[7.0]]]]), layer.forward(x)[1], [], 0.0)
    # all four tie; the first window position wins
    assert np.array_equal(dx, [[[[7.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_overlapping_windows_accumulate():
    layer = MaxPool2d(2, 1)
    x = np.array([[[[0.0, 0.0, 0.0],
                    [0.0, 9.0, 0.0],
                    [0.0, 0.0, 0.0]]]])
    dx = layer.backward(np.ones((1, 1, 2, 2)), layer.forward(x)[1], [], 0.0)
    # the center pixel is the max of all four windows
    assert dx[0, 0, 1, 1] == 4.0


def test_maxpool_shape_errors():
    with pytest.raises(ShapeError, match=re.escape(
            "MaxPool2d(k=2, s=2) expects (channels, H, W) input, got (4, 4)")):
        MaxPool2d(2).output_shape((4, 4))
    with pytest.raises(ShapeError, match=re.escape(
            "MaxPool2d(k=5, s=5): input (1, 4, 4) smaller than window")):
        MaxPool2d(5).output_shape((1, 4, 4))


# ---------------------------------------------------------------- conv path vs oracles

# a few values make ties likely; the rest cover every float, NaN included
_POOL_VALUES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan])
                | st.floats())


def _twin(layer, ref):
    """ref carrying copies of layer's parameters."""
    layer.init_params(Prng(41))
    ref.w, ref.b = Tensor(layer.w.data), Tensor(layer.b.data)
    return layer, ref


def _check_pool(x, k, s, dy_of):
    layer, ref = MaxPool2d(k, s), ReferenceMaxPool2d(k, s)
    with np.errstate(invalid="ignore"):
        (y, saved), (y_ref, saved_ref) = layer.forward(x), ref.forward(x)
        assert y.tobytes() == y_ref.tobytes()
        dy = dy_of(y.shape)
        assert (layer.backward(dy, saved, [], 0.0).tobytes()
                == ref.backward(dy, saved_ref, [], 0.0).tobytes())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), s=st.integers(1, 4))
def test_maxpool_is_bit_identical_to_argmax_reference(data, k, s):
    n, c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    h, w = data.draw(st.integers(k, k + 7)), data.draw(st.integers(k, k + 7))
    x = data.draw(hnp.arrays(np.float64, (n, c, h, w), elements=_POOL_VALUES))
    _check_pool(x, k, s, lambda shape: data.draw(
        hnp.arrays(np.float64, shape, elements=_POOL_VALUES)))


@pytest.mark.parametrize("k,s", [(2, 2), (3, 1), (3, 2), (2, 1), (3, 3), (2, 3), (1, 1)])
def test_maxpool_matches_reference_on_dense_specials(k, s):
    # every cell of an overlapping window sees many ties, infinities of
    # both signs and NaNs of both signs at once
    rng = np.random.default_rng(k * 10 + s)
    pool = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan, 0.5])
    for _ in range(20):
        _check_pool(rng.choice(pool, (2, 3, 11, 10)), k, s,
                    lambda shape: rng.choice(pool, shape))


def _check_conv_backward(layer, ref, dy, saved, saved_ref):
    grads, want = grads_of(layer), grads_of(ref)
    dx = layer.backward(dy, saved, grads, 0.0)
    assert dx.tobytes() == ref.backward(dy, saved_ref, want, 0.0).tobytes()
    for got, ref_grad in zip(grads, want):
        assert got.tobytes() == ref_grad.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), s=st.integers(1, 3), p=st.integers(0, 2))
def test_conv_is_bit_identical_to_im2col_reference(data, k, s, p):
    cin, cout = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    side = st.integers(max(1, k - 2 * p), 9)
    shape = (data.draw(st.integers(1, 3)), cin, data.draw(side), data.draw(side))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    layer, ref = _twin(Conv2d(cin, cout, k, s, p), ReferenceConv2d(cin, cout, k, s, p))
    (y, saved), (y_ref, saved_ref) = layer.forward(x), ref.forward(x)
    assert y.tobytes() == y_ref.tobytes()
    dy = data.draw(hnp.arrays(np.float64, y.shape, elements=st.floats(-1e6, 1e6)))
    _check_conv_backward(layer, ref, dy, saved, saved_ref)


@pytest.mark.parametrize("cout", [1, 2, 3])
def test_conv_matches_reference_where_dw_sums_k_panels(cout):
    # a draw that once failed the property above: dW's inner dimension is
    # 3 * 13 * 13 = 507 output positions, which _matmul sums in two panels
    x = np.full((3, 1, 9, 9), 0.1)
    layer, ref = _twin(Conv2d(1, cout, 1, 1, 2), ReferenceConv2d(1, cout, 1, 1, 2))
    (y, saved), (y_ref, saved_ref) = layer.forward(x), ref.forward(x)
    assert y.tobytes() == y_ref.tobytes()
    dy = np.full(y.shape, 0.1)
    _check_conv_backward(layer, ref, dy, saved, saved_ref)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), s=st.integers(1, 2), p=st.integers(0, 1))
def test_conv_without_input_grad_keeps_param_grads(data, k, s, p):
    side = st.integers(max(1, k - 2 * p), 8)
    shape = (data.draw(st.integers(1, 3)), 2, data.draw(side), data.draw(side))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    full, lean = _twin(Conv2d(2, 3, k, s, p), Conv2d(2, 3, k, s, p))
    y, saved = full.forward(x)
    dy = data.draw(hnp.arrays(np.float64, y.shape, elements=st.floats(-1e3, 1e3)))
    _check_lean_backward(full, lean, dy, saved, lean.forward(x)[1])


def _channels_last(x):
    """x's values stored channels-last behind the same (N, C, H, W) shape."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _is_channels_last(x):
    return x.transpose(0, 2, 3, 1).flags.c_contiguous


@st.composite
def _layout_layers(draw):
    """A conv-stack layer maker, an input shape and an element strategy."""
    kind = draw(st.sampled_from(["conv", "relu", "maxpool", "maxpool:3,2", "flatten"]))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if kind == "conv":
        k, s, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
        make = functools.partial(Conv2d, c, draw(st.integers(1, 9)), k, s, p)
        lo, values = max(1, k - 2 * p), st.floats(-1e6, 1e6)
    elif kind.startswith("maxpool"):
        k, s = (3, 2) if kind == "maxpool:3,2" else (draw(st.integers(1, 3)),) * 2
        make, lo, values = functools.partial(MaxPool2d, k, s), k, _POOL_VALUES
    else:
        make, lo, values = (ReLU if kind == "relu" else Flatten), 1, _POOL_VALUES
    side = st.integers(lo, lo + 6)
    return make, (n, c, draw(side), draw(side)), values


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=_layout_layers())
def test_layers_give_the_same_bits_for_channels_last_input(data, case):
    make, shape, values = case
    layer, twin = make(), make()
    for a in (layer, twin):
        a.init_params(Prng(41))
    x = data.draw(hnp.arrays(np.float64, shape, elements=values))
    with np.errstate(invalid="ignore"):
        (y, saved), (y_last, saved_last) = layer.forward(x), twin.forward(_channels_last(x))
        assert y_last.tobytes() == y.tobytes()
        dy = data.draw(hnp.arrays(np.float64, y.shape, elements=values))
        # dy as the layer above hands it back: in the order of the output
        dy_last = _channels_last(dy) if dy.ndim == 4 else dy
        grads, grads_last = grads_of(layer), grads_of(twin)
        dx = layer.backward(dy, saved, grads, 0.0)
        dx_last = twin.backward(dy_last, saved_last, grads_last, 0.0)
    assert dx_last.tobytes() == dx.tobytes()
    for g, g_last in zip(grads, grads_last):
        assert g_last.tobytes() == g.tobytes()
    # memory order: Conv2d writes channels-last, ReLU and MaxPool2d keep
    # their input's, and Flatten puts dy back in its input's
    for arrays, last in (((y, dx), isinstance(layer, Conv2d)), ((y_last, dx_last), True)):
        for a in arrays:
            if a.ndim == 4:
                assert _is_channels_last(a) if last else a.flags.c_contiguous


@pytest.mark.parametrize("make,x_shape", [
    (lambda: Dense(5, 3), (4, 5)),
    (lambda: ReLU(), (4, 5)),
    (lambda: Flatten(), (2, 3, 4)),
    (lambda: MaxPool2d(2, 1), (2, 3, 5, 5)),
], ids=["dense", "relu", "flatten", "maxpool"])
def test_backward_without_input_grad(make, x_shape):
    full, lean = make(), make()
    for layer in (full, lean):
        layer.init_params(Prng(51))
    y, saved = full.forward(rand(x_shape, 52))
    _check_lean_backward(full, lean, rand(y.shape, 53), saved,
                         lean.forward(rand(x_shape, 52))[1])


def _check_lean_backward(full, lean, dy, saved, saved_lean):
    """``lean`` spared its input gradient, with the parameter gradients of
    ``full`` given one."""
    grads, lean_grads = grads_of(full), grads_of(lean)
    assert full.backward(dy, saved, grads, 0.0) is not None
    assert lean.backward(dy, saved_lean, lean_grads, 0.0, input_grad=False) is None
    for a, b in zip(grads, lean_grads):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- products

@pytest.mark.parametrize("k, cuts", [
    (784, [0, 384, 584, 784]),  # the first Dense of a 28x28 MLP
    (500, [0, 250, 500]),
    (777, [0, 384, 581, 777]),  # an odd remainder: the first half is longer
    (1201, [0, 384, 768, 985, 1201]),
])
def test_matmul_sums_the_threaded_panels_in_order(k, cuts):
    a, b = rand((9, k), 60), rand((k, 7), 61)
    want = a[:, :cuts[1]] @ b[:cuts[1]]
    for lo, hi in zip(cuts[1:], cuts[2:]):
        want += a[:, lo:hi] @ b[lo:hi]
    assert _matmul(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [8, 384, 416, 768, 1024])
def test_matmul_is_one_product_where_threads_agree(k):
    # K <= 384 or a multiple of 32: the plain product
    a, b = rand((5, k), 62), rand((k, 3), 63)
    assert _matmul(a, b).tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("a_shape, b_shape", [
    # once (2, 2), from the first 3 rows of b: so Dense.backward given a
    # 6-row dy on a 4-row x took dW from 4 rows and db from 6
    ((2, 3), (7, 2)),
    ((2, 3), (2, 2)),
    ((4, 800), (801, 3)),  # summed in K panels
], ids=["b-longer", "b-shorter", "panels"])
def test_matmul_refuses_inner_dimensions_that_differ(a_shape, b_shape):
    with pytest.raises(ValueError, match=re.escape(f"{a_shape} @ {b_shape}")):
        _matmul(np.ones(a_shape), np.ones(b_shape))


# products over the K sweep, Dense's transposed operand, then a small
# reshuffle whose first Dense is 784 wide; prints one sha256
_THREAD_SWEEP = """
import hashlib
import numpy as np
from memlab import TrainConfig, reshuffle_experiment, synth_images
from memlab.nn.blas import _fuses, _matmul

h = hashlib.sha256()
rng = np.random.default_rng(7)
pool_a, pool_b = rng.standard_normal((256, 1024)), rng.standard_normal((1024, 512))
for k in range(8, 1025, 8):
    for m in (1, 8, 32, 44, 256):
        for n in (10, 256, 512):
            a = np.ascontiguousarray(pool_a[:m, :k])
            b = np.ascontiguousarray(pool_b[:k, :n])
            h.update(_matmul(a, b).tobytes())
    x = np.ascontiguousarray(pool_b[:k, :32])
    h.update(_matmul(x.T, x[:, :10]).tobytes())
d = synth_images(96, 4, seed=3)
cfg = TrainConfig(epochs=2, initial_lr=0.05, batch_size=40, seed=5)
ckpt, log = reshuffle_experiment(d, "flatten dense:24 relu", cfg, rounds=2,
                                 epochs_per_round=2, base_seed=11)
for t in ckpt.tensors:
    h.update(t.tobytes())
h.update(log.data_order_fingerprint.encode())
print(h.hexdigest())
"""


def _fresh_interpreter(script: str, **env) -> str:
    """What ``script`` prints in a fresh interpreter importing this memlab."""
    src = str(Path(memlab.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout.strip()


def _at_one_two_and_three_blas_threads(script: str) -> dict[str, str]:
    """What ``script`` prints in a fresh interpreter at each thread count."""
    # OpenBLAS reads its thread count at import, hence fresh interpreters;
    # it runs at most one thread per usable core, so on a 2-core machine
    # three threads run as two
    return {threads: _fresh_interpreter(script, OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2", "3")}


def test_products_agree_at_one_two_and_three_blas_threads():
    digests = _at_one_two_and_three_blas_threads(_THREAD_SWEEP)
    assert len(set(digests.values())) == 1, digests


# the momentum folded into the weight-gradient product, against _matmul then
# v *= mu; v += g, on shapes either side of _fuses' rule: (k, m, n) is rows,
# inputs and outputs.  Column 5 of x is a dead ReLU unit, so its gradient
# row sums zeros whose sign follows dy, onto a velocity row of -0.0.  Prints
# a line per case (shape, mu, folds, same bits), then a digest of a short
# reshuffle whose first Dense folds.  Both paths give the 33x384->385
# product other bits at one thread than at two (its odd N is split between
# the threads), so only the reshuffle is compared across thread counts.
_FOLD_SWEEP = """
import hashlib
import numpy as np
from memlab import TrainConfig, reshuffle_experiment, synth_images
from memlab.nn.blas import _fuses, _matmul, _matmul_into

rng = np.random.default_rng(8)
for k, m, n in ((32, 784, 512), (33, 384, 385), (32, 512, 10), (400, 784, 512)):
    x, dy = rng.standard_normal((k, m)), rng.standard_normal((k, n))
    x[:, 5] = 0.0
    dy[:, 3] = -np.abs(dy[:, 3])
    v0 = rng.standard_normal((m, n))
    v0[5] = -0.0
    for mu in (0.9, 0.5, 0.0):
        want = v0 * mu
        want += _matmul(x.T, dy)
        got = v0.copy()
        _matmul_into(x, dy, got, mu)
        print(k, m, n, mu, _fuses(m, n, k), got.tobytes() == want.tobytes())
h = hashlib.sha256()
d = synth_images(64, 4, seed=3)
cfg = TrainConfig(epochs=2, initial_lr=0.05, batch_size=32, seed=5)
ckpt, log = reshuffle_experiment(d, "flatten dense:64 relu", cfg, rounds=2,
                                 epochs_per_round=2, base_seed=11)
for t in ckpt.tensors:
    h.update(t.tobytes())
print(h.hexdigest())
"""


def test_only_nn_blas_reaches_into_openblas():
    # the modules that import ctypes, and those with a string constant that
    # names an OpenBLAS or CBLAS entry point: nn/blas.py alone
    root = Path(memlab.__file__).parent
    symbol = re.compile(r"\w*(openblas|cblas)\w*", re.IGNORECASE)
    imports, symbols = set(), set()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(m.partition(".")[0] == "ctypes" for m in modules):
                imports.add(name)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and symbol.fullmatch(node.value)):
                symbols.add(name)
    assert imports == {"nn/blas.py"}
    assert symbols == {"nn/blas.py"}


def test_the_blas_lookup_waits_for_the_first_folded_product():
    # importing memlab, building a net and checking its gradients read no
    # /proc/self/maps and load no library; the first training step does
    looked_up = "print(blas._openblas.cache_info().currsize)"
    out = _fresh_interpreter(f"""
import numpy as np
import memlab
from memlab.nn import blas
{looked_up}
net = memlab.build_network("flatten dense:512", (28, 28), 10)
net.initialize(0)
x, y = np.ones((32, 784)), np.zeros(32, dtype=np.int64)
memlab.grad_check(net, x, y, max_entries=2)
{looked_up}
opt = memlab.SgdMomentum(net.parameters(), 0.1, 0.9)
net.backward(memlab.softmax_cross_entropy(net.forward(x), y)[1], opt)
{looked_up}
""")
    assert out.split() == ["0", "0", "1"]


@pytest.mark.parametrize("m, n", [(3000, 1), (1, 3000)])
def test_one_column_weight_gradients_never_fold(m, n):
    # OpenBLAS hands a one-column product to gemv, whose sums differ from
    # the blocked kernels' (seen at 5000x1 over 300 rows), however large
    assert not _fuses(m, n, 384)
    assert _fuses(3000, 2, 384)


def test_folded_momentum_has_the_bits_of_the_two_steps_at_one_two_and_three_threads():
    runs = _at_one_two_and_three_blas_threads(_FOLD_SWEEP)
    assert len({out.splitlines()[-1] for out in runs.values()}) == 1, runs
    for out in runs.values():
        cases = [line.split() for line in out.splitlines()[:-1]]
        # the rule admits one-panel products of more than 100**3 multiply-adds
        assert {tuple(c[:3]) for c in cases if c[4] == "True"} == {
            ("32", "784", "512"), ("33", "384", "385")}
        # and wherever it does, the folded product is the two steps bit for bit
        assert all(c[5] == "True" for c in cases if c[4] == "True"), cases
