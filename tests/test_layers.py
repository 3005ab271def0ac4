"""Layer forward/backward against naive loop oracles."""

import os
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
from memlab.nn.layers import _matmul
from oracles import ReferenceConv2d, ReferenceMaxPool2d


def rand(shape, seed):
    return Prng(seed).fill_gaussian(int(np.prod(shape))).reshape(shape)


# ---------------------------------------------------------------- Dense

def test_dense_identity_map():
    layer = Dense(2, 2)
    layer.w.data[:] = np.eye(2)
    out = layer.forward(np.array([[3.0, 5.0]]))
    assert np.array_equal(out, [[3.0, 5.0]])


def test_dense_zero_weights_zero_logits():
    layer = Dense(4, 3)
    out = layer.forward(rand((5, 4), 1))
    assert np.array_equal(out, np.zeros((5, 3)))


def test_dense_forward_matches_matmul():
    layer = Dense(6, 4)
    layer.init_params(Prng(3))
    x = rand((7, 6), 4)
    assert np.allclose(layer.forward(x), x @ layer.w.data + layer.b.data,
                       rtol=0, atol=0)


def test_dense_backward_formulas():
    layer = Dense(3, 2)
    layer.init_params(Prng(5))
    x = rand((4, 3), 6)
    dy = rand((4, 2), 7)
    layer.forward(x)
    dx = layer.backward(dy)
    assert np.array_equal(layer.w.grad, x.T @ dy)
    assert np.array_equal(layer.b.grad, dy.sum(axis=0))
    assert np.allclose(dx, dy @ layer.w.data.T)


def test_dense_output_shape_validation():
    layer = Dense(3, 2)
    assert layer.output_shape((3,)) == (2,)
    with pytest.raises(ShapeError):
        layer.output_shape((4,))
    with pytest.raises(ShapeError):
        layer.output_shape((3, 1))


def test_backward_without_forward_raises():
    layer = Dense(2, 2)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 2)))


@pytest.mark.parametrize("make,x_shape,y_shape", [
    (lambda: Dense(5, 3), (4, 5), (4, 3)),
    (lambda: Conv2d(2, 3, kernel=2, stride=1, padding=1), (2, 2, 4, 4), (2, 3, 5, 5)),
], ids=["dense", "conv"])
def test_backward_overwrites_persistent_grad_buffers(make, x_shape, y_shape):
    layer, fresh = make(), make()
    layer.init_params(Prng(31))
    fresh.init_params(Prng(31))
    layer.forward(rand(x_shape, 32))
    layer.backward(rand(y_shape, 33))
    buffers = (layer.w.grad, layer.b.grad)
    x, dy = rand(x_shape, 34), rand(y_shape, 35)
    layer.forward(x)
    layer.backward(dy)
    # same arrays, rewritten: the second pass neither reallocates nor
    # accumulates onto the first pass's values
    assert layer.w.grad is buffers[0] and layer.b.grad is buffers[1]
    fresh.forward(x)
    fresh.backward(dy)
    assert layer.w.grad.tobytes() == fresh.w.grad.tobytes()
    assert layer.b.grad.tobytes() == fresh.b.grad.tobytes()


# ---------------------------------------------------------------- ReLU / Flatten

def test_relu_forward_backward():
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(layer.forward(x), [[0.0, 0.0, 2.0]])
    dx = layer.backward(np.array([[5.0, 5.0, 5.0]]))
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
    assert layer.forward(x).tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert layer.backward(dy).tobytes() == np.where(x > 0, dy, 0.0).tobytes()


def test_relu_keeps_nan():
    out = ReLU().forward(np.array([[np.nan, -1.0]]))
    assert np.isnan(out[0, 0]) and out[0, 1] == 0.0


def test_flatten_round_trip():
    layer = Flatten()
    x = rand((2, 3, 4, 4), 8)
    y = layer.forward(x)
    assert y.shape == (2, 48)
    dx = layer.backward(y)
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
    got = layer.forward(x)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


def test_conv_output_shape():
    layer = Conv2d(1, 4, kernel=5, stride=2, padding=1)
    # (28 + 2 - 5) // 2 + 1 = 13
    assert layer.output_shape((1, 28, 28)) == (4, 13, 13)
    with pytest.raises(ShapeError):
        layer.output_shape((2, 28, 28))
    with pytest.raises(ShapeError):
        Conv2d(1, 1, kernel=9).output_shape((1, 4, 4))


def test_conv_backward_input_gradient():
    # check dx by perturbing each input entry of a tiny conv
    layer = Conv2d(1, 2, kernel=2, stride=1, padding=1)
    layer.init_params(Prng(21))
    x = rand((1, 1, 3, 3), 22)
    dy = rand((1, 2, 4, 4), 23)
    layer.forward(x)
    dx = layer.backward(dy)
    eps = 1e-6
    for pos in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[pos] += eps
        xm[pos] -= eps
        num = ((layer.forward(xp) * dy).sum() - (layer.forward(xm) * dy).sum()) / (2 * eps)
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
    assert np.allclose(layer.forward(x), pool_naive(x, k, s), atol=0)


def test_maxpool_default_stride_equals_kernel():
    layer = MaxPool2d(3)
    assert layer.stride == 3
    assert layer.output_shape((2, 9, 9)) == (2, 3, 3)


def test_maxpool_backward_routes_to_argmax():
    layer = MaxPool2d(2, 2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    layer.forward(x)
    dx = layer.backward(np.array([[[[10.0]]]]))
    assert np.array_equal(dx, [[[[0.0, 0.0], [0.0, 10.0]]]])


def test_maxpool_tie_goes_to_first():
    layer = MaxPool2d(2, 2)
    x = np.ones((1, 1, 2, 2))
    layer.forward(x)
    dx = layer.backward(np.array([[[[7.0]]]]))
    # all four tie; the first window position wins
    assert np.array_equal(dx, [[[[7.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_overlapping_windows_accumulate():
    layer = MaxPool2d(2, 1)
    x = np.array([[[[0.0, 0.0, 0.0],
                    [0.0, 9.0, 0.0],
                    [0.0, 0.0, 0.0]]]])
    layer.forward(x)
    dx = layer.backward(np.ones((1, 1, 2, 2)))
    # the center pixel is the max of all four windows
    assert dx[0, 0, 1, 1] == 4.0


def test_maxpool_shape_errors():
    with pytest.raises(ShapeError):
        MaxPool2d(2).output_shape((4, 4))
    with pytest.raises(ShapeError):
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
        y = layer.forward(x)
        assert y.tobytes() == ref.forward(x).tobytes()
        dy = dy_of(y.shape)
        assert layer.backward(dy).tobytes() == ref.backward(dy).tobytes()


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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), s=st.integers(1, 3), p=st.integers(0, 2))
def test_conv_is_bit_identical_to_im2col_reference(data, k, s, p):
    cin, cout = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    side = st.integers(max(1, k - 2 * p), 9)
    shape = (data.draw(st.integers(1, 3)), cin, data.draw(side), data.draw(side))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6)))
    layer, ref = _twin(Conv2d(cin, cout, k, s, p), ReferenceConv2d(cin, cout, k, s, p))
    y = layer.forward(x)
    assert y.tobytes() == ref.forward(x).tobytes()
    dy = data.draw(hnp.arrays(np.float64, y.shape, elements=st.floats(-1e6, 1e6)))
    assert layer.backward(dy).tobytes() == ref.backward(dy).tobytes()
    assert layer.w.grad.tobytes() == ref.w.grad.tobytes()
    assert layer.b.grad.tobytes() == ref.b.grad.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), s=st.integers(1, 2), p=st.integers(0, 1))
def test_conv_without_input_grad_keeps_param_grads(data, k, s, p):
    side = st.integers(max(1, k - 2 * p), 8)
    shape = (data.draw(st.integers(1, 3)), 2, data.draw(side), data.draw(side))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    full, lean = _twin(Conv2d(2, 3, k, s, p), Conv2d(2, 3, k, s, p))
    y = full.forward(x)
    lean.forward(x)
    dy = data.draw(hnp.arrays(np.float64, y.shape, elements=st.floats(-1e3, 1e3)))
    assert full.backward(dy) is not None
    assert lean.backward(dy, input_grad=False) is None
    assert lean.w.grad.tobytes() == full.w.grad.tobytes()
    assert lean.b.grad.tobytes() == full.b.grad.tobytes()


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
        y = layer.forward(rand(x_shape, 52))
    dy = rand(y.shape, 53)
    full.backward(dy)
    assert lean.backward(dy, input_grad=False) is None
    for a, b in zip(full.params(), lean.params()):
        assert a.grad.tobytes() == b.grad.tobytes()
    # the forward cache is spent either way
    with pytest.raises(RuntimeError):
        lean.backward(dy, input_grad=False)


# ---------------------------------------------------------------- tokens

def test_layer_tokens():
    assert Dense(3, 7).token() == "dense:7"
    assert Conv2d(1, 8, 3).token() == "conv:8,3,1,0"
    assert Conv2d(2, 4, 5, stride=2, padding=1).token() == "conv:4,5,2,1"
    assert MaxPool2d(2).token() == "maxpool:2,2"
    assert MaxPool2d(3, 1).token() == "maxpool:3,1"
    assert ReLU().token() == "relu"
    assert Flatten().token() == "flatten"


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
    out = np.empty((9, 7))
    assert _matmul(a, b, out=out) is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [8, 384, 416, 768, 1024])
def test_matmul_is_one_product_where_threads_agree(k):
    # K <= 384 or a multiple of 32: the plain product
    a, b = rand((5, k), 62), rand((k, 3), 63)
    assert _matmul(a, b).tobytes() == (a @ b).tobytes()


# products over the K sweep, Dense's transposed operand, then a small
# reshuffle whose first Dense is 784 wide; prints one sha256
_THREAD_SWEEP = """
import hashlib
import numpy as np
from memlab import TrainConfig, reshuffle_experiment, synth_images
from memlab.nn.layers import _matmul

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


def test_products_agree_at_one_two_and_three_blas_threads():
    # OpenBLAS reads its thread count at import, hence fresh interpreters;
    # it runs at most one thread per usable core, so on a 2-core machine
    # three threads run as two
    src = str(Path(memlab.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2", "3"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-c", _THREAD_SWEEP], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout + run.stderr
        digests[threads] = run.stdout.strip()
    assert len(set(digests.values())) == 1, digests
