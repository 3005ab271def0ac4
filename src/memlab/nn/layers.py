"""Network layers: Dense, Conv2d, ReLU, Flatten, MaxPool2d.

Every layer does three things: report its output shape for a given input
shape (used for construction-time checking), run forward while caching what
backward needs, and run backward filling parameter gradients and returning
the gradient with respect to its input (None when the caller passes
``input_grad=False``, as the network does for its first layer with
parameters and every layer below it).

Convolution uses the cross-correlation convention (no kernel flip), zero
padding and integer strides.  Pooling windows must lie fully inside the
input; output sizes use floor division.

Conv-stack activations have the logical shape (N, C, H, W) but are stored
channels-last: Conv2d returns a transposed view of its (N, H, W, C)
product, ReLU and MaxPool2d keep their input's memory order in their
outputs, caches and input gradients, and Flatten is the one gather into
(C, H, W) order.  Every layer gives the same values for an input in any
memory order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, require
from ..prng import Prng
from .tensor import Tensor, he_init

# bytes of im2col rows filled per pass in Conv2d.forward: well inside the
# per-core L2, so the k*k strided writes into one block hit cache
_COLS_BLOCK_BYTES = 1 << 20

# OpenBLAS's threaded dgemm splits the inner dimension K into panels of at
# most _GEMM_Q and adds their products into C in order; its single-threaded
# dgemm splits some K differently.  With the OpenBLAS 0.3.31
# (Haswell kernels) that numpy 2.4 bundles, x @ W changes bits with the
# thread count exactly when K > _GEMM_Q and K % _GEMM_ALIGN != 0, and a
# product whose K is at most _GEMM_Q is the same at any thread count.  The
# rule belongs to that build's kernels; tests/test_layers.py holds the
# products to equal bits at 1, 2 and 3 threads.
_GEMM_Q = 384
_GEMM_ALIGN = 32
# The same build hands a product of at most _GEMM_SMALL multiply-adds
# (M*N*K) to its small-matrix kernels on AVX-512 cores, which sum in
# another order than the blocked kernels, and a one-row product to gemv.
# So a row of x @ W keeps its bits in a product over fewer rows only when
# it keeps its place in the kernels' row tiles, both products have more
# than one row, and both lie on the same side of this bound;
# tests/test_protocol.py holds evaluate's row slices to that.
_GEMM_SMALL = 100 ** 3


def _k_bounds(k: int) -> list[int]:
    """Bounds of the K panels _matmul sums a product of inner dimension k
    over, from 0 to k: one panel unless threaded dgemm's split could
    change the bits."""
    if k <= _GEMM_Q or k % _GEMM_ALIGN == 0:
        return [0, k]
    bounds = list(range(0, k - _GEMM_Q + 1, _GEMM_Q))
    lo = bounds[-1]
    return bounds + [lo + (k - lo + 1) // 2, k]


def _axis_order(x: np.ndarray) -> tuple[int, ...]:
    """x's axes from the outermost in memory to the innermost."""
    return tuple(sorted(range(x.ndim), key=lambda d: -abs(x.strides[d])))


def _zeros(shape: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Zeros of logical ``shape`` laid out in memory in axis ``order``."""
    return np.zeros([shape[d] for d in order]).transpose(np.argsort(order))


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for 2-D operands, with the same bits at any BLAS thread count.

    Where the thread count could change the bits, the product is summed over
    the K panels of threaded dgemm, in its order: _GEMM_Q-wide panels
    while at least 2*_GEMM_Q of K remain, then the remainder in two halves
    (the first one the longer).  For K = 784 that is [0:384] + [384:584] +
    [584:784].  Each panel is thread-independent, and the sum equals the
    plain product wherever OpenBLAS threads it.
    """
    bounds = _k_bounds(a.shape[1])
    y = np.matmul(a[:, :bounds[1]], b[:bounds[1]], out=out)
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        y += a[:, lo:hi] @ b[lo:hi]
    return y


class Layer:
    """Common layer interface; stateless layers only override the math."""

    _cache = None  # what forward keeps for backward, until backward takes it

    def params(self) -> list[Tensor]:
        return []

    def init_params(self, rng: Prng) -> None:
        pass

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def forward_floats(self, in_shape: tuple[int, ...]) -> int:
        """Floats per sample in the widest array forward makes."""
        return int(np.prod(self.output_shape(in_shape)))

    def forward_products(self, in_shape: tuple[int, ...]) -> list[int]:
        """Multiply-adds (M*N*K) per sample of each BLAS product forward
        computes, one entry per K panel of _matmul."""
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Fill parameter grads; return the input gradient, or None when
        ``input_grad`` is false (nothing upstream needs it)."""
        raise NotImplementedError

    def _take_cache(self):
        cache = self._cache
        if cache is None:
            raise RuntimeError(f"{self.describe()}: backward called without forward")
        self._cache = None
        return cache

    def describe(self) -> str:
        return type(self).__name__

    def token(self) -> str:
        """Architecture-string token that reconstructs this layer."""
        return type(self).__name__.lower()

    def __repr__(self) -> str:
        return self.describe()


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int):
        self.in_features, self.out_features = int(in_features), int(out_features)
        require(self, lambda v: v > 0, "positive", "in_features", "out_features")
        self.w = Tensor._own(np.zeros((self.in_features, self.out_features)))
        self.b = Tensor._own(np.zeros(self.out_features))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def init_params(self, rng: Prng) -> None:
        self.w = he_init((self.in_features, self.out_features), self.in_features, rng)
        self.b = he_init((self.out_features,), self.in_features, rng)

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(
                f"{self.describe()} expects flat input of width "
                f"{self.in_features}, got {in_shape}"
            )
        return (self.out_features,)

    def forward_products(self, in_shape: tuple[int, ...]) -> list[int]:
        bounds = _k_bounds(self.in_features)
        return [self.out_features * (hi - lo) for lo, hi in zip(bounds, bounds[1:])]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        y = _matmul(x, self.w.data)
        y += self.b.data
        return y

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x = self._take_cache()
        _matmul(x.T, dy, out=self.w.grad_buffer())
        np.sum(dy, axis=0, out=self.b.grad_buffer())
        return _matmul(dy, self.w.data.T) if input_grad else None

    def describe(self) -> str:
        return f"Dense({self.in_features}->{self.out_features})"

    def token(self) -> str:
        return f"dense:{self.out_features}"


class ReLU(Layer):
    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return in_shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        # np.maximum keeps a NaN, so a broken weight surfaces in the loss
        # instead of being zeroed; it returns +0.0 for -0.0 like the old
        # np.where(x > 0, x, 0.0), whose data-dependent branch it avoids
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        mask = self._take_cache()
        if not input_grad:
            return None
        # AND with all-ones words where x > 0: dy's exact bits there, +0.0
        # elsewhere, which is np.where(mask, dy, 0.0) also for inf and -0.0
        # (dy * mask would give nan for inf and -0.0 for negative dy)
        keep = np.subtract(0, mask, dtype=np.uint64)
        dy = np.asarray(dy, dtype=np.float64)
        return np.bitwise_and(dy.view(np.uint64), keep, out=keep).view(np.float64)


class Flatten(Layer):
    """Rows of each sample's values in logical (C, H, W) order.

    The one gather of the conv stack: a channels-last input is copied into
    that order (a C-contiguous one is only reshaped), and backward puts
    ``dy`` back in the input's memory order.
    """

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(in_shape)),)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = (x.shape, _axis_order(x))
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        shape, order = self._take_cache()
        if not input_grad:
            return None
        dx = dy.reshape(shape).transpose(order)
        return np.ascontiguousarray(dx).transpose(np.argsort(order))


class Conv2d(Layer):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0):
        self.in_channels, self.out_channels = int(in_channels), int(out_channels)
        self.kernel, self.stride, self.padding = int(kernel), int(stride), int(padding)
        require(self, lambda v: v > 0, "positive",
                "in_channels", "out_channels", "kernel", "stride")
        require(self, lambda v: v >= 0, "non-negative", "padding")
        shape = (self.out_channels, self.in_channels, self.kernel, self.kernel)
        self.w = Tensor._own(np.zeros(shape))
        self.b = Tensor._own(np.zeros(self.out_channels))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def init_params(self, rng: Prng) -> None:
        fan_in = self.in_channels * self.kernel * self.kernel
        self.w = he_init(self.w.shape, fan_in, rng)
        self.b = he_init((self.out_channels,), fan_in, rng)

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel, self.stride, self.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        return oh, ow

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ShapeError(
                f"{self.describe()} expects (channels={self.in_channels}, H, W) "
                f"input, got {in_shape}"
            )
        oh, ow = self._out_hw(in_shape[1], in_shape[2])
        if oh <= 0 or ow <= 0:
            raise ShapeError(
                f"{self.describe()}: input {in_shape} smaller than kernel"
            )
        return (self.out_channels, oh, ow)

    def forward_floats(self, in_shape: tuple[int, ...]) -> int:
        # the im2col rows, c*k*k values per output position, are the widest
        # unless the padded copy of the input or the output is wider
        c, h, w = in_shape
        oh, ow = self._out_hw(h, w)
        p = self.padding
        return max(oh * ow * c * self.kernel ** 2, (h + 2 * p) * (w + 2 * p) * c,
                   oh * ow * self.out_channels)

    def forward_products(self, in_shape: tuple[int, ...]) -> list[int]:
        oh, ow = self._out_hw(*in_shape[1:])
        bounds = _k_bounds(self.in_channels * self.kernel ** 2)
        return [oh * ow * self.out_channels * (hi - lo)
                for lo, hi in zip(bounds, bounds[1:])]

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        oh, ow = self._out_hw(h, w)
        # zero-padded channels-last copy: at stride 1 the (ow, C) block of a
        # kernel offset is one run in it
        xt = np.zeros((n, h + 2 * p, w + 2 * p, c))
        xt[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
        # im2col: row (n, y, x) holds patch (C, k, k), filled one kernel
        # offset at a time, a block of images per pass so that the k*k
        # strided passes over that block stay in cache
        cols = np.empty((n, oh, ow, c, k, k))
        step = max(1, _COLS_BLOCK_BYTES // (oh * ow * c * k * k * 8))
        for lo in range(0, n, step):
            block, src = cols[lo:lo + step], xt[lo:lo + step]
            for i in range(k):
                for j in range(k):
                    block[..., i, j] = src[:, i:i + s * oh:s, j:j + s * ow:s]
        cols = cols.reshape(n * oh * ow, -1)
        wmat = self.w.data.reshape(self.out_channels, -1)
        y = _matmul(cols, wmat.T)
        self._cache = (cols, (n, h, w), (oh, ow))
        # the bias goes on in place over rows of whole pixels, about 64
        # values each: the same element pairs as a row per pixel, without
        # a loop of out_channels per pixel
        per_row = max(1, 64 // self.out_channels)
        if y.shape[0] % per_row:
            per_row = 1
        rows = y.reshape(-1, per_row * self.out_channels)
        rows += np.tile(self.b.data, per_row)
        # the (N, H, W, C) product seen as (N, C, H, W): no copy
        return y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        cols, (n, h, w), (oh, ow) = self._take_cache()
        k, s, p = self.kernel, self.stride, self.padding
        # a view of a channels-last dy, a copy of any other; of one image,
        # column-major as the view of an (N, C, H, W) dy is, since the
        # products and the bias sum below give other bits in the other order
        dyc = dy.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        if n == 1:
            dyc = np.asfortranarray(dyc)
        _matmul(dyc.T, cols, out=self.w.grad_buffer().reshape(self.out_channels, -1))
        np.sum(dyc, axis=0, out=self.b.grad_buffer())
        if not input_grad:
            return None
        wmat = self.w.data.reshape(self.out_channels, -1)
        dcols = _matmul(dyc, wmat).reshape(n, oh, ow, self.in_channels, k, k)
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, self.in_channels))
        # scatter each kernel offset back onto the (strided) input positions
        for i in range(k):
            for j in range(k):
                dxp[:, i:i + s * oh:s, j:j + s * ow:s] += dcols[..., i, j]
        if p > 0:
            dxp = np.ascontiguousarray(dxp[:, p:p + h, p:p + w])
        return dxp.transpose(0, 3, 1, 2)

    def describe(self) -> str:
        return (f"Conv2d({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel}, s={self.stride}, p={self.padding})")

    def token(self) -> str:
        return f"conv:{self.out_channels},{self.kernel},{self.stride},{self.padding}"


class MaxPool2d(Layer):
    def __init__(self, kernel: int, stride: int | None = None):
        self.kernel = int(kernel)
        self.stride = self.kernel if stride is None else int(stride)
        require(self, lambda v: v > 0, "positive", "kernel", "stride")

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s = self.kernel, self.stride
        return (h - k) // s + 1, (w - k) // s + 1

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 3:
            raise ShapeError(
                f"{self.describe()} expects (channels, H, W) input, got {in_shape}"
            )
        oh, ow = self._out_hw(in_shape[1], in_shape[2])
        if oh <= 0 or ow <= 0:
            raise ShapeError(
                f"{self.describe()}: input {in_shape} smaller than window"
            )
        return (in_shape[0], oh, ow)

    def _windows(self, oh: int, ow: int) -> list[tuple]:
        """Index of element (i, j) of every window at once, for each window
        offset i*k+j in row-major order."""
        k, s = self.kernel, self.stride
        return [(..., slice(i, i + s * oh, s), slice(j, j + s * ow, s))
                for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        # float64, so the maximum's bits can be selected as uint64 words
        x = np.asarray(x, dtype=np.float64)
        views = self._windows(*self._out_hw(*x.shape[2:]))
        # copies in x's memory order, so the output keeps it
        best = x[views[0]].copy(order="K")
        bits = best.view(np.uint64)
        arg = np.zeros_like(best, dtype=np.min_scalar_type(len(views) - 1))
        for off, view in enumerate(views[1:], 1):
            v = x[view].copy(order="K")  # two passes read it: cheaper contiguous
            # argmax's rule: the first strictly greater element, or the first
            # NaN; a NaN best stays, since best == best is then false
            take = np.logical_and(best == best, ~(v <= best))
            # offsets only grow, so the max keeps the last offset taken
            np.maximum(arg, np.multiply(take, off, dtype=arg.dtype), out=arg)
            # bitwise select (as in ReLU) keeps v's exact bits where take
            # holds, without the branch a random mask would mispredict
            keep = np.subtract(0, take, dtype=np.uint64)
            keep &= np.bitwise_xor(bits, v.view(np.uint64), out=v.view(np.uint64))
            bits ^= keep
        self._cache = (arg, x.shape, _axis_order(x))
        return best

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        arg, shape, order = self._take_cache()
        if not input_grad:
            return None
        dy = np.asarray(dy, dtype=np.float64)
        nan = dy != dy
        clear = bool(nan.any())
        dy = dy.view(np.uint64)
        dx = _zeros(shape, order)
        # each offset adds dy where it won onto its strided view of dx;
        # walking the offsets backwards adds every cell's contributions in
        # window order, as np.add.at would, so overlapping windows (s < k)
        # sum in the same order and to the same bits
        views = self._windows(*arg.shape[2:])
        for off in reversed(range(len(views))):
            cell = dx[views[off]]
            won = arg == off
            if clear:
                # np.add.at answers NaN + NaN with the incoming NaN, which a
                # ufunc loop does not promise: zero a cell a NaN lands on
                # (without a NaN in dy this mask is all ones, so it is skipped)
                cb = cell.view(np.uint64)
                np.bitwise_and(cb, np.subtract(won & nan, 1, dtype=np.uint64), out=cb)
            won = np.subtract(0, won, dtype=np.uint64)
            cell += np.bitwise_and(dy, won, out=won).view(np.float64)
        return dx

    def describe(self) -> str:
        return f"MaxPool2d(k={self.kernel}, s={self.stride})"

    def token(self) -> str:
        return f"maxpool:{self.kernel},{self.stride}"
