"""Network layers: Dense, Conv2d, ReLU, Flatten, MaxPool2d.

Every layer does three things and keeps no state between calls but its
parameters: report its output shape for a given input shape (used for
construction-time checking), run forward, returning ``(y, saved)``, and run
``backward(dy, saved, velocity, mu)`` on what its own forward saved,
folding each parameter gradient g into the optimizer's velocity v of that
parameter as ``v <- g + mu*v`` and returning the gradient with respect to
its input (None when the caller passes ``input_grad=False``, as the network
does for its first layer with parameters and every layer below it).  No
gradient is kept: the optimizer's step then moves the weights by v.
Every product runs through nn/blas.py (_matmul, _grad_into).

Convolution uses the cross-correlation convention (no kernel flip), zero
padding and integer strides.  Pooling windows must lie fully inside the
input; output sizes use floor division.

Conv-stack activations have the logical shape (N, C, H, W) but are stored
channels-last: Conv2d returns a transposed view of its (N, H, W, C)
product, ReLU and MaxPool2d keep their input's memory order in their
outputs, saved values and input gradients, and Flatten is the one gather
into (C, H, W) order.  Every layer gives the same values for an input in any
memory order.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError, require
from ..prng import Prng
from .blas import _grad_into, _k_bounds, _matmul
from .tensor import Tensor, he_init

# bytes of im2col rows filled per pass in Conv2d.forward: well inside the
# per-core L2, so the k*k strided writes into one block hit cache
_COLS_BLOCK_BYTES = 1 << 20


class Layer:
    """Common layer interface; layers without parameters only override the math."""

    def params(self) -> list[Tensor]:
        return []

    def init_params(self, rng: Prng) -> None:
        pass

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def forward_floats(self, in_shape: tuple[int, ...]) -> int:
        """Floats per sample in the widest array forward makes."""
        return math.prod(self.output_shape(in_shape))

    def forward_products(self, in_shape: tuple[int, ...]) -> list[int]:
        """Multiply-adds (M*N*K) per sample of each BLAS product forward
        computes, one entry per K panel of _matmul."""
        return []

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """The output, and what backward needs of this call (``saved``)."""
        raise NotImplementedError

    def backward(self, dy: np.ndarray, saved, velocity: list[np.ndarray], mu: float,
                 input_grad: bool = True) -> np.ndarray | None:
        """From the ``saved`` of this pass's forward, write ``g + mu * v``
        into each parameter's velocity v, g being that parameter's
        gradient; ``velocity`` holds C-contiguous float64 arrays shaped
        like ``params()``, in its order.  Return the input gradient, or
        None when ``input_grad`` is false (nothing upstream needs it).
        Layers without parameters ignore ``velocity`` and ``mu``."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.describe()


class _Affine(Layer):
    """A layer whose output rows are ``rows @ W + b``: weights ``w`` of
    k*n values, seen as a (k, n) matrix, and a bias ``b`` of n.  k is the
    product's inner dimension and the He fan-in, n its output width."""

    def __init__(self, w_shape: tuple[int, ...], k: int, n: int):
        self._k = k
        self.w = Tensor._own(np.zeros(w_shape))
        self.b = Tensor._own(np.zeros(n))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def init_params(self, rng: Prng) -> None:
        """He-init the weights from ``rng``, and zero the bias without a draw."""
        he_init(self.w.data, self._k, rng)
        self.b.data.fill(0.0)

    def forward_products(self, in_shape: tuple[int, ...]) -> list[int]:
        bounds = _k_bounds(self._k)
        mn = math.prod(self.output_shape(in_shape))
        return [mn * (hi - lo) for lo, hi in zip(bounds, bounds[1:])]


class Dense(_Affine):
    def __init__(self, in_features: int, out_features: int):
        self.in_features, self.out_features = int(in_features), int(out_features)
        require(self, lambda v: v > 0, "positive", "in_features", "out_features")
        super().__init__((self.in_features, self.out_features),
                         self.in_features, self.out_features)

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(
                f"{self.describe()} expects flat input of width "
                f"{self.in_features}, got {in_shape}"
            )
        return (self.out_features,)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = _matmul(x, self.w.data)
        y += self.b.data
        return y, x

    def backward(self, dy: np.ndarray, x, velocity: list[np.ndarray], mu: float,
                 input_grad: bool = True) -> np.ndarray | None:
        vw, vb = velocity
        _grad_into(x, dy, vw, mu)
        vb *= mu
        vb += np.sum(dy, axis=0)
        return _matmul(dy, self.w.data.T) if input_grad else None

    def describe(self) -> str:
        return f"Dense({self.in_features}->{self.out_features})"


class ReLU(Layer):
    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return in_shape

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # np.maximum keeps a NaN, so a broken weight surfaces in the loss
        # instead of being zeroed; it returns +0.0 for -0.0 like the old
        # np.where(x > 0, x, 0.0), whose data-dependent branch it avoids
        y = np.maximum(x, 0.0)
        return y, y

    def backward(self, dy: np.ndarray, y, velocity: list[np.ndarray], mu: float,
                 input_grad: bool = True) -> np.ndarray | None:
        if not input_grad:
            return None
        # y > 0 exactly where x > 0 (a NaN x gives a NaN y, a -0.0 one +0.0).
        # AND with all-ones words there: dy's exact bits there, +0.0
        # elsewhere, which is np.where(x > 0, dy, 0.0) also for inf and -0.0
        # (dy * mask would give nan for inf and -0.0 for negative dy)
        keep = np.subtract(0, y > 0, dtype=np.uint64)
        dy = np.asarray(dy, dtype=np.float64)
        return np.bitwise_and(dy.view(np.uint64), keep, out=keep).view(np.float64)


class Flatten(Layer):
    """Rows of each sample's values in logical (C, H, W) order.

    The one gather of the conv stack: a channels-last input is copied into
    that order (a C-contiguous one is only reshaped), and backward puts
    ``dy`` back in the input's memory order.  It saves its input.
    """

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (math.prod(in_shape),)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x.reshape(x.shape[0], -1), x

    def backward(self, dy: np.ndarray, x, velocity: list[np.ndarray], mu: float,
                 input_grad: bool = True) -> np.ndarray | None:
        if not input_grad:
            return None
        dx = np.empty_like(x, dtype=dy.dtype)  # in x's memory order
        dx[...] = dy.reshape(x.shape)
        return dx


class _Windows(Layer):
    """A layer over the k*k windows of its (C, H, W) input at stride s,
    the input zero-padded by p on each side of H and W."""

    def __init__(self, kernel: int, stride: int, padding: int):
        self.kernel, self.stride, self.padding = int(kernel), int(stride), int(padding)
        require(self, lambda v: v > 0, "positive", "kernel", "stride")
        require(self, lambda v: v >= 0, "non-negative", "padding")

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel, self.stride, self.padding
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        """(C, oh, ow): the input's channels over the grid of windows."""
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

    def _windows(self, oh: int, ow: int) -> list[tuple[int, int, slice, slice]]:
        """For each window offset (i, j), in row-major order: i, j and the
        strided H and W slices of the (padded) input that hold element
        (i, j) of every window of the (oh, ow) grid at once."""
        k, s = self.kernel, self.stride
        return [(i, j, slice(i, i + s * oh, s), slice(j, j + s * ow, s))
                for i in range(k) for j in range(k)]


class Conv2d(_Affine, _Windows):
    """One product row per output position: its (C, k, k) input patch."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0):
        self.in_channels, self.out_channels = int(in_channels), int(out_channels)
        require(self, lambda v: v > 0, "positive", "in_channels", "out_channels")
        _Windows.__init__(self, kernel, stride, padding)
        k = self.kernel
        _Affine.__init__(self, (self.out_channels, self.in_channels, k, k),
                         self.in_channels * k * k, self.out_channels)

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, oh, ow = super().output_shape(in_shape)
        if c != self.in_channels:
            raise ShapeError(
                f"{self.describe()} expects (channels={self.in_channels}, H, W) "
                f"input, got {in_shape}"
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

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        n, c, h, w = x.shape
        k, p = self.kernel, self.padding
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
            for i, j, hs, ws in self._windows(oh, ow):
                block[..., i, j] = src[:, hs, ws]
        cols = cols.reshape(n * oh * ow, -1)
        wmat = self.w.data.reshape(self.out_channels, -1)
        y = _matmul(cols, wmat.T)
        # the bias goes on in place over rows of whole pixels, about 64
        # values each: the same element pairs as a row per pixel, without
        # a loop of out_channels per pixel
        per_row = max(1, 64 // self.out_channels)
        if y.shape[0] % per_row:
            per_row = 1
        rows = y.reshape(-1, per_row * self.out_channels)
        rows += np.tile(self.b.data, per_row)
        # the (N, H, W, C) product seen as (N, C, H, W): no copy
        return (y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2),
                (cols, (n, h, w), (oh, ow)))

    def backward(self, dy: np.ndarray, saved, velocity: list[np.ndarray], mu: float,
                 input_grad: bool = True) -> np.ndarray | None:
        cols, (n, h, w), (oh, ow) = saved
        k, p = self.kernel, self.padding
        # a view of a channels-last dy, a copy of any other; of one image,
        # column-major as the view of an (N, C, H, W) dy is, since the
        # products and the bias sum below give other bits in the other order
        dyc = dy.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        if n == 1:
            dyc = np.asfortranarray(dyc)
        vw, vb = velocity
        _grad_into(dyc, cols, vw.reshape(self.out_channels, -1), mu)
        vb *= mu
        vb += np.sum(dyc, axis=0)
        if not input_grad:
            return None
        wmat = self.w.data.reshape(self.out_channels, -1)
        dcols = _matmul(dyc, wmat).reshape(n, oh, ow, self.in_channels, k, k)
        dxp = np.zeros((n, h + 2 * p, w + 2 * p, self.in_channels))
        # scatter each kernel offset back onto the (strided) input positions
        for i, j, hs, ws in self._windows(oh, ow):
            dxp[:, hs, ws] += dcols[..., i, j]
        if p > 0:
            dxp = np.ascontiguousarray(dxp[:, p:p + h, p:p + w])
        return dxp.transpose(0, 3, 1, 2)

    def describe(self) -> str:
        return (f"Conv2d({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel}, s={self.stride}, p={self.padding})")


class MaxPool2d(_Windows):
    """Windows that lie fully inside the input: no padding."""

    def __init__(self, kernel: int, stride: int | None = None):
        super().__init__(kernel, kernel if stride is None else stride, 0)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        # float64, so the maximum's bits can be selected as uint64 words
        x, k = np.asarray(x, dtype=np.float64), self.kernel
        (_, _, hs, ws), *rest = self._windows(*self._out_hw(*x.shape[2:]))
        # copies in x's memory order, so the output keeps it
        best = x[..., hs, ws].copy(order="K")
        bits = best.view(np.uint64)
        arg = np.zeros_like(best, dtype=np.min_scalar_type(k * k - 1))
        for i, j, hs, ws in rest:
            v = x[..., hs, ws].copy(order="K")  # two passes read it: cheaper contiguous
            # argmax's rule: the first strictly greater element, or the first
            # NaN; a NaN best stays, since best == best is then false
            take = np.logical_and(best == best, ~(v <= best))
            # offsets only grow, so the max keeps the last offset taken
            np.maximum(arg, np.multiply(take, i * k + j, dtype=arg.dtype), out=arg)
            # bitwise select (as in ReLU) keeps v's exact bits where take
            # holds, without the branch a random mask would mispredict
            keep = np.subtract(0, take, dtype=np.uint64)
            keep &= np.bitwise_xor(bits, v.view(np.uint64), out=v.view(np.uint64))
            bits ^= keep
        return best, (arg, x)

    def backward(self, dy: np.ndarray, saved, velocity: list[np.ndarray], mu: float,
                 input_grad: bool = True) -> np.ndarray | None:
        arg, x = saved
        if not input_grad:
            return None
        dy = np.asarray(dy, dtype=np.float64)
        nan = dy != dy
        clear = bool(nan.any())
        dy = dy.view(np.uint64)
        dx = np.zeros_like(x)  # in x's memory order
        # each offset adds dy where it won onto its strided view of dx;
        # walking the offsets backwards adds every cell's contributions in
        # window order, as np.add.at would, so overlapping windows (s < k)
        # sum in the same order and to the same bits
        k = self.kernel
        for i, j, hs, ws in reversed(self._windows(*arg.shape[2:])):
            cell = dx[..., hs, ws]
            won = arg == i * k + j
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
