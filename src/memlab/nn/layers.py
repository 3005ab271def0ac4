"""Network layers: Dense, Conv2d, ReLU, Flatten, MaxPool2d.

Every layer does three things: report its output shape for a given input
shape (used for construction-time checking), run forward while caching what
backward needs, and run backward filling parameter gradients and returning
the gradient with respect to its input.

Convolution uses the cross-correlation convention (no kernel flip), zero
padding and integer strides.  Pooling windows must lie fully inside the
input; output sizes use floor division.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from ..prng import Prng
from .tensor import Tensor, he_init


def _positive(name: str, value: int) -> int:
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


class Layer:
    """Common layer interface; stateless layers only override the math."""

    def params(self) -> list[Tensor]:
        return []

    def init_params(self, rng: Prng) -> None:
        pass

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        cache = getattr(self, "_cache", None)
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
        self.in_features = _positive("in_features", in_features)
        self.out_features = _positive("out_features", out_features)
        self.w = Tensor(np.zeros((self.in_features, self.out_features)))
        self.b = Tensor(np.zeros(self.out_features))
        self._cache = None

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        y = x @ self.w.data
        y += self.b.data
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        np.matmul(x.T, dy, out=self.w.grad_buffer())
        np.sum(dy, axis=0, out=self.b.grad_buffer())
        return dy @ self.w.data.T

    def describe(self) -> str:
        return f"Dense({self.in_features}->{self.out_features})"

    def token(self) -> str:
        return f"dense:{self.out_features}"


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return in_shape

    def forward(self, x: np.ndarray) -> np.ndarray:
        # np.maximum keeps a NaN, so a broken weight surfaces in the loss
        # instead of being zeroed; it returns +0.0 for -0.0 like the old
        # np.where(x > 0, x, 0.0), whose data-dependent branch it avoids
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mask = self._take_cache()
        # AND with all-ones words where x > 0: dy's exact bits there, +0.0
        # elsewhere, which is np.where(mask, dy, 0.0) also for inf and -0.0
        # (dy * mask would give nan for inf and -0.0 for negative dy)
        keep = np.subtract(0, mask, dtype=np.uint64)
        dy = np.asarray(dy, dtype=np.float64)
        return np.bitwise_and(dy.view(np.uint64), keep, out=keep).view(np.float64)


class Flatten(Layer):
    def __init__(self):
        self._cache = None

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(in_shape)),)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        shape = self._take_cache()
        return dy.reshape(shape)


class Conv2d(Layer):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0):
        self.in_channels = _positive("in_channels", in_channels)
        self.out_channels = _positive("out_channels", out_channels)
        self.kernel = _positive("kernel", kernel)
        self.stride = _positive("stride", stride)
        self.padding = int(padding)
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        shape = (self.out_channels, self.in_channels, self.kernel, self.kernel)
        self.w = Tensor(np.zeros(shape))
        self.b = Tensor(np.zeros(self.out_channels))
        self._cache = None

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        oh, ow = self._out_hw(h, w)
        if p > 0:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        # (N, C, oh, ow, k, k) view, then one big matmul over flattened patches
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        cols = cols.reshape(n * oh * ow, -1)
        wmat = self.w.data.reshape(self.out_channels, -1)
        y = cols @ wmat.T + self.b.data
        self._cache = (cols, (n, h, w), (oh, ow))
        return np.ascontiguousarray(
            y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        )

    def backward(self, dy: np.ndarray) -> np.ndarray:
        cols, (n, h, w), (oh, ow) = self._take_cache()
        k, s, p = self.kernel, self.stride, self.padding
        dyc = dy.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        wmat = self.w.data.reshape(self.out_channels, -1)
        np.matmul(dyc.T, cols,
                  out=self.w.grad_buffer().reshape(self.out_channels, -1))
        np.sum(dyc, axis=0, out=self.b.grad_buffer())
        dcols = (dyc @ wmat).reshape(n, oh, ow, self.in_channels, k, k)
        dxp = np.zeros((n, self.in_channels, h + 2 * p, w + 2 * p))
        # scatter each kernel offset back onto the (strided) input positions
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += (
                    dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                )
        if p > 0:
            return np.ascontiguousarray(dxp[:, :, p:p + h, p:p + w])
        return dxp

    def describe(self) -> str:
        return (f"Conv2d({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel}, s={self.stride}, p={self.padding})")

    def token(self) -> str:
        return f"conv:{self.out_channels},{self.kernel},{self.stride},{self.padding}"


class MaxPool2d(Layer):
    def __init__(self, kernel: int, stride: int | None = None):
        self.kernel = _positive("kernel", kernel)
        self.stride = self.kernel if stride is None else _positive("stride", stride)
        self._cache = None

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh, ow = self._out_hw(h, w)
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        flat = windows.reshape(n, c, oh, ow, k * k)
        # argmax takes the first maximum, so ties resolve deterministically
        idx = flat.argmax(axis=-1)
        self._cache = (idx, (n, c, h, w), (oh, ow))
        return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        idx, (n, c, h, w), (oh, ow) = self._take_cache()
        k, s = self.kernel, self.stride
        dx = np.zeros((n, c, h, w))
        ni, ci, ri, qi = np.indices((n, c, oh, ow), sparse=False)
        rows = ri * s + idx // k
        cols = qi * s + idx % k
        # overlapping windows can hit the same cell, so accumulate
        np.add.at(dx, (ni, ci, rows, cols), dy)
        return dx

    def describe(self) -> str:
        return f"MaxPool2d(k={self.kernel}, s={self.stride})"

    def token(self) -> str:
        return f"maxpool:{self.kernel},{self.stride}"
