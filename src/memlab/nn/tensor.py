"""Parameter tensors and weight initialization."""

from __future__ import annotations

import math

import numpy as np

from ..errors import require
from ..prng import Prng


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    Used for trainable parameters; activations flowing through the network
    are plain numpy arrays.  ``grad`` always has the same shape as ``data``
    once backward has run; layers write it in place through grad_buffer, so
    the same array is reused from one backward pass to the next (or, under
    ``Network.backward``'s ``apply``, the view of the network's workspace
    that it lends for the layer's backward alone).

    The constructor copies ``data`` and ``grad``: the optimizer updates
    parameters in place, which must never write through to a caller's array.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray, grad: np.ndarray | None = None):
        self.data = np.array(data, dtype=np.float64, order="C")
        if grad is not None:
            grad = np.array(grad, dtype=np.float64, order="C")
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"grad shape {grad.shape} != data shape {self.data.shape}"
                )
        self.grad = grad

    @classmethod
    def _own(cls, data: np.ndarray) -> "Tensor":
        """Wrap, without the copy, a fresh C-contiguous float64 array that
        no caller holds: the zeros and He draws that memlab itself builds
        (a copy of np.zeros would also touch every page of it)."""
        t = cls.__new__(cls)
        t.data, t.grad = data, None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def grad_buffer(self) -> np.ndarray:
        """``grad``, first replaced by a fresh array unless it is already a
        C-contiguous float64 array of ``data``'s shape that can be written."""
        g = self.grad
        if (g is None or g.shape != self.data.shape or g.dtype != np.float64
                or not (g.flags.c_contiguous and g.flags.writeable)):
            g = self.grad = np.empty(self.data.shape)
        return g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def he_init(shape: tuple[int, ...], fan_in: int, rng: Prng) -> Tensor:
    """He-normal initialization: zero-mean Gaussian with variance 2/fan_in.

    Rank-1 shapes are biases and come back as exact zeros (the rng is not
    consumed for them).
    """
    require(locals(), lambda v: v > 0, "positive", "fan_in")
    shape = tuple(int(d) for d in shape)
    if any(d <= 0 for d in shape):
        raise ValueError(f"dimensions must be positive, got {shape}")
    if len(shape) == 1:
        return Tensor._own(np.zeros(shape))
    n = math.prod(shape)
    w = rng.fill_gaussian(n).reshape(shape)
    w *= np.sqrt(2.0 / fan_in)
    return Tensor._own(w)
