"""Parameter tensors and weight initialization."""

from __future__ import annotations

import numpy as np

from ..errors import require
from ..prng import Prng


class Tensor:
    """A dense float64 array: a trainable parameter.

    Activations flowing through the network are plain numpy arrays.  A
    parameter's gradient is never stored: each layer's backward folds it
    straight into the optimizer's velocity for the parameter
    (``Network.backward``), so a Tensor holds none.

    The constructor copies ``data``: the optimizer updates parameters in
    place, which must never write through to a caller's array.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.array(data, dtype=np.float64, order="C")

    @classmethod
    def _own(cls, data: np.ndarray) -> "Tensor":
        """Wrap, without the copy, a fresh C-contiguous float64 array that
        no caller holds: the zeros a layer builds its parameters from (a
        copy of np.zeros would also touch every page of it)."""
        t = cls.__new__(cls)
        t.data = data
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def he_init(w: np.ndarray, fan_in: int, rng: Prng) -> None:
    """Fill ``w`` with He-normal draws: zero-mean Gaussian with variance
    2/fan_in, taken from ``rng`` in ``w``'s row-major order."""
    require(locals(), lambda v: v > 0, "positive", "fan_in")
    np.multiply(rng.fill_gaussian(w.size).reshape(w.shape), np.sqrt(2.0 / fan_in), out=w)
