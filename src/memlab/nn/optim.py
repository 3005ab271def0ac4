"""Training hyperparameters, SGD with momentum, and plateau LR decay."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..errors import NonFiniteError, RangeError, integer, require, u64
from .tensor import Tensor

MONITORS = ("train_loss", "val_accuracy")


@dataclass
class TrainConfig:
    """Everything that parameterizes one training run.

    epochs/initial_lr/momentum/patience defaults follow the training recipe
    this library reproduces; decay_factor, min_lr and batch_size are this
    artifact's own defaults.
    """

    epochs: int = 200
    initial_lr: float = 0.1
    momentum: float = 0.9
    patience: int = 10
    decay_factor: float = 0.1
    min_lr: float = 1e-5
    batch_size: int = 32
    seed: int = 0
    monitor: str = "val_accuracy"

    def __post_init__(self):
        require(self, integer, "an integer", "epochs", "patience", "batch_size", "seed")
        require(self, math.isfinite, "finite",
                "initial_lr", "momentum", "decay_factor", "min_lr")
        require(self, lambda v: v >= 0, ">= 0", "epochs")
        require(self, lambda v: v > 0, "positive",
                "initial_lr", "patience", "min_lr", "batch_size")
        require(self, lambda v: 0.0 <= v < 1.0, "in [0, 1)", "momentum")
        require(self, lambda v: 0.0 < v < 1.0, "in (0, 1)", "decay_factor")
        require(self, u64, "in [0, 2**64)", "seed")
        require(self, MONITORS.__contains__, f"one of {MONITORS}", "monitor")

    def fingerprint_items(self) -> list[tuple[str, str]]:
        return [(f.name, repr(getattr(self, f.name))) for f in fields(self)]


# float64 elements per slice of the update: 256 KiB, so the slices of
# v, p and the scratch buffer that one slice's passes touch stay in a
# 1-2 MiB L2 cache between passes
_CHUNK = 32768


class SgdMomentum:
    """Classical (heavy-ball) momentum:  v <- mu*v + g;  p <- p - lr*v.

    With momentum 0 this is exactly vanilla SGD.  Velocities are allocated
    zero, one per parameter, in parameter order.  The v update runs in the
    backward pass: ``Network.backward(d, opt)`` lends each layer its
    parameters' velocities (``_lend``), and the layer writes g + mu*v into
    them, as ``v *= mu; v += g`` or as one dgemm with the same bits.
    ``step()`` then moves every parameter by v, in place, _CHUNK elements
    at a time; each element gets the same float64 operations as the
    whole-array form, so the result is bit-identical.
    """

    def __init__(self, params: list[Tensor], lr: float, momentum: float):
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        require(self, lambda v: v > 0, "positive", "lr")
        require(self, lambda v: 0.0 <= v < 1.0, "in [0, 1)", "momentum")
        self.velocity = [np.zeros(p.data.shape) for p in params]
        largest = max((p.size for p in params), default=0)
        self._scratch = np.empty(min(_CHUNK, largest))
        self._index = {id(p): i for i, p in enumerate(params)}
        self._done: set[int] = set()  # velocities lent since the last step

    def _lend(self, params: list[Tensor]) -> list[np.ndarray]:
        """The velocities of ``params``, in their order, for a backward
        to write g + mu*v into; marks them written for this step."""
        lent = [self._index[id(p)] for p in params]
        self._done.update(lent)
        return [self.velocity[i] for i in lent]

    def step(self) -> None:
        """Move every parameter by p <- p - lr*v and clear the marks.

        RuntimeError unless a backward has lent every velocity since the
        last step, and RangeError unless every parameter's array is
        C-contiguous; either way no parameter moves, and the marks clear.
        """
        done, self._done = self._done, set()
        if len(done) != len(self.params):
            raise RuntimeError("optimizer step with missing gradient")
        if not all(p.data.flags.c_contiguous for p in self.params):
            raise RangeError("parameter data must be C-contiguous")
        for p, v in zip(self.params, self.velocity):
            flat_p, flat_v = p.data.reshape(-1), v.reshape(-1)
            for lo in range(0, flat_v.size, _CHUNK):
                vs = flat_v[lo:lo + _CHUNK]
                flat_p[lo:lo + _CHUNK] -= np.multiply(vs, self.lr,
                                                      out=self._scratch[:vs.size])


class PlateauScheduler:
    """Multiply the LR by decay_factor after patience epochs without improvement.

    Improvement is strict (any amount counts); the first observed metric
    only sets the baseline.  The counter is reset both on improvement and
    on decay, and the LR never drops below min_lr nor ever rises.
    """

    def __init__(self, lr: float, patience: int, decay_factor: float,
                 min_lr: float, mode: str):
        self.lr = float(lr)
        self.patience = int(patience)
        self.decay_factor = float(decay_factor)
        self.min_lr = float(min_lr)
        self.mode = mode
        require(self, ("minimize", "maximize").__contains__, "minimize or maximize", "mode")
        require(self, lambda v: v > 0, "positive", "lr")
        self.best_metric: float | None = None
        self.epochs_since_improvement = 0

    def _improved(self, metric: float) -> bool:
        if self.best_metric is None:
            return True
        if self.mode == "minimize":
            return metric < self.best_metric
        return metric > self.best_metric

    def step(self, metric: float) -> float:
        """Record one epoch's monitored metric; returns the LR to use next."""
        metric = float(metric)
        if math.isnan(metric):
            raise NonFiniteError("scheduler metric is NaN")
        if self._improved(metric):
            self.best_metric = metric
            self.epochs_since_improvement = 0
        else:
            self.epochs_since_improvement += 1
            if self.epochs_since_improvement > self.patience:
                self.lr = max(self.lr * self.decay_factor, self.min_lr)
                self.epochs_since_improvement = 0
        return self.lr
