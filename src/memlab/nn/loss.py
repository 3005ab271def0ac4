"""Softmax cross-entropy loss with its analytic gradient."""

from __future__ import annotations

import numpy as np

from ..errors import RangeError, ShapeError


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over the batch and d(loss)/d(logits).

    The per-row max is subtracted before exponentiation; memorization runs
    push logits far enough that the naive form would overflow.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(
            f"labels must have shape ({n},) to match logits, got {labels.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise RangeError(
            f"labels must lie in [0, {k}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-log_p[np.arange(n), labels].mean())
    dlogits = np.exp(log_p)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def predictions(logits: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties go to the lowest class index."""
    return np.asarray(logits).argmax(axis=1)
