"""Verification of analytic gradients against central finite differences."""

from __future__ import annotations

import numpy as np

from ..errors import require
from ..prng import Prng
from .loss import softmax_cross_entropy
from .network import Network
from .optim import SgdMomentum

DEFAULT_SAMPLE = 200


def grad_check(net: Network, batch: np.ndarray, labels: np.ndarray,
               eps: float = 1e-5, max_entries: int = DEFAULT_SAMPLE,
               seed: int = 0xC0FFEE) -> float:
    """Max relative error between analytic and numeric parameter gradients.

    For every parameter entry (or a seeded random subsample of max_entries
    for big nets) the loss is re-evaluated at p +/- eps and compared with
    the backward pass via |analytic - numeric| / max(|a|, |n|, 1e-8).
    All arithmetic is float64, which this check relies on.
    """
    require(locals(), lambda v: v > 0, "positive", "eps", "max_entries")

    labels = np.asarray(labels)
    logits = net.forward(batch)
    _, dlogits = softmax_cross_entropy(logits, labels)
    params = net.parameters()
    analytic = _gradients(net, dlogits)

    sizes = [p.size for p in params]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    if total <= max_entries:
        entries = np.arange(total)
    else:
        entries = np.sort(Prng(seed).permutation(total)[:max_entries])

    def loss_now() -> float:
        out = net.forward(batch, cache=False)
        value, _ = softmax_cross_entropy(out, labels)
        return value

    worst = 0.0
    for g in entries:
        i = int(np.searchsorted(offsets, g, side="right")) - 1
        off = int(g - offsets[i])
        flat = params[i].data.reshape(-1)
        orig = flat[off]
        flat[off] = orig + eps
        plus = loss_now()
        flat[off] = orig - eps
        minus = loss_now()
        flat[off] = orig
        numeric = (plus - minus) / (2.0 * eps)
        a = float(analytic[i].reshape(-1)[off])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def _gradients(net: Network, dlogits: np.ndarray) -> list[np.ndarray]:
    """The parameter gradients of ``net.backward(dlogits, opt)``, in network
    order: the velocities of a fresh optimizer at momentum 0, into which
    backward writes ``g + 0*0``, exactly g."""
    opt = SgdMomentum(net.parameters(), 1.0, 0.0)
    net.backward(dlogits, opt)
    return opt.velocity
