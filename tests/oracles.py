"""Reference kernels: the straightforward formulations that the faster
code in memlab must match bit for bit.

reference_fill_gaussian is Box-Muller over the whole stream in one shot,
which Prng.fill_gaussian (drawing in blocks) must match in every bit and
in the state it leaves.

ReferenceConv2d builds its im2col matrix as one contiguous copy of a 6-D
transposed window view and scatters its input gradient offset by offset;
its products go through nn.blas._matmul like the layer's, since what it
checks is the layout and the scatter, not the product.  ReferenceMaxPool2d takes argmax over a copied
window view and scatters its gradient with np.add.at.  Both keep the
parameters and constructor of the layer they shadow, so a test can load the
same weights into either and compare outputs with .tobytes().

reference_backward and reference_step are the train step written with
every gradient kept: a plain forward, a full backward into fresh zero
velocities at momentum 0 (each then holds its gradient exactly), then the
whole-array momentum update.  Network.backward folds each gradient into
the optimizer's velocity as its layer runs, and SgdMomentum.step moves
the weights; the two must give the same parameters and velocities bit for
bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from memlab import Conv2d, MaxPool2d
from memlab.nn.blas import _matmul


def reference_fill_gaussian(rng, n):
    m = (n + 1) // 2
    u1 = ((rng.fill_u64(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (rng.fill_u64(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * m, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


class ReferenceConv2d(Conv2d):
    def forward(self, x):
        n, _, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        oh, ow = self._out_hw(h, w)
        if p > 0:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
        cols = cols.reshape(n * oh * ow, -1)
        wmat = self.w.data.reshape(self.out_channels, -1)
        y = _matmul(cols, wmat.T) + self.b.data
        return np.ascontiguousarray(
            y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        ), (cols, (n, h, w), (oh, ow))

    def backward(self, dy, saved, velocity, mu, input_grad=True):
        cols, (n, h, w), (oh, ow) = saved
        k, s, p = self.kernel, self.stride, self.padding
        dyc = dy.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_channels)
        wmat = self.w.data.reshape(self.out_channels, -1)
        vw, vb = velocity
        g = _matmul(dyc.T, cols).reshape(vw.shape)
        vw *= mu
        vw += g
        vb *= mu
        vb += np.sum(dyc, axis=0)
        dcols = _matmul(dyc, wmat).reshape(n, oh, ow, self.in_channels, k, k)
        dxp = np.zeros((n, self.in_channels, h + 2 * p, w + 2 * p))
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += (
                    dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                )
        if p > 0:
            return np.ascontiguousarray(dxp[:, :, p:p + h, p:p + w])
        return dxp


class ReferenceMaxPool2d(MaxPool2d):
    def forward(self, x):
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh, ow = self._out_hw(h, w)
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        flat = windows.reshape(n, c, oh, ow, k * k)
        idx = flat.argmax(axis=-1)
        y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        return y, (idx, (n, c, h, w), (oh, ow))

    def backward(self, dy, saved, velocity, mu, input_grad=True):
        idx, (n, c, h, w), (oh, ow) = saved
        k, s = self.kernel, self.stride
        dx = np.zeros((n, c, h, w))
        ni, ci, ri, qi = np.indices((n, c, oh, ow), sparse=False)
        rows = ri * s + idx // k
        cols = qi * s + idx % k
        np.add.at(dx, (ni, ci, rows, cols), dy)
        return dx


def reference_backward(net, batch, dlogits):
    """Every parameter gradient of ``net`` at ``batch``, in network order:
    each layer's forward, then each layer's backward with an input gradient,
    into zero velocities made for this call, at momentum 0.  Zeros, not
    np.empty: ``v *= 0`` keeps a NaN that fresh memory may hold."""
    x, tape = net._adapt_input(np.asarray(batch, dtype=np.float64)), []
    for layer in net.all_layers:
        x, saved = layer.forward(x)
        tape.append(saved)
    d, grads = np.asarray(dlogits, dtype=np.float64), []
    for layer in reversed(net.all_layers):
        g = [np.zeros(p.shape) for p in layer.params()]
        d = layer.backward(d, tape.pop(), g, 0.0)
        grads[:0] = g
    return grads


def reference_step(params, velocity, grads, lr, momentum):
    """The whole-array momentum update of every parameter."""
    for p, v, g in zip(params, velocity, grads):
        v *= momentum
        v += g
        p.data -= lr * v
