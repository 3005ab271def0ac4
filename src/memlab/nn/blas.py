"""What memlab knows of numpy's OpenBLAS: the products every layer runs
through, the rules that keep their bits at any BLAS thread count, and the
entry points (dgemm, the thread count) that ctypes finds on first use."""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# OpenBLAS's threaded dgemm splits the inner dimension K into panels of at
# most _GEMM_Q and adds their products into C in order; its single-threaded
# dgemm splits some K differently.  With the OpenBLAS 0.3.31 that numpy
# 2.4 bundles, a DYNAMIC_ARCH build that picks its kernels by CPU, run on
# its SkylakeX core (scipy_openblas_get_corename64_; config "OpenBLAS
# 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX
# MAX_THREADS=64"), x @ W changes bits with the thread count when
# K > _GEMM_Q and K % _GEMM_ALIGN != 0: the products
# _matmul splits.  Threaded dgemm also splits the output width N, and some
# odd N change bits with K <= _GEMM_Q too: measured at 1 thread against 2,
# (32, 200) @ (200, N) at N = 255 and 257 (not 256 or 384), and x' @ dy for
# (33, 384)' (33, 385) and (32, 200)' (32, 255).  The rule belongs to that
# build's kernels; tests/test_layers.py holds the products it sweeps (N of
# 10, 256 and 512) to equal bits at 1, 2 and 3 threads.
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
# Both bounds also decide where a weight-gradient product folds the
# momentum in (_fuses, _grad_into): one dgemm with beta = mu writes
# x'dy + mu*v straight into the optimizer's velocity, and the gradient is
# never stored.  OpenBLAS scales C by beta, then adds each K panel of the
# product into it, so the result has the bits of _matmul then
# ``v *= mu; v += g`` exactly when the product is one panel (K <= _GEMM_Q)
# run by the blocked kernels (M*N*K > _GEMM_SMALL, and M and N above one,
# since a one-column product goes to gemv); tests/test_layers.py holds it
# to that at 1, 2 and 3 threads.  Every other weight gradient is made by
# _matmul and then folded in by those two steps.


def _fuses(m: int, n: int, k: int) -> bool:
    """Whether the (m, n) weight gradient of a product over k rows can
    fold in the momentum (_matmul_into) with the bits of the two steps."""
    return (k <= _GEMM_Q and min(m, n) > 1 and m * n * k > _GEMM_SMALL
            and _dgemm() is not None)


@functools.cache
def _openblas() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS libraries this process has loaded (numpy's among
    them), found in /proc/self/maps on first use and kept."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return ()
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


def _blas_function(names: tuple[str, ...], argtypes: list, restype=None):
    """The first of ``names`` that a loaded OpenBLAS exports, with its
    argument and result types set, or None when none does."""
    for lib in _openblas():
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
    return None


@functools.cache
def _dgemm():
    """cblas_dgemm of numpy's bundled OpenBLAS, whose integers are all
    64-bit, or None when it is not loaded."""
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    return _blas_function(("scipy_cblas_dgemm64_",),
                          [i64] * 6 + [f64, ptr, i64, ptr, i64, f64, ptr, i64])


# CBLAS's RowMajor, Trans and NoTrans
_ROW_MAJOR, _TRANS, _NO_TRANS = 101, 112, 111

# the OpenBLAS entry points that set its thread count: numpy's bundled
# build first, then OpenBLAS's own 64-bit and 32-bit integer builds
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _blas_thread_setter():
    """The function that sets the thread count of the OpenBLAS numpy
    loaded, or None when none is found."""
    return _blas_function(_BLAS_SET_THREADS, [ctypes.c_int])


def _k_bounds(k: int) -> list[int]:
    """Bounds of the K panels _matmul sums a product of inner dimension k
    over, from 0 to k: one panel unless threaded dgemm's split could
    change the bits."""
    if k <= _GEMM_Q or k % _GEMM_ALIGN == 0:
        return [0, k]
    bounds = list(range(0, k - _GEMM_Q + 1, _GEMM_Q))
    lo = bounds[-1]
    return bounds + [lo + (k - lo + 1) // 2, k]


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, with no bits that depend on how threaded
    dgemm splits K (some odd output widths still depend on the thread
    count: see _GEMM_Q).

    Where that split could change the bits, the product is summed over
    the K panels of threaded dgemm, in its order: _GEMM_Q-wide panels
    while at least 2*_GEMM_Q of K remain, then the remainder in two halves
    (the first one the longer).  For K = 784 that is [0:384] + [384:584] +
    [584:784].  The sum equals the plain product wherever OpenBLAS threads
    it.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    bounds = _k_bounds(a.shape[1])
    y = a[:, :bounds[1]] @ b[:bounds[1]]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        y += a[:, lo:hi] @ b[lo:hi]
    return y


def _matmul_into(a: np.ndarray, b: np.ndarray, v: np.ndarray, mu: float) -> None:
    """``v <- a' @ b + mu * v`` in one dgemm, for a (k, m) ``a``, a (k, n)
    ``b`` and a C-contiguous float64 (m, n) ``v``, where _fuses(m, n, k)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    (k, m), n = a.shape, b.shape[1]
    if b.shape[0] != k or v.shape != (m, n) or v.dtype != np.float64 \
            or not v.flags.c_contiguous:
        raise ValueError(f"matmul_into: {a.shape}' @ {b.shape} into {v.shape}")
    _dgemm()(_ROW_MAJOR, _TRANS, _NO_TRANS, m, n, k, 1.0, a.ctypes.data, m,
             b.ctypes.data, n, mu, v.ctypes.data, n)


def _grad_into(a: np.ndarray, b: np.ndarray, v: np.ndarray, mu: float) -> None:
    """``v <- a' @ b + mu * v`` for a (k, m) ``a``, a (k, n) ``b`` and a
    C-contiguous float64 (m, n) ``v``: one dgemm (_matmul_into) where
    _fuses(m, n, k), otherwise _matmul then ``v *= mu; v += g``, with the
    same bits.  At mu = 0 nothing folds: dgemm at beta = 0 would overwrite
    a non-finite v that ``v *= 0`` keeps."""
    (k, m), n = a.shape, b.shape[1]
    if mu and _fuses(m, n, k):
        _matmul_into(a, b, v, mu)
    else:
        g = _matmul(a.T, b)
        v *= mu
        v += g
