"""Seed-stable pseudorandom numbers built on splitmix64.

splitmix64 is a counter-based generator: output i of a stream seeded with s
is a fixed 64-bit hash of s + (i+1)*GOLDEN.  That makes the scalar and the
numpy-vectorized paths below produce the same stream bit for bit, on any
platform, which is what keeps label assignment and weight initialization
reproducible across runs and machines.
"""

from __future__ import annotations

from functools import partial

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# bytes of float64 output fill_gaussian draws per block: its temporaries stay
# a few blocks in size, and those fit the per-core L2, however large n is
_GAUSSIAN_BLOCK_BYTES = 1 << 18


def splitmix64(seed: int) -> int:
    """First output of a splitmix64 stream seeded with ``seed``.

    Used on its own to derive child seeds (per round, per layer, ...).
    """
    z = (seed + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64's output hash of every counter state in ``z``, in place;
    ``t`` is uint64 scratch of z's shape."""
    # numpy uint64 arithmetic wraps mod 2^64, matching the scalar path
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _box_muller(state: int, total: int, lo: int, hi: int, out: np.ndarray, *,
                steps: np.ndarray, scratch: np.ndarray) -> None:
    """Write elements [lo, hi) of ``fill_gaussian(total)`` from a stream at
    ``state`` into ``out``, using the ``steps`` and ``scratch`` of a
    _gaussian_writers writer made for at least hi - lo draws.

    Pair i of the m = ceil(total/2) pairs takes u1 from counter i+1 and u2
    from counter m+i+1 and gives outputs 2i (cosine) and 2i+1 (sine), so
    the range needs only the counters of its own pairs.
    """
    m = (total + 1) // 2
    first = lo // 2
    pairs = (hi + 1) // 2 - first
    r, theta, c = scratch[:, :pairs]
    # u1 in (0, 1] so log() is finite; u2 in [0, 1).  Each is hashed in a
    # row not yet holding a result, with another free row as scratch
    for start, z, t, u in ((first, theta, c, r), (m + first, c, theta, theta)):
        z, t = z.view(np.uint64), t.view(np.uint64)
        np.add(steps[:pairs], np.uint64((state + start * _GOLDEN) & _MASK64), out=z)
        _mix_array(z, t)
        z >>= np.uint64(11)
        u[...] = z
    r += 1.0
    r *= 2.0**-53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0**-53
    theta *= 2.0 * np.pi
    # out[0] is a pair's cosine, or its sine when lo is odd
    odd = lo - 2 * first
    for fn, dst, skip in ((np.cos, out[odd::2], odd), (np.sin, out[1 - odd::2], 0)):
        fn(theta, out=c)
        np.multiply(r[skip:skip + len(dst)], c[skip:skip + len(dst)], out=dst)


def _gaussian_writers(draws: int, count: int = 1) -> list:
    """``count`` Box-Muller block writers ``draw(state, total, lo, hi, out)``,
    each a _box_muller for blocks of up to ``draws`` draws with its own
    scratch.  They share one read-only array of the counter offsets
    (i+1)*GOLDEN, i < draws//2 + 1, so each may run on its own thread."""
    steps = np.arange(1, draws // 2 + 2, dtype=np.uint64) * np.uint64(_GOLDEN)
    steps.setflags(write=False)
    return [partial(_box_muller, steps=steps, scratch=np.empty((3, draws // 2 + 1)))
            for _ in range(count)]


class Prng:
    """Deterministic 64-bit generator with scalar and bulk interfaces.

    The state is just the splitmix64 counter; ``next_u64`` and ``fill_u64``
    draw from the same stream, so mixing the two is safe.
    """

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = ((self.state ^ (self.state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def fill_u64(self, n: int) -> np.ndarray:
        """Next ``n`` outputs as a uint64 array."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self.state) + idx * np.uint64(_GOLDEN)
        self.state = (self.state + n * _GOLDEN) & _MASK64
        return _mix_array(states, np.empty_like(states))

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def fill_float(self, n: int) -> np.ndarray:
        return (self.fill_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound).

        Plain modulo reduction; the bias is bound/2^64, invisible for any
        class count this library will ever see.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def fill_below(self, n: int, bound: int) -> np.ndarray:
        """``n`` uniform integers in [0, bound) as int64, same mapping as below()."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return (self.fill_u64(n) % np.uint64(bound)).astype(np.int64)

    def fill_gaussian(self, n: int) -> np.ndarray:
        """``n`` standard normal draws via Box-Muller (see _box_muller).

        The draws are made in blocks, so the temporaries stay block-sized;
        the state then moves past all 2*ceil(n/2) counters.
        """
        out = np.empty(n)
        step = max(1, min(n, _GAUSSIAN_BLOCK_BYTES // 8))
        draw, = _gaussian_writers(step)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            draw(self.state, n, lo, hi, out[lo:hi])
        self.state = (self.state + 2 * ((n + 1) // 2) * _GOLDEN) & _MASK64
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) via argsort of random 64-bit keys.

        Stable sort keeps the (astronomically unlikely) key collision
        deterministic too.
        """
        return np.argsort(self.fill_u64(n), kind="stable")


def derive_seed(seed: int, tag: int) -> int:
    """Child seed for an independent stream, e.g. per layer or per round."""
    return splitmix64((seed ^ tag) & _MASK64)
