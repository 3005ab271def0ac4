"""Seed-stable pseudorandom numbers built on splitmix64.

splitmix64 is a counter-based generator: output i of a stream seeded with s
is a fixed 64-bit hash of s + (i+1)*GOLDEN.  That makes the scalar and the
numpy-vectorized paths below produce the same stream bit for bit, on any
platform, which is what keeps label assignment and weight initialization
reproducible across runs and machines.
"""

from __future__ import annotations

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


def _mix_array(states: np.ndarray) -> np.ndarray:
    # numpy uint64 arithmetic wraps mod 2^64, matching the scalar path
    z = states
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


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
        return _mix_array(states)

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
        """``n`` standard normal draws via Box-Muller.

        Pair i of the m = ceil(n/2) pairs takes u1 from counter i+1 and u2
        from counter m+i+1 and gives outputs 2i (cosine) and 2i+1 (sine).
        The draws are made in blocks by gaussian_range, so the temporaries
        stay block-sized; the state then moves past all 2m counters.
        """
        out = np.empty(n)
        step = _GAUSSIAN_BLOCK_BYTES // 8
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            out[lo:hi] = self.gaussian_range(n, lo, hi)
        self.state = (self.state + 2 * ((n + 1) // 2) * _GOLDEN) & _MASK64
        return out

    def gaussian_range(self, total: int, lo: int, hi: int) -> np.ndarray:
        """Elements [lo, hi) of what ``fill_gaussian(total)`` would return.

        The stream is counter-based, so the range is drawn without its
        prefix: it is the same bits, and the state does not move.
        """
        m = (total + 1) // 2
        first = lo // 2
        pairs = (hi + 1) // 2 - first
        # u1 in (0, 1] so log() is finite; u2 in [0, 1)
        bits1 = Prng(self.state + first * _GOLDEN).fill_u64(pairs)
        bits2 = Prng(self.state + (m + first) * _GOLDEN).fill_u64(pairs)
        u1 = ((bits1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (bits2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[lo - 2 * first:hi - 2 * first]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) via argsort of random 64-bit keys.

        Stable sort keeps the (astronomically unlikely) key collision
        deterministic too.
        """
        return np.argsort(self.fill_u64(n), kind="stable")


def derive_seed(seed: int, tag: int) -> int:
    """Child seed for an independent stream, e.g. per layer or per round."""
    return splitmix64((seed ^ tag) & _MASK64)
