"""Datasets: IDX ingestion, synthetic corpora, random labeling, splitting.

A Dataset is immutable once built (sample and label arrays are marked
read-only); every transformation returns a new Dataset.  Each one carries
its labeling provenance -- true labels, random(seed), or
reshuffled(seed, round) -- which ends up in run fingerprints, checkpoints
and plot legends.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadMagicError, CountMismatchError, MemlabError, ShapeError,
                     TruncatedError, require, u64)
from .prng import Prng, _gaussian_writers, splitmix64

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# bytes of corpus rows the synthetic generators build per block: they write
# the corpus in place and every temporary is about one block, so a build
# peaks at the corpus plus a few blocks, and those fit the per-core L2
_ROWS_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class Labeling:
    """Provenance of a dataset's labels."""

    kind: str  # "true" | "random" | "reshuffled"
    seed: int | None = None
    round: int | None = None

    @staticmethod
    def true() -> "Labeling":
        return Labeling("true")

    def describe(self) -> str:
        if self.kind == "true":
            return "true_labels"
        if self.kind == "random":
            return f"random(seed={self.seed})"
        return f"reshuffled(seed={self.seed}, round={self.round})"


@dataclass
class Dataset:
    samples: np.ndarray
    labels: np.ndarray
    num_classes: int
    labeling: Labeling = field(default_factory=Labeling.true)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim < 2:
            raise ValueError("samples must be (n, ...feature dims)")
        n = self.samples.shape[0]
        if n < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ValueError(
                f"{n} samples but {self.labels.shape[0] if self.labels.ndim == 1 else '?'} labels"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(
                f"labels must lie in [0, {self.num_classes})"
            )
        self.samples.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.samples.shape[1:]

    def take(self, n: int) -> "Dataset":
        """First n samples (deterministic subsetting of a big corpus)."""
        if not 1 <= n <= self.n:
            raise ValueError(f"cannot take {n} of {self.n} samples")
        return Dataset(self.samples[:n].copy(), self.labels[:n].copy(),
                       self.num_classes, self.labeling)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        require(self, lambda v: 0.0 < v < 1.0, "in (0, 1)", "train_fraction")
        require(self, u64, "in [0, 2**64)", "seed")


class _Reader:
    """Bounds-checked reads through the bytes of one binary file.

    Every read names what it reads, so a file that ends early raises
    TruncatedError saying which field was cut off.
    """

    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.raw):
            raise TruncatedError(f"{what}: need {count} bytes at offset {self.pos}, "
                                 f"file has {len(self.raw)}")
        out = self.raw[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, what: str) -> str:
        """A u32-length-prefixed UTF-8 string (little-endian length)."""
        raw = self.take(self.unpack("<I", f"{what} length")[0], what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MemlabError(f"{what}: invalid UTF-8 at offset "
                              f"{self.pos - len(raw) + e.start}") from None

    def end(self, what: str) -> None:
        """Refuse bytes left over after the last field, ``what``."""
        if self.pos != len(self.raw):
            raise TruncatedError(f"{len(self.raw) - self.pos} trailing bytes "
                                 f"after {what}")


def _load_idx_array(path, magic_want: int, ndim: int, what: str) -> np.ndarray:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    magic, *dims = r.unpack(f">{1 + ndim}I", f"{what} header")
    if magic != magic_want:
        raise BadMagicError(
            f"{what}: magic 0x{magic:08x}, expected 0x{magic_want:08x}"
        )
    if 0 in dims:
        raise ShapeError(f"{what}: dims {tuple(dims)} include a zero")
    payload = r.take(math.prod(dims), f"{what} payload")
    r.end(f"{what} payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an image/label IDX pair (big-endian headers, uint8 payloads).

    Pixels come back scaled to [0, 1]; the class count is max(label) + 1.
    """
    images = _load_idx_array(images_path, IDX_IMAGE_MAGIC, 3, "images")
    labels = _load_idx_array(labels_path, IDX_LABEL_MAGIC, 1, "labels")
    if images.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    return Dataset(images.astype(np.float64) / 255.0,
                   labels.astype(np.int64),
                   int(labels.max()) + 1)


def write_idx(d: Dataset, images_path, labels_path) -> None:
    """Write a dataset of (n, H, W) images in [0, 1] as an IDX pair."""
    if len(d.feature_shape) != 2:
        raise ValueError(f"IDX images must be (n, H, W), got {d.samples.shape}")
    top = int(d.labels.max())
    if top > 255:
        raise MemlabError(f"IDX labels are one byte: label {top} is above 255")
    pixels = np.clip(np.rint(d.samples * 255.0), 0, 255).astype(np.uint8)
    n, h, w = pixels.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(d.labels.astype(np.uint8).tobytes())


def _usable_cores() -> int:
    """Cores this process may run on (1 where the platform cannot say).
    The one thread budget: corpus builds run on at most this many threads
    and compare_transfer forks at most this many workers."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fill_blocks(n: int, width: int, fill) -> None:
    """Call ``fill(lo, hi, buf, draw)`` once per row block of an (n, width)
    float64 corpus, on one thread per usable core (at most one per block,
    the caller's among them).

    ``buf`` is (hi - lo) * width floats of workspace, and ``draw`` is a
    _gaussian_writers writer for as many draws.  The threads split the rows
    of two _ROWS_BLOCK_BYTES blocks between their blocks: one or two
    threads get a whole block each, k > 2 threads get 2/k of one, so the
    workspace of a build does not grow with the core count.  (Halving the
    blocks on two cores slowed the build by about a fifth: the interpreter
    works per block.)  Rows wider than a block are built on the caller
    alone.  Each
    thread's workspace is made here before any thread starts.  Every
    thread is joined before this returns, and the first error any of them
    raised is raised here; the others then stop at their next block.
    """
    rows = max(1, _ROWS_BLOCK_BYTES // (8 * width))
    threads = min(rows, _usable_cores())
    step = min(rows, 2 * rows // threads)
    starts = range(0, n, step)
    count = min(len(starts), threads)
    draws = min(n, step) * width
    errors = []

    def run(first, buf, draw):
        try:
            for lo in starts[first::count]:
                if errors:
                    return
                hi = min(n, lo + step)
                fill(lo, hi, buf[:(hi - lo) * width], draw)
        except BaseException as e:  # raised again in the caller below
            errors.append(e)

    shares = [(i, np.empty(draws), draw)
              for i, draw in enumerate(_gaussian_writers(draws, count))]
    helpers = [threading.Thread(target=run, args=share) for share in shares[1:]]
    for t in helpers:
        t.start()
    try:
        run(*shares[0])
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]


def _finite(**values: float) -> None:
    """Refuse an infinite or NaN generator argument, naming it."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def synth_blobs(n: int, num_classes: int, dim: int, spread: float,
                seed: int) -> Dataset:
    """Gaussian blobs around seeded class centers; labels are the true class."""
    _finite(spread=spread)
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got n={n}, classes={num_classes}")
    rng = Prng(seed)
    centers = rng.fill_gaussian(num_classes * dim).reshape(num_classes, dim)
    labels = rng.fill_below(n, num_classes)
    samples = np.empty((n, dim))

    # the noise of rows [lo, hi) is that range of one fill_gaussian(n * dim)
    def fill(lo, hi, noise, draw):
        draw(rng.state, n * dim, lo * dim, hi * dim, noise)
        noise *= spread
        out = samples[lo:hi]
        # the labels are in range, and with mode="raise" take would copy via a buffer
        np.take(centers, labels[lo:hi], axis=0, out=out, mode="clip")
        out += noise.reshape(out.shape)

    _fill_blocks(n, dim, fill)
    return Dataset(samples, labels, num_classes)


def synth_images(n: int, num_classes: int, seed: int, size: int = 28,
                 jitter: float = 0.35, noise: float = 0.08,
                 clutter: float = 0.5, bumps: int = 2) -> Dataset:
    """Procedural (n, size, size) image corpus with class-dependent structure.

    Each image is a bright Gaussian bump on a ring whose angle encodes the
    class (with angular jitter), plus ``bumps`` distractor bumps of
    brightness ~``clutter`` and pixel noise, quantized to 256 gray levels.
    Stands in for a small labeled image corpus where none can be
    downloaded; deterministic in the seed.  Raising clutter past ~1 buries
    the class bump among equally bright distractors, which makes the task
    hard for a fresh network and rewards pre-learned bump detectors.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if bumps < 0:
        raise ValueError("bumps must be >= 0")
    _finite(jitter=jitter, noise=noise, clutter=clutter)
    rng = Prng(seed)
    labels = rng.fill_below(n, num_classes)

    # per-image (cy, cx, amp, sigma) of every bump, drawn in stream order
    center = (size - 1) / 2.0
    radius = 0.32 * size
    # class bump: angle set by the label, jittered within its sector
    angle = 2.0 * np.pi * (labels + jitter * (rng.fill_float(n) - 0.5)) / num_classes
    shapes = [(center + radius * np.sin(angle),
               center + radius * np.cos(angle),
               0.7 + 0.3 * rng.fill_float(n),
               size * (0.08 + 0.03 * rng.fill_float(n)))]
    # distractor bumps anywhere; at clutter=0.5 amplitude is 0.25..0.5
    for _ in range(bumps):
        shapes.append((rng.fill_float(n) * (size - 1),
                       rng.fill_float(n) * (size - 1),
                       clutter * (0.5 + 0.5 * rng.fill_float(n)),
                       size * (0.05 + 0.04 * rng.fill_float(n))))

    coords = np.arange(size, dtype=np.float64)
    pixels = size * size
    samples = np.empty((n, size, size))

    def fill(lo, hi, buf, draw):
        img, term = samples[lo:hi], buf.reshape(hi - lo, size, size)
        img.fill(0.0)
        for shape in shapes:
            cy, cx, amp, sigma = (v[lo:hi, None, None] for v in shape)
            # (y - cy)^2 + (x - cx)^2 from a (B, size, 1) and a (B, 1, size) term
            np.add((coords[:, None] - cy) ** 2, (coords - cx) ** 2, out=term)
            # -d2 / (2 sigma^2), with the sign moved to the divisor: same bits
            np.divide(term, -2.0 * sigma ** 2, out=term)
            np.exp(term, out=term)
            term *= amp
            img += term
        # the noise of rows [lo, hi) is that range of one fill_gaussian(n * pixels)
        draw(rng.state, n * pixels, lo * pixels, hi * pixels, buf)
        term *= noise
        img += term
        # quantize to 256 gray levels
        np.clip(img, 0.0, 1.0, out=img)
        img *= 255.0
        np.rint(img, out=img)
        img /= 255.0

    _fill_blocks(n, pixels, fill)
    return Dataset(samples, labels, num_classes)


def assign_random_labels(d: Dataset, seed: int,
                         num_classes: int | None = None) -> Dataset:
    """Replace every label with an i.i.d. uniform class drawn from ``seed``.

    Labels are fixed from here on -- the same sample keeps the same random
    label for the whole run.  Samples are shared untouched.
    """
    k = d.num_classes if num_classes is None else int(num_classes)
    labels = Prng(seed).fill_below(d.n, k)
    return Dataset(d.samples, labels, k, Labeling("random", seed=int(seed)))


def reshuffle_labels(d: Dataset, base_seed: int, round: int) -> Dataset:
    """Fresh independent random labeling for round ``round`` (1-based).

    The label stream is seeded with splitmix64(base_seed XOR round), so
    successive rounds are statistically independent and none coincides
    with assign_random_labels(d, base_seed).
    """
    if round < 1:
        raise ValueError(f"round must be >= 1, got {round}")
    derived = splitmix64((int(base_seed) ^ int(round)) & ((1 << 64) - 1))
    relabeled = assign_random_labels(d, derived)
    return Dataset(relabeled.samples, relabeled.labels, relabeled.num_classes,
                   Labeling("reshuffled", seed=int(base_seed), round=int(round)))


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded permutation partition into (train, val); provenance inherited."""
    n_train = int(d.n * spec.train_fraction)
    if n_train < 1 or n_train >= d.n:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty side "
            f"for n={d.n}"
        )
    order = Prng(spec.seed).permutation(d.n)
    tr, va = order[:n_train], order[n_train:]
    return (Dataset(d.samples[tr], d.labels[tr], d.num_classes, d.labeling),
            Dataset(d.samples[va], d.labels[va], d.num_classes, d.labeling))
