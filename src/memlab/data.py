"""Datasets: IDX ingestion, synthetic corpora, random labeling, splitting.

A Dataset is immutable once built (its stored samples and its labels are
marked read-only); every transformation returns a new Dataset, which takes
the stored samples as they are, uint8 codes included.  Each one carries its
labeling provenance -- true labels, random(seed), or reshuffled(seed,
round) -- which ends up in run fingerprints, checkpoints and plot legends.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagicError, CountMismatchError, MemlabError, RangeError,
                     ShapeError, TruncatedError, require, u64)
from .prng import Prng, _gaussian_writers, derive_seed

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# bytes of float64 rows the synthetic generators build per block: they write
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


class Dataset:
    """n samples with their labels, class count and labeling provenance.

    The samples are stored in one of two ways, fixed by where they come
    from.  An 8-bit image corpus (synth_images, load_idx) keeps its uint8
    gray codes k, and ``rows`` decodes k / 255.0 for just the rows a
    training step or an evaluation batch reads.  Any other data
    (synth_blobs, or an array passed to this constructor, uint8 included)
    is stored as float64.  Either way ``samples`` and ``rows`` give the
    same float64 values.  The constructor stores read-only copies of the
    samples and labels it is given: the caller's arrays stay writable, and
    later writes to them do not reach the dataset.
    """

    def __init__(self, samples, labels, num_classes: int,
                 labeling: Labeling = Labeling.true()):
        self._set(np.array(samples, dtype=np.float64),
                  np.array(labels, dtype=np.int64), num_classes, labeling)

    @classmethod
    def _stored(cls, data: np.ndarray, labels, num_classes: int,
                labeling: Labeling = Labeling.true()) -> "Dataset":
        """A dataset that keeps ``data`` as its storage, uncopied: float64
        samples, or the uint8 codes of an 8-bit corpus."""
        d = cls.__new__(cls)
        d._set(data, labels, num_classes, labeling)
        return d

    def _set(self, data, labels, num_classes, labeling) -> None:
        self._data = data
        self.labels = np.asarray(labels, dtype=np.int64)
        self.num_classes = num_classes
        self.labeling = labeling
        if data.ndim < 2:
            raise RangeError("samples must be (n, ...feature dims)")
        n = data.shape[0]
        if n < 1:
            raise RangeError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise RangeError(
                f"{n} samples but {self.labels.shape[0] if self.labels.ndim == 1 else '?'} labels"
            )
        require(self, lambda v: v > 0, "positive", "num_classes")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise RangeError(f"labels must lie in [0, {self.num_classes})")
        data.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def codes(self) -> np.ndarray | None:
        """The uint8 codes of an 8-bit corpus, or None for float data."""
        return self._data if self._data.dtype == np.uint8 else None

    @property
    def samples(self) -> np.ndarray:
        """Every sample as float64, read-only.  An 8-bit corpus is decoded
        whole on each access, so memlab itself reads ``rows`` instead."""
        if self.codes is None:
            return self._data
        out = self.rows(slice(None))
        out.setflags(write=False)
        return out

    def rows(self, index, out: np.ndarray | None = None) -> np.ndarray:
        """``samples[index]``, decoding only those rows of an 8-bit corpus:
        k / 255.0 by true division, as the generator and the IDX loader
        always made them (a product with 1 / 255 would change bits).

        An 8-bit corpus decodes into the leading rows of ``out`` when it is
        given, a float64 array with at least as many rows; float storage
        returns its own rows and leaves ``out`` alone.
        """
        picked = self._data[index]
        if picked.dtype != np.uint8:
            return picked
        if out is not None:
            out = out[:len(picked)]
        return np.divide(picked, 255.0, out=out, dtype=np.float64)

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self._data.shape[1:]

    def take(self, n: int) -> "Dataset":
        """First n samples (deterministic subsetting of a big corpus)."""
        if not 1 <= n <= self.n:
            raise RangeError(f"cannot take {n} of {self.n} samples")
        return Dataset._stored(self._data[:n].copy(), self.labels[:n].copy(),
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
        self.raw = memoryview(raw)
        self.pos = 0

    def take(self, count: int, what: str) -> memoryview:
        """The next ``count`` bytes: a view of the file's buffer, not a copy."""
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
            return bytes(raw).decode("utf-8")
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

    The pixels are an 8-bit corpus: its codes are a view of the image
    file's bytes, and they read as k / 255 in [0, 1].  The class count is
    max(label) + 1.
    """
    images = _load_idx_array(images_path, IDX_IMAGE_MAGIC, 3, "images")
    labels = _load_idx_array(labels_path, IDX_LABEL_MAGIC, 1, "labels")
    if images.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    return Dataset._stored(images, labels.astype(np.int64), int(labels.max()) + 1)


def write_idx(d: Dataset, images_path, labels_path) -> None:
    """Write a dataset of (n, H, W) images in [0, 1] as an IDX pair.

    An 8-bit corpus writes its codes; float samples are rounded to the
    nearest of 256 gray levels, which gives the same bytes for k / 255.
    """
    if len(d.feature_shape) != 2:
        raise RangeError(f"IDX images must be (n, H, W), got {(d.n, *d.feature_shape)}")
    top = int(d.labels.max())
    if top > 255:
        raise MemlabError(f"IDX labels are one byte: label {top} is above 255")
    pixels = d.codes
    if pixels is None:
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


def _fill_blocks(n: int, width: int, fill, planes: int = 1) -> None:
    """Call ``fill(lo, hi, work, draw)`` once per row block of an (n, width)
    corpus, on one thread per usable core (at most one per block, the
    caller's among them).

    ``work`` is ``planes`` rows of (hi - lo) * width float64 workspace,
    and ``draw`` is a _gaussian_writers writer for as many draws.  A block
    holds _ROWS_BLOCK_BYTES of float64 rows.  The threads split the rows
    of two blocks between their blocks: one or two threads get a whole
    block each, k > 2 threads get 2/k of one, so the workspace of a build
    does not grow with the core count.  (Halving the blocks on two cores
    slowed the build by about a fifth: the interpreter works per block.)
    Rows wider than a block are built on the caller alone.  Each thread's
    workspace is made here before any thread starts.  Every
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

    def run(first, work, draw):
        try:
            for lo in starts[first::count]:
                if errors:
                    return
                hi = min(n, lo + step)
                fill(lo, hi, work[:, :(hi - lo) * width], draw)
        except BaseException as e:  # raised again in the caller below
            errors.append(e)

    shares = [(i, np.empty((planes, draws)), draw)
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


def synth_blobs(n: int, num_classes: int, dim: int, spread: float,
                seed: int) -> Dataset:
    """Gaussian blobs around seeded class centers; labels are the true class."""
    require(locals(), math.isfinite, "finite", "spread")
    require(locals(), lambda v: v > 0, "positive", "spread")
    require(locals(), lambda v: v >= 1, ">= 1", "dim")
    require(locals(), lambda v: v > 0, "positive", "num_classes")
    if n < num_classes:
        raise RangeError(f"need n >= num_classes, got n={n}, classes={num_classes}")
    rng = Prng(seed)
    centers = rng.fill_gaussian(num_classes * dim).reshape(num_classes, dim)
    labels = rng.fill_below(n, num_classes)
    samples = np.empty((n, dim))

    # the noise of rows [lo, hi) is that range of one fill_gaussian(n * dim)
    def fill(lo, hi, work, draw):
        noise = work[0]
        draw(rng.state, n * dim, lo * dim, hi * dim, noise)
        noise *= spread
        out = samples[lo:hi]
        # the labels are in range, and with mode="raise" take would copy via a buffer
        np.take(centers, labels[lo:hi], axis=0, out=out, mode="clip")
        out += noise.reshape(out.shape)

    _fill_blocks(n, dim, fill)
    return Dataset._stored(samples, labels, num_classes)


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
    The corpus is stored as its 8-bit codes (see Dataset).
    """
    require(locals(), lambda v: v > 0, "positive", "num_classes", "n")
    require(locals(), lambda v: v >= 1, ">= 1", "size")
    require(locals(), lambda v: v >= 0, ">= 0", "bumps")
    require(locals(), math.isfinite, "finite", "jitter", "noise", "clutter")
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
    codes = np.empty((n, size, size), dtype=np.uint8)

    # each block is summed in float64 workspace, then quantized into its codes
    def fill(lo, hi, work, draw):
        img, term = (plane.reshape(hi - lo, size, size) for plane in work)
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
        draw(rng.state, n * pixels, lo * pixels, hi * pixels, work[1])
        term *= noise
        img += term
        # quantize to 256 gray levels: code k is the value k / 255
        np.clip(img, 0.0, 1.0, out=img)
        img *= 255.0
        np.rint(img, out=codes[lo:hi], casting="unsafe")

    _fill_blocks(n, pixels, fill, planes=2)
    return Dataset._stored(codes, labels, num_classes)


def assign_random_labels(d: Dataset, seed: int,
                         num_classes: int | None = None) -> Dataset:
    """Replace every label with an i.i.d. uniform class drawn from ``seed``.

    Labels are fixed from here on -- the same sample keeps the same random
    label for the whole run.  Samples are shared untouched.
    """
    k = d.num_classes if num_classes is None else int(num_classes)
    labels = Prng(seed).fill_below(d.n, k)
    return Dataset._stored(d._data, labels, k, Labeling("random", seed=int(seed)))


def reshuffle_labels(d: Dataset, base_seed: int, round: int) -> Dataset:
    """Fresh independent random labeling for round ``round`` (1-based).

    The label stream is seeded with derive_seed(base_seed, round), so
    successive rounds are statistically independent and none coincides
    with assign_random_labels(d, base_seed).
    """
    require(locals(), lambda v: v >= 1, ">= 1", "round")
    relabeled = assign_random_labels(d, derive_seed(int(base_seed), int(round)))
    return Dataset._stored(relabeled._data, relabeled.labels, relabeled.num_classes,
                           Labeling("reshuffled", seed=int(base_seed), round=int(round)))


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded permutation partition into (train, val); provenance inherited."""
    n_train = int(d.n * spec.train_fraction)
    if n_train < 1 or n_train >= d.n:
        raise RangeError(
            f"train_fraction {spec.train_fraction} leaves an empty side "
            f"for n={d.n}"
        )
    order = Prng(spec.seed).permutation(d.n)
    tr, va = order[:n_train], order[n_train:]
    return (Dataset._stored(d._data[tr], d.labels[tr], d.num_classes, d.labeling),
            Dataset._stored(d._data[va], d.labels[va], d.num_classes, d.labeling))
