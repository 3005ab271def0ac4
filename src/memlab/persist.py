"""Bit-exact serialization: checkpoints, metrics CSV, run config files.

The checkpoint container is a small binary format (magic "MEMT"); metrics
go to CSV with a fixed 9-significant-digit rendering so identical runs
produce identical bytes; run configuration is plain `key = value` text
with hard errors on unknown keys.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset, _Reader, load_idx, synth_blobs, synth_images
from .errors import (
    BadMagicError,
    ConfigError,
    MemlabError,
    NonFiniteError,
    RangeError,
    ShapeError,
    VersionError,
    require,
    u64,
)
from .nn import TrainConfig, network_from_descriptor
from .protocol import Checkpoint, EpochRecord, MetricsLog

CHECKPOINT_MAGIC = b"MEMT"
CHECKPOINT_VERSION = 1
_MAX_ELEMENTS = 1 << 40  # refuse absurd dims before allocating

CSV_HEADER = "round,epoch,split,loss,accuracy,lr"


def format_real(v: float) -> str:
    """9 significant digits, '.' separator, trailing zeros kept."""
    if not np.isfinite(v):
        raise NonFiniteError(f"refusing to serialize non-finite value {v!r}")
    return format(float(v), "#.9g")


def save_checkpoint(c: Checkpoint, path) -> None:
    """Binary layout: magic, version u16, descriptor, tensor count u32,
    per tensor (rank u8, dims u32 each, float64 payload), provenance.
    All integers and payloads little-endian; strings length-prefixed UTF-8.
    """
    parts = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    desc = c.descriptor.encode("utf-8")
    parts.append(struct.pack("<I", len(desc)))
    parts.append(desc)
    parts.append(struct.pack("<I", len(c.tensors)))
    for i, t in enumerate(c.tensors):
        arr = np.asarray(t, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"tensor {i} contains NaN or Inf")
        if arr.ndim > 255:
            raise ShapeError(f"tensor {i} rank {arr.ndim} exceeds format limit")
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    prov = c.provenance.encode("utf-8")
    parts.append(struct.pack("<I", len(prov)))
    parts.append(prov)
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    """Inverse of save_checkpoint.  Beyond the byte layout, the descriptor
    must rebuild a network whose parameters the tensors match in count and
    shape, and every value must be finite."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    magic = bytes(r.take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise BadMagicError(
            f"magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    (version,) = r.unpack("<H", "version")
    if version != CHECKPOINT_VERSION:
        raise VersionError(
            f"format version {version}, this reader handles {CHECKPOINT_VERSION}"
        )
    descriptor = r.text("descriptor")
    (count,) = r.unpack("<I", "tensor count")
    tensors = []
    for i in range(count):
        (rank,) = r.unpack("<B", f"tensor {i} rank")
        dims = r.unpack(f"<{rank}I", f"tensor {i} dims")
        # no parameter has a zero dim, and with one the product is 0 whatever
        # the other dims are, so the element limit below would not see them
        if 0 in dims:
            raise ShapeError(f"tensor {i} dims {dims} include a zero")
        total = math.prod(dims)
        if total > _MAX_ELEMENTS:
            raise ShapeError(f"tensor {i} dims {dims} overflow the element limit")
        payload = r.take(8 * total, f"tensor {i} payload")
        tensors.append(np.frombuffer(payload, dtype="<f8").reshape(dims).copy())
    provenance = r.text("provenance")
    r.end("provenance")
    try:  # a network too large to allocate is a bad descriptor too
        net = network_from_descriptor(descriptor)
    except (MemlabError, ValueError, MemoryError) as e:
        raise MemlabError(f"descriptor: {e}") from None
    net.check_state(tensors)
    for i, t in enumerate(tensors):
        if not np.isfinite(t).all():
            raise NonFiniteError(f"tensor {i} contains NaN or Inf")
    return Checkpoint(descriptor, tensors, provenance)


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that are not UTF-8 raise a
    ConfigError on their line."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        # the lines of the valid prefix with one character in the bad byte's place
        line = len((raw[:e.start].decode("utf-8") + "?").splitlines())
        raise ConfigError(f"invalid UTF-8 at byte {e.start}", line=line) from None


def write_metrics_csv(log: MetricsLog, path) -> None:
    """Header plus one row per record, ordered (round, epoch, split),
    reals at 9 significant digits, LF endings.  Byte-deterministic.
    """
    lines = [CSV_HEADER]
    for rec in sorted(log.records, key=lambda r: (r.round, r.epoch, r.split)):
        lines.append(",".join([
            str(rec.round), str(rec.epoch), rec.split,
            format_real(rec.loss), format_real(rec.accuracy),
            format_real(rec.lr),
        ]))
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))


def read_metrics_csv(path) -> MetricsLog:
    """Inverse of write_metrics_csv; every record is validated again.

    The labeling provenance is not part of the CSV, so logs read back carry
    records only.
    """
    lines = _text_lines(path)
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"bad metrics header, expected {CSV_HEADER!r}", line=1)
    log = MetricsLog()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ConfigError(f"expected 6 fields, got {len(parts)}", line=lineno)
        try:
            rec = EpochRecord(int(parts[0]), int(parts[1]), parts[2],
                              float(parts[3]), float(parts[4]), float(parts[5]))
            log.append(rec)
        except ValueError as e:
            raise ConfigError(str(e), line=lineno) from None
    return log


# ---------------------------------------------------------------------------
# run configuration files


_KINDS = ("synth_images", "synth_blobs", "idx")
_SYNTH = _KINDS[:2]


@dataclass
class DatasetSpec:
    """One dataset selection; kind decides which other fields apply.

    The kinds column of _SCHEMA names the fields each kind uses.
    """

    kind: str = ""
    n: int = 1000
    classes: int = 10
    seed: int = 0
    size: int = 28
    dim: int = 16
    spread: float = 0.5
    images: str = ""
    labels: str = ""
    take: int = 0  # optional subset after load; 0 = all
    # config line of take, set by parse_config: an idx file's image count,
    # which take must not exceed, is known only once build loads it
    take_line: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        require(self, lambda v: v >= 1, ">= 1", "n", "classes", "size", "dim")
        require(self, lambda v: v >= 0, ">= 0", "take")
        require(self, lambda v: 0 < v < math.inf, "positive and finite", "spread")
        require(self, u64, "in [0, 2**64)", "seed")
        # checks across fields name the field to blame first, then the others
        if self.kind == "synth_blobs" and self.n < self.classes:
            raise RangeError(f"n must be >= classes for kind synth_blobs, "
                             f"got n={self.n}, classes={self.classes}")
        if self.kind in _SYNTH and self.take > self.n:
            raise RangeError(f"take must be <= n, got take={self.take}, n={self.n}")
        if self.kind == "idx":
            require(self, bool, "set for kind idx", "images", "labels")

    def build(self) -> Dataset:
        if self.kind == "synth_images":
            d = synth_images(self.n, self.classes, self.seed, size=self.size)
        elif self.kind == "synth_blobs":
            d = synth_blobs(self.n, self.classes, self.dim, self.spread, self.seed)
        elif self.kind == "idx":
            d = load_idx(self.images, self.labels)
        else:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.take > d.n:
            raise ConfigError(f"take must be <= the {d.n} images of {self.images}, "
                              f"got take={self.take}", line=self.take_line)
        return d.take(self.take) if self.take else d


@dataclass
class RunSpec:
    """Everything a command needs, resolved: re-parsable via render_config."""

    data: DatasetSpec
    arch: str
    train: TrainConfig
    target: DatasetSpec | None = None
    rounds: int = 4
    epochs_per_round: int = 0  # 0 = train.epochs
    label_seed: int = 0  # a config without it uses train.seed
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    train_fraction: float = 0.8
    pre_epochs: int = 0  # 0 = train.epochs
    ft_epochs: int = 0  # 0 = train.epochs
    checkpoint: str = ""

    def __post_init__(self):
        require(self, lambda v: v >= 1, ">= 1", "rounds")
        require(self, lambda v: v >= 0, ">= 0",
                "epochs_per_round", "pre_epochs", "ft_epochs")
        require(self, lambda v: 0.0 < v < 1.0, "in (0, 1)", "train_fraction")
        require(self, u64, "in [0, 2**64)", "label_seed")
        require(self, lambda v: v and all(map(u64, v)),
                "at least one seed, each in [0, 2**64)", "seeds")


class _Key(NamedTuple):
    key: str  # dataset keys go under "data." and "target."
    owner: type
    field: str
    kinds: tuple[str, ...] = ()  # dataset kinds that use the field
    if_set: bool = False  # echoed only when not the default

    def parse(self, raw: str):
        """The field's type is the type of its default; no default is text."""
        f = next(f for f in fields(self.owner) if f.name == self.field)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if isinstance(default, list):
            return [int(p) for p in raw.split(",") if p.strip() != ""]
        return type(default)(raw) if isinstance(default, (int, float)) else raw


# The run config schema: every key, the field it sets, and the dataset
# kinds that use it, in echo order.
_SCHEMA = (
    _Key("kind", DatasetSpec, "kind", _KINDS),
    _Key("images", DatasetSpec, "images", ("idx",)),
    _Key("labels", DatasetSpec, "labels", ("idx",)),
    _Key("n", DatasetSpec, "n", _SYNTH),
    _Key("classes", DatasetSpec, "classes", _SYNTH),
    _Key("seed", DatasetSpec, "seed", _SYNTH),
    _Key("size", DatasetSpec, "size", ("synth_images",)),
    _Key("dim", DatasetSpec, "dim", ("synth_blobs",)),
    _Key("spread", DatasetSpec, "spread", ("synth_blobs",)),
    _Key("take", DatasetSpec, "take", _KINDS, if_set=True),
    _Key("arch", RunSpec, "arch"),
    _Key("epochs", TrainConfig, "epochs"),
    _Key("lr", TrainConfig, "initial_lr"),
    _Key("momentum", TrainConfig, "momentum"),
    _Key("patience", TrainConfig, "patience"),
    _Key("decay", TrainConfig, "decay_factor"),
    _Key("min_lr", TrainConfig, "min_lr"),
    _Key("batch_size", TrainConfig, "batch_size"),
    _Key("seed", TrainConfig, "seed"),
    _Key("monitor", TrainConfig, "monitor"),
    _Key("rounds", RunSpec, "rounds"),
    _Key("epochs_per_round", RunSpec, "epochs_per_round"),
    _Key("label_seed", RunSpec, "label_seed"),
    _Key("seeds", RunSpec, "seeds"),
    _Key("train_fraction", RunSpec, "train_fraction"),
    _Key("pre_epochs", RunSpec, "pre_epochs"),
    _Key("ft_epochs", RunSpec, "ft_epochs"),
    _Key("checkpoint", RunSpec, "checkpoint", if_set=True),
)
_BLOCKS = ("data.", "target.")
_ROWS = {p + k.key: k for k in _SCHEMA for p in (_BLOCKS if k.kinds else ("",))}

# "#" opens a comment at the start of a line or after whitespace only
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config(path) -> RunSpec:
    """Parse and fully resolve a run config.

    Grammar: one `key = value` per line; `#` at the start of a line or
    after whitespace starts a comment; blank lines ignored.  Unknown keys,
    duplicate keys, dataset keys the block's kind does not use, and
    unparsable or out-of-range values are hard errors naming the line.
    An absent key takes its field's dataclass default, except label_seed,
    which defaults to seed.
    """
    raw_lines = _text_lines(path)
    values: dict[str, object] = {}
    where: dict[str, int] = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        key, eq, value = (p.strip() for p in line.partition("="))
        if not eq or not key:
            raise ConfigError("expected 'key = value'", line=lineno)
        if key not in _ROWS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = _ROWS[key].parse(value)
        except ValueError:
            raise ConfigError(f"cannot parse {key} value {value!r}",
                              line=lineno) from None
        where[key] = lineno

    def build(owner: type, prefix: str = "", **given):
        key_of = {k.field: prefix + k.key for k in _SCHEMA if k.owner is owner}
        kwargs = {f: values[key] for f, key in key_of.items() if key in values}
        try:
            return owner(**kwargs, **given)
        except ValueError as e:
            # blame the first field the message names that the config sets
            lines = [where[key_of[word]] for word in re.findall(r"\w+", str(e))
                     if key_of.get(word) in where]
            raise ConfigError(str(e), line=lines[0] if lines else None) from None

    def dataset(prefix: str) -> DatasetSpec | None:
        keys = [k for k in values if k.startswith(prefix)]
        if not keys:
            return None
        kind = values.get(prefix + "kind")
        if kind is None:
            raise ConfigError(f"{prefix}* keys need {prefix}kind",
                              line=where[keys[0]])
        if kind not in _KINDS:
            raise ConfigError(f"unknown {prefix}kind {kind!r}; expected one "
                              f"of {', '.join(_KINDS)}", line=where[prefix + "kind"])
        for key in keys:
            if kind not in _ROWS[key].kinds:
                raise ConfigError(f"{key} does not apply to kind {kind}",
                                  line=where[key])
        return build(DatasetSpec, prefix, take_line=where.get(prefix + "take"))

    data = dataset("data.")
    if data is None:
        raise ConfigError("missing required key 'data.kind'")
    if "arch" not in values:
        raise ConfigError("missing required key 'arch'")
    train = build(TrainConfig)
    values.setdefault("label_seed", train.seed)
    return build(RunSpec, data=data, train=train, target=dataset("target."))


def render_config(spec: RunSpec) -> str:
    """Resolved-config echo: every value spelled out, reparses to ``spec``."""
    rows = [(p + k.key, d, k) for p, d in zip(_BLOCKS, (spec.data, spec.target))
            if d is not None for k in _SCHEMA if d.kind in k.kinds]
    rows += [(k.key, spec.train if k.owner is TrainConfig else spec, k)
             for k in _SCHEMA if not k.kinds]
    lines = []
    for key, obj, k in rows:
        value = getattr(obj, k.field)
        if value or not k.if_set:
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def phase_config(spec: RunSpec, which: str) -> TrainConfig:
    """The train config of phase ``which`` ("round", "pre" or "ft"): its
    epochs are the phase key's, or epochs when that key is 0."""
    value = {"round": spec.epochs_per_round, "pre": spec.pre_epochs,
             "ft": spec.ft_epochs}[which]
    return replace(spec.train, epochs=value or spec.train.epochs)
