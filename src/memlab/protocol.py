"""Experimental procedures: train, random-label pretrain, fine-tune, reshuffle.

The central objects are MetricsLog (per-epoch records plus run provenance)
and Checkpoint (parameters plus how they were produced).  All procedures
are deterministic functions of (config, seeds, data): minibatch order is
drawn from a counter-based stream keyed on (seed, round, epoch), never
from global state.
"""

from __future__ import annotations

import ctypes
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (Dataset, SplitSpec, _usable_cores, assign_random_labels,
                   reshuffle_labels, split)
from .errors import ConfigError, ShapeError, TrainingDivergedError, require
from .nn import (
    Network,
    PlateauScheduler,
    SgdMomentum,
    TrainConfig,
    build_network,
    network_from_descriptor,
    predictions,
    softmax_cross_entropy,
)
from .nn.layers import _GEMM_SMALL
from .prng import Prng, derive_seed, splitmix64

SPLITS = ("train", "val")

# stream tags, arbitrary but frozen: epoch shuffles and per-seed label draws
_ORDER_TAG = 0x53485546_464C4531
_LABEL_TAG = 0x4C41424C_53454544

_EVAL_BATCH = 256
# evaluate runs the forward of each batch in row slices whose widest array
# fits about this many bytes: one slice per batch for the MLPs of the
# benchmark, 64 rows for its conv net, whose im2col rows take 56 KB a sample
_EVAL_SLICE_BYTES = 4 << 20
# a slice is a whole multiple of this many rows, at least one multiple
_EVAL_SLICE_ALIGN = 32


@dataclass(frozen=True)
class EpochRecord:
    round: int
    epoch: int
    split: str
    loss: float
    accuracy: float
    lr: float

    def __post_init__(self):
        require(self, SPLITS.__contains__, "train or val", "split")
        require(self, lambda v: v >= 1, ">= 1", "round")
        require(self, lambda v: 0 <= v < np.inf, "finite and >= 0", "loss")
        require(self, lambda v: 0.0 <= v <= 1.0, "in [0, 1]", "accuracy")
        require(self, lambda v: 0 < v < np.inf, "finite and positive", "lr")


class MetricsLog:
    """Ordered per-epoch records with run provenance on the side.

    Records are append-only: within each (round, split) the epochs must
    arrive contiguously starting at 1 (each EpochRecord checks its other
    fields when it is built).  Alongside the rows the log keeps the
    labeling description and the start-of-round accuracy per round, and a
    fingerprint of the exact sample order the training loop consumed (used
    to certify that paired runs saw identical data).
    """

    def __init__(self, config_fingerprint: str = ""):
        self.records: list[EpochRecord] = []
        self.config_fingerprint = config_fingerprint
        self.round_labelings: dict[int, str] = {}
        self.round_start_accuracy: dict[int, float] = {}
        self._next_epoch: dict[tuple[int, str], int] = {}
        self._order_hash = hashlib.blake2b(digest_size=8)

    def append(self, rec: EpochRecord) -> None:
        key = (rec.round, rec.split)
        want = self._next_epoch.get(key, 1)
        if rec.epoch != want:
            raise ValueError(
                f"round {rec.round} {rec.split} epoch {rec.epoch} breaks "
                f"contiguity (expected {want})"
            )
        self._next_epoch[key] = want + 1
        self.records.append(rec)

    def absorb_order(self, indices: np.ndarray) -> None:
        self._order_hash.update(indices.astype(np.int64).tobytes())

    @property
    def data_order_fingerprint(self) -> str:
        return self._order_hash.copy().hexdigest()

    def rounds(self) -> list[int]:
        return sorted({r.round for r in self.records})

    def rows(self, round: int | None = None, split: str | None = None) -> list[EpochRecord]:
        return [r for r in self.records
                if (round is None or r.round == round)
                and (split is None or r.split == split)]

    def final(self, split: str = "val") -> EpochRecord:
        rows = self.rows(split=split)
        if not rows:
            raise ValueError(f"log has no {split} records")
        return rows[-1]


@dataclass
class Checkpoint:
    """Network parameters plus the provenance that produced them.

    ``provenance`` is newline-joined key=value lines (labeling, config
    fingerprint, epochs trained).
    """

    descriptor: str
    tensors: list[np.ndarray]
    provenance: str

    def same_tensors(self, other: "Checkpoint") -> bool:
        return (len(self.tensors) == len(other.tensors)
                and all(a.shape == b.shape and np.array_equal(a, b)
                        for a, b in zip(self.tensors, other.tensors)))


def run_fingerprint(cfg: TrainConfig, d: Dataset) -> str:
    h = hashlib.blake2b(digest_size=8)
    for k, v in cfg.fingerprint_items():
        h.update(f"{k}={v};".encode())
    h.update(f"labeling={d.labeling.describe()};".encode())
    h.update(f"shape={(d.n, *d.feature_shape)};classes={d.num_classes};".encode())
    return h.hexdigest()


def _checkpoint_of(net: Network, d: Dataset, cfg: TrainConfig,
                   epochs_done: int) -> Checkpoint:
    provenance = "\n".join([
        f"labeling={d.labeling.describe()}",
        f"config={run_fingerprint(cfg, d)}",
        f"epochs={epochs_done}",
    ])
    return Checkpoint(net.descriptor, net.state_tensors(), provenance)


def _check_head(net: Network, d: Dataset) -> None:
    if net.num_classes != d.num_classes:
        raise ShapeError(f"head width {net.num_classes} != dataset classes {d.num_classes}")


def _eval_slices(net: Network, m: int) -> list[int]:
    """Bounds of the row slices evaluate runs a batch of m rows through.

    A slice is the most whole multiples of _EVAL_SLICE_ALIGN rows whose
    widest array fits _EVAL_SLICE_BYTES, and at least one.  Each logit keeps
    the bits the whole batch gives it only while every product of a slice
    lies on the batch's side of _GEMM_SMALL, so a slice is widened until it
    does, and a last slice shorter than that is joined to the one before.
    """
    align = _EVAL_SLICE_ALIGN
    least = align
    for madds in net.sample_products:
        if m * madds > _GEMM_SMALL:
            least = max(least, -(-(_GEMM_SMALL // madds + 1) // align) * align)
    rows = max(least, _EVAL_SLICE_BYTES // (8 * net.sample_floats) // align * align)
    bounds = list(range(0, m, rows))
    if len(bounds) > 1 and m - bounds[-1] < least:
        bounds.pop()
    return bounds + [m]


def _eval_scratch(net: Network, d: Dataset) -> np.ndarray | None:
    """A buffer for evaluate to decode the slices of ``d`` into, or None
    for float storage, whose slices are views.  (Made for float storage
    too, it went unused and still raised conv's peak RSS by about 1 MiB.)"""
    if d.codes is None:
        return None
    batches = {min(d.n, _EVAL_BATCH), d.n % _EVAL_BATCH} - {0}
    rows = max(int(np.diff(_eval_slices(net, m)).max()) for m in batches)
    return np.empty((rows, *d.feature_shape))


def evaluate(net: Network, d: Dataset,
             scratch: np.ndarray | None = None) -> tuple[float, float]:
    """Full-dataset mean loss and argmax accuracy.  Pure read of the net.

    The loss and the hits are taken over batches of _EVAL_BATCH rows, whose
    logits are filled slice by slice (_eval_slices).  Each slice runs a
    forward that keeps no backward caches, so the net holds none of its
    rows afterwards: a backward after evaluate raises RuntimeError until
    the next training forward.  Slices of an 8-bit corpus are decoded into
    ``scratch``, from _eval_scratch(net, d), or into a buffer made per call
    when it is None.
    """
    _check_head(net, d)
    if scratch is None:
        scratch = _eval_scratch(net, d)
    logits = np.empty((min(d.n, _EVAL_BATCH), net.num_classes))
    loss_sum = 0.0
    hits = 0
    for lo in range(0, d.n, _EVAL_BATCH):
        yb = d.labels[lo:lo + _EVAL_BATCH]
        out = logits[:yb.size]
        bounds = _eval_slices(net, yb.size)
        for a, b in zip(bounds, bounds[1:]):
            out[a:b] = net.forward(d.rows(slice(lo + a, lo + b), out=scratch),
                                   cache=False)
        loss, _ = softmax_cross_entropy(out, yb)
        loss_sum += loss * yb.size
        hits += int((predictions(out) == yb).sum())
    return loss_sum / d.n, hits / d.n


def shuffle_seed(seed: int, round: int, epoch: int) -> int:
    """Seed for one epoch's minibatch order; distinct per (seed, round, epoch)."""
    base = derive_seed(int(seed), _ORDER_TAG)
    return splitmix64((base ^ ((round << 32) + epoch)) & ((1 << 64) - 1))


def _run_round(net: Network, train_d: Dataset, val_d: Dataset | None,
               cfg: TrainConfig, log: MetricsLog, round: int) -> None:
    """Run cfg.epochs epochs of minibatch SGD, appending records for ``round``."""
    _check_head(net, train_d)
    if cfg.monitor != "train_loss" and val_d is None:
        raise ConfigError(f"monitor {cfg.monitor!r} requires a validation set")
    log.round_labelings[round] = train_d.labeling.describe()
    opt = SgdMomentum(net.parameters(), cfg.initial_lr, cfg.momentum)
    mode = "minimize" if cfg.monitor.endswith("loss") else "maximize"
    sched = PlateauScheduler(cfg.initial_lr, cfg.patience, cfg.decay_factor,
                             cfg.min_lr, mode)
    n = train_d.n
    # one decode buffer for the round's validation passes: with a buffer made
    # per pass, malloc gave the pages back when the pass freed it, and the next
    # pass faulted them in again (about 1000 page faults a pass on transfer)
    scratch = _eval_scratch(net, val_d) if val_d is not None else None
    for epoch in range(1, cfg.epochs + 1):
        order = Prng(shuffle_seed(cfg.seed, round, epoch)).permutation(n)
        log.absorb_order(order)
        lr_used = opt.lr
        loss_sum = 0.0
        hits = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            logits = net.forward(train_d.rows(idx))
            loss, dlogits = softmax_cross_entropy(logits, train_d.labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at round {round} epoch {epoch}"
                )
            loss_sum += loss * idx.size
            hits += int((predictions(logits) == train_d.labels[idx]).sum())
            net.backward(dlogits)
            opt.step()
        train_loss = loss_sum / n
        log.append(EpochRecord(round, epoch, "train", train_loss, hits / n, lr_used))
        val_metrics = evaluate(net, val_d, scratch) if val_d is not None else None
        if val_metrics is not None:
            log.append(EpochRecord(round, epoch, "val",
                                   val_metrics[0], val_metrics[1], lr_used))
        opt.lr = sched.step(train_loss if cfg.monitor == "train_loss" else val_metrics[1])
    # release the grad buffers: nothing reads them once the round is over,
    # and the next round's first backward allocates them again
    for p in net.parameters():
        p.zero_grad()


def train(net: Network, train_d: Dataset, val_d: Dataset | None,
          cfg: TrainConfig) -> tuple[Checkpoint, MetricsLog]:
    """Minibatch SGD for exactly cfg.epochs epochs (no early stopping).

    Per epoch: seeded shuffle, SGD-with-momentum steps, train metrics as
    the running mean over that epoch's minibatches, one full validation
    pass when val_d is given, then a plateau-scheduler step on
    cfg.monitor.  The recorded lr is the one the epoch's steps used.
    """
    log = MetricsLog(run_fingerprint(cfg, train_d))
    _run_round(net, train_d, val_d, cfg, log, round=1)
    return _checkpoint_of(net, train_d, cfg, cfg.epochs), log


def pretrain_random(d: Dataset, arch: str, cfg: TrainConfig,
                    label_seed: int) -> tuple[Checkpoint, MetricsLog]:
    """Memorization phase: relabel ``d`` uniformly at random, then train.

    The scheduler monitors train_loss regardless of cfg.monitor, since
    validation against random labels is meaningless.
    """
    labeled = assign_random_labels(d, label_seed)
    cfg = replace(cfg, monitor="train_loss")
    net = build_network(arch, labeled.feature_shape, labeled.num_classes)
    net.initialize(cfg.seed)
    return train(net, labeled, None, cfg)


def baseline(d: Dataset, arch: str, cfg: TrainConfig,
             val_d: Dataset) -> tuple[Checkpoint, MetricsLog]:
    """From-scratch arm: a fresh network trained on ``d``'s true labels.

    The scheduler monitors val_accuracy regardless of cfg.monitor.
    """
    cfg = replace(cfg, monitor="val_accuracy")
    net = build_network(arch, d.feature_shape, d.num_classes)
    net.initialize(cfg.seed)
    return train(net, d, val_d, cfg)


def finetune(ckpt: Checkpoint, target_d: Dataset, cfg: TrainConfig,
             val_d: Dataset | None = None) -> tuple[Checkpoint, MetricsLog]:
    """Fine-tune a pretrained feature extractor on a labeled target task.

    The classifier head is reinitialized (seeded by cfg.seed) at
    target_d.num_classes; every other layer starts from the checkpoint.
    All layers train; nothing is frozen.  The head draw matches what a
    from-scratch net with the same seed would get, so a 0-epoch
    pretraining checkpoint reproduces the baseline exactly.
    """
    net = network_from_descriptor(ckpt.descriptor, num_classes=target_d.num_classes)
    net.initialize(cfg.seed)
    net.load_state(ckpt.tensors, skip_head=True)
    cfg = replace(cfg, monitor="val_accuracy" if val_d is not None else "train_loss")
    return train(net, target_d, val_d, cfg)


def reshuffle_experiment(d: Dataset, arch: str, cfg: TrainConfig, rounds: int,
                         epochs_per_round: int,
                         base_seed: int) -> tuple[Checkpoint, MetricsLog]:
    """Sequential memorization of freshly reshuffled random labels.

    Round 1 trains from scratch on reshuffle_labels(d, base_seed, 1); each
    later round keeps the current weights but gets a fresh optimizer,
    scheduler and initial lr, and a fresh independent labeling.  The log
    stores, per round, the labeling description and the accuracy measured
    on the new labels before any step of that round (chance level if the
    network has no head start).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if epochs_per_round < 1:
        raise ValueError(f"epochs_per_round must be >= 1, got {epochs_per_round}")
    cfg = replace(cfg, epochs=epochs_per_round, monitor="train_loss")
    net = build_network(arch, d.feature_shape, d.num_classes)
    net.initialize(cfg.seed)
    log = MetricsLog(run_fingerprint(cfg, d))
    labeled = d
    for r in range(1, rounds + 1):
        labeled = reshuffle_labels(d, base_seed, r)
        _, start_acc = evaluate(net, labeled)
        log.round_start_accuracy[r] = start_acc
        _run_round(net, labeled, None, cfg, log, round=r)
    return _checkpoint_of(net, labeled, cfg, rounds * epochs_per_round), log


def epochs_to_threshold(log: MetricsLog, round: int, threshold: float) -> int | None:
    """First epoch of ``round`` whose train accuracy reaches ``threshold``."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    rows = log.rows(round=round, split="train")
    if not rows:
        raise ValueError(f"log has no round {round}")
    for rec in rows:
        if rec.accuracy >= threshold:
            return rec.epoch
    return None


@dataclass
class TransferReport:
    """Paired baseline-vs-pretrained outcomes, one pair per seed."""

    seeds: list[int]
    baseline: list[float]  # final val accuracy, fresh initialization
    pretrained: list[float]  # final val accuracy, random-label pretraining
    order_fingerprints: list[tuple[str, str]] = field(default_factory=list)

    @property
    def differences(self) -> list[float]:
        return [p - b for b, p in zip(self.baseline, self.pretrained)]

    @property
    def mean_difference(self) -> float:
        return float(np.mean(self.differences))

    @property
    def std_difference(self) -> float:
        d = self.differences
        return float(np.std(d, ddof=1)) if len(d) > 1 else 0.0

    @property
    def wins(self) -> int:
        return sum(1 for x in self.differences if x > 0)


def _transfer_pair(source_d: Dataset, t_train: Dataset, t_val: Dataset,
                   arch: str, pre_cfg: TrainConfig, ft_cfg: TrainConfig,
                   seed: int) -> tuple[float, float, str, str]:
    ft = replace(ft_cfg, seed=seed)
    base_log = baseline(t_train, arch, ft, t_val)[1]
    ckpt = pretrain_random(source_d, arch, replace(pre_cfg, seed=seed),
                           derive_seed(seed, _LABEL_TAG))[0]
    ft_log = finetune(ckpt, t_train, ft, val_d=t_val)[1]
    # the last val record is evaluate() on the final weights of each arm
    return (base_log.final("val").accuracy, ft_log.final("val").accuracy,
            base_log.data_order_fingerprint, ft_log.data_order_fingerprint)


# compare_transfer forks workers only while _transfer_pair runs this code: a
# wrapper or a test double rebound in its place would see no call a child makes
_PAIR_CODE = _transfer_pair.__code__

# the OpenBLAS entry points that set its thread count: numpy's bundled
# build first, then OpenBLAS's own 64-bit and 32-bit integer builds
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _blas_thread_setter():
    """The function that sets the thread count of the OpenBLAS numpy
    loaded, or None when none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_SET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                return fn
    return None


def _pair_workers(pairs: int):
    """(worker count, BLAS thread setter) for ``pairs`` seed pairs; one
    worker means the pairs run in this process."""
    # imported on first use: at module level it would add about 10 ms and 0.6 MiB
    # to every import of memlab, compare or not
    import multiprocessing
    if (pairs < 2 or getattr(_transfer_pair, "__code__", None) is not _PAIR_CODE
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1, None
    workers = min(pairs, _usable_cores())
    set_threads = _blas_thread_setter() if workers > 1 else None
    return (workers, set_threads) if set_threads is not None else (1, None)


def _seed_error(seed: int, kind: type, message: str) -> Exception:
    """The error a failed pair raised, of its type, naming its seed."""
    try:
        return kind(f"seed {seed}: {message}")
    except Exception:  # a type that takes other arguments
        return RuntimeError(f"seed {seed}: {kind.__name__}: {message}")


def _pair_results(args: tuple, seeds: list[int]):
    """(True, pair) for each seed's pair in order, or (False, (type,
    message)) for the error that stops them."""
    for seed in seeds:
        try:
            yield True, _transfer_pair(*args, seed)
        except Exception as e:
            yield False, (type(e), str(e))
            return


def _pair_worker(conn, set_threads, args: tuple, seeds: list[int]) -> None:
    """One forked worker: its seeds' messages, in order, at one BLAS thread."""
    set_threads(1)
    for message in _pair_results(args, seeds):
        conn.send(message)
    conn.close()


def _forked_results(args: tuple, seeds: list[int], workers: int, set_threads):
    """Every seed's message, in seed order, from ``workers`` forked
    processes: worker w runs seeds[w::workers], so seed i's message is the
    next from worker i % workers.  The corpora in ``args`` are shared
    copy-on-write.  Leaving early terminates the workers still running."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    jobs = []
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_pair_worker,
                               args=(send, set_threads, args, seeds[w::workers]))
            proc.start()
            send.close()
            jobs.append((proc, recv))
        for i in range(len(seeds)):
            proc, recv = jobs[i % workers]
            try:
                message = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"the worker for seeds {seeds[i % workers::workers]} "
                                   f"exited with code {proc.exitcode}") from None
            yield message
    except BaseException:  # left early: stop what still runs
        for proc, _ in jobs:
            proc.terminate()
        raise
    finally:
        for proc, recv in jobs:
            recv.close()
            proc.join()


def compare_transfer(source_d: Dataset, target_d: Dataset, arch: str,
                     pre_cfg: TrainConfig, ft_cfg: TrainConfig,
                     seeds: list[int],
                     train_fraction: float = 0.8) -> TransferReport:
    """Per seed: baseline (fresh init) vs pretrain-on-random-labels-then-
    fine-tune, on one shared target train/val split.

    Within a pair everything except initialization is shared: same seed,
    config, data and minibatch order (certified by equal data-order
    fingerprints).  The pairs are independent, so they run in one forked
    worker per usable core (at most one per seed), each at one BLAS
    thread.  They run in this process, in seed order, when that makes one
    worker, when fork or the BLAS thread count is not available, when the
    caller is a daemonic process, or when _transfer_pair has been
    replaced.  The report is the same either way, and the error of the
    first failing seed is raised with its type, naming its seed.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if ft_cfg.epochs < 1:
        raise ConfigError("compare needs at least one fine-tune epoch: each "
                          "arm is scored by its last validation epoch")
    t_train, t_val = split(target_d, SplitSpec(train_fraction, ft_cfg.seed))
    args = (source_d, t_train, t_val, arch, pre_cfg, ft_cfg)
    workers, set_threads = _pair_workers(len(seeds))
    results = (_forked_results(args, list(seeds), workers, set_threads)
               if workers > 1 else _pair_results(args, seeds))
    report = TransferReport(list(seeds), [], [])
    try:
        for (ok, value), seed in zip(results, seeds):
            if not ok:
                raise _seed_error(seed, *value)
            base_acc, ft_acc, base_fp, ft_fp = value
            if base_fp != ft_fp:
                raise RuntimeError(
                    "paired runs consumed different data orders; pairing is broken"
                )
            report.baseline.append(base_acc)
            report.pretrained.append(ft_acc)
            report.order_fingerprints.append((base_fp, ft_fp))
    finally:
        results.close()
    return report
