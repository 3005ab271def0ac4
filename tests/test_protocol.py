"""Training loop, pretrain/finetune pairing, reshuffle rounds, transfer runs."""

import dataclasses
import functools
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import memlab
from memlab import (ConfigError, Dataset, EpochRecord, MetricsLog,
                    ShapeError, TrainConfig, TrainingDivergedError,
                    TransferReport, assign_random_labels, build_network,
                    compare_transfer, epochs_to_threshold, evaluate, finetune,
                    pretrain_random, reshuffle_experiment, split, splitmix64,
                    synth_blobs, synth_images, train, write_metrics_csv)
from memlab import protocol
from memlab.cli import dispatch
from memlab.nn import blas
from memlab.protocol import run_fingerprint, shuffle_seed


def blob_cfg(**kw):
    base = dict(epochs=3, initial_lr=0.1, batch_size=16, seed=0,
                monitor="train_loss")
    base.update(kw)
    return TrainConfig(**base)


def fresh_net(d, arch=""):
    net = build_network(arch, d.feature_shape, d.num_classes)
    net.initialize(seed=0)
    return net


def worker_pid(seed):
    # a job its module binds under its own name, so _seed_map may fork for it
    return os.getpid()


def reshuffle_log(d, seed):
    # a module-level job that returns its log, as a forked worker pickles it
    cfg = blob_cfg(epochs=1, seed=seed)
    return reshuffle_experiment(d, "flatten dense:8 relu", cfg, rounds=2,
                                epochs_per_round=1, base_seed=seed)[1]


# Networks for the row slices of evaluate, with the slices of a 256-row batch:
# an MLP runs one slice per batch; the conv workload's net runs 64 rows; a
# budget of 32 rows is widened to 128 and to 96 rows where a 32-row slice
# would put a Dense product of the batch under _GEMM_SMALL (the second also
# joins its short last slice to the one before); the last runs 32 rows.
_SLICED = {
    "mlp": ("flatten dense:512 relu dense:512 relu", 28, [0, 256]),
    "conv": ("conv:8,3,1,1 relu maxpool:2 flatten dense:128 relu", 28,
             [0, 64, 128, 192, 256]),
    "conv-head-widened": ("conv:8,5,1,2 relu maxpool:2 flatten", 20, [0, 128, 256]),
    "conv-dense-widened": ("conv:3,5,1,2 relu maxpool:2 flatten dense:48 relu", 20,
                           [0, 96, 256]),
    "conv-32": ("conv:8,5,1,2 relu maxpool:2 flatten dense:64 relu", 20,
                list(range(0, 257, 32))),
}


def _sliced_case(case, n):
    arch, size, _ = _SLICED[case]
    d = synth_images(n, 10, seed=n, size=size)
    if arch.startswith("conv"):
        d = Dataset(d.samples.reshape(n, 1, size, size), d.labels, 10)
    net = build_network(arch, d.feature_shape, 10)
    net.initialize(seed=n)
    return net, d


def _whole_batches(net, d):
    """evaluate as one forward per 256-row batch, as it was before slicing."""
    loss_sum, hits = 0.0, 0
    for lo in range(0, d.n, 256):
        yb = d.labels[lo:lo + 256]
        logits = net.forward(d.rows(slice(lo, lo + 256)))
        loss, _ = memlab.softmax_cross_entropy(logits, yb)
        loss_sum += loss * yb.size
        hits += int((memlab.predictions(logits) == yb).sum())
    return loss_sum / d.n, hits / d.n


class TestEvaluate:
    def test_untrained_net_sits_at_chance(self):
        # against iid random labels any fixed classifier is a coin flip
        d = assign_random_labels(synth_blobs(2000, 10, 8, 0.5, seed=0), seed=77)
        net = fresh_net(d)
        loss, acc = evaluate(net, d)
        assert loss > 0
        assert abs(acc - 0.1) < 3 * np.sqrt(0.1 * 0.9 / d.n)

    def test_deterministic(self):
        d = synth_blobs(300, 4, 8, 0.5, seed=1)
        net = fresh_net(d)
        assert evaluate(net, d) == evaluate(net, d)

    def test_head_width_mismatch(self):
        d = synth_blobs(50, 4, 8, 0.5, seed=1)
        net = build_network("", (8,), 3)
        net.initialize(seed=0)
        with pytest.raises(ShapeError):
            evaluate(net, d)

    @pytest.mark.parametrize("n", [1, 44, 64, 257, 300, 800])
    @pytest.mark.parametrize("case", _SLICED)
    def test_slices_give_the_bits_of_whole_batches(self, case, n):
        net, d = _sliced_case(case, n)
        assert protocol._eval_slices(net, 256) == _SLICED[case][2]
        got = evaluate(net, d)
        assert [v.hex() for v in got] == [v.hex() for v in _whole_batches(net, d)]

    def test_slices_give_the_bits_of_whole_batches_at_one_blas_thread(self, tmp_path):
        src = str(Path(memlab.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--basetemp", str(tmp_path / "pytest"),
             "-k", "slices_give and not one_blas_thread", __file__],
            env=env, capture_output=True, text=True, timeout=600)
        assert f"{6 * len(_SLICED)} passed" in run.stdout, run.stdout + run.stderr

    def test_sliced_conv_evaluate_peaks_near_a_slice(self):
        # one forward of a whole 256-image batch peaks at about 40 MiB of
        # im2col rows, products, outputs and masks; 64-row slices at about
        # 12, under four times their 4 MiB budget
        net, d = _sliced_case("conv", 256)
        evaluate(net, d)
        tracemalloc.start()
        try:
            evaluate(net, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_conv_evaluate_keeps_no_backward_caches(self):
        # a slice's im2col rows are dropped as its Conv2d returns, so a
        # 64-row slice peaks at its rows plus their product, about 7 MiB
        net, d = _sliced_case("conv", 256)
        evaluate(net, d)
        assert net._tape is None
        tracemalloc.start()
        try:
            evaluate(net, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n", [288, 300])
    def test_backward_after_evaluate_needs_a_new_forward(self, n):
        # evaluate's last batch has 32 rows at n = 288, the rows of the
        # training batch, and 44 at n = 300: neither may stand in for it
        d = synth_images(n, 10, seed=4, size=8)
        net = build_network("flatten dense:16 relu", d.feature_shape, 10)
        net.initialize(seed=4)
        rows = np.arange(32)
        _, dlogits = memlab.softmax_cross_entropy(net.forward(d.rows(rows)),
                                                  d.labels[rows])
        evaluate(net, d)
        with pytest.raises(RuntimeError, match="backward called without forward"):
            net.backward(dlogits, memlab.SgdMomentum(net.parameters(), 0.1, 0.9))

    def test_coded_slices_decode_into_a_scratch_of_the_widest_slice(self):
        # 4096 values a sample make 128-row slices: the 256-row batch runs
        # 128 + 128 rows, and the 148-row one a single slice, since a 20-row
        # tail is joined to the slice before it
        d = synth_images(256 + 148, 4, seed=2, size=64)
        net = build_network("flatten dense:64 relu", (64, 64), 4)
        net.initialize(seed=0)
        assert protocol._eval_slices(net, 256) == [0, 128, 256]
        assert protocol._eval_slices(net, 148) == [0, 148]
        assert protocol._eval_scratch(net, d).shape == (148, 64, 64)
        assert protocol._eval_scratch(net, Dataset(d.samples, d.labels, 4)) is None
        got = evaluate(net, d)
        assert [v.hex() for v in got] == [v.hex() for v in _whole_batches(net, d)]


class TestTrain:
    def test_separable_task_is_learned(self):
        d = synth_blobs(200, 5, 8, 1e-3, seed=2)
        net = fresh_net(d)
        train(net, d, None, blob_cfg(epochs=20))
        loss, acc = evaluate(net, d)
        assert acc == 1.0
        assert loss < 0.1

    def test_runs_exactly_cfg_epochs(self):
        d = synth_blobs(64, 4, 6, 0.5, seed=3)
        tr, va = split(d, 0.75, seed=0)
        net = fresh_net(d)
        ckpt, log = train(net, tr, va, blob_cfg(epochs=7))
        assert [r.epoch for r in log.rows(split="train")] == list(range(1, 8))
        assert [r.epoch for r in log.rows(split="val")] == list(range(1, 8))
        assert log.rounds() == [1]
        assert log.final("train").epoch == 7
        assert "epochs=7" in ckpt.provenance

    def test_no_val_rows_without_val_set(self):
        d = synth_blobs(64, 4, 6, 0.5, seed=3)
        _, log = train(fresh_net(d), d, None, blob_cfg(epochs=2))
        assert log.rows(split="val") == []

    def test_zero_epochs_returns_initialization(self):
        d = synth_blobs(64, 4, 6, 0.5, seed=3)
        net = fresh_net(d)
        before = net.state_tensors()
        ckpt, log = train(net, d, None, blob_cfg(epochs=0))
        assert log.records == []
        assert all(np.array_equal(a, b) for a, b in zip(ckpt.tensors, before))
        assert "epochs=0" in ckpt.provenance

    def test_train_row_is_pre_step_running_mean(self):
        # with one minibatch per epoch, the recorded loss is the loss of
        # the weights the epoch started with
        d = synth_blobs(32, 4, 6, 0.5, seed=4)
        net = fresh_net(d)
        start_loss, start_acc = evaluate(net, d)
        _, log = train(net, d, None, blob_cfg(epochs=1, batch_size=32))
        rec = log.final("train")
        assert rec.loss == pytest.approx(start_loss, abs=1e-12)
        assert rec.accuracy == pytest.approx(start_acc, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported(self):
        d = synth_blobs(64, 4, 6, 0.5, seed=3)
        net = fresh_net(d, "flatten dense:8 relu")
        with pytest.raises(TrainingDivergedError, match="round 1"):
            train(net, d, None, blob_cfg(epochs=50, initial_lr=1e9))

    def test_nan_weight_is_not_trained_into_checkpoint(self):
        # ReLU used to zero the NaN column, so the run finished with a
        # finite loss and saved the NaN weight
        d = synth_images(64, 4, seed=1)
        net = fresh_net(d, "flatten dense:16 relu")
        net.layers[1].w.data[3, 5] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(net, d, None, blob_cfg(epochs=2))

    def test_final_val_record_is_evaluate_of_final_weights(self):
        d = synth_blobs(64, 4, 6, 0.5, seed=3)
        tr, va = split(d, 0.75, seed=0)
        net = fresh_net(d, "flatten dense:8 relu")
        _, log = train(net, tr, va, blob_cfg(epochs=3))
        final = log.final("val")
        assert (final.loss, final.accuracy) == evaluate(net, va)

    def test_val_monitor_requires_val_set(self):
        d = synth_blobs(64, 4, 6, 0.5, seed=3)
        with pytest.raises(ConfigError):
            train(fresh_net(d), d, None,
                  blob_cfg(epochs=1, monitor="val_accuracy"))

    def test_deterministic_csv_bytes(self, tmp_path):
        d = synth_blobs(64, 4, 6, 0.5, seed=3)
        tr, va = split(d, 0.75, seed=0)
        paths = []
        for name in ("a.csv", "b.csv"):
            _, log = train(fresh_net(d), tr, va, blob_cfg(epochs=4))
            p = tmp_path / name
            write_metrics_csv(log, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestMetricsLog:
    def test_append_validates(self):
        log = MetricsLog()
        ok = EpochRecord(1, 1, "train", 1.0, 0.5, 0.1)
        log.append(ok)
        with pytest.raises(ValueError):
            log.append(EpochRecord(1, 3, "train", 1.0, 0.5, 0.1))
        with pytest.raises(ValueError):
            log.append(EpochRecord(1, 1, "test", 1.0, 0.5, 0.1))
        with pytest.raises(ValueError):
            log.append(EpochRecord(0, 1, "train", 1.0, 0.5, 0.1))
        with pytest.raises(ValueError):
            log.append(EpochRecord(1, 2, "train", -1.0, 0.5, 0.1))
        with pytest.raises(ValueError):
            log.append(EpochRecord(1, 2, "train", 1.0, 1.5, 0.1))
        with pytest.raises(ValueError):
            log.append(EpochRecord(1, 2, "train", 1.0, 0.5, 0.0))
        with pytest.raises(ValueError):
            log.append(EpochRecord(1, 2, "train", float("nan"), 0.5, 0.1))

    @pytest.mark.parametrize("fields, message", [
        ((1, 1, "test", 1.0, 0.5, 0.1), "split must be train or val, got 'test'"),
        ((0, 1, "train", 1.0, 0.5, 0.1), "round must be >= 1, got 0"),
        ((1, 1, "train", -1.0, 0.5, 0.1), "loss must be finite and >= 0, got -1.0"),
        ((1, 1, "train", float("inf"), 0.5, 0.1), "loss must be finite and >= 0"),
        ((1, 1, "train", 1.0, 1.5, 0.1), "accuracy must be in [0, 1], got 1.5"),
        ((1, 1, "train", 1.0, 0.5, 0.0), "lr must be finite and positive, got 0.0"),
        ((1, 1, "train", 1.0, 0.5, float("nan")), "lr must be finite and positive"),
    ])
    def test_record_is_refused_when_built(self, fields, message):
        with pytest.raises(ValueError) as e:
            EpochRecord(*fields)
        assert str(e.value).startswith(message)

    def test_splits_count_epochs_separately(self):
        log = MetricsLog()
        log.append(EpochRecord(1, 1, "train", 1.0, 0.5, 0.1))
        log.append(EpochRecord(1, 1, "val", 1.0, 0.5, 0.1))
        log.append(EpochRecord(2, 1, "train", 1.0, 0.5, 0.1))
        assert log.rounds() == [1, 2]

    def test_final_on_empty_split(self):
        log = MetricsLog()
        log.append(EpochRecord(1, 1, "train", 1.0, 0.5, 0.1))
        with pytest.raises(ValueError):
            log.final("val")

    def test_order_fingerprint_tracks_consumed_indices(self):
        a, b, c = MetricsLog(), MetricsLog(), MetricsLog()
        a.absorb_order(np.array([1, 2, 3]))
        b.absorb_order(np.array([1, 2, 3]))
        c.absorb_order(np.array([3, 2, 1]))
        assert a.data_order_fingerprint == b.data_order_fingerprint
        assert a.data_order_fingerprint != c.data_order_fingerprint

    def test_pickles_as_a_finished_log(self):
        log = reshuffle_log(synth_blobs(40, 3, 6, 0.5, seed=2), 3)
        copy = pickle.loads(pickle.dumps(log))
        assert copy.records == log.records and copy.records
        assert copy.round_labelings == log.round_labelings
        assert copy.round_start_accuracy == log.round_start_accuracy
        assert copy.config_fingerprint == log.config_fingerprint
        assert copy.data_order_fingerprint == log.data_order_fingerprint
        with pytest.raises(RuntimeError, match="data order is final"):
            copy.absorb_order(np.arange(3))
        # the original still takes orders
        log.absorb_order(np.arange(3))
        assert log.data_order_fingerprint != copy.data_order_fingerprint


def test_run_fingerprint_is_pinned():
    # the fingerprint goes into the provenance of every checkpoint: a
    # config with every field off its default must keep hashing the same
    cfg = TrainConfig(epochs=7, initial_lr=0.05, momentum=0.5, patience=3,
                      decay_factor=0.5, min_lr=1e-4, batch_size=16,
                      seed=123456789, monitor="train_loss")
    defaults = TrainConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(TrainConfig))
    d = Dataset(np.zeros((4, 2)), [0, 1, 0, 1], 2, "random(seed=5)")
    assert run_fingerprint(cfg, d) == "52938c10ff254847"


class TestEpochsToThreshold:
    def make_log(self, accs):
        log = MetricsLog()
        for i, acc in enumerate(accs, start=1):
            log.append(EpochRecord(1, i, "train", 1.0, acc, 0.1))
        return log

    def test_first_crossing(self):
        log = self.make_log([0.2, 0.5, 0.95, 0.97])
        assert epochs_to_threshold(log, 1, 0.9) == 3
        assert epochs_to_threshold(log, 1, 0.2) == 1
        assert epochs_to_threshold(log, 1, 1.0) is None

    def test_validation(self):
        log = self.make_log([0.5])
        with pytest.raises(ValueError):
            epochs_to_threshold(log, 2, 0.9)
        with pytest.raises(ValueError):
            epochs_to_threshold(log, 1, 0.0)
        with pytest.raises(ValueError):
            epochs_to_threshold(log, 1, 1.5)


class TestShuffleSeed:
    def test_distinct_across_rounds_and_epochs(self):
        seen = {shuffle_seed(7, r, e) for r in range(1, 5) for e in range(1, 51)}
        assert len(seen) == 200

    def test_depends_on_run_seed(self):
        assert shuffle_seed(1, 1, 1) != shuffle_seed(2, 1, 1)

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_is_the_spelled_out_child_seed(self, seed):
        # the formula the pinned data-order fingerprints were made with
        base = memlab.derive_seed(seed, protocol._ORDER_TAG)
        for r, e in [(1, 1), (3, 50), (2**31 + 1, 2**32 - 1), (2**33, 7)]:
            assert shuffle_seed(seed, r, e) == splitmix64((base ^ ((r << 32) + e)) % 2**64)


class TestPretrainFinetune:
    def test_pretrain_ignores_val_monitor(self):
        d = synth_blobs(64, 4, 6, 0.5, seed=5)
        ckpt, log = pretrain_random(d, "", blob_cfg(epochs=2, monitor="val_accuracy"),
                                    label_seed=9)
        assert len(log.rows(split="train")) == 2
        assert "random(seed=9)" in ckpt.provenance

    def test_memorizes_small_overparametrized_set(self):
        d = synth_blobs(16, 4, 8, 0.5, seed=5)
        cfg = blob_cfg(epochs=150, initial_lr=0.05, batch_size=4)
        ckpt, log = pretrain_random(d, "flatten dense:64 relu", cfg, label_seed=3)
        assert log.final("train").accuracy == 1.0

    def test_zero_epoch_checkpoint_is_label_seed_independent(self):
        d = synth_blobs(32, 4, 6, 0.5, seed=5)
        cfg = blob_cfg(epochs=0)
        a, _ = pretrain_random(d, "", cfg, label_seed=1)
        b, _ = pretrain_random(d, "", cfg, label_seed=2)
        assert a.same_tensors(b)

    def test_zero_epoch_pretrain_reproduces_baseline(self):
        source = synth_blobs(64, 7, 6, 0.5, seed=6)
        target = synth_blobs(80, 4, 6, 0.5, seed=7)
        t_train, t_val = split(target, 0.75, seed=0)
        arch = "flatten dense:10 relu"
        cfg = blob_cfg(epochs=3, seed=3, monitor="val_accuracy")

        base_net = build_network(arch, t_train.feature_shape, 4)
        base_net.initialize(cfg.seed)
        base_ckpt, base_log = train(base_net, t_train, t_val, cfg)

        pre_ckpt, _ = pretrain_random(source, arch,
                                      dataclasses.replace(cfg, epochs=0),
                                      label_seed=11)
        ft_ckpt, ft_log = finetune(pre_ckpt, t_train, cfg, val_d=t_val)

        assert ft_log.records == base_log.records
        assert ft_ckpt.same_tensors(base_ckpt)
        assert ft_log.data_order_fingerprint == base_log.data_order_fingerprint

    def test_finetune_reheads_to_target_classes(self):
        source = synth_blobs(64, 7, 6, 0.5, seed=6)
        target = synth_blobs(64, 3, 6, 0.5, seed=7)
        ckpt, _ = pretrain_random(source, "flatten dense:8 relu",
                                  blob_cfg(epochs=1), label_seed=1)
        ft_ckpt, _ = finetune(ckpt, target, blob_cfg(epochs=1))
        assert ft_ckpt.descriptor.endswith("head:3")
        assert ft_ckpt.tensors[-2].shape == (8, 3)


class TestReshuffle:
    def test_round_one_matches_plain_pretrain_with_derived_seed(self):
        d = synth_blobs(48, 4, 6, 0.5, seed=8)
        cfg = blob_cfg(epochs=3)
        ckpt_a, log_a = reshuffle_experiment(d, "", cfg, rounds=1,
                                             epochs_per_round=3, base_seed=21)
        ckpt_b, log_b = pretrain_random(d, "", cfg, label_seed=splitmix64(21 ^ 1))
        assert ckpt_a.same_tensors(ckpt_b)
        assert log_a.records == log_b.records

    def test_round_bookkeeping(self):
        d = synth_blobs(48, 4, 6, 0.5, seed=8)
        ckpt, log = reshuffle_experiment(d, "", blob_cfg(), rounds=3,
                                         epochs_per_round=2, base_seed=5)
        assert log.rounds() == [1, 2, 3]
        for r in (1, 2, 3):
            assert [rec.epoch for rec in log.rows(round=r, split="train")] == [1, 2]
            assert log.round_labelings[r] == f"reshuffled(seed=5, round={r})"
            assert 0.0 <= log.round_start_accuracy[r] <= 1.0
        assert "epochs=6" in ckpt.provenance

    def test_round_one_starts_at_chance(self):
        d = synth_blobs(2000, 10, 8, 0.5, seed=9)
        _, log = reshuffle_experiment(d, "", blob_cfg(epochs=1), rounds=1,
                                      epochs_per_round=1, base_seed=5)
        assert abs(log.round_start_accuracy[1] - 0.1) < 3 * np.sqrt(0.1 * 0.9 / d.n)

    def test_validation(self):
        d = synth_blobs(16, 4, 6, 0.5, seed=8)
        with pytest.raises(ValueError):
            reshuffle_experiment(d, "", blob_cfg(), rounds=0,
                                 epochs_per_round=1, base_seed=0)
        with pytest.raises(ValueError):
            reshuffle_experiment(d, "", blob_cfg(), rounds=1,
                                 epochs_per_round=0, base_seed=0)


class TestCompareTransfer:
    def test_zero_pretrain_differences_are_exactly_zero(self):
        source = synth_blobs(48, 5, 6, 0.5, seed=10)
        target = synth_blobs(40, 3, 6, 0.5, seed=11)
        report = compare_transfer(source, target, "flatten dense:8 relu",
                                  blob_cfg(epochs=0), blob_cfg(epochs=2),
                                  seeds=[0, 1])
        assert report.differences == [0.0, 0.0]
        assert report.wins == 0
        assert report.mean_difference == 0.0
        for base_fp, ft_fp in report.order_fingerprints:
            assert base_fp == ft_fp

    def test_needs_a_fine_tune_epoch(self):
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(ConfigError):
            compare_transfer(d, d, "", blob_cfg(), blob_cfg(epochs=0), seeds=[0])

    def test_needs_at_least_one_seed(self):
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(ValueError):
            compare_transfer(d, d, "", blob_cfg(), blob_cfg(), seeds=[])

    def test_shape_mismatch_is_refused_before_any_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(protocol, "baseline", lambda *a: calls.append("baseline"))
        monkeypatch.setattr(protocol, "pretrain_random",
                            lambda *a: calls.append("pretrain_random"))
        source = synth_images(12, 3, seed=1, size=28)
        target = synth_images(12, 3, seed=2, size=16)
        with pytest.raises(ShapeError, match=re.escape(
                "target per-sample shape (16, 16) does not fit the source "
                "per-sample shape (28, 28)")):
            compare_transfer(source, target, "flatten", blob_cfg(), blob_cfg(),
                             seeds=[0])
        assert calls == []

    def test_source_and_target_may_differ_in_shape_but_not_in_size(self):
        source = synth_blobs(24, 3, 16, 0.5, seed=1)
        target = synth_images(24, 3, seed=2, size=4)
        report = compare_transfer(source, target, "flatten", blob_cfg(epochs=1),
                                  blob_cfg(epochs=1), seeds=[0])
        assert report.seeds == [0] and len(report.pretrained) == 1

    def test_worker_pool_matches_serial(self, monkeypatch):
        source = synth_blobs(96, 5, 6, 0.5, seed=10)
        target = synth_blobs(80, 3, 6, 0.5, seed=11)
        args = (source, target, "flatten dense:8 relu", blob_cfg(epochs=2),
                blob_cfg(epochs=3))
        # two workers over three seeds: worker 0 runs seeds 5 and 7
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert protocol._seed_workers(protocol._transfer_pair, 3)[0] == 2
        pooled = compare_transfer(*args, seeds=[5, 6, 7])
        monkeypatch.setattr(protocol, "_seed_workers", lambda job, count: (1, None))
        serial = compare_transfer(*args, seeds=[5, 6, 7])
        assert pooled == serial
        assert pooled.seeds == [5, 6, 7]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_error_keeps_its_type_and_names_the_first_seed(
            self, monkeypatch, workers):
        real = protocol.pretrain_random

        def diverging(d, arch, cfg, label_seed):
            # on two workers seed 6 is worker 1's first pair, seed 7 worker 0's second
            if cfg.seed in (6, 7):
                raise TrainingDivergedError("non-finite loss at round 1 epoch 1")
            return real(d, arch, cfg, label_seed)

        # pretrain_random is not _transfer_pair, so the pool still runs
        monkeypatch.setattr(protocol, "pretrain_random", diverging)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)), raising=False)
        assert protocol._seed_workers(protocol._transfer_pair, 3)[0] == workers
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(TrainingDivergedError, match=r"^seed 6: non-finite loss"):
            compare_transfer(d, d, "", blob_cfg(epochs=1), blob_cfg(epochs=1),
                             seeds=[5, 6, 7])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("error, raised, message", [
        (ConfigError("bad", line=4), ConfigError, "seed 6: line 4: bad"),
        # a type whose constructor takes other arguments than one message
        (UnicodeDecodeError("utf-8", b"\xe9", 0, 1, "invalid continuation byte"),
         RuntimeError, "seed 6: UnicodeDecodeError: 'utf-8' codec can't decode "
                       "byte 0xe9 in position 0: invalid continuation byte"),
    ], ids=["ConfigError", "UnicodeDecodeError"])
    def test_pair_error_is_rebuilt_naming_its_seed(self, monkeypatch, workers,
                                                   error, raised, message):
        real = protocol.pretrain_random

        def failing(d, arch, cfg, label_seed):
            if cfg.seed == 6:
                raise error
            return real(d, arch, cfg, label_seed)

        monkeypatch.setattr(protocol, "pretrain_random", failing)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)), raising=False)
        assert protocol._seed_workers(protocol._transfer_pair, 3)[0] == workers
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(raised, match=f"^{re.escape(message)}$") as caught:
            compare_transfer(d, d, "", blob_cfg(epochs=1), blob_cfg(epochs=1),
                             seeds=[5, 6, 7])
        assert type(caught.value) is raised

    def test_first_failing_seed_stops_the_other_workers(self, monkeypatch):
        def pretrain(d, arch, cfg, label_seed):
            if cfg.seed == 5:  # worker 0's first pair
                raise TrainingDivergedError("non-finite loss at round 1 epoch 1")
            time.sleep(120)  # worker 1's pair: nothing waits for it

        monkeypatch.setattr(protocol, "pretrain_random", pretrain)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        start = time.monotonic()
        with pytest.raises(TrainingDivergedError, match=r"^seed 5: "):
            compare_transfer(d, d, "", blob_cfg(epochs=1), blob_cfg(epochs=1),
                             seeds=[5, 6])
        assert time.monotonic() - start < 60
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_broken_pairing_names_its_seed(self, monkeypatch, workers):
        real = protocol.finetune

        def finetune(ckpt, target_d, cfg, val_d=None):
            ckpt, log = real(ckpt, target_d, cfg, val_d=val_d)
            if cfg.seed == 6:
                log.absorb_order(np.arange(3))  # an order its baseline never saw
            return ckpt, log

        monkeypatch.setattr(protocol, "finetune", finetune)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)), raising=False)
        assert protocol._seed_workers(protocol._transfer_pair, 3)[0] == workers
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(RuntimeError, match=r"^seed 6: paired runs consumed "
                                               r"different data orders"):
            compare_transfer(d, d, "", blob_cfg(epochs=1), blob_cfg(epochs=1),
                             seeds=[5, 6, 7])

    def test_module_level_job_runs_in_children(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pids = protocol._seed_map(worker_pid, (), [0, 1])
        assert len(set(pids)) == 2 and os.getpid() not in pids

    def test_forked_workers_send_logs_back(self, monkeypatch):
        d = synth_blobs(40, 3, 6, 0.5, seed=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert protocol._seed_workers(reshuffle_log, 2)[0] == 2
        forked = protocol._seed_map(reshuffle_log, (d,), [0, 1])
        for seed, log in zip([0, 1], forked):
            here = reshuffle_log(d, seed)
            assert log.data_order_fingerprint == here.data_order_fingerprint
            assert log.records == here.records
        assert multiprocessing.active_children() == []

    def test_error_in_process_is_raised_from_the_jobs_own(self):
        def job(seed):
            raise ConfigError("bad", line=4)

        with pytest.raises(ConfigError, match=r"^seed 0: line 4: bad$") as caught:
            protocol._seed_map(job, (), [0])
        cause = caught.value.__cause__
        assert type(cause) is ConfigError and cause.line == 4

    @pytest.mark.parametrize("case", ["one seed", "one core", "no affinity mask",
                                      "replaced pair", "no thread setter",
                                      "daemonic caller", "nested function", "lambda",
                                      "wrapped pair", "partial", "callable object"])
    def test_pairs_stay_in_process(self, monkeypatch, case):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if case == "one core" else {0, 1},
                            raising=False)
        if case == "no affinity mask":
            monkeypatch.delattr(os, "sched_getaffinity")
        if case == "replaced pair":
            monkeypatch.setattr(protocol, "_transfer_pair", lambda *a: None)
        if case == "no thread setter":
            monkeypatch.setattr(blas, "_BLAS_SET_THREADS", ("no_such_symbol",))
        if case == "daemonic caller":
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: types.SimpleNamespace(daemon=True))
        pair = job = protocol._transfer_pair
        if case == "nested function":
            def job(*args):
                return pair(*args)
        if case == "lambda":
            job = lambda *args: pair(*args)
        if case == "wrapped pair":  # a closure, as the bench tracer wraps it
            def job(*args, **kwargs):
                return pair(*args, **kwargs)
            job.__wrapped__ = pair
        if case == "partial":
            job = functools.partial(pair)
        if case == "callable object":
            job = type("Pair", (), {"__call__": staticmethod(pair)})()
        assert protocol._seed_workers(job, 1 if case == "one seed" else 2) == (1, None)

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(protocol, "pretrain_random", lambda *a: os._exit(3))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(RuntimeError, match=r"seeds \[0\] exited with code 3"):
            compare_transfer(d, d, "", blob_cfg(epochs=1), blob_cfg(epochs=1),
                             seeds=[0, 1])
        assert multiprocessing.active_children() == []

    def test_replaced_pair_sees_every_call_in_process(self, monkeypatch):
        calls = []

        def fake_pair(source_d, t_train, t_val, arch, pre_cfg, ft_cfg, seed):
            calls.append((seed, os.getpid()))
            return 0.5, 0.25 + seed, (f"fp{seed}", f"fp{seed}")

        monkeypatch.setattr(protocol, "_transfer_pair", fake_pair)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        report = compare_transfer(d, d, "", blob_cfg(), blob_cfg(), seeds=[0, 1, 2])
        assert calls == [(s, os.getpid()) for s in (0, 1, 2)]
        assert report.pretrained == [0.25, 1.25, 2.25]
        assert report.order_fingerprints == [("fp0", "fp0"), ("fp1", "fp1"),
                                             ("fp2", "fp2")]

    def test_report_statistics(self):
        report = TransferReport([0, 1], [0.5, 0.6], [0.7, 0.55])
        assert report.differences == pytest.approx([0.2, -0.05])
        assert report.wins == 1
        assert report.mean_difference == pytest.approx(0.075)
        assert report.std_difference == pytest.approx(
            float(np.std([0.2, -0.05], ddof=1)))
        single = TransferReport([0], [0.5], [0.6])
        assert single.std_difference == 0.0


IMAGES_COMPARE_CFG = """\
data.kind = synth_images
data.n = 60
data.classes = 3
data.seed = 1
data.size = 8
target.kind = synth_images
target.n = 40
target.classes = 3
target.seed = 2
target.size = 8
arch = flatten dense:8 relu
epochs = 1
lr = 0.05
batch_size = 16
seeds = 0,1
"""


class TestCodedCorpora:
    """8-bit corpora are stored as codes and decoded a batch at a time."""

    def float_twin(self, d):
        return Dataset(d.samples, d.labels, d.num_classes, d.labeling)

    def test_run_fingerprint_ignores_the_storage(self):
        d = synth_images(20, 3, seed=1, size=6)
        assert d.codes is not None
        assert run_fingerprint(blob_cfg(), d) == run_fingerprint(blob_cfg(), self.float_twin(d))

    def test_training_sees_the_same_values_as_float_storage(self):
        d = synth_images(60, 3, seed=4, size=6)
        runs = []
        for data in (d, self.float_twin(d)):
            tr, va = split(data, 0.75, seed=2)
            ckpt, log = train(fresh_net(tr, "flatten dense:8 relu"), tr, va,
                              blob_cfg(epochs=2, monitor="val_accuracy"))
            runs.append((ckpt.tensors, log.records))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(runs[0][0], runs[1][0]))
        assert runs[0][1] == runs[1][1]

    def test_round_decodes_every_validation_pass_into_one_buffer(self, monkeypatch):
        d = synth_images(80, 3, seed=5, size=6)
        tr, va = split(d, 0.5, seed=1)
        real, buffers = protocol.evaluate, []

        def spy(net, data, scratch=None):
            buffers.append(scratch)
            return real(net, data, scratch)
        monkeypatch.setattr(protocol, "evaluate", spy)
        train(fresh_net(tr, "flatten dense:8 relu"), tr, va,
              blob_cfg(epochs=3, monitor="val_accuracy"))
        assert len(buffers) == 3 and buffers[0] is not None
        assert all(b is buffers[0] for b in buffers)

    def test_transfer_peaks_below_the_decoded_source(self, monkeypatch):
        source = synth_images(2000, 10, seed=3)
        target = synth_images(200, 10, seed=4)
        monkeypatch.setattr(protocol, "_seed_workers", lambda job, count: (1, None))
        tracemalloc.start()
        try:
            compare_transfer(source, target, "flatten dense:16 relu",
                             blob_cfg(epochs=1, batch_size=32), blob_cfg(epochs=1),
                             seeds=[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < source.n * 28 * 28 * 8

    @pytest.mark.parametrize("run", ["compare_transfer", "reshuffle_experiment",
                                     "memlab compare"])
    def test_no_whole_corpus_is_decoded(self, monkeypatch, tmp_path, run):
        whole = Dataset.samples

        def samples(d):
            if d.codes is not None:
                raise AssertionError("a whole 8-bit corpus was decoded")
            return whole.fget(d)
        monkeypatch.setattr(Dataset, "samples", property(samples))
        source = synth_images(60, 3, seed=1, size=8)
        cfg = blob_cfg(epochs=1)
        if run == "compare_transfer":
            report = compare_transfer(source, synth_images(40, 3, seed=2, size=8),
                                      "flatten dense:8 relu", cfg, cfg, seeds=[0, 1])
            assert len(report.pretrained) == 2
        elif run == "reshuffle_experiment":
            _, log = reshuffle_experiment(source, "flatten dense:8 relu", cfg,
                                          rounds=2, epochs_per_round=1, base_seed=3)
            assert log.rounds() == [1, 2]
        else:
            path = tmp_path / "run.cfg"
            path.write_text(IMAGES_COMPARE_CFG)
            assert dispatch(["compare", "--config", str(path),
                             "--out", str(tmp_path / "cmp")]) == 0
            assert len((tmp_path / "cmp" / "report.csv").read_text().splitlines()) == 3


def test_import_loads_no_process_pool():
    # compare_transfer imports multiprocessing when it first runs: loaded at
    # import, it would add setup time and resident memory to every command
    src = str(Path(memlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, memlab, memlab.cli; print([m for m in "
            "('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
