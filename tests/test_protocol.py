"""Training loop, pretrain/finetune pairing, reshuffle rounds, transfer runs."""

import dataclasses
import multiprocessing
import os
import types

import numpy as np
import pytest

from memlab import (ConfigError, EpochRecord, MetricsLog, ShapeError,
                    SplitSpec, TrainConfig, TrainingDivergedError,
                    TransferReport, assign_random_labels, build_network,
                    compare_transfer, epochs_to_threshold, evaluate, finetune,
                    pretrain_random, reshuffle_experiment, split, splitmix64,
                    synth_blobs, synth_images, train, write_metrics_csv)
from memlab import protocol
from memlab.protocol import shuffle_seed


def blob_cfg(**kw):
    base = dict(epochs=3, initial_lr=0.1, batch_size=16, seed=0,
                monitor="train_loss")
    base.update(kw)
    return TrainConfig(**base)


def fresh_net(d, arch=""):
    net = build_network(arch, d.feature_shape, d.num_classes)
    net.initialize(seed=0)
    return net


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
        tr, va = split(d, SplitSpec(0.75, seed=0))
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
        tr, va = split(d, SplitSpec(0.75, seed=0))
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
        tr, va = split(d, SplitSpec(0.75, seed=0))
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
        t_train, t_val = split(target, SplitSpec(0.75, seed=0))
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

    def test_worker_pool_matches_serial(self, monkeypatch):
        source = synth_blobs(96, 5, 6, 0.5, seed=10)
        target = synth_blobs(80, 3, 6, 0.5, seed=11)
        args = (source, target, "flatten dense:8 relu", blob_cfg(epochs=2),
                blob_cfg(epochs=3))
        # two workers over three seeds: worker 0 runs seeds 5 and 7
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert protocol._pair_workers(3)[0] == 2
        pooled = compare_transfer(*args, seeds=[5, 6, 7])
        monkeypatch.setattr(protocol, "_pair_workers", lambda pairs: (1, None))
        serial = compare_transfer(*args, seeds=[5, 6, 7])
        assert pooled == serial
        assert pooled.seeds == [5, 6, 7]

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
        assert protocol._pair_workers(3)[0] == workers
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(TrainingDivergedError, match=r"^seed 6: non-finite loss"):
            compare_transfer(d, d, "", blob_cfg(epochs=1), blob_cfg(epochs=1),
                             seeds=[5, 6, 7])

    @pytest.mark.parametrize("case", ["one seed", "one core", "replaced pair",
                                      "no thread setter", "daemonic caller"])
    def test_pairs_stay_in_process(self, monkeypatch, case):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if case == "one core" else {0, 1},
                            raising=False)
        if case == "replaced pair":
            monkeypatch.setattr(protocol, "_transfer_pair", lambda *a: None)
        if case == "no thread setter":
            monkeypatch.setattr(protocol, "_BLAS_SET_THREADS", ("no_such_symbol",))
        if case == "daemonic caller":
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: types.SimpleNamespace(daemon=True))
        assert protocol._pair_workers(1 if case == "one seed" else 2) == (1, None)

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(protocol, "pretrain_random", lambda *a: os._exit(3))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        d = synth_blobs(40, 3, 6, 0.5, seed=11)
        with pytest.raises(RuntimeError, match=r"seeds \[0\] exited with code 3"):
            compare_transfer(d, d, "", blob_cfg(epochs=1), blob_cfg(epochs=1),
                             seeds=[0, 1])

    def test_replaced_pair_sees_every_call_in_process(self, monkeypatch):
        calls = []

        def fake_pair(source_d, t_train, t_val, arch, pre_cfg, ft_cfg, seed):
            calls.append((seed, os.getpid()))
            return 0.5, 0.25 + seed, f"fp{seed}", f"fp{seed}"

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
