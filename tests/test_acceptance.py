"""Acceptance gate: one test per claimed property, one pass/fail line each.

These are the binding end-to-end checks; unit details live in the other
test files.  Criteria 2, 3 and 5 train real networks, one seed per
usable core at a time, and together take about two minutes on two cores.
"""

import statistics
import struct

import numpy as np
import pytest

from memlab import protocol
from memlab import (BadMagicError, Checkpoint, ConfigError,
                    CountMismatchError, PlateauScheduler, Prng,
                    TrainConfig, TruncatedError, VersionError, build_network,
                    compare_transfer, epochs_to_threshold, evaluate, finetune,
                    grad_check, load_checkpoint, load_idx,
                    network_from_descriptor, parse_config, pretrain_random,
                    reshuffle_experiment, save_checkpoint, split, synth_images,
                    train, write_metrics_csv)

MEMO_ARCH = "flatten dense:512 relu dense:512 relu"
MEMO_CORPUS_SEED = 100
MEMO_N, MEMO_CLASSES = 128, 10


def report(n, label, ok, detail):
    line = f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def memo_corpus():
    return synth_images(MEMO_N, MEMO_CLASSES, seed=MEMO_CORPUS_SEED)


def memo_cfg(seed, epochs):
    return TrainConfig(epochs=epochs, initial_lr=0.01, batch_size=32,
                       seed=seed, monitor="train_loss")


# the per-seed jobs of criteria 2-4: module-level functions returning plain
# data, so that protocol._seed_map runs their seeds on forked workers

def memorization_epochs(d, seed):
    _, log = pretrain_random(d, MEMO_ARCH, memo_cfg(seed, 50), label_seed=1000 + seed)
    return epochs_to_threshold(log, 1, 0.99)


def reshuffle_outcome(d, seed):
    """Per round: epochs to 0.9 train accuracy, and the accuracy before
    the round's first step."""
    _, log = reshuffle_experiment(d, MEMO_ARCH, memo_cfg(seed, 150), rounds=4,
                                  epochs_per_round=150, base_seed=7)
    return ({r: epochs_to_threshold(log, r, 0.9) for r in log.rounds()},
            log.round_start_accuracy)


@pytest.fixture(scope="module")
def reshuffle_runs():
    # shared by criteria 3 and 4: five seeds, four rounds each
    return protocol._seed_map(reshuffle_outcome, (memo_corpus(),), range(5))


def test_criterion_1_gradient_correctness():
    # every layer type exercised in >= 20 random (shape, seed) instances
    rng = Prng(0xACCE97)
    worst = 0.0
    for i in range(24):
        c = 1 + rng.below(3)
        h = 6 + rng.below(7)
        k = 2 + rng.below(2)
        stride = 1 + rng.below(2)
        pad = rng.below(2)
        pool_stride = 1 + rng.below(2)
        width = 4 + rng.below(5)
        classes = 2 + rng.below(4)
        batch = 2 + rng.below(3)
        arch = (f"conv:{1 + rng.below(3)},{k},{stride},{pad} relu "
                f"maxpool:2,{pool_stride} flatten dense:{width} relu")
        net = build_network(arch, (c, h, h), classes)
        net.initialize(seed=rng.next_u64())
        x = rng.fill_gaussian(batch * c * h * h).reshape(batch, c, h, h)
        y = np.array([rng.below(classes) for _ in range(batch)])
        err = grad_check(net, x, y, seed=rng.next_u64())
        worst = max(worst, err)
    report(1, "gradient correctness", worst < 1e-4,
           f"24 instances, max relative error {worst:.3e}")


def test_criterion_2_memorization_capacity():
    # 512-wide MLP drives 128 images with random labels to >= 0.99 train
    # accuracy; 50 epochs is a hard subset of the 500-epoch budget
    hits = protocol._seed_map(memorization_epochs, (memo_corpus(),), range(5))
    reached = sum(1 for h in hits if h is not None)
    report(2, "memorization capacity", reached >= 4,
           f"epochs to 0.99: {hits}, reached in {reached}/5 seeds")


def test_criterion_3_reshuffle_speedup(reshuffle_runs):
    per_round = {}
    for r in (1, 2, 3, 4):
        hits = [epochs[r] for epochs, _ in reshuffle_runs]
        assert all(h is not None for h in hits), f"round {r} never hit 0.9: {hits}"
        per_round[r] = statistics.median(hits)
    ok = (per_round[2] < per_round[1]
          and all(per_round[r] <= per_round[1] for r in (3, 4)))
    report(3, "reshuffle speedup", ok,
           f"median epochs to 0.9 per round: {per_round}")


def test_criterion_4_chance_reset(reshuffle_runs):
    chance = 1.0 / MEMO_CLASSES
    bound = 3 * np.sqrt(chance * (1 - chance) / MEMO_N)
    worst = max(abs(start[r] - chance)
                for _, start in reshuffle_runs for r in (1, 2, 3, 4))
    report(4, "chance reset", worst <= bound,
           f"max |start - {chance}| = {worst:.4f}, bound {bound:.4f}")


def test_criterion_5_transfer_direction():
    # source corpus A with random labels, target corpus B with true labels;
    # 200-sample target training split keeps the task feature-starved
    source = synth_images(10000, 30, seed=500)
    target = synth_images(1000, 30, seed=600)
    pre_cfg = TrainConfig(epochs=16, initial_lr=0.03, batch_size=32,
                          monitor="train_loss")
    ft_cfg = TrainConfig(epochs=40, initial_lr=0.003, batch_size=32,
                         monitor="val_accuracy")
    rep = compare_transfer(source, target, "flatten dense:256 relu dense:256 relu",
                           pre_cfg, ft_cfg, seeds=[0, 1, 2, 3, 4],
                           train_fraction=0.2)
    ok = rep.wins >= 3 and rep.mean_difference > 0
    pairs = [(round(b, 3), round(p, 3))
             for b, p in zip(rep.baseline, rep.pretrained)]
    report(5, "transfer direction", ok,
           f"wins {rep.wins}/5, mean diff {rep.mean_difference:+.4f}, "
           f"pairs {pairs}")


def test_criterion_6_paired_run_anchor(tmp_path):
    source = synth_images(64, 5, seed=700, size=12)
    target = synth_images(60, 5, seed=701, size=12)
    arch = "flatten dense:32 relu"
    identical, zero_diff = [], []
    for seed in (0, 1):
        cfg = TrainConfig(epochs=5, initial_lr=0.05, batch_size=16,
                          seed=seed, monitor="val_accuracy")
        tr, va = split(target, 0.8, seed)

        base_net = build_network(arch, tr.feature_shape, tr.num_classes)
        base_net.initialize(cfg.seed)
        _, base_log = train(base_net, tr, va, cfg)

        ckpt, _ = pretrain_random(source, arch,
                                  TrainConfig(epochs=0, seed=seed),
                                  label_seed=9000 + seed)
        ft_ckpt, ft_log = finetune(ckpt, tr, cfg, val_d=va)

        pa, pb = tmp_path / f"base{seed}.csv", tmp_path / f"ft{seed}.csv"
        write_metrics_csv(base_log, pa)
        write_metrics_csv(ft_log, pb)
        identical.append(pa.read_bytes() == pb.read_bytes())

        ft_net = network_from_descriptor(ft_ckpt.descriptor)
        ft_net.load_state(ft_ckpt.tensors)
        zero_diff.append(evaluate(ft_net, va)[1] - evaluate(base_net, va)[1])

    ok = all(identical) and all(d == 0.0 for d in zero_diff)
    report(6, "paired-run anchor", ok,
           f"csv identical {identical}, differences {zero_diff}")


def test_criterion_7_scheduler_semantics():
    sched = PlateauScheduler(0.1, patience=10, decay_factor=0.1, min_lr=1e-5,
                             mode="minimize")
    lrs = [sched.step(1.0) for _ in range(40)]
    decay_calls = [i + 1 for i in range(1, 40) if lrs[i] != lrs[i - 1]]
    ok = (decay_calls == [12, 23, 34]
          and lrs[10] == 0.1
          and lrs[11] == pytest.approx(0.01)
          and lrs[22] == pytest.approx(0.001)
          and lrs[33] == pytest.approx(1e-4))
    report(7, "scheduler semantics", ok,
           f"decays at step calls {decay_calls}, want [12, 23, 34]")


def test_criterion_8_determinism_and_persistence(tmp_path):
    d = synth_images(64, 5, seed=800, size=12)
    tr, va = split(d, 0.75, seed=0)
    cfg = TrainConfig(epochs=4, initial_lr=0.05, batch_size=16, seed=3,
                      monitor="val_accuracy")

    csvs = []
    ckpts = []
    for run in (1, 2):
        net = build_network("flatten dense:16 relu", tr.feature_shape,
                            tr.num_classes)
        net.initialize(cfg.seed)
        ckpt, log = train(net, tr, va, cfg)
        p = tmp_path / f"run{run}.csv"
        write_metrics_csv(log, p)
        csvs.append(p.read_bytes())
        ckpts.append(ckpt)
    deterministic = csvs[0] == csvs[1]

    cp = tmp_path / "final.ckpt"
    save_checkpoint(ckpts[0], cp)
    back = load_checkpoint(cp)
    cp2 = tmp_path / "again.ckpt"
    save_checkpoint(back, cp2)
    round_trip = (back.same_tensors(ckpts[0])
                  and back.descriptor == ckpts[0].descriptor
                  and back.provenance == ckpts[0].provenance
                  and cp.read_bytes() == cp2.read_bytes())

    typed = []
    bad_idx = tmp_path / "bad.idx"
    bad_idx.write_bytes(struct.pack(">IIII", 0x9999, 1, 2, 2) + bytes(4))
    lab = tmp_path / "ok.lab"
    lab.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    with pytest.raises(BadMagicError):
        load_idx(bad_idx, lab)
    typed.append("idx magic")
    short_img = tmp_path / "short.idx"
    short_img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(5))
    with pytest.raises(TruncatedError):
        load_idx(short_img, lab)
    typed.append("idx truncation")
    two_img = tmp_path / "two.idx"
    two_img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(8))
    with pytest.raises(CountMismatchError):
        load_idx(two_img, lab)
    typed.append("idx count")
    raw = cp.read_bytes()
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagicError):
        load_checkpoint(broken)
    broken.write_bytes(raw[:4] + struct.pack("<H", 99) + raw[6:])
    with pytest.raises(VersionError):
        load_checkpoint(broken)
    broken.write_bytes(raw[:-4])
    with pytest.raises(TruncatedError):
        load_checkpoint(broken)
    typed.append("checkpoint magic/version/truncation")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("data.kind = synth_blobs\narch = flatten\npatiense = 1\n")
    with pytest.raises(ConfigError):
        parse_config(bad_cfg)
    typed.append("config key")

    ok = deterministic and round_trip
    report(8, "determinism and persistence", ok,
           f"csv identical {deterministic}, checkpoint round-trip {round_trip}, "
           f"typed errors: {', '.join(typed)}")
