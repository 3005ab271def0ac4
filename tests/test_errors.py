"""errors.require: the one range check, and the exact message of every
library entry point argument it checks."""

import math
import re

import numpy as np
import pytest

from memlab import (Dataset, DatasetSpec, EpochRecord, MemlabError, MetricsLog, Prng,
                    RangeError, SgdMomentum, Tensor, TrainConfig, build_network,
                    compare_transfer, epochs_to_threshold, grad_check,
                    network_from_descriptor, render_svg, reshuffle_experiment,
                    reshuffle_labels, softmax_cross_entropy, split, synth_blobs,
                    synth_images, write_idx)
from memlab.nn import he_init

BLOBS = synth_blobs(12, 3, 4, 0.5, seed=1)
NET = build_network("flatten", (4,), 3)
CFG = TrainConfig(epochs=1, initial_lr=0.1, batch_size=4)
X, Y = np.ones((2, 4)), np.array([0, 1])

# (call, exact message): one row per argument an entry point checks
CHECKS = [
    (lambda: synth_blobs(12, 3, 4, math.nan, seed=0), "spread must be finite, got nan"),
    (lambda: synth_blobs(12, 3, 4, math.inf, seed=0), "spread must be finite, got inf"),
    (lambda: synth_blobs(12, 3, 4, 0.0, seed=0), "spread must be positive, got 0.0"),
    (lambda: synth_blobs(12, 3, 0, 0.5, seed=0), "dim must be >= 1, got 0"),
    (lambda: synth_blobs(12, 0, 4, 0.5, seed=0), "num_classes must be positive, got 0"),
    (lambda: synth_images(10, 0, seed=0), "num_classes must be positive, got 0"),
    (lambda: synth_images(0, 3, seed=0), "n must be positive, got 0"),
    (lambda: synth_images(10, 3, seed=0, size=0), "size must be >= 1, got 0"),
    (lambda: synth_images(10, 3, seed=0, size=-3), "size must be >= 1, got -3"),
    (lambda: synth_images(10, 3, seed=0, bumps=-1), "bumps must be >= 0, got -1"),
    (lambda: synth_images(10, 3, seed=0, jitter=math.inf), "jitter must be finite, got inf"),
    (lambda: synth_images(10, 3, seed=0, noise=math.nan), "noise must be finite, got nan"),
    (lambda: synth_images(10, 3, seed=0, clutter=-math.inf),
     "clutter must be finite, got -inf"),
    (lambda: reshuffle_labels(BLOBS, 7, 0), "round must be >= 1, got 0"),
    (lambda: Dataset(np.zeros((2, 3)), [0, 0], 0), "num_classes must be positive, got 0"),
    (lambda: reshuffle_experiment(BLOBS, "flatten", CFG, 0, 1, 7),
     "rounds must be >= 1, got 0"),
    (lambda: reshuffle_experiment(BLOBS, "flatten", CFG, 1, 0, 7),
     "epochs_per_round must be >= 1, got 0"),
    (lambda: epochs_to_threshold(MetricsLog(), 1, 0.0), "threshold must be in (0, 1], got 0.0"),
    (lambda: epochs_to_threshold(MetricsLog(), 1, math.nan),
     "threshold must be in (0, 1], got nan"),
    (lambda: grad_check(NET, X, Y, eps=0.0), "eps must be positive, got 0.0"),
    (lambda: grad_check(NET, X, Y, max_entries=0), "max_entries must be positive, got 0"),
    (lambda: he_init(np.zeros((4, 3)), 0, Prng(0)), "fan_in must be positive, got 0"),
    (lambda: Prng(0).below(0), "bound must be positive, got 0"),
    (lambda: Prng(0).fill_below(5, -1), "bound must be positive, got -1"),
    (lambda: build_network("flatten", (4,), 0), "num_classes must be positive, got 0"),
    (lambda: TrainConfig(epochs=1.5), "epochs must be an integer, got 1.5"),
    (lambda: TrainConfig(epochs="3"), "epochs must be an integer, got '3'"),
    (lambda: TrainConfig(patience=2.0), "patience must be an integer, got 2.0"),
    (lambda: TrainConfig(batch_size=2.5), "batch_size must be an integer, got 2.5"),
    (lambda: TrainConfig(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: reshuffle_experiment(BLOBS, "flatten", CFG, 1.5, 1, 7),
     "rounds must be an integer, got 1.5"),
    (lambda: reshuffle_experiment(BLOBS, "flatten", CFG, 1, 2.0, 7),
     "epochs_per_round must be an integer, got 2.0"),
    (lambda: split(BLOBS, 1.0, 0), "train_fraction must be in (0, 1), got 1.0"),
    (lambda: split(BLOBS, 0.5, -1), "seed must be in [0, 2**64), got -1"),
]
CHECK_IDS = ["synth_blobs spread nan", "synth_blobs spread inf", "synth_blobs spread 0",
             "synth_blobs dim", "synth_blobs num_classes", "synth_images num_classes",
             "synth_images n", "synth_images size", "synth_images size -3",
             "synth_images bumps", "synth_images jitter", "synth_images noise",
             "synth_images clutter", "reshuffle_labels round",
             "Dataset num_classes", "reshuffle_experiment rounds",
             "reshuffle_experiment epochs_per_round", "epochs_to_threshold 0",
             "epochs_to_threshold nan", "grad_check eps", "grad_check max_entries",
             "he_init fan_in", "Prng.below", "Prng.fill_below", "build_network",
             "TrainConfig epochs float", "TrainConfig epochs str", "TrainConfig patience",
             "TrainConfig batch_size", "TrainConfig seed", "reshuffle_experiment rounds float",
             "reshuffle_experiment epochs_per_round float", "split train_fraction",
             "split seed"]


@pytest.mark.parametrize("call, message", CHECKS, ids=CHECK_IDS)
def test_entry_point_names_the_argument_its_rule_and_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, MemlabError)


def _backward_with_a_stranger_optimizer():
    net = build_network("flatten", (4,), 3)
    net.forward(X)
    opt = SgdMomentum(build_network("flatten", (4,), 3).parameters(), 0.1, 0.9)
    net.backward(np.zeros((2, 3)), opt)


def _step_on_a_column_major_parameter():
    t = Tensor(np.zeros((2, 2)))
    opt = SgdMomentum([t], 0.1, 0.9)
    opt._lend([t])
    t.data = np.asfortranarray(t.data)
    opt.step()


# (call, exact message): one row per refusal of a caller's input that is
# raised outside require
REFUSALS = [
    (_backward_with_a_stranger_optimizer,
     "layer 1 (Dense(4->3)): parameters the optimizer was not built on"),
    (lambda: build_network("bogus", (4,), 3), "layer 0 (bogus): unknown layer kind 'bogus'"),
    (lambda: build_network("relu:3", (4,), 3),
     "layer 0 (relu:3): bad arguments; the form is relu"),
    (lambda: build_network("dense:4", (0,), 3), "input dimensions must be positive: (0,)"),
    (lambda: network_from_descriptor("garbage"), "bad architecture descriptor 'garbage'"),
    (lambda: network_from_descriptor("in:4xa head:3"),
     "bad architecture descriptor 'in:4xa head:3'"),
    (lambda: Dataset(np.zeros(3), np.zeros(3), 2), "samples must be (n, ...feature dims)"),
    (lambda: Dataset(np.zeros((0, 3)), [], 2), "dataset must contain at least one sample"),
    (lambda: Dataset(np.zeros((2, 3)), [0], 2), "2 samples but 1 labels"),
    (lambda: Dataset(np.zeros((2, 3)), [0, 5], 2), "labels must lie in [0, 2)"),
    (lambda: Dataset(np.zeros((2, 3)), [0.5, 1.7], 2),
     "label 0 must be a whole number in int64 range, got 0.5"),
    (lambda: Dataset(np.zeros((2, 3)), [0, math.nan], 2),
     "label 1 must be a whole number in int64 range, got nan"),
    (lambda: Dataset(np.zeros((2, 3)), ["a", "b"], 2),
     "label 0 must be a whole number in int64 range, got a"),
    (lambda: Dataset(np.zeros((2, 3)), [2**70, 0], 2),
     f"label 0 must be a whole number in int64 range, got {2**70}"),
    (lambda: BLOBS.take(0), "cannot take 0 of 12 samples"),
    (lambda: write_idx(BLOBS, "unused", "unused"), "IDX images must be (n, H, W), got (12, 4)"),
    (lambda: synth_blobs(2, 3, 4, 0.5, seed=0), "need n >= num_classes, got n=2, classes=3"),
    (lambda: split(BLOBS.take(2), 0.4, 0),
     "train_fraction 0.4 leaves an empty side for n=2"),
    (lambda: DatasetSpec(kind="synth_blobs", n=2, classes=3),
     "n must be >= classes for kind synth_blobs, got n=2, classes=3"),
    (lambda: DatasetSpec(kind="synth_images", n=5, take=6), "take must be <= n, got take=6, n=5"),
    (lambda: softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 7])),
     "labels must lie in [0, 3), got range [0, 7]"),
    (lambda: MetricsLog().append(EpochRecord(1, 2, "train", 0.5, 0.5, 0.1)),
     "round 1 train epoch 2 breaks contiguity (expected 1)"),
    (lambda: MetricsLog().final(), "log has no val records"),
    (lambda: epochs_to_threshold(MetricsLog(), 1, 0.5), "log has no round 1"),
    (lambda: compare_transfer(BLOBS, BLOBS, "flatten", CFG, CFG, seeds=[]),
     "need at least one seed"),
    (lambda: render_svg(MetricsLog()), "cannot plot an empty log"),
    (_step_on_a_column_major_parameter, "parameter data must be C-contiguous"),
]
REFUSAL_IDS = ["Network.backward optimizer", "unknown layer kind", "bad layer arguments",
               "input dimensions", "descriptor tokens", "descriptor numbers",
               "Dataset rank", "Dataset empty", "Dataset label count", "Dataset label range",
               "Dataset label fraction", "Dataset label nan", "Dataset label text",
               "Dataset label overflow",
               "Dataset.take", "write_idx rank", "synth_blobs n", "split fraction",
               "DatasetSpec classes", "DatasetSpec take", "softmax_cross_entropy labels",
               "MetricsLog.append", "MetricsLog.final", "epochs_to_threshold round",
               "compare_transfer seeds", "render_svg", "SgdMomentum.step layout"]


@pytest.mark.parametrize("call, message", REFUSALS, ids=REFUSAL_IDS)
def test_a_refused_input_raises_a_typed_error_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, MemlabError) and isinstance(info.value, RangeError)
