"""errors.require: the one range check, and the exact message of every
library entry point argument it checks."""

import math
import re

import numpy as np
import pytest

from memlab import (Dataset, MemlabError, MetricsLog, Prng, TrainConfig, build_network,
                    epochs_to_threshold, grad_check, reshuffle_experiment,
                    reshuffle_labels, synth_blobs, synth_images)
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
]
CHECK_IDS = ["synth_blobs spread nan", "synth_blobs spread inf", "synth_blobs spread 0",
             "synth_blobs dim", "synth_blobs num_classes", "synth_images num_classes",
             "synth_images n", "synth_images size", "synth_images size -3",
             "synth_images bumps", "synth_images jitter", "synth_images noise",
             "synth_images clutter", "reshuffle_labels round",
             "Dataset num_classes", "reshuffle_experiment rounds",
             "reshuffle_experiment epochs_per_round", "epochs_to_threshold 0",
             "epochs_to_threshold nan", "grad_check eps", "grad_check max_entries",
             "he_init fan_in", "Prng.below", "Prng.fill_below", "build_network"]


@pytest.mark.parametrize("call, message", CHECKS, ids=CHECK_IDS)
def test_entry_point_names_the_argument_its_rule_and_value(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, MemlabError)

