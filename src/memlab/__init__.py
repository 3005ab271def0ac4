"""memlab: what does a network learn from memorizing random labels?

A small numpy laboratory for the random-label pretraining recipe: train a
network to memorize uniformly random labels, then fine-tune it on a real
task and compare against training from scratch; plus the sequential
label-reshuffle experiment where the same network memorizes fresh random
labels over and over.

Fully deterministic: every stochastic choice flows from explicit seeds
through a counter-based splitmix64 stream.
"""

from .data import (
    Dataset,
    Labeling,
    SplitSpec,
    assign_random_labels,
    load_idx,
    reshuffle_labels,
    split,
    synth_blobs,
    synth_images,
    write_idx,
)
from .errors import (
    BadMagicError,
    ConfigError,
    CountMismatchError,
    MemlabError,
    NonFiniteError,
    RangeError,
    ShapeError,
    TrainingDivergedError,
    TruncatedError,
    UsageError,
    VersionError,
)
from .nn import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    Network,
    PlateauScheduler,
    ReLU,
    SgdMomentum,
    Tensor,
    TrainConfig,
    build_network,
    grad_check,
    network_from_descriptor,
    predictions,
    softmax_cross_entropy,
)
from .persist import (
    DatasetSpec,
    RunSpec,
    load_checkpoint,
    parse_config,
    read_metrics_csv,
    render_config,
    save_checkpoint,
    write_metrics_csv,
)
from .prng import Prng, derive_seed, splitmix64
from .protocol import (
    Checkpoint,
    EpochRecord,
    MetricsLog,
    TransferReport,
    baseline,
    compare_transfer,
    epochs_to_threshold,
    evaluate,
    finetune,
    pretrain_random,
    reshuffle_experiment,
    train,
)
from .svg import emit_svg, render_svg

__version__ = "0.1.0"

__all__ = [
    "BadMagicError", "Checkpoint", "ConfigError", "Conv2d",
    "CountMismatchError", "Dataset", "DatasetSpec", "Dense", "EpochRecord",
    "Flatten", "Labeling", "MaxPool2d", "MemlabError", "MetricsLog",
    "Network", "NonFiniteError", "PlateauScheduler", "Prng", "RangeError", "ReLU",
    "RunSpec", "SgdMomentum", "ShapeError", "SplitSpec", "Tensor",
    "TrainConfig", "TrainingDivergedError", "TransferReport",
    "TruncatedError", "UsageError", "VersionError", "assign_random_labels",
    "baseline", "build_network", "compare_transfer", "derive_seed", "emit_svg",
    "epochs_to_threshold", "evaluate", "finetune", "grad_check", "load_checkpoint",
    "load_idx", "network_from_descriptor", "parse_config", "predictions",
    "pretrain_random", "read_metrics_csv", "render_config", "render_svg",
    "reshuffle_experiment", "reshuffle_labels", "save_checkpoint",
    "softmax_cross_entropy", "split", "splitmix64", "synth_blobs",
    "synth_images", "train", "write_idx", "write_metrics_csv",
]
