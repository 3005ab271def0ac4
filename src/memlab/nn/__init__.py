"""From-scratch neural network numerics: tensors, layers, loss, optimizer."""

from .gradcheck import grad_check
from .layers import Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU
from .loss import predictions, softmax_cross_entropy
from .network import (Network, build_network, network_from_descriptor,
                      parse_descriptor)
from .optim import MONITORS, PlateauScheduler, SgdMomentum, TrainConfig
from .tensor import Tensor, he_init

__all__ = [
    "Conv2d", "Dense", "Flatten", "Layer", "MaxPool2d", "Network",
    "PlateauScheduler", "ReLU", "SgdMomentum", "Tensor", "TrainConfig",
    "MONITORS", "build_network", "grad_check", "he_init",
    "network_from_descriptor", "parse_descriptor", "predictions",
    "softmax_cross_entropy",
]
