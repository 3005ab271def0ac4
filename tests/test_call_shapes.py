"""The call shapes bench/tracer.py reads its counts from.

The tracer wraps these functions and reads their positional arguments:
``args[1]`` of the layer and network methods as the batch array (its
FLOP counts, Dense roles and sample count), ``args[0].params`` of
SgdMomentum.step (bytes moved) and ``args[1]`` of save_checkpoint as the
path (checkpoint bytes).  Its step counts and per-step times take one
SgdMomentum.step call for each minibatch that train runs.
"""

import inspect

import pytest

from memlab import (Conv2d, Dense, Flatten, MaxPool2d, Network, ReLU, SgdMomentum, Tensor,
                    TrainConfig, build_network, save_checkpoint, synth_images, train)

POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


@pytest.mark.parametrize("fn, second", [
    (Dense.forward, "x"),
    (Dense.backward, "dy"),
    (Conv2d.forward, "x"),
    (Conv2d.backward, "dy"),
    (Network.backward, "dlogits"),
    (save_checkpoint, "path"),
], ids=["Dense.forward", "Dense.backward", "Conv2d.forward", "Conv2d.backward",
        "Network.backward", "save_checkpoint"])
def test_second_positional_argument(fn, second):
    params = list(inspect.signature(fn).parameters.values())
    assert [p.name for p in params[1:2]] == [second]
    assert all(p.kind in POSITIONAL for p in params[:2])


@pytest.mark.parametrize("cls", [Dense, Conv2d, ReLU, Flatten, MaxPool2d],
                         ids=lambda cls: cls.__name__)
def test_each_layer_defines_its_own_forward_and_backward(cls):
    # the tracer wraps the functions in vars(cls) of each public class, so
    # a method inherited from a private base records no layers.X.* span
    assert {"forward", "backward"} <= set(vars(cls))


def test_optimizer_step_reads_its_params_from_self():
    assert list(inspect.signature(SgdMomentum.step).parameters) == ["self"]
    params = [Tensor([1.0, 2.0])]
    assert SgdMomentum(params, 0.1, 0.9).params is params


def test_train_steps_once_per_minibatch_and_passes_dlogits_second(monkeypatch):
    steps, samples, flattens = [], [], []
    step, backward, flatten = SgdMomentum.step, Network.backward, Flatten.backward

    def counted_step(self):
        steps.append(self)
        return step(self)

    def counted_backward(self, *args, **kwargs):  # as the tracer reads it
        samples.append(args[0].shape[0])
        return backward(self, *args, **kwargs)

    def counted_flatten(self, *args, **kwargs):
        flattens.append(self)
        return flatten(self, *args, **kwargs)

    monkeypatch.setattr(SgdMomentum, "step", counted_step)
    monkeypatch.setattr(Network, "backward", counted_backward)
    monkeypatch.setattr(Flatten, "backward", counted_flatten)
    d = synth_images(40, 3, seed=1, size=4)
    net = Network("flatten dense:8 relu", d.feature_shape, d.num_classes)
    net.initialize(0)
    train(net, d, None, TrainConfig(epochs=2, batch_size=16, monitor="train_loss"))
    assert len(steps) == len(flattens) == 2 * 3  # 16 + 16 + 8 rows an epoch
    assert sum(samples) == 2 * 40


def test_attributes_the_tracer_reads():
    # FLOP counts read these of each Dense and Conv2d, the Dense roles
    # Network.layers and Network.head of what build_network returns, and the
    # step's bytes p.data.size of each optimizer parameter
    net = build_network("conv:4,3,2,1 relu maxpool:2 flatten dense:8 relu", (1, 9, 9), 3)
    conv, dense, head = net.layers[0], net.layers[-2], net.head
    assert (conv.in_channels, conv.out_channels, conv.kernel) == (1, 4, 3)
    assert conv._out_hw(9, 9) == (5, 5)
    assert (dense.in_features, dense.out_features) == (16, 8)
    assert (head.in_features, head.out_features) == (8, 3)
    assert [type(layer).__name__ for layer in net.layers] == [
        "Conv2d", "ReLU", "MaxPool2d", "Flatten", "Dense", "ReLU"]
    opt = SgdMomentum(net.parameters(), 0.1, 0.9)
    assert [p.data.size for p in opt.params] == [36, 4, 128, 8, 24, 3]
