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

from memlab import (Conv2d, Dense, Network, SgdMomentum, Tensor, TrainConfig,
                    save_checkpoint, synth_images, train)

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


def test_optimizer_step_reads_its_params_from_self():
    assert list(inspect.signature(SgdMomentum.step).parameters) == ["self"]
    params = [Tensor([1.0, 2.0])]
    assert SgdMomentum(params, 0.1, 0.9).params is params


def test_train_steps_once_per_minibatch_and_passes_dlogits_second(monkeypatch):
    steps, samples = [], []
    step, backward = SgdMomentum.step, Network.backward

    def counted_step(self):
        steps.append(self)
        return step(self)

    def counted_backward(self, *args, **kwargs):  # as the tracer reads it
        samples.append(args[0].shape[0])
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(SgdMomentum, "step", counted_step)
    monkeypatch.setattr(Network, "backward", counted_backward)
    d = synth_images(40, 3, seed=1, size=4)
    net = Network("flatten dense:8 relu", d.feature_shape, d.num_classes)
    net.initialize(0)
    train(net, d, None, TrainConfig(epochs=2, batch_size=16, monitor="train_loss"))
    assert len(steps) == 2 * 3  # 16 + 16 + 8 rows an epoch
    assert sum(samples) == 2 * 40
