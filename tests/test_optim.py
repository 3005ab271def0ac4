"""Optimizer update arithmetic and plateau scheduler counter semantics."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memlab import NonFiniteError, PlateauScheduler, SgdMomentum, Tensor, TrainConfig
from memlab.nn.optim import _CHUNK


def param(value):
    t = Tensor(np.array([float(value)]))
    return t


def step_with_grad(opt, t, g):
    t.grad = np.array([float(g)])
    opt.step()


def test_vanilla_sgd():
    # momentum=0, lr=0.1, p=1.0, g=2.0 -> p=0.8
    t = param(1.0)
    opt = SgdMomentum([t], lr=0.1, momentum=0.0)
    step_with_grad(opt, t, 2.0)
    assert t.data[0] == pytest.approx(0.8, abs=0)


def test_two_momentum_steps():
    # v=1 then v=1.9; p = 0 - 0.1 - 0.19 = -0.29
    t = param(0.0)
    opt = SgdMomentum([t], lr=0.1, momentum=0.9)
    step_with_grad(opt, t, 1.0)
    assert t.data[0] == pytest.approx(-0.1)
    step_with_grad(opt, t, 1.0)
    assert t.data[0] == pytest.approx(-0.29)


def test_momentum_carries_with_zero_gradient():
    t = param(0.0)
    opt = SgdMomentum([t], lr=0.1, momentum=0.9)
    step_with_grad(opt, t, 1.0)
    step_with_grad(opt, t, 0.0)
    # velocity decays to 0.9, parameter still moves by lr * 0.9
    assert t.data[0] == pytest.approx(-0.1 - 0.09)


def test_momentum_zero_equals_vanilla_exactly():
    a, b = param(3.0), param(3.0)
    opt = SgdMomentum([a], lr=0.05, momentum=0.0)
    for g in (1.0, -2.0, 0.5):
        step_with_grad(opt, a, g)
        b.data -= 0.05 * np.array([g])
    assert np.array_equal(a.data, b.data)


def test_step_requires_gradients():
    t = param(1.0)
    opt = SgdMomentum([t], lr=0.1, momentum=0.0)
    with pytest.raises(RuntimeError):
        opt.step()


def reference_step(params, velocity, lr, momentum):
    """The whole-array update the chunked step must reproduce bit for bit."""
    for p, v in zip(params, velocity):
        v *= momentum
        v += p.grad
        p.data -= lr * v


CHUNK_SIZES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from(CHUNK_SIZES),
       momentum=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
       lr=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
def test_chunked_step_is_bit_identical_to_reference(size, momentum, lr, seed):
    rng = np.random.default_rng(seed)
    # a matrix, a vector of the drawn size and a single element share one
    # scratch buffer
    shapes = [(3, 5), (size,), (1,)]
    datas = [rng.standard_normal(s) for s in shapes]
    ours = [Tensor(d.copy()) for d in datas]
    ref = [Tensor(d.copy()) for d in datas]
    ref_v = [np.zeros(s) for s in shapes]
    opt = SgdMomentum(ours, lr=lr, momentum=momentum)
    for _ in range(3):
        for a, b in zip(ours, ref):
            a.grad = rng.standard_normal(a.shape)
            b.grad = a.grad.copy()
        opt.step()
        reference_step(ref, ref_v, lr, momentum)
        for a, b, va, vb in zip(ours, ref, opt.velocity, ref_v):
            assert a.data.tobytes() == b.data.tobytes()
            assert va.tobytes() == vb.tobytes()


def test_step_rejects_non_contiguous_parameter():
    t = Tensor(np.zeros((4, 4)))
    opt = SgdMomentum([t], lr=0.1, momentum=0.0)
    t.data = np.zeros((4, 4)).T
    t.grad = np.ones((4, 4))
    with pytest.raises(ValueError):
        opt.step()


def test_optimizer_rejects_bad_hyperparams():
    with pytest.raises(ValueError):
        SgdMomentum([param(0.0)], lr=0.0, momentum=0.0)
    with pytest.raises(ValueError):
        SgdMomentum([param(0.0)], lr=0.1, momentum=1.0)


def test_optimizer_and_scheduler_refuse_a_nan_lr():
    with pytest.raises(ValueError, match="^lr must be positive, got nan$"):
        SgdMomentum([param(0.0)], lr=float("nan"), momentum=0.0)
    with pytest.raises(ValueError, match="^lr must be positive, got nan$"):
        PlateauScheduler(float("nan"), 10, 0.1, 1e-5, "minimize")


# ---------------------------------------------------------------- scheduler

def constant_metric_trace(steps, patience=10, decay=0.1, lr0=0.1):
    sched = PlateauScheduler(lr0, patience, decay, 1e-5, "minimize")
    return [sched.step(1.0) for _ in range(steps)]


def test_first_decay_at_step_12():
    # step 1 sets best; steps 2..11 count 1..10; step 12 pushes count to 11 > 10
    trace = constant_metric_trace(12)
    assert trace[10] == pytest.approx(0.1)  # step 11 still pre-decay
    assert trace[11] == pytest.approx(0.01)


def test_decay_epochs_12_23_34():
    trace = constant_metric_trace(40)
    changes = [i + 1 for i in range(1, len(trace)) if trace[i] != trace[i - 1]]
    assert changes == [12, 23, 34]
    assert trace[-1] == pytest.approx(1e-4)


def test_improving_metric_never_decays():
    sched = PlateauScheduler(0.1, 10, 0.1, 1e-5, "minimize")
    lrs = {sched.step(1.0 / (i + 1)) for i in range(200)}
    assert lrs == {0.1}


def test_maximize_mode():
    sched = PlateauScheduler(0.1, 2, 0.5, 1e-5, "maximize")
    sched.step(0.5)
    assert sched.step(0.6) == pytest.approx(0.1)  # improvement resets
    sched.step(0.6)
    sched.step(0.6)
    assert sched.step(0.6) == pytest.approx(0.05)  # third flat epoch exceeds patience 2


def test_min_lr_floor():
    sched = PlateauScheduler(1e-5, 3, 0.1, 1e-5, "minimize")
    for _ in range(50):
        lr = sched.step(1.0)
        assert lr == pytest.approx(1e-5)


def test_lr_never_rises():
    sched = PlateauScheduler(0.1, 2, 0.1, 1e-5, "minimize")
    last = 0.1
    for metric in [5.0, 4.0, 4.0, 4.0, 4.0, 3.0, 3.0, 3.0, 3.0, 2.0]:
        lr = sched.step(metric)
        assert lr <= last
        last = lr


def test_nan_metric_rejected():
    sched = PlateauScheduler(0.1, 10, 0.1, 1e-5, "minimize")
    with pytest.raises(NonFiniteError):
        sched.step(float("nan"))


def test_scheduler_rejects_bad_mode():
    with pytest.raises(ValueError):
        PlateauScheduler(0.1, 10, 0.1, 1e-5, "median")


# ---------------------------------------------------------------- TrainConfig

def test_config_defaults_follow_recipe():
    cfg = TrainConfig()
    assert cfg.epochs == 200
    assert cfg.initial_lr == 0.1
    assert cfg.momentum == 0.9
    assert cfg.patience == 10
    assert cfg.decay_factor == 0.1
    assert cfg.min_lr == 1e-5
    assert cfg.batch_size == 32
    assert cfg.monitor == "val_accuracy"


@pytest.mark.parametrize("kwargs", [
    dict(epochs=-1),
    dict(initial_lr=0.0),
    dict(momentum=1.0),
    dict(momentum=-0.1),
    dict(patience=0),
    dict(decay_factor=1.0),
    dict(min_lr=0.0),
    dict(batch_size=0),
    dict(monitor="test_loss"),
    dict(seed=2**64),
])
def test_config_validates_ranges(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)
