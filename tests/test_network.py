"""Network assembly, descriptors, initialization streams, state loading."""

import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memlab import (Prng, SgdMomentum, ShapeError, build_network, network_from_descriptor,
                    softmax_cross_entropy)
from memlab.nn import blas, parse_descriptor
from memlab.nn.blas import _matmul_into
from memlab.nn.gradcheck import _gradients
from oracles import reference_backward, reference_step
from test_byte_gate import CONV_ARCH


def rand(shape, seed):
    return Prng(seed).fill_gaussian(int(np.prod(shape))).reshape(shape)


def test_descriptor_round_trip():
    net = build_network("flatten dense:512 relu dense:512 relu", (28, 28), 10)
    desc = net.descriptor
    assert desc == "in:28x28 flatten dense:512 relu dense:512 relu head:10"
    rebuilt = network_from_descriptor(desc)
    assert rebuilt.descriptor == desc


def test_descriptor_of_and_parse():
    desc = build_network("conv:8,3 relu flatten", (1, 28, 28), 5).descriptor
    arch, shape, classes = parse_descriptor(desc)
    assert arch == "conv:8,3,1,0 relu flatten"
    assert shape == (1, 28, 28)
    assert classes == 5


def test_descriptor_canonicalizes_conv_defaults():
    # short conv/maxpool tokens come back in full form
    net = build_network("conv:8,3 relu maxpool:2 flatten", (1, 8, 8), 4)
    assert net.descriptor == "in:1x8x8 conv:8,3,1,0 relu maxpool:2,2 flatten head:4"
    again = network_from_descriptor(net.descriptor)
    assert again.descriptor == net.descriptor


def test_parse_descriptor_rejects_garbage():
    with pytest.raises(ValueError):
        parse_descriptor("flatten dense:4")
    with pytest.raises(ValueError):
        parse_descriptor("in:axb flatten head:2")
    with pytest.raises(ValueError):
        parse_descriptor("in:4 flatten head:x")


def test_unknown_token():
    with pytest.raises(ValueError):
        build_network("flatten dropout:0.5", (4,), 2)


def test_dense_needs_flat_input():
    with pytest.raises(ShapeError):
        build_network("dense:8", (2, 4, 4), 2)


def test_head_needs_flat_features():
    with pytest.raises(ShapeError):
        build_network("conv:4,3", (1, 8, 8), 2)


def test_shape_error_names_layer():
    # construction checks the stack and blames the offending position
    with pytest.raises(ShapeError, match=r"^layer 1 \(conv:4,3\): "):
        build_network("flatten conv:4,3", (2, 4, 4), 2)
    with pytest.raises(ShapeError, match="^head: "):
        build_network("relu", (2, 4, 4), 2)


@pytest.mark.parametrize("arch, shape, error, prefix", [
    ("maxpool:5", (1, 3, 3), ShapeError, "layer 0 (maxpool:5): "),
    ("flatten dense:4 conv:2,1", (1, 3, 3), ShapeError, "layer 2 (conv:2,1): "),
    ("conv:8,3,0", (1, 8, 8), ValueError,
     "layer 0 (conv:8,3,0): stride must be positive, got 0"),
    ("dense:4", (2, 2), ShapeError, "layer 0 (dense:4): "),
    ("conv:4,3", (1, 8, 8), ShapeError, "head"),
    ("relu:3", (4,), ValueError, "layer 0 (relu:3): "),
    ("flatten relu:", (4,), ValueError, "layer 1 (relu:): "),
    ("flatten:9", (4,), ValueError, "layer 0 (flatten:9): "),
    ("dense:4", (0,), ValueError, "input dimensions must be positive"),
], ids=["pool too wide", "conv on flat", "conv stride 0", "dense unflattened",
        "head unflattened", "relu:3", "relu:", "flatten:9", "empty input"])
def test_errors_name_their_position(arch, shape, error, prefix):
    with pytest.raises(error, match="^" + re.escape(prefix)):
        build_network(arch, shape, 2)


# per-sample element counts of 2**64 and just above 2**63: a wrapping product
# would size the head 0 or negative wide; the exact one is refused by numpy
# before anything is allocated
@pytest.mark.parametrize("descriptor", ["in:4294967296x4294967296 flatten head:2",
                                        "in:3037000500x3037000500 flatten head:2"])
def test_widths_are_exact_element_counts(descriptor):
    with pytest.raises(ValueError, match="^head: ") as caught:
        network_from_descriptor(descriptor)
    assert "in_features must be positive" not in str(caught.value)


@pytest.mark.parametrize("token, shape, canonical", [
    ("dense:7", (3,), "dense:7"),
    ("dense:08", (3,), "dense:8"),
    ("conv:8,3", (1, 8, 8), "conv:8,3,1,0"),
    ("conv:4,5,2,1", (2, 9, 9), "conv:4,5,2,1"),
    ("maxpool:2", (1, 4, 4), "maxpool:2,2"),
    ("maxpool:3,1", (1, 4, 4), "maxpool:3,1"),
    ("relu", (3,), "relu"),
    ("flatten", (1, 4, 4), "flatten"),
], ids=str)
def test_descriptor_writes_every_argument(token, shape, canonical):
    net = build_network(f"{token} flatten", shape, 2)
    assert net.descriptor.split()[1] == canonical


@st.composite
def _archs(draw):
    """Token strings from the grammar on a flat or a (C, H, W) input shape:
    conv, maxpool and relu tokens on images, then flatten, dense and relu,
    in short and full forms.  About one token in six is made bad: another
    kind in its place (unknown, or one the shape before it does not fit),
    an argument too many or too few, or one out of range or no integer."""
    side = st.integers(1, 9)
    image = draw(st.booleans())
    shape = draw(st.tuples(st.integers(1, 3), side, side) if image else st.tuples(side))
    kinds = draw(st.lists(st.sampled_from(["conv", "maxpool", "relu"]), max_size=3)
                 if image else st.just([]))
    kinds += ["flatten"] + draw(st.lists(st.sampled_from(["dense", "relu"]), max_size=3))
    tokens = []
    for kind in kinds:
        fault = draw(st.sampled_from([None] * 5 + ["kind", "count", "value"]))
        if fault == "kind":
            kind = draw(st.sampled_from(["flatten", "relu", "dense", "conv", "maxpool",
                                         "dropout"]))
        least, most = {"dense": (1, 1), "conv": (2, 4), "maxpool": (1, 2)}.get(kind, (0, 0))
        args = [draw(st.sampled_from(["1", "2", "3", "02"]))
                for _ in range(draw(st.integers(least, most)))]
        if fault == "count":
            args = args[:-1] if args and draw(st.booleans()) else args + ["1"]
        elif fault == "value" and args:
            bad = draw(st.sampled_from(["0", "-1", "", "x"]))
            args[draw(st.integers(0, len(args) - 1))] = bad
        tokens.append(kind + (":" + ",".join(args) if args else ""))
    return tokens, shape


@settings(max_examples=400, deadline=None)
@given(case=_archs())
def test_tokens_build_what_their_descriptor_rebuilds_or_name_the_fault(case):
    tokens, shape = case
    try:
        net = build_network(" ".join(tokens), shape, 3)
    except (ShapeError, ValueError) as e:
        at = re.match(r"layer (\d+) ", str(e))
        assert at or str(e).startswith("head"), str(e)
        if at:
            i = int(at.group(1))
            assert str(e).startswith(f"layer {i} ({tokens[i]}): "), (tokens, str(e))
        return
    again = network_from_descriptor(net.descriptor)
    assert again.descriptor == net.descriptor
    assert [p.shape for p in again.parameters()] == [p.shape for p in net.parameters()]
    assert again.sample_floats == net.sample_floats
    assert again.sample_products == net.sample_products


@pytest.mark.parametrize("arch, shape, products, floats", [
    ("flatten dense:512 relu dense:512 relu", (28, 28),
     [196608, 102400, 102400, 262144, 5120], 784),
    ("conv:8,3,1,1 relu maxpool:2 flatten dense:128 relu", (1, 28, 28),
     [56448, 200704, 1280], 7056),
    ("conv:4,3,2,1 relu maxpool:2 flatten dense:8 relu", (1, 9, 9), [900, 128, 80], 225),
], ids=["mlp", "conv", "strided conv"])
def test_per_sample_products_and_floats(arch, shape, products, floats):
    # what evaluate sizes its row slices by: the multiply-adds of each K
    # panel of each product (784 = 384 + 200 + 200; a conv row per output
    # position), and the floats of the widest array a forward makes
    net = build_network(arch, shape, 10)
    assert net.sample_products == products
    assert net.sample_floats == floats


def test_forward_identity_single_dense():
    net = build_network("", (2,), 2)
    net.head.w.data[:] = np.eye(2)
    out = net.forward(np.array([[3.0, 5.0]]))
    assert np.array_equal(out, [[3.0, 5.0]])


def test_forward_matches_straight_line_reimplementation():
    net = build_network("flatten dense:12 relu dense:7 relu", (5,), 4)
    net.initialize(seed=42)
    x = rand((9, 5), 1000)

    # independent re-statement of the same arithmetic
    w1, b1 = net.layers[1].w.data, net.layers[1].b.data
    w2, b2 = net.layers[3].w.data, net.layers[3].b.data
    wh, bh = net.head.w.data, net.head.b.data
    h1 = np.maximum(x @ w1 + b1, 0.0)
    h2 = np.maximum(h1 @ w2 + b2, 0.0)
    want = h2 @ wh + bh

    got = net.forward(x)
    denom = np.maximum(np.abs(want), 1e-30)
    assert np.max(np.abs(got - want) / denom) < 1e-12


def test_forward_is_deterministic():
    net = build_network("flatten dense:8 relu", (6,), 3)
    net.initialize(seed=9)
    x = rand((4, 6), 2000)
    assert np.array_equal(net.forward(x), net.forward(x))


def test_input_reshaping():
    net = build_network("conv:2,3 relu flatten", (1, 6, 6), 2)
    net.initialize(seed=1)
    flat = rand((3, 36), 3000)
    cube = flat.reshape(3, 1, 6, 6)
    assert np.array_equal(net.forward(flat), net.forward(cube))
    with pytest.raises(ShapeError):
        net.forward(rand((3, 35), 3001))


def test_conv_reads_image_samples_as_one_channel():
    net = build_network("conv:8,3 relu maxpool:2 flatten", (28, 28), 10)
    assert net.input_shape == (1, 28, 28)
    assert net.descriptor == "in:1x28x28 conv:8,3,1,0 relu maxpool:2,2 flatten head:10"
    assert network_from_descriptor(net.descriptor).descriptor == net.descriptor
    channel = build_network("conv:8,3 relu maxpool:2 flatten", (1, 28, 28), 10)
    for a in (net, channel):
        a.initialize(seed=3)
    x = rand((5, 28, 28), 3100)
    assert net.forward(x).tobytes() == channel.forward(x.reshape(5, 1, 28, 28)).tobytes()
    # an MLP keeps its (H, W) descriptor, which pinned checkpoints hold
    assert build_network("flatten dense:4", (28, 28), 10).descriptor == \
        "in:28x28 flatten dense:4 head:10"


def test_backward_before_forward():
    net = build_network("flatten dense:4", (3,), 2)
    net.initialize(seed=0)
    with pytest.raises(RuntimeError):
        net.backward(np.zeros((1, 2)), SgdMomentum(net.parameters(), 0.1, 0.9))


@pytest.mark.parametrize("arch,shape", [
    ("flatten dense:4 relu", (3,)),
    ("conv:2,3 relu maxpool:2 flatten", (1, 6, 6)),
], ids=["mlp", "conv"])
def test_each_training_forward_allows_one_backward(arch, shape):
    net = build_network(arch, shape, 2)
    net.initialize(seed=0)
    batch, dlogits = rand((4,) + shape, 4100), rand((4, 2), 4101)
    opt = SgdMomentum(net.parameters(), 0.1, 0.9)
    none = "backward called without forward"
    with pytest.raises(RuntimeError, match=none):  # before any forward
        net.backward(dlogits, opt)
    net.forward(batch)
    grads = _gradients(net, dlogits)
    with pytest.raises(RuntimeError, match=none):  # a second time after one forward
        net.backward(dlogits, opt)
    net.forward(batch)
    net.forward(batch, cache=False)
    with pytest.raises(RuntimeError, match=none):  # after a forward that keeps nothing
        net.backward(dlogits, opt)
    net.forward(batch)
    for a, g in zip(grads, _gradients(net, dlogits)):
        assert a.tobytes() == g.tobytes()


@pytest.mark.parametrize("arch,shape", [
    ("flatten dense:4 relu", (3,)),
    ("", (3,)),
], ids=["mlp", "head-only"])
@pytest.mark.parametrize("dshape", [(5, 2), (6, 2), (3, 2), (4, 3), (4,), (4, 2, 1)],
                         ids=["5-rows", "6-rows", "3-rows", "3-classes", "flat", "3-d"])
def test_backward_refuses_dlogits_of_another_shape(arch, shape, dshape):
    # a (5, 2) dlogits once updated the head, then escaped ReLU as a bare
    # ValueError; on a head-only net a (6, 2) one trained silently
    net = build_network(arch, shape, 2)
    net.initialize(seed=0)
    opt = SgdMomentum(net.parameters(), 0.1, 0.9)
    batch = rand((4,) + shape, 4700)
    net.forward(batch)
    net.backward(rand((4, 2), 4701), opt)
    opt.step()
    before = [p.data.tobytes() for p in net.parameters()]
    velocity = [v.tobytes() for v in opt.velocity]
    net.forward(batch)
    with pytest.raises(ShapeError, match=re.escape(f"{dshape}, the forward needs (4, 2)")):
        net.backward(rand(dshape, 4702), opt)
    assert [p.data.tobytes() for p in net.parameters()] == before
    assert [v.tobytes() for v in opt.velocity] == velocity
    net.backward(rand((4, 2), 4701), opt)  # the forward's backward is still due
    opt.step()


@pytest.mark.parametrize("held", [slice(0, 0), slice(2, None), slice(0, -1)],
                         ids=["none", "all-but-the-first-layer", "all-but-the-head-bias"])
def test_backward_refuses_an_optimizer_of_other_parameters(held):
    # one built on another net's parameters once escaped the first layer's
    # backward as a bare KeyError, the id() of a parameter
    net, other = (build_network("flatten dense:4 relu", (3,), 2) for _ in range(2))
    net.initialize(seed=0)
    params = net.parameters()
    foreign = SgdMomentum(other.parameters()[:2] + params[held], 0.1, 0.9)
    opt = SgdMomentum(params, 0.1, 0.9)
    batch = rand((4, 3), 4700)
    net.forward(batch)
    before = [v.tobytes() for v in foreign.velocity]
    lacking = "layer 3 (Dense(4->2))" if held.stop == -1 else "layer 1 (Dense(3->4))"
    with pytest.raises(ValueError, match=re.escape(f"{lacking}: parameters the optimizer")):
        net.backward(rand((4, 2), 4701), foreign)
    assert [v.tobytes() for v in foreign.velocity] == before
    with pytest.raises(RuntimeError, match="missing gradient"):  # nothing lent
        foreign.step()
    net.backward(rand((4, 2), 4701), opt)  # the forward's backward is still due
    opt.step()


@pytest.mark.parametrize("arch,shape,spared", [
    ("conv:3,3,1,1 relu maxpool:2 conv:2,3 relu flatten dense:5 relu", (2, 10, 10), 1),
    ("flatten dense:6 relu", (2, 3, 3), 2),
    ("relu maxpool:2 flatten dense:4", (1, 4, 4), 4),
    ("", (7,), 1),
], ids=["conv", "mlp", "pool-then-dense", "head-only"])
def test_backward_skips_input_gradients_nothing_uses(arch, shape, spared):
    net = build_network(arch, shape, 3)
    net.initialize(seed=4)
    asked = []
    for layer in net.all_layers:
        def spy(dy, saved, velocity, mu, input_grad=True, _inner=layer.backward):
            asked.append(input_grad)
            return _inner(dy, saved, velocity, mu, input_grad=input_grad)
        layer.backward = spy
    batch, dlogits = rand((4,) + shape, 4000), rand((4, 3), 4001)
    net.forward(batch)
    grads = _gradients(net, dlogits)
    # every layer still runs backward; the first one with parameters and
    # those below it (the last `spared` asked) are spared dx
    assert asked == [True] * (len(net.all_layers) - spared) + [False] * spared
    # the parameter gradients are those of a plain full backward
    ref = build_network(arch, shape, 3)
    ref.initialize(seed=4)
    for a, b in zip(grads, reference_backward(ref, batch, dlogits)):
        assert a.tobytes() == b.tobytes()


MLP = "flatten dense:512 relu dense:512 relu"


def train_steps(arch, shape, batch, momentum, reference, steps=3):
    """The net and its velocities after ``steps`` SGD steps, each a
    network backward then ``step()`` or, for ``reference``, the whole-array
    update from gradients kept to the end of a backward of their own."""
    net = build_network(arch, shape, 10)
    net.initialize(seed=9)
    opt = SgdMomentum(net.parameters(), 0.05, momentum)
    return run_steps(net, opt, shape, batch, reference, steps)


def run_steps(net, opt, shape, batch, reference, steps=3):
    momentum = opt.momentum
    for s in range(steps):
        x = rand((batch,) + shape, 4200 + s)
        logits = net.forward(x, cache=not reference)
        _, dlogits = softmax_cross_entropy(logits, Prng(4300 + s).fill_below(batch, 10))
        if reference:
            grads = reference_backward(net, x, dlogits)
            reference_step(net.parameters(), opt.velocity, grads, 0.05, momentum)
        else:
            net.backward(dlogits, opt)
            opt.step()
    return net, opt.velocity


# a conv whose 32 x 144 weight-gradient product folds: over 6 * 8 * 8 = 384
# rows, and over the 16 * 16 rows of one image, whose dy is read column-major
FOLDING_CONV = "conv:16,3,1,1 relu conv:32,3,1,1 relu flatten"


@pytest.mark.parametrize("arch,shape,batch,momentum", [
    (MLP, (28, 28), 32, 0.9),  # both 784-512-512 weight products fold
    (MLP, (28, 28), 400, 0.9),  # K = 400 weight-gradient products sum in panels
    (CONV_ARCH, (1, 16, 16), 8, 0.9),  # no product folds
    (MLP, (28, 28), 32, 0.0),  # nothing folds at momentum 0
    (MLP, (28, 28), 32, 0.5),
    (FOLDING_CONV, (1, 8, 8), 6, 0.9),
    (FOLDING_CONV, (1, 16, 16), 1, 0.9),
], ids=["mlp-32", "mlp-400", "conv-overlapping-pool", "momentum-0", "momentum-0.5",
        "conv-folds", "conv-folds-one-image"])
def test_applied_in_backward_gives_the_bits_of_a_step(arch, shape, batch, momentum):
    plain, plain_v = train_steps(arch, shape, batch, momentum, reference=True)
    fused, fused_v = train_steps(arch, shape, batch, momentum, reference=False)
    for a, b in zip(plain.parameters(), fused.parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    for a, b in zip(plain_v, fused_v):
        assert a.tobytes() == b.tobytes()


def test_the_folding_cases_fold():
    # what the bits above are checked on: a folded product where it says so
    assert blas._fuses(32, 16 * 9, 6 * 8 * 8) and blas._fuses(32, 16 * 9, 16 * 16)
    assert blas._fuses(784, 512, 32) and blas._fuses(512, 512, 32)
    assert not blas._fuses(784, 512, 400) and not blas._fuses(512, 10, 32)


@pytest.mark.parametrize("load", [False, True], ids=["initialize", "load_state"])
def test_an_optimizer_built_before_the_weights_trains_to_the_same_bits(load):
    # initialize and load_state write into the parameters' arrays, so an
    # optimizer built first still holds the live parameters; it once failed
    # on the first backward with a bare KeyError
    want, want_v = train_steps(MLP, (28, 28), 32, 0.9, reference=False)
    net = build_network(MLP, (28, 28), 10)
    arrays = [p.data for p in net.parameters()]
    opt = SgdMomentum(net.parameters(), 0.05, 0.9)
    if load:
        donor = build_network(MLP, (28, 28), 10)
        donor.initialize(seed=9)
        state = donor.state_tensors()
        net.load_state(state)
        # copied, never aliased: the step leaves the caller's arrays alone
        assert not any(np.shares_memory(p.data, t) for p, t in zip(net.parameters(), state))
    else:
        net.initialize(seed=9)
    got, got_v = run_steps(net, opt, (28, 28), 32, reference=False)
    for a, b in zip(want.parameters(), got.parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    for a, b in zip(want_v, got_v):
        assert a.tobytes() == b.tobytes()
    assert all(p.data is a for p, a in zip(net.parameters(), arrays))


def test_without_the_dgemm_symbol_a_step_gives_the_same_bits(monkeypatch):
    want, want_v = train_steps(MLP, (28, 28), 32, 0.9, reference=False)
    monkeypatch.setattr(blas, "_dgemm", lambda: None)
    assert not blas._fuses(784, 512, 32)
    got, got_v = train_steps(MLP, (28, 28), 32, 0.9, reference=False)
    for a, b in zip(want.parameters(), got.parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    for a, b in zip(want_v, got_v):
        assert a.tobytes() == b.tobytes()


def test_momentum_zero_keeps_a_non_finite_velocity_as_the_two_steps_do():
    # dgemm at beta = 0 overwrites its target without reading it, so a
    # folded product would drop the NaN that v *= 0 keeps ...
    x, dy = rand((32, 784), 4700), rand((32, 512), 4701)
    v = np.full((784, 512), np.nan)
    _matmul_into(x, dy, v, 0.0)
    assert np.isfinite(v).all()
    # ... so at momentum 0 no product folds, and a step keeps it
    runs = []
    for reference in (True, False):
        net = build_network(MLP, (28, 28), 10)
        net.initialize(seed=9)
        opt = SgdMomentum(net.parameters(), 0.05, 0.0)
        opt.velocity[0][0, :3] = [np.nan, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):  # 0 * inf
            runs.append(run_steps(net, opt, (28, 28), 32, reference, steps=1))
    (plain, plain_v), (fused, fused_v) = runs
    for a, b in zip(plain.parameters(), fused.parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    for a, b in zip(plain_v, fused_v):
        assert a.tobytes() == b.tobytes()
    assert np.isnan(fused_v[0][0, :3]).all()


# the head's weight gradient, the largest a batch-32 backward of the MLP makes
HEAD_FLOATS = 512 * 10


def test_backward_keeps_no_gradient_alive_beyond_one_layer():
    """A short round of the 784-512-512-10 MLP, traced once with every
    gradient kept to the step and once folded in backward."""
    peaks = []
    for reference in (True, False):
        net = build_network(MLP, (28, 28), 10)
        net.initialize(seed=9)
        opt = SgdMomentum(net.parameters(), 0.05, 0.9)
        batches = [(rand((32, 28, 28), 4500 + s), Prng(4600 + s).fill_below(32, 10))
                   for s in range(4)]
        tracemalloc.start()
        try:
            for x, y in batches:
                _, dlogits = softmax_cross_entropy(net.forward(x, cache=not reference), y)
                if reference:
                    # folded in place: the reference's whole-array step
                    # would add a temporary of W1's size
                    grads = reference_backward(net, x, dlogits)
                    for v, g in zip(opt._lend(net.parameters()), grads):
                        v *= opt.momentum
                        v += g
                    del grads
                else:
                    net.backward(dlogits, opt)
                opt.step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    grad_bytes = 8 * sum(p.size for p in net.parameters())
    assert peaks[0] - peaks[1] >= 0.9 * (grad_bytes - 8 * HEAD_FLOATS)


def test_init_streams_ignore_head_width():
    # changing the head width must not disturb the feature layers' draws
    a = build_network("flatten dense:16 relu dense:8 relu", (10,), 3)
    b = build_network("flatten dense:16 relu dense:8 relu", (10,), 30)
    a.initialize(seed=77)
    b.initialize(seed=77)
    for pa, pb in zip(a.parameters()[:-2], b.parameters()[:-2]):
        assert np.array_equal(pa.data, pb.data)


def test_initialize_is_deterministic():
    a = build_network("flatten dense:16 relu", (10,), 3)
    b = build_network("flatten dense:16 relu", (10,), 3)
    a.initialize(seed=5)
    b.initialize(seed=5)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    a.initialize(seed=6)
    assert not np.array_equal(a.parameters()[0].data, b.parameters()[0].data)
    # re-initializing a trained net, in place, gives a fresh net's bits
    for arch, shape in (("flatten dense:16 relu", (10,)),
                        ("conv:2,3 relu maxpool:2 flatten dense:4 relu", (1, 6, 6))):
        trained, fresh = build_network(arch, shape, 3), build_network(arch, shape, 3)
        trained.initialize(seed=6)
        opt = SgdMomentum(trained.parameters(), 0.1, 0.9)
        for step in range(3):
            batch = rand((8,) + shape, 5100 + step)
            _, dlogits = softmax_cross_entropy(trained.forward(batch), np.arange(8) % 3)
            trained.backward(dlogits, opt)
            opt.step()
        arrays = [p.data for p in trained.parameters()]
        assert all(b.any() for b in arrays[1::2])
        trained.initialize(seed=5)
        fresh.initialize(seed=5)
        for p, array, q in zip(trained.parameters(), arrays, fresh.parameters()):
            assert p.data is array
            assert p.data.tobytes() == q.data.tobytes()
        for p in trained.parameters()[1::2]:
            assert p.data.tobytes() == np.zeros(p.size).tobytes()


def test_load_state_full_and_skip_head():
    src = build_network("flatten dense:6 relu", (4,), 3)
    src.initialize(seed=11)
    state = src.state_tensors()

    dst = build_network("flatten dense:6 relu", (4,), 3)
    dst.initialize(seed=12)
    dst.load_state(state)
    for p, t in zip(dst.parameters(), state):
        assert np.array_equal(p.data, t)

    other = build_network("flatten dense:6 relu", (4,), 5)
    other.initialize(seed=13)
    head_before = [p.data.copy() for p in other.head.params()]
    other.load_state(state, skip_head=True)
    for p, t in zip(other.parameters()[:-2], state[:-2]):
        assert np.array_equal(p.data, t)
    for p, kept in zip(other.head.params(), head_before):
        assert np.array_equal(p.data, kept)


def test_load_state_validates():
    net = build_network("flatten dense:6 relu", (4,), 3)
    net.initialize(seed=1)
    state = net.state_tensors()
    with pytest.raises(ShapeError):
        net.load_state(state[:-1])
    bad = [t.copy() for t in state]
    bad[0] = np.zeros((7, 7))
    with pytest.raises(ShapeError):
        net.load_state(bad)


@pytest.mark.parametrize("skip_head", [False, True])
def test_load_state_with_a_bad_tensor_changes_nothing(skip_head):
    # tensor 2 (the second Dense's weights) is checked before 0 and 1 load
    net = build_network("flatten dense:6 relu dense:5 relu", (4,), 3)
    net.initialize(seed=1)
    before = [p.data.tobytes() for p in net.parameters()]
    other = build_network("flatten dense:6 relu dense:5 relu", (4,), 3)
    other.initialize(seed=2)
    bad = other.state_tensors()
    bad[2] = np.zeros((5, 6))
    with pytest.raises(ShapeError, match=r"^tensor 2 shape \(5, 6\), "
                                         r"the descriptor needs \(6, 5\)$"):
        net.load_state(bad, skip_head=skip_head)
    assert [p.data.tobytes() for p in net.parameters()] == before


def test_state_tensors_are_copies():
    net = build_network("flatten dense:4", (3,), 2)
    net.initialize(seed=2)
    state = net.state_tensors()
    state[0][:] = 99.0
    assert not np.array_equal(net.parameters()[0].data, state[0])
