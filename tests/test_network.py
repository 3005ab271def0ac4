"""Network assembly, descriptors, initialization streams, state loading."""

import numpy as np
import pytest

from memlab import Prng, ShapeError, build_network, network_from_descriptor
from memlab.nn import Conv2d, Dense, Flatten, Network, parse_descriptor


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
    # construction re-checks the stack and blames the offending position
    with pytest.raises(ShapeError, match="layer 1"):
        Network([Flatten(), Conv2d(2, 4, 3)], Dense(8, 2), (2, 4, 4))
    with pytest.raises(ShapeError, match="head"):
        Network([Flatten()], Dense(99, 2), (2, 4, 4))


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


def test_backward_before_forward():
    net = build_network("flatten dense:4", (3,), 2)
    net.initialize(seed=0)
    with pytest.raises(RuntimeError):
        net.backward(np.zeros((1, 2)))


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
        def spy(dy, input_grad=True, _inner=layer.backward):
            asked.append(input_grad)
            return _inner(dy, input_grad=input_grad)
        layer.backward = spy
    batch = rand((4,) + shape, 4000)
    net.forward(batch)
    grads = [g.copy() for g in net.backward(rand((4, 3), 4001))]
    # every layer still runs backward; the first one with parameters and
    # those below it (the last `spared` asked) are spared dx
    assert asked == [True] * (len(net.all_layers) - spared) + [False] * spared
    # the parameter gradients are those of a plain full backward
    ref = build_network(arch, shape, 3)
    ref.initialize(seed=4)
    ref.forward(batch)
    d = ref.head.backward(rand((4, 3), 4001))
    for layer in reversed(ref.layers):
        d = layer.backward(d)
    for a, p in zip(grads, ref.parameters()):
        assert a.tobytes() == p.grad.tobytes()


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
