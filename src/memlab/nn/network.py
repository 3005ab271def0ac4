"""Feed-forward network: an ordered layer stack plus a classifier head,
built from an architecture token string, e.g.

    flatten dense:512 relu dense:512 relu
    conv:8,3,1,1 relu maxpool:2 flatten

Each token is read in order and its layer sized from the per-sample shape
before it.  The head (a Dense layer mapping features to class logits) is
appended automatically, so the same token string serves any class count.
A full descriptor pins down input shape and head width too, with every
token in canonical form (each argument written out):

    in:28x28 flatten dense:512 relu dense:512 relu head:10

and is what checkpoints store.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import RangeError, ShapeError, require
from ..prng import Prng, derive_seed
from .layers import Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU
from .tensor import Tensor

_LAYER_STREAM_TAG = 0x4C415945_52535453  # distinct stream family for layer init

# each token kind: the least and most integer arguments it takes, its usage
_KINDS = {"flatten": (0, 0, "flatten"), "relu": (0, 0, "relu"),
          "dense": (1, 1, "dense:W"), "conv": (2, 4, "conv:C,K[,S[,P]]"),
          "maxpool": (1, 2, "maxpool:K[,S]")}


class Network:
    """Layers plus head, built from ``arch``'s tokens in one walk that
    checks each layer fits the per-sample shape before it; ``descriptor``
    is the canonical full descriptor of what was built."""

    def __init__(self, arch: str, input_shape: tuple[int, ...], num_classes: int):
        require(locals(), lambda v: v > 0, "positive", "num_classes")
        shape = _input_dims(input_shape)
        tokens = arch.split()
        if len(shape) == 2 and tokens[:1] and tokens[0].partition(":")[0] == "conv":
            shape = (1, *shape)  # (H, W) samples feed a first conv as one channel
        self.input_shape = shape
        layers, canonical = [], ["in:" + "x".join(map(str, shape))]
        # per sample, what evaluate sizes its row slices by: the floats of
        # the widest array a forward makes, and the multiply-adds of each product
        self.sample_floats, self.sample_products = math.prod(shape), []
        self._first_params = len(tokens)
        # the head is read as one more dense token, and written as head:N
        for i, token in enumerate(tokens + [f"dense:{int(num_classes)}"]):
            try:
                layer, canon = _layer(token, shape)
                out = layer.output_shape(shape)
            except (ShapeError, ValueError) as e:
                where = f"layer {i} ({token})" if i < len(tokens) else "head"
                raise type(e)(f"{where}: {e}") from None
            self.sample_floats = max(self.sample_floats, layer.forward_floats(shape))
            self.sample_products += layer.forward_products(shape)
            if layer.params():
                self._first_params = min(self._first_params, i)
            layers.append(layer)
            canonical.append(canon)
            shape = out
        *self.layers, self.head = layers
        canonical[-1] = f"head:{self.head.out_features}"
        self.descriptor = " ".join(canonical)
        self._tape = None  # (rows, what each layer's forward saved), for one backward

    @property
    def num_classes(self) -> int:
        return self.head.out_features

    @property
    def all_layers(self) -> list[Layer]:
        return self.layers + [self.head]

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.all_layers:
            out.extend(layer.params())
        return out

    def initialize(self, seed: int) -> None:
        """He-init every layer from its own per-position stream.

        Layer i always draws from the same child stream of ``seed`` no
        matter what the other layers look like, so e.g. swapping the head
        width leaves the feature layers' initial weights untouched.  The
        draws are written into the parameters' arrays, which stay the same.
        """
        base = derive_seed(int(seed), _LAYER_STREAM_TAG)
        for i, layer in enumerate(self.all_layers):
            layer.init_params(Prng(derive_seed(base, i + 1)))

    def _adapt_input(self, batch: np.ndarray) -> np.ndarray:
        if batch.ndim < 1:
            raise ShapeError("network input must have a batch dimension")
        rest = batch.shape[1:]
        if rest == self.input_shape:
            return batch
        if math.prod(rest) == math.prod(self.input_shape):
            return batch.reshape((batch.shape[0],) + self.input_shape)
        raise ShapeError(
            f"network input: got per-sample shape {rest}, "
            f"expected {self.input_shape}"
        )

    def forward(self, batch: np.ndarray, *, cache: bool = True) -> np.ndarray:
        """Logits of shape (batch, num_classes).

        The net keeps what each layer's forward saved, for one backward.
        With ``cache`` false (a pure read of the net, as evaluate runs it)
        it drops each saved value as its layer returns, so no im2col rows
        outlive their Conv2d, and a backward before the next forward
        raises RuntimeError.
        """
        x = self._adapt_input(np.asarray(batch, dtype=np.float64))
        self._tape, tape = None, []
        for i, layer in enumerate(self.all_layers):
            try:
                x, saved = layer.forward(x)
            except ValueError as e:
                raise ShapeError(f"layer {i} ({layer.describe()}): {e}") from None
            if cache:
                tape.append(saved)
            del saved  # under cache false, gone as its layer returns
        self._tape = (len(x), tape) if cache else None
        return x

    def backward(self, dlogits: np.ndarray, opt) -> None:
        """Run every layer's backward, from the head down, folding each
        parameter's gradient g into the velocity v that the optimizer
        ``opt`` keeps for it: ``opt._lend`` hands a layer its parameters'
        velocities, and the layer writes ``g + mu*v`` into them (see
        ``blas._grad_into``).  No gradient outlives its layer's backward,
        and no weight moves: ``opt.step()`` then does ``p <- p - lr*v``.
        The first layer with parameters (the head, when no other has any)
        and the layers below it are asked for no input gradient: nothing
        consumes the gradient with respect to the batch or to a
        parameter-free prefix.

        Each training forward allows one backward: a backward before any
        forward, a second one after one forward, or one after a forward
        with ``cache`` false raises RuntimeError.  A ``dlogits`` that is not
        (rows of that forward, num_classes) raises ShapeError, and an
        ``opt`` that does not hold every parameter raises RangeError naming
        a layer whose parameters it lacks.  Both are raised before any
        layer runs, and leave that forward's backward to a later call.
        """
        if self._tape is None:
            raise RuntimeError("backward called without forward")
        rows, tape = self._tape
        d = np.asarray(dlogits, dtype=np.float64)
        if d.shape != (rows, self.num_classes):
            raise ShapeError(f"dlogits shape {d.shape}, the forward needs "
                             f"{(rows, self.num_classes)}")
        for i, layer in enumerate(self.all_layers):
            if any(id(p) not in opt._index for p in layer.params()):
                raise RangeError(f"layer {i} ({layer.describe()}): parameters "
                                 "the optimizer was not built on")
        self._tape = None
        # popped, each saved value is let go once its layer has used it
        for i, layer in reversed(list(enumerate(self.all_layers))):
            d = layer.backward(d, tape.pop(), opt._lend(layer.params()), opt.momentum,
                               input_grad=i > self._first_params)

    def state_tensors(self) -> list[np.ndarray]:
        """Copies of all parameter arrays in network order."""
        return [p.data.copy() for p in self.parameters()]

    def check_state(self, tensors: list[np.ndarray], skip_head: bool = False) -> list[Tensor]:
        """The parameters ``tensors`` load into, in network order (all but
        the head's with ``skip_head``); ShapeError unless there is a tensor
        per parameter and each loaded one has its parameter's shape."""
        params = self.parameters()
        if len(tensors) != len(params):
            raise ShapeError(f"{len(tensors)} tensors, the descriptor needs {len(params)}")
        if skip_head:
            params = params[:-len(self.head.params())]
        for i, (t, p) in enumerate(zip(tensors, params)):
            if np.shape(t) != p.shape:
                raise ShapeError(f"tensor {i} shape {np.shape(t)}, "
                                 f"the descriptor needs {p.shape}")
        return params

    def load_state(self, tensors: list[np.ndarray], skip_head: bool = False) -> None:
        """Copy ``tensors`` into the parameters' arrays, once check_state
        has passed them all; no array is rebound, so an optimizer built
        before keeps the live parameters.

        With ``skip_head`` the trailing head parameters are left as they
        are (used when transferring a feature extractor onto a new task).
        """
        for p, t in zip(self.check_state(tensors, skip_head), tensors):
            p.data[...] = np.asarray(t, dtype=np.float64)


def _layer(token: str, shape: tuple[int, ...]) -> tuple[Layer, str]:
    """The layer ``token`` builds on per-sample input ``shape``, with the
    constructors' defaults, and its canonical token read back from it."""
    kind, colon, spec = token.partition(":")
    if kind not in _KINDS:
        raise RangeError(f"unknown layer kind {kind!r}")
    least, most, usage = _KINDS[kind]
    try:
        args = [int(a) for a in spec.split(",")] if colon else []
    except ValueError:
        args = None
    if args is None or not least <= len(args) <= most:
        raise RangeError(f"bad arguments; the form is {usage}")
    if kind == "flatten":
        return Flatten(), kind
    if kind == "relu":
        return ReLU(), kind
    if kind == "dense":
        if len(shape) != 1:
            raise ShapeError(f"needs flat input, got {shape}; insert 'flatten' before it")
        layer = Dense(shape[0], *args)
        return layer, f"dense:{layer.out_features}"
    if kind == "conv":
        layer = Conv2d(shape[0], *args)
        return layer, f"conv:{layer.out_channels},{layer.kernel},{layer.stride},{layer.padding}"
    layer = MaxPool2d(*args)
    return layer, f"maxpool:{layer.kernel},{layer.stride}"


def _input_dims(input_shape: tuple[int, ...]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in input_shape)
    if not dims or min(dims) <= 0:
        raise RangeError(f"input dimensions must be positive: {dims}")
    return dims


def build_network(arch: str, input_shape: tuple[int, ...], num_classes: int) -> Network:
    """Network from an architecture token string; head appended automatically."""
    return Network(arch, input_shape, num_classes)


def parse_descriptor(descriptor: str) -> tuple[str, tuple[int, ...], int]:
    """Inverse of Network.descriptor: (arch tokens, input shape, num classes)."""
    tokens = descriptor.split()
    if len(tokens) < 2 or not tokens[0].startswith("in:") \
            or not tokens[-1].startswith("head:"):
        raise RangeError(f"bad architecture descriptor {descriptor!r}")
    try:
        input_shape = tuple(int(d) for d in tokens[0][3:].split("x"))
        num_classes = int(tokens[-1][5:])
    except ValueError:
        raise RangeError(f"bad architecture descriptor {descriptor!r}") from None
    return " ".join(tokens[1:-1]), input_shape, num_classes


def network_from_descriptor(descriptor: str, num_classes: int | None = None) -> Network:
    """Rebuild a network from a stored descriptor, optionally re-heading it."""
    arch, input_shape, head_width = parse_descriptor(descriptor)
    return build_network(arch, input_shape,
                         head_width if num_classes is None else num_classes)
