"""Feed-forward network: an ordered layer stack plus a classifier head.

Architectures are described by a small token string, e.g.

    flatten dense:512 relu dense:512 relu
    conv:8,3,1,1 relu maxpool:2 flatten

The head (a Dense layer mapping features to class logits) is appended
automatically, so the same token string serves any class count.  A full
descriptor pins down input shape and head width too:

    in:28x28 flatten dense:512 relu dense:512 relu head:10

and is what checkpoints store.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..prng import Prng, derive_seed
from .layers import Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU
from .tensor import Tensor

_LAYER_STREAM_TAG = 0x4C415945_52535453  # distinct stream family for layer init


class Network:
    """Layers plus head, with construction-time shape validation."""

    def __init__(self, layers: list[Layer], head: Dense, input_shape: tuple[int, ...]):
        self.layers = list(layers)
        self.head = head
        self.input_shape = shape = _input_dims(input_shape)
        in_shapes = []
        for i, layer in enumerate(self.layers):
            in_shapes.append(shape)
            try:
                shape = layer.output_shape(shape)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.describe()}): {e}") from None
        self.feature_shape = shape
        try:
            head.output_shape(shape)
        except ShapeError as e:
            raise ShapeError(f"head ({head.describe()}): {e}") from None
        in_shapes.append(shape)
        # per sample, what evaluate sizes its row slices by: the floats of the
        # widest array a forward makes, and the multiply-adds of each product
        walk = list(zip(self.all_layers, in_shapes))
        self.sample_floats = max([int(np.prod(self.input_shape))]
                                 + [layer.forward_floats(s) for layer, s in walk])
        self.sample_products = [m for layer, s in walk
                                for m in layer.forward_products(s)]
        self._first_params = next(i for i, layer in enumerate(self.all_layers)
                                  if layer.params())

    @property
    def num_classes(self) -> int:
        return self.head.out_features

    @property
    def descriptor(self) -> str:
        """Canonical full descriptor: input shape, layer tokens, head width."""
        dims = "x".join(str(d) for d in self.input_shape)
        tokens = [layer.token() for layer in self.layers]
        return " ".join([f"in:{dims}"] + tokens + [f"head:{self.num_classes}"])

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
        width leaves the feature layers' initial weights untouched.
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
        if int(np.prod(rest)) == int(np.prod(self.input_shape)):
            return batch.reshape((batch.shape[0],) + self.input_shape)
        raise ShapeError(
            f"network input: got per-sample shape {rest}, "
            f"expected {self.input_shape}"
        )

    def forward(self, batch: np.ndarray, *, cache: bool = True) -> np.ndarray:
        """Logits of shape (batch, num_classes).

        Each layer keeps what its backward needs.  With ``cache`` false (a
        pure read of the net, as evaluate runs it) each layer drops that as
        it returns, so no im2col rows outlive their Conv2d, and a backward
        before the next forward raises RuntimeError.
        """
        x = np.asarray(batch, dtype=np.float64)
        x = self._adapt_input(x)
        for i, layer in enumerate(self.all_layers):
            try:
                x = layer.forward(x)
            except ValueError as e:
                raise ShapeError(f"layer {i} ({layer.describe()}): {e}") from None
            if not cache:
                layer._cache = None
        return x

    def backward(self, dlogits: np.ndarray) -> list[np.ndarray]:
        """Fill every parameter's grad; returns them in network order.

        Every layer's backward runs, but the first layer with parameters
        (the head, when no other has any) and the layers below it are
        asked for no input gradient and return None: nothing consumes the
        gradient with respect to the batch or to a parameter-free prefix.

        The returned arrays are the parameters' persistent grad buffers,
        not copies: the next backward overwrites them in place, so copy
        any gradient that must outlive it.  A layer whose forward has not
        run since its last backward raises RuntimeError.
        """
        d = np.asarray(dlogits, dtype=np.float64)
        layers = self.all_layers
        for layer in reversed(layers[self._first_params + 1:]):
            d = layer.backward(d)
        for layer in reversed(layers[:self._first_params + 1]):
            d = layer.backward(d, input_grad=False)
        return [p.grad for p in self.parameters()]

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
        """Assign copies of ``tensors``, once check_state has passed them all.

        With ``skip_head`` the trailing head parameters are left as they
        are (used when transferring a feature extractor onto a new task).
        """
        for p, t in zip(self.check_state(tensors, skip_head), tensors):
            p.data = np.asarray(t, dtype=np.float64).copy()


def _parse_int_args(token: str, spec: str, minimum: int, maximum: int) -> list[int]:
    parts = spec.split(",")
    if not (minimum <= len(parts) <= maximum):
        raise ValueError(f"bad layer token {token!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad layer token {token!r}") from None


def _input_dims(input_shape: tuple[int, ...]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in input_shape)
    if any(d <= 0 for d in dims):
        raise ValueError(f"input dimensions must be positive: {dims}")
    return dims


def layers_from_tokens(tokens: list[str], input_shape: tuple[int, ...]
                       ) -> tuple[list[Layer], tuple[int, ...]]:
    """Instantiate the layer stack, inferring per-layer input widths.

    Returns the layers and the per-sample shape they output; sizing each
    layer from the shape before it also checks the stack.
    """
    shape = tuple(int(d) for d in input_shape)
    layers: list[Layer] = []
    for token in tokens:
        kind, _, spec = token.partition(":")
        if kind == "flatten":
            layer: Layer = Flatten()
        elif kind == "relu":
            layer = ReLU()
        elif kind == "dense":
            (width,) = _parse_int_args(token, spec, 1, 1)
            if len(shape) != 1:
                raise ShapeError(
                    f"{token!r} needs flat input; insert 'flatten' before it"
                )
            layer = Dense(shape[0], width)
        elif kind == "conv":
            args = _parse_int_args(token, spec, 2, 4)
            out_ch, kernel = args[0], args[1]
            stride = args[2] if len(args) > 2 else 1
            padding = args[3] if len(args) > 3 else 0
            if len(shape) != 3:
                raise ShapeError(f"{token!r} needs (channels, H, W) input")
            layer = Conv2d(shape[0], out_ch, kernel, stride, padding)
        elif kind == "maxpool":
            args = _parse_int_args(token, spec, 1, 2)
            layer = MaxPool2d(args[0], args[1] if len(args) > 1 else None)
        else:
            raise ValueError(f"unknown layer token {token!r}")
        shape = layer.output_shape(shape)
        layers.append(layer)
    return layers, shape


def build_network(arch: str, input_shape: tuple[int, ...], num_classes: int) -> Network:
    """Network from an architecture token string; head appended automatically."""
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    layers, shape = layers_from_tokens(arch.split(), input_shape)
    if len(shape) != 1:
        raise ShapeError(
            f"architecture output shape {shape} is not flat; "
            "end the token list with 'flatten'"
        )
    return Network(layers, Dense(shape[0], num_classes), input_shape)


def parse_descriptor(descriptor: str) -> tuple[str, tuple[int, ...], int]:
    """Inverse of Network.descriptor: (arch tokens, input shape, num classes)."""
    tokens = descriptor.split()
    if len(tokens) < 2 or not tokens[0].startswith("in:") \
            or not tokens[-1].startswith("head:"):
        raise ValueError(f"bad architecture descriptor {descriptor!r}")
    try:
        input_shape = tuple(int(d) for d in tokens[0][3:].split("x"))
        num_classes = int(tokens[-1][5:])
    except ValueError:
        raise ValueError(f"bad architecture descriptor {descriptor!r}") from None
    return " ".join(tokens[1:-1]), input_shape, num_classes


def network_from_descriptor(descriptor: str, num_classes: int | None = None) -> Network:
    """Rebuild a network from a stored descriptor, optionally re-heading it."""
    arch, input_shape, head_width = parse_descriptor(descriptor)
    return build_network(arch, input_shape,
                         head_width if num_classes is None else num_classes)
