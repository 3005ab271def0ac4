"""Span tracing of memlab from outside the package.

A Tracer wraps the public functions and methods of the measured modules
(plus the two private entry points the per-module metrics need: the
per-seed transfer pair and the CLI command handlers) and records one span
per call: name, start, end, parent span and thread.  Spans stay in memory
until the run ends.  Nothing is written into ``src/``: installing patches
module and class attributes in place, and uninstalling restores them.

Callers in memlab import names with ``from .x import f``, so a function is
bound in several module namespaces at once (``cli`` holds its own
``save_checkpoint``, ``protocol`` its own ``softmax_cross_entropy``).  The
tracer replaces every binding of the original object in every loaded
``memlab`` module, so a call records a span whichever name it went through.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
from collections import Counter
from time import perf_counter

import numpy as np

# memlab modules whose public callables are wrapped; nn.tensor, nn.gradcheck
# and errors do no measurable work on any workload
MODULES = ("prng", "data", "nn.layers", "nn.loss", "nn.optim", "nn.network",
           "protocol", "persist", "svg", "cli")

# classes whose methods are named after the module alone (network.forward,
# prng.permutation), and functions with a shorter span name
FLAT_CLASSES = {"Network", "Prng"}
RENAMED = {"network.build_network": "network.build",
           "network.network_from_descriptor": "network.from_descriptor"}

DENSE_ROLES = ("input", "hidden", "head")

# bytes one SgdMomentum.step moves per parameter element, from its three
# float64 statements: v *= mu (r+w), v += g (2r+w), p -= lr * v (temporary
# r+w, then 2r+w): ten 8-byte array passes
SGD_BYTES_PER_PARAM = 80


def _span_name(module: str, cls: str | None, attr: str) -> str:
    if cls is None or cls in FLAT_CLASSES:
        name = f"{module}.{attr}"
    else:
        name = f"{module}.{cls}.{attr}"
    return RENAMED.get(name, name)


class Tracer:
    """Records spans of wrapped memlab calls; install() ... uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, list]] = []
        self._undo: list = []
        # computed counts taken at the same boundaries as the spans
        self.counts: Counter = Counter()
        self._dense_role: dict[int, int] = {}
        self.role_shapes: dict[str, set[str]] = {r: set() for r in DENSE_ROLES}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _thread_spans(self) -> list:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._threads.append((threading.get_ident(), spans))
        return spans

    def wrap(self, fn, name: str, pick=None, after=None):
        """``fn`` recording a span named ``name`` (or ``pick(args)``'s id)
        per call; ``after(args, result)`` runs once the span has closed."""
        nid = self.name_id(name)
        local = self._local
        thread_spans = self._thread_spans

        def traced(*args, **kwargs):
            spans = thread_spans()
            stack = local.stack
            span = [pick(args) if pick else nid,
                    stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------------

    def _set(self, owner, key, value, *, item: bool = False) -> None:
        if item:
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key]
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def _rebind(self, original, wrapper) -> None:
        """Replace every module-level binding of ``original`` with ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "memlab" or mod_name.startswith("memlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            mod = importlib.import_module(f"memlab.{short}")
            label = short.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = _span_name(label, None, attr)
                    self._rebind(obj, self.wrap(obj, name, *self._hooks(name)))
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(member):
                            continue
                        name = _span_name(label, obj.__name__, meth)
                        self._set(obj, meth,
                                  self.wrap(member, name, *self._hooks(name)))
        protocol = importlib.import_module("memlab.protocol")
        pair = protocol._transfer_pair
        self._rebind(pair, self.wrap(pair, "protocol.transfer_pair"))
        handlers = importlib.import_module("memlab.cli")._HANDLERS
        for command, handler in list(handlers.items()):
            self._set(handlers, command, self.wrap(handler, f"cli.{command}"),
                      item=True)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- computed counts ----------------------------------------------------

    def _hooks(self, name: str):
        """(pick, after) for the spans that carry a count or a role."""
        counts = self.counts
        if name in ("layers.Dense.forward", "layers.Dense.backward"):
            method = name.rsplit(".", 1)[1]
            role_ids = [self.name_id(f"layers.Dense.{r}.{method}") for r in DENSE_ROLES]
            other = self.name_id(f"layers.Dense.other.{method}")
            roles = self._dense_role
            passes = 2 if method == "forward" else 4  # y = xW | dW = x'dy, dx = dyW'

            def pick(args):
                role = roles.get(id(args[0]))
                return other if role is None else role_ids[role]

            def after(args, _):
                layer, batch = args[0], args[1].shape[0]
                counts["layers.Dense.flop"] += (passes * batch * layer.in_features
                                                * layer.out_features)
            return pick, after
        if name in ("layers.Conv2d.forward", "layers.Conv2d.backward"):
            forward = name.endswith("forward")

            def after(args, _):
                layer, arr = args[0], args[1]
                if forward:
                    oh, ow = layer._out_hw(arr.shape[2], arr.shape[3])
                else:
                    oh, ow = arr.shape[2], arr.shape[3]
                macs = (arr.shape[0] * oh * ow * layer.out_channels
                        * layer.in_channels * layer.kernel * layer.kernel)
                counts["layers.Conv2d.flop"] += (2 if forward else 4) * macs
            return None, after
        if name == "optim.SgdMomentum.step":
            def after(args, _):
                counts["optim.SgdMomentum.step.bytes"] += SGD_BYTES_PER_PARAM * sum(
                    p.data.size for p in args[0].params)
            return None, after
        if name == "network.backward":
            def after(args, _):
                counts["train.samples"] += args[1].shape[0]
            return None, after
        if name == "network.build":
            return None, self._register_roles
        if name == "persist.save_checkpoint":
            def after(args, _):
                counts["persist.checkpoint.bytes"] += os.path.getsize(args[1])
            return None, after
        return None, None

    def _register_roles(self, _args, net) -> None:
        """Dense roles of a fresh network: first Dense, later ones, head."""
        dense = [layer for layer in net.layers if type(layer).__name__ == "Dense"]
        for i, layer in enumerate(dense):
            role = 0 if i == 0 else 1
            self._dense_role[id(layer)] = role
            self.role_shapes[DENSE_ROLES[role]].add(layer.describe())
        self._dense_role[id(net.head)] = 2
        self.role_shapes["head"].add(net.head.describe())

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays; ``parent`` indexes the same arrays (-1: root)."""
        cols: dict[str, list] = {k: [] for k in ("name", "parent", "start", "end", "thread")}
        base = 0
        for ident, spans in self._threads:
            for nid, parent, start, end in spans:
                cols["name"].append(nid)
                cols["parent"].append(parent + base if parent >= 0 else -1)
                cols["start"].append(start)
                cols["end"].append(end)
                cols["thread"].append(ident)
            base += len(spans)
        return {
            "name": np.asarray(cols["name"], dtype=np.int32),
            "parent": np.asarray(cols["parent"], dtype=np.int64),
            "start": np.asarray(cols["start"], dtype=np.float64),
            "end": np.asarray(cols["end"], dtype=np.float64),
            "thread": np.asarray(cols["thread"], dtype=np.uint64),
        }
