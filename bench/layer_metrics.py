"""Per-module metrics from a traced run's spans and computed counts.

Busy time is the summed duration of a span name; self time subtracts the
part of each span that its child spans cover.  Flop and byte counts are
computed from shapes and parameter counts (see tracer.py), not measured.
"""

from __future__ import annotations

import numpy as np

from tracer import DENSE_ROLES

LAYER_TYPES = ("Dense", "ReLU", "Flatten", "Conv2d", "MaxPool2d")
TRAIN_LOOP = ("protocol.train", "protocol.pretrain_random", "protocol.finetune",
              "protocol.reshuffle_experiment")
# the spans of one training step: forward, loss, predictions, backward, step
STEP_PARTS = ("network.forward", "loss.softmax_cross_entropy", "loss.predictions",
              "network.backward", "optim.SgdMomentum.step")

BUSY = ["loss.softmax_cross_entropy", "protocol.evaluate", "prng.permutation",
        "prng.fill_gaussian"]
BUSY_ONLY = ["network.build", "network.initialize", "network.load_state",
             "network.state_tensors", "data.synth_images", "data.assign_random_labels",
             "data.reshuffle_labels", "data.split", "persist.save_checkpoint",
             "persist.load_checkpoint", "persist.write_metrics_csv",
             "persist.read_metrics_csv", "persist.parse_config", "persist.render_config",
             "svg.emit_svg", "cli.pretrain", "cli.finetune", "cli.reshuffle", "cli.plot",
             "cli.compare"]


def _table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-module metric, in report order."""
    rows = []
    for layer in LAYER_TYPES:
        for method in ("forward", "backward"):
            rows += [(f"layers.{layer}.{method}.busy_s", "s", "lower"),
                     (f"layers.{layer}.{method}.calls", "count", "lower")]
    for role in DENSE_ROLES:
        for method in ("forward", "backward"):
            rows += [(f"layers.Dense.{role}.{method}.busy_s", "s", "lower"),
                     (f"layers.Dense.{role}.{method}.ms_per_call", "ms", "lower")]
    for layer in ("Dense", "Conv2d"):
        rows += [(f"layers.{layer}.gflop", "GFLOP", "lower"),
                 (f"layers.{layer}.gflop_per_s", "GFLOP/s", "higher")]
    rows += [("optim.SgdMomentum.step.busy_s", "s", "lower"),
             ("optim.SgdMomentum.step.calls", "count", "lower"),
             ("optim.SgdMomentum.step.ms_per_call", "ms", "lower"),
             ("optim.SgdMomentum.step.gb", "GB", "lower"),
             ("optim.SgdMomentum.step.gb_per_s", "GB/s", "higher"),
             ("protocol.step.ms_per_call", "ms", "lower")]
    for name in BUSY:
        rows += [(f"{name}.busy_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    rows += [("network.forward.self_s", "s", "lower"),
             ("network.backward.self_s", "s", "lower"),
             ("protocol.train_loop.self_s", "s", "lower"),
             ("protocol.compare_transfer.parallelism", "ratio", "higher")]
    rows += [(f"{name}.busy_s", "s", "lower") for name in BUSY_ONLY]
    rows += [("persist.checkpoint.bytes", "bytes", "lower"),
             ("trace.spans", "count", "lower"),
             ("trace.wall_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower")]
    return rows


PER_LAYER = _table()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _in_eval(names: list[str], name: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """True for spans nested (at any depth) inside protocol.evaluate."""
    eval_id = names.index("protocol.evaluate") if "protocol.evaluate" in names else -1
    flag = np.zeros(name.size, dtype=bool)
    for i in range(name.size):  # parents precede children within a thread
        p = parent[i]
        flag[i] = p >= 0 and (name[p] == eval_id or flag[p])
    return flag


def compute(tracer, spans: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every PER_LAYER metric, 0 for modules the workload never called."""
    names = tracer.names
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    k = len(names)
    child = np.zeros(name.size)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    busy = np.bincount(name, weights=dur, minlength=k)
    calls = np.bincount(name, minlength=k)
    selft = np.bincount(name, weights=dur - child, minlength=k)
    training = ~_in_eval(names, name, parent)
    train_busy = np.bincount(name[training], weights=dur[training], minlength=k)
    train_calls = np.bincount(name[training], minlength=k)

    def get(table, n):
        return float(table[names.index(n)]) if n in names else 0.0

    def per_call_ms(n):
        c = get(train_calls, n)
        return 1e3 * get(train_busy, n) / c if c else 0.0

    m = {}
    for layer in LAYER_TYPES:
        for method in ("forward", "backward"):
            if layer == "Dense":
                parts = [f"layers.Dense.{r}.{method}" for r in DENSE_ROLES + ("other",)]
            else:
                parts = [f"layers.{layer}.{method}"]
            m[f"layers.{layer}.{method}.busy_s"] = sum(get(busy, p) for p in parts)
            m[f"layers.{layer}.{method}.calls"] = sum(get(calls, p) for p in parts)
    for role in DENSE_ROLES:
        for method in ("forward", "backward"):
            n = f"layers.Dense.{role}.{method}"
            m[f"{n}.busy_s"] = get(busy, n)
            m[f"{n}.ms_per_call"] = per_call_ms(n)
    for layer in ("Dense", "Conv2d"):
        flop = tracer.counts[f"layers.{layer}.flop"]
        t = m[f"layers.{layer}.forward.busy_s"] + m[f"layers.{layer}.backward.busy_s"]
        m[f"layers.{layer}.gflop"] = flop / 1e9
        m[f"layers.{layer}.gflop_per_s"] = flop / 1e9 / t if t else 0.0
    step = "optim.SgdMomentum.step"
    moved = tracer.counts[f"{step}.bytes"]
    m[f"{step}.busy_s"] = get(busy, step)
    m[f"{step}.calls"] = get(calls, step)
    m[f"{step}.ms_per_call"] = per_call_ms(step)
    m[f"{step}.gb"] = moved / 1e9
    m[f"{step}.gb_per_s"] = moved / 1e9 / m[f"{step}.busy_s"] if m[f"{step}.busy_s"] else 0.0
    steps = get(train_calls, step)
    m["protocol.step.ms_per_call"] = (
        1e3 * sum(get(train_busy, p) for p in STEP_PARTS) / steps if steps else 0.0)
    for n in BUSY:
        m[f"{n}.busy_s"] = get(busy, n)
        m[f"{n}.calls"] = get(calls, n)
    m["network.forward.self_s"] = get(selft, "network.forward")
    m["network.backward.self_s"] = get(selft, "network.backward")
    m["protocol.train_loop.self_s"] = sum(get(selft, n) for n in TRAIN_LOOP)
    compare = get(busy, "protocol.compare_transfer")
    m["protocol.compare_transfer.parallelism"] = (
        get(busy, "protocol.transfer_pair") / compare if compare else 0.0)
    for n in BUSY_ONLY:
        m[f"{n}.busy_s"] = get(busy, n)
    m["persist.checkpoint.bytes"] = float(tracer.counts["persist.checkpoint.bytes"])
    m["trace.spans"] = float(name.size)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    if list(m) != [n for n, _, _ in PER_LAYER]:
        raise RuntimeError("per-module metrics out of step with PER_LAYER")
    return m


# Span names each workload must call at least once in a traced run; a zero
# means a wrapper missed the name callers actually use.
_TRAINING = ["network.forward", "network.backward", "network.build",
             "network.initialize", "network.state_tensors",
             "loss.softmax_cross_entropy", "loss.predictions",
             "optim.SgdMomentum.step", "protocol.evaluate", "prng.permutation",
             "prng.fill_gaussian", "data.synth_images", "data.assign_random_labels",
             "layers.Dense.input.forward", "layers.Dense.head.forward",
             "layers.Dense.input.backward", "layers.Dense.head.backward",
             "layers.ReLU.forward", "layers.ReLU.backward",
             "layers.Flatten.forward", "layers.Flatten.backward"]
_RESHUFFLE = _TRAINING + ["protocol.reshuffle_experiment", "data.reshuffle_labels"]
_TRANSFER = _TRAINING + ["layers.Dense.hidden.forward", "layers.Dense.hidden.backward",
                         "network.load_state", "data.split", "protocol.train",
                         "protocol.pretrain_random", "protocol.finetune",
                         "protocol.compare_transfer", "protocol.transfer_pair"]
EXPECTED_CALLS = {
    "memorize": _RESHUFFLE + ["layers.Dense.hidden.forward",
                              "layers.Dense.hidden.backward"],
    "conv": _RESHUFFLE + ["layers.Conv2d.forward", "layers.Conv2d.backward",
                          "layers.MaxPool2d.forward", "layers.MaxPool2d.backward"],
    "transfer": _TRANSFER,
    "cli": _TRANSFER + _RESHUFFLE[len(_TRAINING):] + [
        "persist.save_checkpoint", "persist.load_checkpoint",
        "persist.write_metrics_csv", "persist.read_metrics_csv",
        "persist.parse_config", "persist.render_config", "svg.emit_svg",
        "cli.pretrain", "cli.finetune", "cli.reshuffle", "cli.plot", "cli.compare"],
}


def missing_calls(tracer, spans: dict, workload: str) -> list[str]:
    calls = np.bincount(spans["name"], minlength=len(tracer.names))
    return [n for n in EXPECTED_CALLS[workload]
            if n not in tracer.names or calls[tracer.names.index(n)] == 0]


# ROADMAP item-1 baseline: one 784-512-512-10 step at batch 32, in ms
ROADMAP_BASELINE = (
    ("protocol.step.ms_per_call", "train step", 6.7),
    ("optim.SgdMomentum.step.ms_per_call", "SgdMomentum.step", 2.88),
    ("layers.Dense.input.forward.ms_per_call", "Dense(784->512) forward", 0.69),
    ("layers.Dense.input.backward.ms_per_call", "Dense(784->512) backward", 1.19),
    ("layers.Dense.hidden.forward.ms_per_call", "Dense(512->512) forward", 0.40),
    ("layers.Dense.hidden.backward.ms_per_call", "Dense(512->512) backward", 0.81),
)
