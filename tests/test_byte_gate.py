"""Byte gates: small fixed runs pinned by sha256.

The pretrain and reshuffle hashes were recorded before the train step was
rewritten for speed (branch-free ReLU, chunked in-place SGD, persistent
gradient buffers).  A change to the step that alters any bit of a weight,
a logged metric or the rendered curve changes one of them.  The baseline
hashes were recorded while `memlab baseline` still built and trained its
own network; it now runs protocol.baseline, the from-scratch arm that
compare_transfer runs too.  Dense(256->160) has more weights than
one SGD chunk, so the chunk boundary is part of what is pinned.

The conv hash was recorded before the conv path was rewritten (offset-view
pooling, blocked im2col, no input gradient for layer 0).  Its net has a
first-layer conv, a later conv whose input gradient is needed, and an
overlapping pool.

None of these hashes depends on the OpenBLAS thread count; the last test
re-runs the gates with one BLAS thread to keep it so.  They were pinned on
the SkylakeX core of numpy's DYNAMIC_ARCH OpenBLAS, which picks its kernels
by CPU, so a digest failure names the core and build that ran.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memlab
from memlab import Dataset, TrainConfig, reshuffle_experiment, synth_images
from memlab.cli import dispatch
from memlab.nn.blas import _blas_function

GATE_CFG = """\
data.kind = synth_images
data.n = 64
data.classes = 4
data.seed = 3
data.size = 16
arch = flatten dense:160 relu dense:24 relu
epochs = 8
lr = 0.05
batch_size = 8
seed = 5
label_seed = 11
rounds = 2
epochs_per_round = 4
"""

PINNED = {
    "baseline": {
        "metrics.csv": "14c07996e1b7cd2500b95afc205fe53f651d5c8a76a79ddf1fefb6a5aa4623d8",
        "final.ckpt": "6d8b6331c3a449b1ed82b13da6152783170eececcd946f9fd05d646a2c1798e9",
        "plot.svg": "5ebc674a9105c1d3a69357131e33f625a3158e8cf7bba9a06b6723dc612814bb",
    },
    "pretrain": {
        "metrics.csv": "c921d453861fc23da1e0483d95b9a6b828443abbdaf5838b94e96eca0e241b01",
        "final.ckpt": "dbf493e1d7a4f1832467a09951834b5f6dd57760098580f3cc357a33e71a7e03",
        "plot.svg": "654544d40acf59c3c30c3ae7d32eee5708feb1f380fb412587526d29e50d1f2b",
    },
    "reshuffle": {
        "metrics.csv": "f72d61a04795049aeac1503a7225c13197209254d25aa7fd72b3a0a2afc17d26",
        "final.ckpt": "3d991a6d8b805b179413db79b6f7b29eebeebcb812e4ff43fc05448505bfa518",
        "plot.svg": "59f8264128cb71f7b35ebba4ba5d985ebf7f2682083c2a59868e5b2443d7c5c5",
    },
}


def blas_core() -> str:
    """The OpenBLAS core and config string this process runs, each
    "unknown" where the library exports no such symbol."""
    fns = [_blas_function((f"scipy_openblas_get_{what}64_", f"openblas_get_{what}"),
                          [], ctypes.c_char_p) for what in ("corename", "config")]
    core, config = (fn().decode() if fn else "unknown" for fn in fns)
    return f"BLAS core {core} ({config}); digests pinned on SkylakeX"


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_artifacts_are_byte_identical(tmp_path, capsys, command):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(GATE_CFG)
    out = tmp_path / command
    assert dispatch([command, "--config", str(cfg), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED[command]}
    assert digests == PINNED[command], blas_core()


CONV_ARCH = "conv:4,3,1,1 relu maxpool:3,2 conv:6,3,1,0 relu maxpool:2 flatten dense:16 relu"
CONV_PINNED = "6d190f5ee51a5da9db94dae3164cf4838ef48629c7ad1cae4451fd14154fbf67"


def test_conv_reshuffle_parameters_are_byte_identical():
    d = synth_images(64, 4, seed=3, size=16)
    d = Dataset(d.samples.reshape(64, 1, 16, 16), d.labels, d.num_classes)
    cfg = TrainConfig(epochs=3, initial_lr=0.05, batch_size=8, seed=5,
                      monitor="train_loss")
    ckpt, _ = reshuffle_experiment(d, CONV_ARCH, cfg, rounds=2,
                                   epochs_per_round=3, base_seed=11)
    h = hashlib.sha256()
    for t in ckpt.tensors:
        h.update(repr(t.shape).encode())
        h.update(t.astype("<f8").tobytes())
    assert h.hexdigest() == CONV_PINNED, blas_core()


def test_gates_hold_with_one_blas_thread(tmp_path):
    # OpenBLAS reads its thread count at import, hence a fresh interpreter
    src = str(Path(memlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "pytest"),
         "-k", "not one_blas_thread", __file__],
        env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "4 passed" in run.stdout, run.stdout
