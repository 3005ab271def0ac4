"""Byte gate: a small fixed CLI pretrain and reshuffle pinned by sha256.

The hashes were recorded before the train step was rewritten for speed
(branch-free ReLU, chunked in-place SGD, persistent gradient buffers).  A
change to the step that alters any bit of a weight, a logged metric or the
rendered curve changes one of them.  Dense(256->160) has more weights than
one SGD chunk, so the chunk boundary is part of what is pinned.
"""

import hashlib

import pytest

from memlab.cli import dispatch

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


@pytest.mark.parametrize("command", sorted(PINNED))
def test_cli_artifacts_are_byte_identical(tmp_path, capsys, command):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(GATE_CFG)
    out = tmp_path / command
    assert dispatch([command, "--config", str(cfg), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED[command]}
    assert digests == PINNED[command]
