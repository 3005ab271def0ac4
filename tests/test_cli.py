"""Command line behavior: outputs, exit codes, reproducibility from the echo."""

import os
import xml.etree.ElementTree as ET

import pytest
from test_persist import BAD_CONFIGS, BAD_UTF8, BAD_UTF8_IDS

from memlab import load_checkpoint, synth_images, write_idx
from memlab.cli import dispatch

BLOBS_CFG = """\
data.kind = synth_blobs
data.n = 32
data.classes = 3
data.seed = 1
data.dim = 4
data.spread = 0.5
arch = flatten
epochs = 2
lr = 0.1
batch_size = 8
monitor = train_loss
"""

COMPARE_EXTRA = """\
target.kind = synth_blobs
target.n = 30
target.classes = 3
target.seed = 2
target.dim = 4
target.spread = 0.5
seeds = 0,1
pre_epochs = 1
ft_epochs = 1
"""

RESHUFFLE_EXTRA = """\
rounds = 2
epochs_per_round = 2
label_seed = 7
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def train_polyline_points(svg_path):
    root = ET.fromstring(svg_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    for p in root.findall(f".//{ns}polyline"):
        if p.get("class") == "train round-1":
            return p.get("points").split()
    raise AssertionError("no train polyline")


def test_no_command_is_usage_error(capsys):
    assert dispatch([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert "usage error:" in err


def test_unknown_command(capsys):
    assert dispatch(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "memlab" in capsys.readouterr().out


def test_pretrain_writes_run_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    out = tmp_path / "run1"
    assert dispatch(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    for name in ("config.echo", "metrics.csv", "plot.svg", "final.ckpt"):
        assert (out / name).exists(), name
    assert "pretrain: 2 epochs" in capsys.readouterr().out


def test_every_artifact_is_written_in_binary_mode(tmp_path, capsys, monkeypatch):
    # text mode would write CRLF line ends on some platforms, and change the bytes
    out = tmp_path / "run1"
    opened, real_open = {}, open

    def spy(path, mode="r", *args, **kwargs):
        if os.path.dirname(os.fspath(path)) == str(out):
            opened[os.path.basename(path)] = mode
        return real_open(path, mode, *args, **kwargs)

    cfg = write_cfg(tmp_path, BLOBS_CFG)
    monkeypatch.setattr("builtins.open", spy)
    assert dispatch(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    assert opened == {"config.echo": "wb", "metrics.csv": "wb", "plot.svg": "wb",
                      "final.ckpt": "wb"}


def test_pretrain_runs_a_conv_net_on_image_samples(tmp_path, capsys):
    # synth_images gives (H, W) samples, read by the first conv as one channel
    cfg = write_cfg(tmp_path, "data.kind = synth_images\ndata.n = 24\n"
                              "data.classes = 3\ndata.size = 8\n"
                              "arch = conv:4,3 relu maxpool:2 flatten\n"
                              "epochs = 1\nbatch_size = 8\n")
    out = tmp_path / "conv"
    assert dispatch(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    ckpt = load_checkpoint(out / "final.ckpt")
    assert ckpt.descriptor == "in:1x8x8 conv:4,3,1,0 relu maxpool:2,2 flatten head:3"


def test_rerun_from_echo_is_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert dispatch(["pretrain", "--config", cfg, "--out", str(out1)]) == 0
    assert dispatch(["pretrain", "--config", str(out1 / "config.echo"),
                     "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()
    assert (out1 / "plot.svg").read_bytes() == (out2 / "plot.svg").read_bytes()


def test_baseline_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    out = tmp_path / "base"
    assert dispatch(["baseline", "--config", cfg, "--out", str(out)]) == 0
    assert "baseline: 2 epochs" in capsys.readouterr().out
    csv = (out / "metrics.csv").read_text().splitlines()
    assert sum(1 for line in csv if ",val," in line) == 2


def test_plot_point_count_matches_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    out = tmp_path / "run"
    dispatch(["pretrain", "--config", cfg, "--out", str(out)])
    replot = tmp_path / "replot"
    assert dispatch(["plot", "--config", cfg, "--out", str(replot),
                     "--metrics", str(out / "metrics.csv")]) == 0
    train_rows = [line for line in (out / "metrics.csv").read_text().splitlines()
                  if ",train," in line]
    assert len(train_polyline_points(replot / "plot.svg")) == len(train_rows)


def test_plot_requires_metrics_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    assert dispatch(["plot", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_finetune_needs_a_checkpoint(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    assert dispatch(["finetune", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_finetune_from_pretrain_checkpoint(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    pre_out = tmp_path / "pre"
    dispatch(["pretrain", "--config", cfg, "--out", str(pre_out)])
    ft_out = tmp_path / "ft"
    assert dispatch(["finetune", "--config", cfg, "--out", str(ft_out),
                     "--checkpoint", str(pre_out / "final.ckpt")]) == 0
    assert "finetune: 2 epochs" in capsys.readouterr().out
    # the echo records the checkpoint so the run reproduces from it alone
    assert f"checkpoint = {pre_out / 'final.ckpt'}" in \
        (ft_out / "config.echo").read_text()


def test_reshuffle_prints_round_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG + RESHUFFLE_EXTRA)
    out = tmp_path / "re"
    assert dispatch(["reshuffle", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("round")
    assert len(lines) == 3  # header + one row per round
    csv = (out / "metrics.csv").read_text().splitlines()
    assert len(csv) == 1 + 4  # header + 2 rounds x 2 epochs, train only


def test_reshuffle_rounds_override_validated(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG + RESHUFFLE_EXTRA)
    assert dispatch(["reshuffle", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--rounds", "0"]) == 1


@pytest.mark.parametrize("threshold", ["1.5", "nan", "0"])
def test_reshuffle_threshold_is_refused_before_the_run(tmp_path, capsys, threshold):
    cfg = write_cfg(tmp_path, BLOBS_CFG + RESHUFFLE_EXTRA)
    out = tmp_path / "o"
    assert dispatch(["reshuffle", "--config", cfg, "--out", str(out),
                     "--threshold", threshold]) == 1
    err = capsys.readouterr().err
    assert "usage error: --threshold: threshold must be in (0, 1], got " in err
    assert not out.exists()


def test_compare_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG + COMPARE_EXTRA)
    out = tmp_path / "cmp"
    assert dispatch(["compare", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "seed,baseline,pretrained,difference"
    assert len(report) == 3
    assert report[1].startswith("0,") and report[2].startswith("1,")
    stdout = capsys.readouterr().out
    assert "seeds improved" in stdout
    assert "mean" in stdout


def test_compare_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG + COMPARE_EXTRA)
    out = tmp_path / "cmp1"
    assert dispatch(["compare", "--config", cfg, "--out", str(out),
                     "--seeds", "5"]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 2 and report[1].startswith("5,")
    for bad in ("a,b", "-1", ",", str(2**64)):
        assert dispatch(["compare", "--config", cfg, "--out", str(out),
                         "--seeds", bad]) == 1
        assert "usage error: --seeds" in capsys.readouterr().err


def test_compare_needs_target(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG + "seeds = 0\n")
    assert dispatch(["compare", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


ZERO_EPOCHS_CFG = BLOBS_CFG.replace("epochs = 2\n", "epochs = 0\n")


# each command's phase key is unset, so its budget falls back to epochs = 0
@pytest.mark.parametrize("command, extra", [
    ("pretrain", ""),
    ("baseline", ""),
    ("finetune", "checkpoint = pre.ckpt\n"),
    ("reshuffle", "rounds = 2\n"),
    ("compare", COMPARE_EXTRA.replace("ft_epochs = 1\n", "")),
], ids=["pretrain", "baseline", "finetune", "reshuffle", "compare"])
def test_zero_epoch_run_fails_before_writing_anything(tmp_path, capsys, command, extra):
    cfg = write_cfg(tmp_path, ZERO_EPOCHS_CFG + extra)
    out = tmp_path / "out"
    assert dispatch([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: epochs must be >= 1 for {command}, got 0\n"
    assert not out.exists()


def test_compare_may_pretrain_for_zero_epochs(tmp_path, capsys):
    # pre_epochs falls back to epochs = 0: each pair's arms start alike
    cfg = write_cfg(tmp_path, ZERO_EPOCHS_CFG
                    + COMPARE_EXTRA.replace("pre_epochs = 1\n", ""))
    out = tmp_path / "cmp"
    assert dispatch(["compare", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(r.endswith(",0.00000000") for r in rows)


def test_out_of_memory_exits_two(tmp_path, capsys):
    # 784 x 1e11 float64 weights, 570 TiB: above the 128 TiB a Linux process
    # maps by default, so the allocation fails at once under any overcommit mode
    cfg = write_cfg(tmp_path, "data.kind = synth_images\ndata.n = 8\ndata.classes = 3\n"
                              "arch = flatten dense:100000000000\nepochs = 1\n")
    out = tmp_path / "o"
    assert dispatch(["pretrain", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")
    assert not out.exists()


@pytest.mark.parametrize("text, layer", [
    (BLOBS_CFG.replace("arch = flatten", "arch = flatten dense:8 relu:junk"),
     "layer 2 (relu:junk)"),
    ("data.kind = synth_images\ndata.n = 8\ndata.classes = 3\ndata.size = 6\n"
     "arch = maxpool:9\nepochs = 1\n", "layer 0 (maxpool:9)"),
], ids=["relu:junk", "maxpool:9 on 6x6"])
def test_bad_arch_exits_two_naming_its_layer(tmp_path, capsys, text, layer):
    out = tmp_path / "o"
    assert dispatch(["pretrain", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {layer}: ")
    assert not out.exists()


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG + "patiense = 10\n")
    assert dispatch(["pretrain", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, message", BAD_CONFIGS,
                         ids=[t.splitlines()[line - 1] for t, line, _ in BAD_CONFIGS])
def test_bad_value_exits_two_naming_its_line(tmp_path, capsys, text, line, message):
    cfg = write_cfg(tmp_path, text)
    assert dispatch(["compare", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("block, command", [("data", "pretrain"),
                                            ("target", "baseline")])
def test_idx_take_above_its_file_blames_the_take_line(tmp_path, capsys, block,
                                                      command):
    d = synth_images(20, 3, seed=4, size=5)
    write_idx(d.__class__(d.samples.reshape(20, 5, 5), d.labels, d.num_classes),
              tmp_path / "i.idx", tmp_path / "l.idx")
    cfg = write_cfg(tmp_path, (
        f"{block}.kind = idx\n"
        f"{block}.images = {tmp_path / 'i.idx'}\n"
        f"{block}.labels = {tmp_path / 'l.idx'}\n"
        f"{block}.take = 30\n"
    ) + (BLOBS_CFG if block == "target" else "arch = flatten\nepochs = 1\n"))
    assert dispatch([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: take must be <= the 20 images of "), err


@pytest.mark.parametrize("raw, line", BAD_UTF8, ids=BAD_UTF8_IDS)
def test_invalid_utf8_config_exits_two_naming_its_line(tmp_path, capsys, raw, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(raw)
    assert dispatch(["pretrain", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: invalid UTF-8")


def test_invalid_utf8_metrics_exits_two_naming_its_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    assert dispatch(["pretrain", "--config", cfg, "--out", str(tmp_path / "pre")]) == 0
    metrics = tmp_path / "pre" / "metrics.csv"
    metrics.write_bytes(metrics.read_bytes().replace(b"train", b"tr\xe9in", 2))
    capsys.readouterr()
    assert dispatch(["plot", "--config", cfg, "--out", str(tmp_path / "plot"),
                     "--metrics", str(metrics)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: invalid UTF-8")


def test_missing_data_file_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        "data.kind = idx\n"
        "data.images = /nonexistent/i.idx\n"
        "data.labels = /nonexistent/l.idx\n"
        "arch = flatten\nepochs = 1\nmonitor = train_loss\n"
    ))
    assert dispatch(["pretrain", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert dispatch(["pretrain", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2
