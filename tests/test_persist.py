"""Checkpoint binary format, metrics CSV, and run config files."""

import re
import string
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from memlab import (BadMagicError, Checkpoint, ConfigError, DatasetSpec,
                    EpochRecord, MemlabError, MetricsLog, NonFiniteError,
                    RunSpec, ShapeError, TrainConfig, TruncatedError,
                    VersionError, build_network, load_checkpoint, load_idx,
                    parse_config, read_metrics_csv, render_config,
                    save_checkpoint, split, synth_blobs, synth_images,
                    write_idx, write_metrics_csv)
from memlab.data import SplitSpec
from memlab.nn import MONITORS
from memlab.persist import (CSV_HEADER, format_real, phase_config,
                            resolved_epochs)


def small_checkpoint(seed=1):
    net = build_network("flatten dense:3 relu", (4,), 2)
    net.initialize(seed)
    prov = "labeling=random(seed=9)\nconfig=0011223344556677\nepochs=5"
    return Checkpoint(net.descriptor, net.state_tensors(), prov)


class TestCheckpointFormat:
    def test_round_trip_is_exact(self, tmp_path):
        ckpt = small_checkpoint()
        p = tmp_path / "net.ckpt"
        save_checkpoint(ckpt, p)
        back = load_checkpoint(p)
        assert back.descriptor == ckpt.descriptor
        assert back.provenance == ckpt.provenance
        assert back.same_tensors(ckpt)
        for a, b in zip(back.tensors, ckpt.tensors):
            assert a.dtype == np.float64
            assert a.shape == b.shape

    def test_bytes_are_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(small_checkpoint(), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(small_checkpoint(), p)
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(BadMagicError):
            load_checkpoint(p)

    def test_unknown_version(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(small_checkpoint(), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:4] + struct.pack("<H", 2) + raw[6:])
        with pytest.raises(VersionError):
            load_checkpoint(p)

    @pytest.mark.parametrize("keep", [30, -8, -1])
    def test_truncation(self, tmp_path, keep):
        p = tmp_path / "x.ckpt"
        save_checkpoint(small_checkpoint(), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:keep] if keep > 0 else raw[:len(raw) + keep])
        with pytest.raises(TruncatedError):
            load_checkpoint(p)

    def test_every_proper_prefix_is_truncated(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(small_checkpoint(), p)
        raw = p.read_bytes()
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(TruncatedError):
                load_checkpoint(p)

    @pytest.mark.parametrize("field", ["descriptor", "provenance"])
    def test_invalid_utf8_text(self, tmp_path, field):
        p = tmp_path / "x.ckpt"
        save_checkpoint(small_checkpoint(), p)
        raw = bytearray(p.read_bytes())
        # magic 4, version 2, descriptor length 4: the descriptor starts at 10
        at = 10 if field == "descriptor" else len(raw) - 1
        raw[at] = 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(MemlabError,
                           match=f"^{field}: invalid UTF-8 at offset {at}$"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(small_checkpoint(), p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(TruncatedError):
            load_checkpoint(p)

    def test_refuses_non_finite_tensors(self, tmp_path):
        ckpt = small_checkpoint()
        ckpt.tensors[0][0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            save_checkpoint(ckpt, tmp_path / "x.ckpt")

    def test_refuses_absurd_dims(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"MEMT" + struct.pack("<H", 1)
                      + struct.pack("<I", 0)  # empty descriptor
                      + struct.pack("<I", 1)  # one tensor
                      + struct.pack("<B", 2)
                      + struct.pack("<2I", 1 << 20, 1 << 21))
        with pytest.raises(ShapeError):
            load_checkpoint(p)

    def test_refuses_a_zero_dim(self, tmp_path):
        # rank 3, dims (0, 2**32 - 1, 2**32 - 1): the element count is 0, so
        # only the zero itself shows that the dims cannot be a parameter's
        dims = (0, (1 << 32) - 1, (1 << 32) - 1)
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"MEMT" + struct.pack("<H", 1)
                      + struct.pack("<I", 0)  # empty descriptor
                      + struct.pack("<I", 1)  # one tensor
                      + struct.pack("<B", 3)
                      + struct.pack("<3I", *dims))
        with pytest.raises(ShapeError, match=re.escape(
                f"tensor 0 dims {dims} include a zero")):
            load_checkpoint(p)

    def test_unicode_text_fields(self, tmp_path):
        ckpt = small_checkpoint()
        ckpt.provenance = "note=époque"
        p = tmp_path / "x.ckpt"
        save_checkpoint(ckpt, p)
        assert load_checkpoint(p).provenance == "note=époque"

    def test_non_finite_payload_is_refused_on_load(self, tmp_path):
        ckpt = small_checkpoint()
        p = tmp_path / "x.ckpt"
        save_checkpoint(ckpt, p)
        raw = p.read_bytes()
        # the third value of tensor 2, the head's weights, becomes NaN
        at = raw.index(ckpt.tensors[2].astype("<f8").tobytes()) + 16
        p.write_bytes(raw[:at] + struct.pack("<d", np.nan) + raw[at + 8:])
        with pytest.raises(NonFiniteError, match="^tensor 2 "):
            load_checkpoint(p)

    @pytest.mark.parametrize("descriptor, message", [
        ("in:4 dunce:3 head:2", "layer 0 (dunce:3): unknown layer kind 'dunce'"),
        ("in:4 flatten dense:3 relu head:0", "num_classes must be positive"),
        ("in:2x2 dense:3 head:2", "layer 0 (dense:3): needs flat input, got (2, 2)"),
        # 8 * 10**18 bytes of weights: no address space holds them
        ("in:1000000000 dense:1000000000 head:2", "Unable to allocate"),
        # widths of 2**64 and just above 2**63, too wide for any numpy array
        ("in:4294967296x4294967296 flatten head:2", "head: "),
        ("in:3037000500x3037000500 flatten head:2", "head: "),
    ], ids=["unknown token", "empty head", "unflattened", "unallocatable",
            "width 2**64", "width above 2**63"])
    def test_descriptor_must_rebuild_a_network(self, tmp_path, descriptor, message):
        ckpt = small_checkpoint()
        ckpt.descriptor = descriptor
        p = tmp_path / "x.ckpt"
        save_checkpoint(ckpt, p)
        with pytest.raises(MemlabError, match=f"^descriptor: {re.escape(message)}"):
            load_checkpoint(p)

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_tensor_count_must_match_the_descriptor(self, tmp_path, count):
        ckpt = small_checkpoint()
        ckpt.tensors = (ckpt.tensors + [np.zeros(2)])[:count]
        p = tmp_path / "x.ckpt"
        save_checkpoint(ckpt, p)
        with pytest.raises(ShapeError, match=f"^{count} tensors, the descriptor needs 4$"):
            load_checkpoint(p)

    def test_tensor_shapes_must_match_the_descriptor(self, tmp_path):
        ckpt = small_checkpoint()
        ckpt.tensors[2] = ckpt.tensors[2].T.copy()
        p = tmp_path / "x.ckpt"
        save_checkpoint(ckpt, p)
        with pytest.raises(ShapeError, match=r"^tensor 2 shape \(2, 3\), "
                                             r"the descriptor needs \(3, 2\)$"):
            load_checkpoint(p)


class TestFormatReal:
    def test_nine_significant_digits(self):
        assert format_real(2.302585093) == "2.30258509"
        assert format_real(0.1) == "0.100000000"
        assert format_real(1.0) == "1.00000000"
        assert format_real(0.0) == "0.00000000"

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            format_real(float("inf"))
        with pytest.raises(NonFiniteError):
            format_real(float("nan"))


class TestMetricsCsv:
    def test_exact_row_rendering(self, tmp_path):
        log = MetricsLog()
        log.append(EpochRecord(1, 1, "train", 2.302585093, 0.1, 0.1))
        p = tmp_path / "m.csv"
        write_metrics_csv(log, p)
        assert p.read_bytes() == (
            b"round,epoch,split,loss,accuracy,lr\n"
            b"1,1,train,2.30258509,0.100000000,0.100000000\n"
        )

    def test_empty_log_is_header_only(self, tmp_path):
        p = tmp_path / "m.csv"
        write_metrics_csv(MetricsLog(), p)
        assert p.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_round_trip(self, tmp_path):
        # short dyadic values survive the 9-digit rendering exactly
        log = MetricsLog()
        for r in (1, 2):
            for e in (1, 2, 3):
                log.append(EpochRecord(r, e, "train", e / 8, e / 16, 0.125))
                log.append(EpochRecord(r, e, "val", e / 4, e / 32, 0.125))
        p = tmp_path / "m.csv"
        write_metrics_csv(log, p)
        back = read_metrics_csv(p)
        key = lambda rec: (rec.round, rec.epoch, rec.split)
        assert sorted(back.records, key=key) == sorted(log.records, key=key)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("epoch,loss\n1,0.5\n")
        with pytest.raises(ConfigError, match="line 1"):
            read_metrics_csv(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(CSV_HEADER + "\n1,1,train,0.5,0.5\n")
        with pytest.raises(ConfigError, match="line 2"):
            read_metrics_csv(p)

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(CSV_HEADER + "\n1,1,train,0.5,0.5,0.1\n1,2,train,0.5,1.5,0.1\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_metrics_csv(p)

    def test_invalid_utf8_names_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes((CSV_HEADER + "\n1,1,train,0.5,0.5,0.1\n").encode()
                      + b"1,2,tr\xe9in,0.5,0.5,0.1\n")
        with pytest.raises(ConfigError, match="^line 3: invalid UTF-8 at byte 63$"):
            read_metrics_csv(p)

    def test_broken_contiguity_names_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(CSV_HEADER + "\n1,2,train,0.5,0.5,0.1\n")
        with pytest.raises(ConfigError, match="line 2"):
            read_metrics_csv(p)


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


BLOBS = "data.kind = synth_blobs\narch = flatten\n"
IMAGES = "data.kind = synth_images\narch = flatten\n"
U64_END = str(2**64)

# Configs that must fail to parse: (text, line to blame, message part).
BAD_CONFIGS = [
    (BLOBS + "data.n = 0\n", 3, "n must be >= 1"),
    (BLOBS + "data.classes = 0\n", 3, "classes must be >= 1"),
    (IMAGES + "data.size = 0\n", 3, "size must be >= 1"),
    (BLOBS + "data.dim = 0\n", 3, "dim must be >= 1"),
    (BLOBS + "data.take = -1\n", 3, "take must be >= 0"),
    (BLOBS + "data.spread = 0\n", 3, "spread must be positive"),
    (BLOBS + "data.spread = inf\n", 3, "spread must be positive"),
    (BLOBS + "data.seed = -1\n", 3, "seed must be in"),
    (BLOBS + f"data.seed = {U64_END}\n", 3, "seed must be in"),
    (BLOBS + "label_seed = -3\n", 3, "label_seed must be in"),
    (BLOBS + f"label_seed = {U64_END}\n", 3, "label_seed must be in"),
    (BLOBS + "seeds = -1\n", 3, "seeds must be"),
    (BLOBS + f"seeds = 0,{U64_END}\n", 3, "seeds must be"),
    (BLOBS + "epochs_per_round = -1\n", 3, "epochs_per_round must be >= 0"),
    (BLOBS + "pre_epochs = -1\n", 3, "pre_epochs must be >= 0"),
    (BLOBS + "ft_epochs = -1\n", 3, "ft_epochs must be >= 0"),
    (BLOBS + "lr = nan\n", 3, "initial_lr must be finite"),
    (BLOBS + "lr = inf\n", 3, "initial_lr must be finite"),
    (BLOBS + "min_lr = nan\n", 3, "min_lr must be finite"),
    (BLOBS + "decay = nan\n", 3, "decay_factor must be finite"),
    (BLOBS + "seed = -1\n", 3, "seed must be in"),
    (BLOBS + "train_fraction = nan\n", 3, "train_fraction must be in"),
    (IMAGES + "data.dim = 4\n", 3, "data.dim does not apply to kind synth_images"),
    ("data.kind = idx\ndata.n = 5\narch = flatten\n", 2, "data.n does not apply"),
    (BLOBS + "target.n = 5\ntarget.classes = 2\n", 3, "need target.kind"),
    (BLOBS + "target.n = 5\ntarget.kind = mnist\n", 4, "unknown target.kind"),
    ("data.kind = synth_blob\narch = flatten\n", 1, "unknown data.kind"),
    (BLOBS + "data.n = 2\ndata.classes = 3\n", 3, "n must be >= classes"),
    (BLOBS + "target.kind = synth_blobs\ntarget.classes = 2000\n", 4,
     "n must be >= classes"),
    (IMAGES + "data.n = 20\ndata.take = 30\n", 4, "take must be <= n"),
    (BLOBS + "target.take = 1001\ntarget.kind = synth_images\n", 3,
     "take must be <= n"),
    ("data.kind = idx\ndata.images = i.idx\narch = flatten\n", 1,
     "labels must be set for kind idx"),
    (BLOBS + "target.labels = l.idx\ntarget.kind = idx\n", 4,
     "images must be set for kind idx"),
]


@pytest.mark.parametrize("text, line, message", BAD_CONFIGS,
                         ids=[t.splitlines()[line - 1] for t, line, _ in BAD_CONFIGS])
def test_bad_config_blames_its_line(tmp_path, text, line, message):
    with pytest.raises(ConfigError, match=f"^line {line}: .*{message}"):
        parse_config(write_config(tmp_path, text))


# Bytes that are not UTF-8, and the config line they are on; line breaks
# are counted as in the rest of parse_config, so "\r\n" is one and "\r" is one.
BAD_UTF8 = [
    (b"data.kind = synth_blobs\narch = flatten # caf\xe9\n", 2),
    (b"\xff", 1),
    (b"data.kind = synth_blobs\r\narch = flatten\r\n\r\nlr = 0.1\xc3\n", 4),
    (b"data.kind = synth_blobs\rarch = flatten\r# \xe2\x82\n", 3),
]
BAD_UTF8_IDS = ["latin-1 comment", "first byte", "crlf lines", "cr lines"]


@pytest.mark.parametrize("raw, line", BAD_UTF8, ids=BAD_UTF8_IDS)
def test_invalid_utf8_config_blames_its_line(tmp_path, raw, line):
    p = tmp_path / "run.cfg"
    p.write_bytes(raw)
    with pytest.raises(ConfigError, match=f"^line {line}: invalid UTF-8 at byte "):
        parse_config(p)


class TestParseConfig:
    def test_minimal_config_gets_standard_defaults(self, tmp_path):
        p = write_config(tmp_path, "data.kind = synth_blobs\narch = flatten\n")
        spec = parse_config(p)
        cfg = spec.train
        assert (cfg.epochs, cfg.initial_lr, cfg.momentum) == (200, 0.1, 0.9)
        assert (cfg.patience, cfg.decay_factor, cfg.min_lr) == (10, 0.1, 1e-5)
        assert (cfg.batch_size, cfg.seed, cfg.monitor) == (32, 0, "val_accuracy")
        assert spec.rounds == 4
        assert spec.seeds == [0, 1, 2, 3, 4]
        assert spec.train_fraction == 0.8
        assert spec.target is None
        assert spec.checkpoint == ""

    def test_comments_and_blank_lines(self, tmp_path):
        p = write_config(tmp_path, (
            "# a run\n"
            "\n"
            "data.kind = synth_blobs  # flat vectors\n"
            "arch = flatten\n"
            "epochs = 5\t# after a tab\n"
            "checkpoint = a#b\n"
        ))
        spec = parse_config(p)
        assert (spec.train.epochs, spec.checkpoint) == (5, "a#b")

    def test_range_error_blames_its_line(self, tmp_path):
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\nmomentum = 1.5\n")
        with pytest.raises(ConfigError, match="line 3.*momentum"):
            parse_config(p)

    def test_unknown_key_names_line(self, tmp_path):
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\npatiense = 10\n")
        with pytest.raises(ConfigError, match="line 3.*patiense"):
            parse_config(p)

    def test_duplicate_key(self, tmp_path):
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\n"
                         "epochs = 5\nepochs = 6\n")
        with pytest.raises(ConfigError, match="line 4.*duplicate"):
            parse_config(p)

    def test_unparsable_value(self, tmp_path):
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\nepochs = banana\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(p)

    def test_line_without_equals(self, tmp_path):
        p = write_config(tmp_path, "data.kind = synth_blobs\njust words\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(p)

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="data.kind"):
            parse_config(write_config(tmp_path, "arch = flatten\n"))
        with pytest.raises(ConfigError, match="arch"):
            parse_config(write_config(tmp_path, "data.kind = synth_blobs\n"))

    def test_seed_list_and_bounds(self, tmp_path):
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\nseeds = 3,1,4\n")
        assert parse_config(p).seeds == [3, 1, 4]
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\nseeds = \n")
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(p)

    def test_rounds_and_fraction_bounds(self, tmp_path):
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\nrounds = 0\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(p)
        p = write_config(tmp_path,
                         "data.kind = synth_blobs\narch = flatten\n"
                         "train_fraction = 1.5\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(p)

    def test_render_reparses_to_equal_spec(self, tmp_path):
        p = write_config(tmp_path, (
            "data.kind = synth_images\n"
            "data.n = 40\n"
            "data.classes = 5\n"
            "data.seed = 9\n"
            "data.size = 8\n"
            "target.kind = synth_blobs\n"
            "target.n = 30\n"
            "target.classes = 3\n"
            "target.seed = 2\n"
            "target.dim = 4\n"
            "target.spread = 0.25\n"
            "arch = flatten dense:8 relu\n"
            "epochs = 6\n"
            "lr = 0.05\n"
            "seeds = 0,1\n"
            "label_seed = 77\n"
            "pre_epochs = 2\n"
            "checkpoint = pre.ckpt\n"
        ))
        spec = parse_config(p)
        echoed = write_config(tmp_path, render_config(spec))
        assert parse_config(echoed) == spec


# Echo goldens: every kind, target blocks, take and checkpoint.  The
# expected text was recorded from the hand-listed renderer that the schema
# replaced; config.echo must keep these bytes.
GOLDEN_IMAGES_TO_BLOBS = ("""\
# images memorized, blobs fine-tuned
data.kind = synth_images
data.n = 40
data.classes = 5
data.seed = 9
data.size = 8
data.take = 30
target.kind = synth_blobs
target.n = 30
target.classes = 3
target.seed = 2
target.dim = 4
target.spread = 0.25
target.take = 20
arch = flatten dense:8 relu
epochs = 6
lr = 0.05
momentum = 0.5
patience = 3
decay = 0.5
min_lr = 0.0001
batch_size = 16
seed = 11
monitor = train_loss
rounds = 2
epochs_per_round = 3
seeds = 4,0,7
train_fraction = 0.75
pre_epochs = 2
ft_epochs = 5
checkpoint = runs/pre/final.ckpt
""", """\
data.kind = synth_images
data.n = 40
data.classes = 5
data.seed = 9
data.size = 8
data.take = 30
target.kind = synth_blobs
target.n = 30
target.classes = 3
target.seed = 2
target.dim = 4
target.spread = 0.25
target.take = 20
arch = flatten dense:8 relu
epochs = 6
lr = 0.05
momentum = 0.5
patience = 3
decay = 0.5
min_lr = 0.0001
batch_size = 16
seed = 11
monitor = train_loss
rounds = 2
epochs_per_round = 3
label_seed = 11
seeds = 4,0,7
train_fraction = 0.75
pre_epochs = 2
ft_epochs = 5
checkpoint = runs/pre/final.ckpt
""")

GOLDEN_IDX_TO_IMAGES = ("""\
data.kind = idx
data.images = corpus/train-images.idx
data.labels = corpus/train-labels.idx
data.take = 100
target.kind = synth_images
target.n = 50
target.classes = 10
target.seed = 3
arch = conv:4,3 relu maxpool:2 flatten
label_seed = 5
checkpoint = pre.ckpt
""", """\
data.kind = idx
data.images = corpus/train-images.idx
data.labels = corpus/train-labels.idx
data.take = 100
target.kind = synth_images
target.n = 50
target.classes = 10
target.seed = 3
target.size = 28
arch = conv:4,3 relu maxpool:2 flatten
epochs = 200
lr = 0.1
momentum = 0.9
patience = 10
decay = 0.1
min_lr = 1e-05
batch_size = 32
seed = 0
monitor = val_accuracy
rounds = 4
epochs_per_round = 0
label_seed = 5
seeds = 0,1,2,3,4
train_fraction = 0.8
pre_epochs = 0
ft_epochs = 0
checkpoint = pre.ckpt
""")


class TestConfigEcho:
    @pytest.mark.parametrize("given, echoed",
                             [GOLDEN_IMAGES_TO_BLOBS, GOLDEN_IDX_TO_IMAGES],
                             ids=["images-to-blobs", "idx-to-images"])
    def test_golden_echo(self, tmp_path, given, echoed):
        assert render_config(parse_config(write_config(tmp_path, given))) == echoed


_WORD = st.text(string.ascii_letters + string.digits + "#./:,_-", min_size=1,
                max_size=8).filter(lambda w: not w.startswith("#"))
_COUNT = st.integers(1, 10**6)
_NONNEG = st.integers(0, 10**6)
_U64 = st.integers(0, 2**64 - 1)


def _reals(lo=0.0, hi=None, **bounds):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def _dataset_specs(draw):
    """A valid DatasetSpec that sets only the fields its kind uses."""
    kind = draw(st.sampled_from(["synth_images", "synth_blobs", "idx"]))
    if kind == "idx":
        used = {"images": draw(_WORD), "labels": draw(_WORD)}
        take = draw(_NONNEG)
    else:
        n = draw(_COUNT)
        used = {"n": n, "classes": draw(_COUNT), "seed": draw(_U64)}
        take = draw(st.integers(0, n))
        if kind == "synth_images":
            used["size"] = draw(_COUNT)
        else:
            used.update(classes=draw(st.integers(1, n)), dim=draw(_COUNT),
                        spread=draw(_reals(exclude_min=True)))
    return DatasetSpec(kind=kind, take=take, **used)


_RUN_SPECS = st.builds(
    RunSpec,
    data=_dataset_specs(),
    arch=st.lists(_WORD, max_size=4).map(" ".join),
    train=st.builds(
        TrainConfig, epochs=_NONNEG, initial_lr=_reals(exclude_min=True),
        momentum=_reals(0.0, 1.0, exclude_max=True), patience=_COUNT,
        decay_factor=_reals(0.0, 1.0, exclude_min=True, exclude_max=True),
        min_lr=_reals(exclude_min=True), batch_size=_COUNT, seed=_U64,
        monitor=st.sampled_from(MONITORS)),
    target=st.none() | _dataset_specs(),
    rounds=_COUNT, epochs_per_round=_NONNEG, label_seed=_U64,
    seeds=st.lists(_U64, min_size=1, max_size=4),
    train_fraction=_reals(0.0, 1.0, exclude_min=True, exclude_max=True),
    pre_epochs=_NONNEG, ft_epochs=_NONNEG,
    checkpoint=st.just("") | _WORD,
)


@settings(max_examples=300, deadline=None)
@given(spec=_RUN_SPECS)
def test_render_then_parse_is_identity(tmp_path_factory, spec):
    p = tmp_path_factory.getbasetemp() / "echo.cfg"
    p.write_text(render_config(spec), encoding="utf-8")
    assert parse_config(p) == spec


class TestDatasetSpec:
    def test_blobs_kind(self):
        spec = DatasetSpec(kind="synth_blobs", n=50, classes=3, seed=4,
                           dim=5, spread=0.7)
        d = spec.build()
        want = synth_blobs(50, 3, 5, 0.7, 4)
        assert np.array_equal(d.samples, want.samples)
        assert np.array_equal(d.labels, want.labels)

    def test_images_kind_with_take(self):
        spec = DatasetSpec(kind="synth_images", n=20, classes=4, seed=1,
                           size=6, take=8)
        d = spec.build()
        want = synth_images(20, 4, 1, size=6).take(8)
        assert np.array_equal(d.samples, want.samples)

    def test_idx_kind(self, tmp_path):
        src = synth_images(10, 3, seed=1, size=6)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(src, ip, lp)
        d = DatasetSpec(kind="idx", images=str(ip), labels=str(lp)).build()
        assert np.array_equal(d.samples, load_idx(ip, lp).samples)

    def test_idx_needs_both_paths(self):
        with pytest.raises(ValueError, match="^labels must be set for kind idx"):
            DatasetSpec(kind="idx", images="only.idx")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DatasetSpec(kind="mnist").build()


class TestPhaseConfig:
    def make_spec(self, tmp_path):
        p = write_config(tmp_path, (
            "data.kind = synth_blobs\narch = flatten\n"
            "epochs = 10\npre_epochs = 3\nepochs_per_round = 7\n"
        ))
        return parse_config(p)

    def test_fallback_to_train_epochs(self, tmp_path):
        spec = self.make_spec(tmp_path)
        assert resolved_epochs(spec, "pre") == 3
        assert resolved_epochs(spec, "ft") == 10
        assert resolved_epochs(spec, "round") == 7

    def test_phase_config_keeps_everything_else(self, tmp_path):
        spec = self.make_spec(tmp_path)
        cfg = phase_config(spec, "pre")
        assert cfg.epochs == 3
        assert cfg.initial_lr == spec.train.initial_lr
        assert cfg.seed == spec.train.seed


# ---------------------------------------------------------------- fuzz

@st.composite
def _mutants(draw, raw: bytes):
    """raw cut short, or raw with one to three bits flipped."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3)):
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _conv_checkpoint():
    net = build_network("conv:3,3,1,1 relu maxpool:2 flatten dense:4 relu",
                        (1, 6, 6), 2)
    net.initialize(3)
    return Checkpoint(net.descriptor, net.state_tensors(), "labeling=random(seed=9)")


@settings(max_examples=400, deadline=None)
@given(data=st.data(), make=st.sampled_from([small_checkpoint, _conv_checkpoint]))
def test_mutated_checkpoint_loads_or_raises_a_memlab_error(tmp_path_factory, data, make):
    p = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    save_checkpoint(make(), p)
    p.write_bytes(data.draw(_mutants(p.read_bytes())))
    try:
        load_checkpoint(p)
    except MemlabError:
        pass


@settings(max_examples=400, deadline=None)
@given(data=st.data(), spec=_RUN_SPECS)
def test_mutated_config_parses_or_raises_a_memlab_error(tmp_path_factory, data, spec):
    p = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    p.write_bytes(data.draw(_mutants(render_config(spec).encode("utf-8"))))
    try:
        parse_config(p)
    except MemlabError:
        pass


def _metrics_log():
    log = MetricsLog()
    for r in (1, 2):
        for e in (1, 2):
            log.append(EpochRecord(r, e, "train", 2.302585093 / e, e / 4, 0.1 / r))
            log.append(EpochRecord(r, e, "val", 2.4 / e, e / 5, 0.1 / r))
    return log


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_metrics_csv_loads_or_raises_a_memlab_error(tmp_path_factory, data):
    p = tmp_path_factory.getbasetemp() / "fuzz.csv"
    write_metrics_csv(_metrics_log(), p)
    p.write_bytes(data.draw(_mutants(p.read_bytes())))
    try:
        read_metrics_csv(p)
    except MemlabError:
        pass
