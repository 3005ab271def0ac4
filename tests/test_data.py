"""Dataset construction, IDX files, random labeling, reshuffling, splits."""

import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import memlab
from memlab import (BadMagicError, CountMismatchError, Dataset,
                    MemlabError, ShapeError, TruncatedError,
                    assign_random_labels, load_idx, reshuffle_labels, split,
                    splitmix64, synth_blobs, synth_images, write_idx)
from memlab import data, prng
from memlab.data import _ROWS_BLOCK_BYTES

CHI2_9_Q999 = 27.877  # 0.999 quantile of chi-square with 9 dof


def chi_square_uniform(labels, k):
    counts = np.bincount(labels, minlength=k)
    expected = len(labels) / k
    return float(((counts - expected) ** 2 / expected).sum())


def write_pair(tmp_path, images, labels):
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(images)
    lp.write_bytes(labels)
    return ip, lp


def image_bytes(n, h, w, payload):
    return struct.pack(">IIII", 0x803, n, h, w) + bytes(payload)


def label_bytes(n, payload):
    return struct.pack(">II", 0x801, n) + bytes(payload)


class TestIdx:
    def test_hand_encoded_pair(self, tmp_path):
        ip, lp = write_pair(tmp_path,
                            image_bytes(1, 2, 2, [0, 255, 0, 255]),
                            label_bytes(1, [3]))
        d = load_idx(ip, lp)
        assert d.samples.shape == (1, 2, 2)
        assert np.array_equal(d.samples[0], [[0.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(d.labels, [3])
        assert d.num_classes == 4

    def test_bad_image_magic(self, tmp_path):
        ip, lp = write_pair(tmp_path,
                            struct.pack(">IIII", 0x9999, 1, 2, 2) + bytes(4),
                            label_bytes(1, [0]))
        with pytest.raises(BadMagicError):
            load_idx(ip, lp)

    def test_label_file_with_image_magic(self, tmp_path):
        ip, lp = write_pair(tmp_path,
                            image_bytes(1, 2, 2, [0] * 4),
                            struct.pack(">II", 0x803, 1) + bytes(1))
        with pytest.raises(BadMagicError):
            load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip, lp = write_pair(tmp_path, b"\x00\x00\x08\x03\x00", label_bytes(1, [0]))
        with pytest.raises(TruncatedError):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = write_pair(tmp_path,
                            image_bytes(2, 2, 2, [0] * 7),
                            label_bytes(2, [0, 1]))
        with pytest.raises(TruncatedError):
            load_idx(ip, lp)

    def test_trailing_bytes(self, tmp_path):
        ip, lp = write_pair(tmp_path,
                            image_bytes(1, 2, 2, [0] * 4) + b"x",
                            label_bytes(1, [0]))
        with pytest.raises(TruncatedError):
            load_idx(ip, lp)

    @pytest.mark.parametrize("images,labels,part,dims", [
        (image_bytes(0, 2, 2, []), label_bytes(0, []), "images", (0, 2, 2)),
        (image_bytes(2, 0, 3, []), label_bytes(2, [0, 1]), "images", (2, 0, 3)),
        (image_bytes(1, 2, 2, [0] * 4), label_bytes(0, []), "labels", (0,)),
    ], ids=["no_images", "zero_height", "no_labels"])
    def test_zero_size_dims(self, tmp_path, images, labels, part, dims):
        ip, lp = write_pair(tmp_path, images, labels)
        with pytest.raises(ShapeError, match=f"^{part}: dims {re.escape(str(dims))}"):
            load_idx(ip, lp)

    def test_dims_whose_product_passes_int64(self, tmp_path):
        # 2**31 * 2**31 * 4 = 2**64 pixels, which an int64 product wraps to 0
        ip, lp = write_pair(tmp_path, image_bytes(2**31, 2**31, 4, []),
                            label_bytes(1, [0]))
        with pytest.raises(TruncatedError, match="^images payload: need 18446744073709551616 "):
            load_idx(ip, lp)

    def test_every_proper_prefix_is_truncated(self, tmp_path):
        images = image_bytes(2, 2, 3, range(12))
        labels = label_bytes(2, [0, 1])
        for cut in range(len(images)):
            ip, lp = write_pair(tmp_path, images[:cut], labels)
            with pytest.raises(TruncatedError, match="^images"):
                load_idx(ip, lp)
        for cut in range(len(labels)):
            ip, lp = write_pair(tmp_path, images, labels[:cut])
            with pytest.raises(TruncatedError, match="^labels"):
                load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = write_pair(tmp_path,
                            image_bytes(2, 2, 2, [0] * 8),
                            label_bytes(1, [0]))
        with pytest.raises(CountMismatchError):
            load_idx(ip, lp)

    def test_round_trip(self, tmp_path):
        d = synth_images(20, 5, seed=3, size=8)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx(d, ip, lp)
        back = load_idx(ip, lp)
        # generator quantizes to 256 gray levels, so the trip is exact
        assert np.array_equal(back.samples, d.samples)
        assert np.array_equal(back.labels, d.labels)

    def test_write_rejects_flat_features(self, tmp_path):
        d = synth_blobs(10, 2, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            write_idx(d, tmp_path / "i.idx", tmp_path / "l.idx")

    def test_write_rejects_labels_above_255(self, tmp_path):
        # uint8 labels: 299 would wrap to 43 and read back as a wrong class
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        d = Dataset(np.zeros((3, 2, 2)), [0, 299, 255], 300)
        with pytest.raises(MemlabError, match="label 299 is above 255"):
            write_idx(d, ip, lp)
        assert not ip.exists() and not lp.exists()
        top = Dataset(np.zeros((2, 2, 2)), [255, 0], 256)
        write_idx(top, ip, lp)
        assert np.array_equal(load_idx(ip, lp).labels, [255, 0])

    def test_load_makes_no_copy_of_the_payload(self, tmp_path):
        # the codes are a view of the one read buffer; a copy of the payload
        # and two float64 arrays once took the peak to about 9x the files
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, 2000 * 784, dtype=np.uint8)
        ip, lp = write_pair(tmp_path, image_bytes(2000, 28, 28, pixels),
                            label_bytes(2000, rng.integers(0, 10, 2000, dtype=np.uint8)))
        size = ip.stat().st_size + lp.stat().st_size
        tracemalloc.start()
        try:
            d = load_idx(ip, lp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.codes.tobytes() == ip.read_bytes()[16:]
        assert peak <= 1.5 * size

    def test_float_samples_round_to_their_codes(self):
        # write_idx's float path gives a coded dataset's bytes: k/255 -> k
        k = np.arange(256)
        assert np.array_equal(np.rint((k / 255.0) * 255.0), k)


_CODES = st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        st.binary(min_size=math.prod(shape), max_size=math.prod(shape)).map(
            lambda raw: np.frombuffer(raw, dtype=np.uint8).reshape(shape)),
        st.lists(st.integers(0, 255), min_size=shape[0], max_size=shape[0])))


@settings(max_examples=100, deadline=None)
@given(case=_CODES, coded=st.booleans())
def test_idx_round_trip_keeps_codes_and_bytes(tmp_path_factory, case, coded):
    codes, labels = case
    k = max(labels) + 1
    d = (Dataset._stored(codes.copy(), labels, k) if coded
         else Dataset(codes / 255.0, labels, k))
    assert (d.codes is not None) == coded
    ip, lp = (tmp_path_factory.getbasetemp() / name for name in ("i.idx", "l.idx"))
    write_idx(d, ip, lp)
    back = load_idx(ip, lp)
    assert np.array_equal(back.codes, codes)
    assert np.array_equal(back.labels, labels)
    assert back.samples.tobytes() == d.samples.tobytes()


def _mutants(raw):
    """A truncation of ``raw``, or ``raw`` with 1-3 of its bits flipped."""
    bits = len(raw) * 8
    truncations = st.integers(0, len(raw) - 1).map(lambda cut: raw[:cut])

    def flip(positions):
        out = bytearray(raw)
        for bit in positions:
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    flips = st.lists(st.integers(0, bits - 1), min_size=1, max_size=3,
                     unique=True).map(flip)
    return truncations | flips


_PAIR = (image_bytes(3, 2, 3, np.random.default_rng(5).integers(0, 256, 18, dtype=np.uint8)),
         label_bytes(3, [2, 0, 3]))


@settings(max_examples=400, deadline=None)
@given(which=st.sampled_from([0, 1]), data=st.data())
def test_mutated_idx_pair_is_typed_error_or_its_payload(tmp_path_factory, which, data):
    files = list(_PAIR)
    files[which] = data.draw(_mutants(files[which]))
    ip, lp = (tmp_path_factory.getbasetemp() / name for name in ("i.idx", "l.idx"))
    ip.write_bytes(files[0])
    lp.write_bytes(files[1])
    try:
        d = load_idx(ip, lp)
    except MemlabError:
        return
    assert d.codes.tobytes() == files[0][16:]
    assert d.labels.tolist() == list(files[1][8:])


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(5), np.zeros(5, dtype=int), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((5, 3)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((5, 3)), np.full(5, 2), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((5, 3)), np.zeros(5, dtype=int), 0)
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)

    def test_arrays_are_read_only(self):
        d = synth_blobs(10, 2, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            d.samples[0, 0] = 1.0
        with pytest.raises(ValueError):
            d.labels[0] = 1

    def test_constructor_copies_the_callers_arrays(self):
        b, labels = np.zeros((2, 3)), np.array([0, 1], dtype=np.int64)
        v = b[:]
        d = Dataset(v, labels, 2)
        assert b.flags.writeable and v.flags.writeable and labels.flags.writeable
        b[0, 0], labels[0] = 5.0, 1
        assert d.samples[0, 0] == 0.0 and d.labels[0] == 0
        assert not d.samples.flags.writeable and not d.labels.flags.writeable

    @pytest.mark.parametrize("labels", [[0.0, 1.0], np.array([0, 1], dtype=np.uint64),
                                        np.array([0, 1], dtype=object)],
                             ids=["whole floats", "uint64", "object ints"])
    def test_whole_labels_of_any_numeric_type_load(self, labels):
        d = Dataset(np.zeros((2, 3)), labels, 2)
        assert d.labels.dtype == np.int64 and d.labels.tolist() == [0, 1]

    def test_coded_samples_are_the_read_only_decode(self):
        d = synth_images(30, 5, seed=2, size=6)
        assert d.codes.dtype == np.uint8 and d.codes.shape == (30, 6, 6)
        want = d.codes.astype(np.float64) / 255.0
        s = d.samples
        assert s.dtype == np.float64 and s.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            s[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            d.codes[0, 0, 0] = 1
        idx = np.array([7, 0, 29, 7])
        assert d.rows(idx).tobytes() == want[idx].tobytes()
        assert d.rows(slice(3, 9)).tobytes() == want[3:9].tobytes()
        buf = np.empty((8, 6, 6))
        got = d.rows(slice(24, 30), out=buf)
        assert got.base is buf and got.tobytes() == want[24:30].tobytes()
        assert (d.n, d.feature_shape) == (30, (6, 6))

    def test_array_in_the_constructor_is_float_storage(self):
        # a uint8 array keeps meaning 0..255: only the generator and the
        # loader store codes
        d = Dataset(np.full((2, 3), 255, dtype=np.uint8), [0, 1], 2)
        assert d.codes is None
        assert d.samples.dtype == np.float64 and d.samples.max() == 255.0
        assert d.rows([1]).tobytes() == d.samples[[1]].tobytes()
        buf = np.full((1, 3), 7.0)
        assert d.rows(slice(0, 1), out=buf).base is d.samples
        assert (buf == 7.0).all()

    def test_transformations_pass_the_codes_through(self):
        d = synth_images(40, 4, seed=3, size=5)
        assert assign_random_labels(d, seed=1).codes is d.codes
        assert reshuffle_labels(d, base_seed=1, round=2).codes is d.codes
        head = d.take(6)
        assert np.array_equal(head.codes, d.codes[:6])
        tr, va = split(d, 0.75, seed=4)
        order = memlab.Prng(4).permutation(40)
        assert np.array_equal(tr.codes, d.codes[order[:30]])
        assert np.array_equal(va.codes, d.codes[order[30:]])

    def test_take(self):
        d = synth_blobs(10, 2, 4, 0.5, seed=0)
        head = d.take(4)
        assert head.n == 4
        assert np.array_equal(head.samples, d.samples[:4])
        assert np.array_equal(head.labels, d.labels[:4])
        assert head.labeling == d.labeling
        with pytest.raises(ValueError):
            d.take(0)
        with pytest.raises(ValueError):
            d.take(11)

    def test_labeling_describe(self):
        d = Dataset(np.zeros((2, 1)), [0, 1], 2)
        assert d.labeling == "true_labels"
        assert assign_random_labels(d, seed=5).labeling == "random(seed=5)"
        assert reshuffle_labels(d, base_seed=7, round=3).labeling == \
            "reshuffled(seed=7, round=3)"


# sha256 of samples bytes then labels bytes, recorded before the generators
# built their corpora in row blocks.  Shapes: the corpora the workloads
# use, n at and around a block boundary (see test_pinned_shapes_straddle),
# odd image sizes and dims, no distractor bumps, non-default knobs.
IMAGE_DIGESTS = [
    ((10000, 30, 500), {}, "505dbb6388998d0ebff50130645b21f8d2bc28dda84ca9eb751ada76451d87a8"),
    ((128, 10, 100), {}, "8cbe25dee6db2fa0bad0cde61dd90b408d04bf653a9c90fd78716749530a459c"),
    ((257, 7, 3), {}, "d47594699a3fc06b9b78bc1fdb8cdef92017396c54e0ad87d352232654edf088"),
    ((1, 3, 9), {}, "7986064d30516b1e387c5aab2ab28eebc7a710f2efe098d6b81623d982da0858"),
    ((3, 3, 11), {}, "e790dfe75bd25248f9a27c0dda609fa5dd5d516c4cd8905055fbf3256b9c64ee"),
    ((40, 5, 1), {}, "ceafe843fcbe507741ad48c7561d2c4e4c5be76b13e28bd3482488d8a7b3ad65"),
    ((41, 5, 1), {}, "4b793e2a18007d41126d188034241af6323dd0a563b9aa57ad8b8531c386639f"),
    ((42, 5, 1), {}, "dd777112dad45a8de1537ccec4f61271816b670a40d127b200c8c592b246527d"),
    ((83, 5, 1), {}, "b301436331d7dc3f04c599ed436c5b653388700647504cd4695ce2ba528484bb"),
    ((403, 4, 5), {'size': 9}, "91aefcc601ebe4fa0c146f8ba4e27a11ef5d312306fa05cab8f856764219c6f4"),
    ((405, 4, 5), {'size': 9}, "a78f61ba1bab8b21eb531ca3d79b40374fb71901372f43b2c6a210b2bf252910"),
    ((5, 3, 7), {'size': 7}, "3c75b5c80ec82c6e311807b49e75e10734a28eeb028aa40cddd80d836500a736"),
    ((1, 1, 0), {'size': 1}, "e3b99d14471310788a7260f108c984f6e24e1edce598610ca019bc296376583e"),
    ((50, 4, 8), {'size': 12, 'bumps': 0}, "181fd436c65b9c5c5ffd8d04e9bd6a74f3d4d82f528d80992d9c1a24d5eef391"),
    ((200, 6, 9), {'bumps': 0}, "9d199c24dfeca24076ba3a6e8c9af8e09f9d92bf2d4c94258cf25cee44783b61"),
    ((60, 4, 10), {'size': 15, 'bumps': 3, 'noise': 0.3, 'clutter': 1.2, 'jitter': 0.9},
     "d2f27097f7bcfec175d5982051ce2bf311910e94365c7d751d47abea326c1270"),
]
BLOB_DIGESTS = [
    ((2000, 10, 8, 0.5, 0), "85726454bfebd9d0f1bb4a97ff9425750f13aa75d6848f89acfb47ce8ea973df"),
    ((1, 1, 1, 1.0, 0), "40e2c783ec97a3e965cac2d8ae2d7b1bf46b62187df21fe87bfd6dba754eeabf"),
    ((7, 3, 3, 2.0, 9), "03d667cf04d7f2d2ed6fa4df0ae726bdcc2e44536cda6f08a5e344b34a9c79b3"),
    ((6552, 4, 5, 0.3, 1), "31b64b3f62e871f93e5f98ad1406a04547c01eadbffba773336f3311c9103524"),
    ((6554, 4, 5, 0.3, 1), "75c6cb3a6df340131e90fff316c5c5e0c3a3280c7fceb252a2dbd2f7d1553568"),
    ((42, 3, 784, 1.0, 2), "c42d2506bcb3c195e823e1c337af0895d29b1710f2af4f3ade69f65f7044cb26"),
    ((84, 3, 784, 1.0, 2), "d018b322b8a35ad5234b90f5c804df9e1579effe2dddd0ce3324d48632e30e94"),
]


def corpus_digest(d):
    return hashlib.sha256(d.samples.tobytes() + d.labels.tobytes()).hexdigest()


class TestSynth:
    @pytest.mark.parametrize("args, kwargs, digest", IMAGE_DIGESTS,
                             ids=[f"{a}{k or ''}" for a, k, _ in IMAGE_DIGESTS])
    def test_images_golden(self, args, kwargs, digest):
        assert corpus_digest(synth_images(*args, **kwargs)) == digest

    @pytest.mark.parametrize("args, digest", BLOB_DIGESTS,
                             ids=[str(a) for a, _ in BLOB_DIGESTS])
    def test_blobs_golden(self, args, digest):
        assert corpus_digest(synth_blobs(*args)) == digest

    def test_goldens_with_more_threads_than_cores(self, monkeypatch):
        # every row block is written by whichever thread takes it; a short
        # switch interval interleaves them as much as the interpreter can
        monkeypatch.setattr(data, "_usable_cores", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for args, kwargs, digest in IMAGE_DIGESTS:
                assert corpus_digest(synth_images(*args, **kwargs)) == digest, args
            for args, digest in BLOB_DIGESTS:
                assert corpus_digest(synth_blobs(*args)) == digest, args
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs an affinity mask to pin one core")
    def test_goldens_on_one_core(self, tmp_path):
        # a fresh interpreter pinned to one cpu builds every corpus on the
        # calling thread alone
        src = str(Path(memlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = (
            "import os, sys, pytest\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from memlab.data import _usable_cores\n"
            "assert _usable_cores() == 1\n"
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '--basetemp', "
            f"{str(tmp_path / 'pytest')!r}, '-k', 'images_golden or blobs_golden', "
            f"{__file__!r}]))\n")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout + run.stderr
        assert f"{len(IMAGE_DIGESTS) + len(BLOB_DIGESTS)} passed" in run.stdout, run.stdout

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_block_error_is_raised_with_its_type(self, monkeypatch, where):
        class Boom(Exception):
            pass

        real, raised_on = prng._box_muller, []

        def failing(state, total, lo, hi, out, **workspace):
            # 28x28 rows: block [0, 41) on the caller, [41, 42) on the helper
            if (lo > 0) == (where == "helper"):
                raised_on.append(threading.current_thread())
                raise Boom(f"block at {lo}")
            return real(state, total, lo, hi, out, **workspace)

        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        monkeypatch.setattr(prng, "_box_muller", failing)
        before = threading.active_count()
        with pytest.raises(Boom) as caught:
            synth_images(42, 5, seed=1)
        assert type(caught.value) is Boom
        assert (raised_on == [threading.main_thread()]) == (where == "caller")
        assert threading.active_count() == before

    def test_build_leaves_no_thread_behind(self, monkeypatch):
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        before = threading.active_count()
        synth_images(200, 5, seed=1)
        synth_blobs(20000, 4, 5, 0.3, seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("row_bytes, ns", [
        (8 * 28 * 28, [a[0] for a, k, _ in IMAGE_DIGESTS if not k]),
        (8 * 9 * 9, [a[0] for a, k, _ in IMAGE_DIGESTS if k.get("size") == 9]),
        (8 * 5, [a[0] for a, _ in BLOB_DIGESTS if a[2] == 5]),
    ])
    def test_pinned_shapes_straddle(self, row_bytes, ns):
        rows = _ROWS_BLOCK_BYTES // row_bytes
        assert rows - 1 in ns and rows + 1 in ns

    @pytest.mark.parametrize("build", [
        lambda: synth_images(4000, 10, seed=1),
        lambda: synth_blobs(4000, 10, 784, 0.5, seed=1),
    ], ids=["images", "blobs"])
    def test_build_peaks_near_the_corpus_size(self, build):
        # the corpus plus a few row blocks; whole-corpus temporaries gave 3.5-4.5x
        tracemalloc.start()
        try:
            d = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * d.samples.nbytes

    @pytest.mark.parametrize("build", [
        lambda: synth_images(4000, 10, seed=1),
        lambda: synth_blobs(4000, 10, 784, 0.5, seed=1),
    ], ids=["images", "blobs"])
    def test_build_peak_does_not_grow_with_the_cores(self, monkeypatch, build):
        # 64 threads split the workspace that two threads use; what they add
        # is their thread states and temporaries, about 0.25 MB, where a
        # workspace each added 40 MB
        peaks, corpora = {}, {}
        for cores in (2, 64):
            monkeypatch.setattr(data, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                corpora[cores] = build().samples
                peaks[cores] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.5 * corpora[64].nbytes
        assert peaks[64] <= peaks[2] + 4 * _ROWS_BLOCK_BYTES
        assert corpora[64].tobytes() == corpora[2].tobytes()

    def test_blobs_shape_and_determinism(self):
        a = synth_blobs(100, 10, 16, 0.5, seed=4)
        b = synth_blobs(100, 10, 16, 0.5, seed=4)
        assert a.samples.shape == (100, 16)
        assert a.num_classes == 10
        assert a.labeling == "true_labels"
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)
        c = synth_blobs(100, 10, 16, 0.5, seed=5)
        assert not np.array_equal(a.samples, c.samples)

    def test_blobs_tiny_spread_is_separable(self):
        d = synth_blobs(200, 5, 8, 1e-9, seed=1)
        for k in range(5):
            cls = d.samples[d.labels == k]
            assert cls.std(axis=0).max() < 1e-6
        centers = np.stack([d.samples[d.labels == k][0] for k in range(5)])
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        assert gaps[~np.eye(5, dtype=bool)].min() > 0.5

    def test_blobs_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(100, 10, 16, 0.0, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(5, 10, 16, 0.5, seed=0)

    @pytest.mark.parametrize("build, message", [
        (lambda: synth_blobs(100, 10, 0, 0.5, seed=0), "dim must be >= 1"),
        (lambda: synth_blobs(100, 10, 16, math.nan, seed=0), "spread must be finite"),
        (lambda: synth_images(10, 3, seed=0, size=0), "size must be >= 1"),
        (lambda: synth_images(10, 3, seed=0, noise=math.nan), "noise must be finite"),
        (lambda: synth_images(10, 3, seed=0, jitter=math.inf), "jitter must be finite"),
        (lambda: synth_images(10, 3, seed=0, clutter=-math.inf), "clutter must be finite"),
    ], ids=["dim 0", "spread nan", "size 0", "noise nan", "jitter inf", "clutter -inf"])
    def test_bad_generator_arguments(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_images_shape_range_determinism(self):
        a = synth_images(30, 10, seed=7, size=12)
        assert a.samples.shape == (30, 12, 12)
        assert a.samples.min() >= 0.0 and a.samples.max() <= 1.0
        # quantized to 256 gray levels
        assert np.array_equal(a.samples * 255, np.rint(a.samples * 255))
        b = synth_images(30, 10, seed=7, size=12)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(
            a.samples, synth_images(30, 10, seed=8, size=12).samples)

    def test_images_label_uniformity(self):
        d = synth_images(10000, 10, seed=11, size=4, bumps=0, noise=0.01)
        assert chi_square_uniform(d.labels, 10) < CHI2_9_Q999


class TestRandomLabels:
    def test_uniform_and_independent_of_true(self):
        d = synth_blobs(10000, 10, 4, 0.5, seed=2)
        r = assign_random_labels(d, seed=99)
        assert chi_square_uniform(r.labels, 10) < CHI2_9_Q999
        agree = float((r.labels == d.labels).mean())
        se = np.sqrt(0.1 * 0.9 / d.n)
        assert abs(agree - 0.1) < 3 * se

    def test_low_mutual_information_with_true(self):
        d = synth_blobs(20000, 10, 4, 0.5, seed=3)
        r = assign_random_labels(d, seed=123)
        joint = np.zeros((10, 10))
        np.add.at(joint, (d.labels, r.labels), 1.0)
        joint /= joint.sum()
        pi, pj = joint.sum(1, keepdims=True), joint.sum(0, keepdims=True)
        nz = joint > 0
        mi = float((joint[nz] * np.log(joint[nz] / (pi @ pj)[nz])).sum())
        assert mi < 0.01

    def test_samples_shared_and_fixed(self):
        d = synth_blobs(50, 5, 4, 0.5, seed=0)
        r1 = assign_random_labels(d, seed=42)
        r2 = assign_random_labels(d, seed=42)
        assert r1.samples is d.samples
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.labeling == "random(seed=42)"

    def test_class_count_override(self):
        d = synth_blobs(500, 5, 4, 0.5, seed=0)
        r = assign_random_labels(d, seed=1, num_classes=17)
        assert r.num_classes == 17
        assert r.labels.max() >= 10  # actually uses the wider range


class TestReshuffle:
    def test_rounds_are_independent(self):
        d = synth_blobs(10000, 10, 4, 0.5, seed=6)
        r1 = reshuffle_labels(d, base_seed=7, round=1)
        r2 = reshuffle_labels(d, base_seed=7, round=2)
        agree = float((r1.labels == r2.labels).mean())
        assert abs(agree - 0.1) < 3 * np.sqrt(0.1 * 0.9 / d.n)

    def test_round_one_differs_from_plain_random(self):
        d = synth_blobs(1000, 10, 4, 0.5, seed=6)
        r1 = reshuffle_labels(d, base_seed=7, round=1)
        plain = assign_random_labels(d, seed=7)
        assert not np.array_equal(r1.labels, plain.labels)

    def test_seed_derivation(self):
        d = synth_blobs(100, 10, 4, 0.5, seed=6)
        r3 = reshuffle_labels(d, base_seed=21, round=3)
        direct = assign_random_labels(d, splitmix64(21 ^ 3))
        assert np.array_equal(r3.labels, direct.labels)
        assert r3.labeling == "reshuffled(seed=21, round=3)"

    def test_round_validation(self):
        d = synth_blobs(10, 2, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            reshuffle_labels(d, base_seed=0, round=0)


class TestSplit:
    def test_partition(self):
        d = synth_blobs(10, 2, 3, 0.5, seed=9)
        tr, va = split(d, 0.8, seed=5)
        assert (tr.n, va.n) == (8, 2)
        both = np.concatenate([tr.samples, va.samples])
        key = np.lexsort(both.T)
        orig = np.lexsort(d.samples.T)
        assert np.array_equal(both[key], d.samples[orig])
        assert tr.labeling == d.labeling and va.labeling == d.labeling

    def test_labels_travel_with_samples(self):
        d = synth_blobs(200, 5, 3, 1e-9, seed=9)
        tr, va = split(d, 0.7, seed=1)
        # tiny spread: class is recoverable from the sample itself
        centers = np.stack([d.samples[d.labels == k][0] for k in range(5)])
        for part in (tr, va):
            found = np.linalg.norm(
                part.samples[:, None] - centers[None], axis=-1).argmin(1)
            assert np.array_equal(found, part.labels)

    def test_deterministic_and_seed_sensitive(self):
        d = synth_blobs(100, 5, 3, 0.5, seed=9)
        a1, _ = split(d, 0.8, seed=5)
        a2, _ = split(d, 0.8, seed=5)
        b1, _ = split(d, 0.8, seed=6)
        assert np.array_equal(a1.samples, a2.samples)
        assert not np.array_equal(a1.samples, b1.samples)

    def test_empty_side_rejected(self):
        d = synth_blobs(3, 2, 3, 0.5, seed=0)
        with pytest.raises(ValueError):
            split(d, 0.01, seed=0)
        with pytest.raises(ValueError):
            split(d, 1.0, seed=0)
        with pytest.raises(ValueError):
            split(d, 0.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_u64_rejected(self, seed):
        # the split stream keeps only the low 64 bits: 2**64 + 5 would split as 5
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\)"):
            split(synth_blobs(10, 2, 3, 0.5, seed=0), 0.8, seed=seed)
