import builtins
import hashlib
import math
import operator
import os
import re
import struct
import tempfile
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg import annotations as ann
from songseg.annotations import BoundarySet, TargetCurve
from songseg.audio import AudioBuffer, read_wav, write_wav
from songseg.errors import CompatibilityError, FormatError
from songseg.model import BoundaryNet, param_shapes
from songseg.optim import init_adam
from songseg.params import SSLM_VARIANTS, PipelineParams, RunConfig
from songseg import serialize
from songseg.cli import main
from songseg.pipeline import _read_meta, extract_track_features
from songseg.serialize import (load_checkpoint, load_matrix, save_checkpoint,
                               save_matrix)
from songseg.spectral import FeatureMatrix
from songseg.postprocess import SweepRow, read_sweep_csv, write_sweep_csv
from songseg.svgplot import save_line_plot
from songseg.training import EpochStats, TrackExample, train, write_log_csv


def _roundtrip_matrix(tmp_path, m):
    path = tmp_path / "m.mat"
    save_matrix(m, path)
    return load_matrix(path)


class TestMatrixFile:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        values = rng.standard_normal((2, 3)).astype(np.float32)
        m = FeatureMatrix(values=values, hop_seconds=1024 / 44100 * 6,
                          pool_factor=6, pad_frames=50, kind="net_input")
        back = _roundtrip_matrix(tmp_path, m)
        assert back.values.dtype == np.float32
        np.testing.assert_array_equal(back.values, values)
        assert back.hop_seconds == m.hop_seconds
        assert back.pool_factor == 6
        assert back.pad_frames == 50

    def test_empty_matrix(self, tmp_path):
        m = FeatureMatrix(values=np.zeros((0, 0), dtype=np.float32),
                          hop_seconds=0.1, kind="net_input")
        back = _roundtrip_matrix(tmp_path, m)
        assert back.values.shape == (0, 0)

    @settings(max_examples=100, deadline=None)
    @given(values=arrays(np.float32, st.tuples(st.integers(0, 6), st.integers(0, 9)),
                         elements=st.floats(width=32)),
           hop=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           pool=st.integers(1, 2**32 - 1),
           pad=st.integers(0, 2**32 - 1))
    @example(values=np.zeros((4, 0), np.float32), hop=0.1, pool=6, pad=50)
    def test_roundtrip_bit_exact_any_shape(self, values, hop, pool, pad):
        m = FeatureMatrix(values=values, hop_seconds=hop, pool_factor=pool,
                          pad_frames=pad, kind="net_input")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.mat")
            save_matrix(m, path)
            back = load_matrix(path)
        assert back.values.dtype == np.float32
        assert back.values.shape == values.shape
        assert back.values.tobytes() == values.tobytes()  # NaN payloads too
        assert (back.hop_seconds, back.pool_factor, back.pad_frames) == (hop, pool, pad)

    def test_double_roundtrip_stable(self, tmp_path, rng):
        m = FeatureMatrix(values=rng.standard_normal((5, 7)).astype(np.float32),
                          hop_seconds=0.25, kind="net_input")
        once = _roundtrip_matrix(tmp_path, m)
        twice = _roundtrip_matrix(tmp_path, once)
        assert once.values.tobytes() == twice.values.tobytes()

    def test_corrupted_magic(self, tmp_path, rng):
        m = FeatureMatrix(values=rng.standard_normal((2, 2)).astype(np.float32),
                          hop_seconds=0.1, kind="net_input")
        path = tmp_path / "m.mat"
        save_matrix(m, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_bad_dtype_code(self, tmp_path, rng):
        m = FeatureMatrix(values=rng.standard_normal((2, 2)).astype(np.float32),
                          hop_seconds=0.1, kind="net_input")
        path = tmp_path / "m.mat"
        save_matrix(m, path)
        data = bytearray(path.read_bytes())
        data[16] = 9  # dtype code field
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_matrix(path)

    @pytest.mark.parametrize("offset, fmt, value, message", [
        (20, "<d", np.nan, "hop nan s"),
        (20, "<d", np.inf, "hop inf s"),
        (20, "<d", -np.inf, "hop -inf s"),
        (20, "<d", 0.0, "hop 0.0 s"),
        (20, "<d", -0.0, "hop -0.0 s"),
        (20, "<d", -0.1, "hop -0.1 s"),
        (28, "<I", 0, "pool factor 0"),
    ])
    def test_corrupted_header_field(self, tmp_path, rng, offset, fmt, value, message):
        m = FeatureMatrix(values=rng.standard_normal((2, 3)).astype(np.float32),
                          hop_seconds=0.1, pool_factor=6, kind="net_input")
        path = tmp_path / "m.mat"
        save_matrix(m, path)
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}"):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path, rng):
        m = FeatureMatrix(values=rng.standard_normal((4, 4)).astype(np.float32),
                          hop_seconds=0.1, kind="net_input")
        path = tmp_path / "m.mat"
        save_matrix(m, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_matrix(path)


def _assert_checkpoint_equal(model, adam, model2, adam2):
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], model2.params[name])
        np.testing.assert_array_equal(adam.m[name], adam2.m[name])
        np.testing.assert_array_equal(adam.v[name], adam2.v[name])
    assert adam.t == adam2.t
    assert (adam.lr, adam.beta1, adam.beta2, adam.eps) == \
        (adam2.lr, adam2.beta1, adam2.beta2, adam2.eps)


# Offsets into a checkpoint: the input height, the tensor count (the last
# header field), the first byte of the first tensor name and, after that
# name ("conv1.w"), the first tensor's shape.
_HEIGHT_AT, _COUNT_AT, _NAME_AT, _SHAPE_AT = 56, 92, 100, 107


def _with_u32(data, at, value):
    return data[:at] + struct.pack("<I", value) + data[at + 4:]


class TestCheckpoint:
    def test_fresh_model_roundtrip(self, tmp_path):
        run = RunConfig()
        model = BoundaryNet(input_height=80, seed=4)
        adam = init_adam(model.params)
        path = tmp_path / "c.ckpt"
        save_checkpoint(model, adam, path, run.pipeline_hash(), epoch=0)
        model2, adam2, epoch, stored = load_checkpoint(
            path, expected_hash=run.pipeline_hash())
        assert epoch == 0
        assert stored == run.pipeline_hash()
        assert model2.input_height == 80
        _assert_checkpoint_equal(model, adam, model2, adam2)

    def test_roundtrip_after_one_training_step(self, tmp_path, rng):
        run = RunConfig()
        model = BoundaryNet(input_height=12, seed=5)
        target = TargetCurve(values=np.zeros(30), frame_rate=7.177734375,
                             pad_frames=10)
        ex = TrackExample("t", rng.standard_normal((12, 30)), target,
                          BoundarySet())
        result = train(model, [ex], epochs=1, seed=5)
        # the one epoch is the best, so its snapshot holds the final moments
        assert result.best_epoch == 1
        path = tmp_path / "c.ckpt"
        save_checkpoint(model, result.best_adam, path, run.pipeline_hash(), epoch=1)
        model2, adam2, epoch, _ = load_checkpoint(path)
        assert epoch == 1
        assert adam2.t == 1
        _assert_checkpoint_equal(model, result.best_adam, model2, adam2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(3, 40),
           t=st.integers(0, 2**64 - 1), epoch=st.integers(0, 2**32 - 1),
           hyper=st.tuples(*[st.floats(allow_nan=False)] * 4),
           config_hash=st.binary(min_size=32, max_size=32).map(bytes.hex))
    def test_roundtrip_any_state(self, seed, height, t, epoch, hyper, config_hash):
        model = BoundaryNet(input_height=height, seed=seed)
        rng = np.random.default_rng(seed)
        adam = init_adam(model.params)
        adam.lr, adam.beta1, adam.beta2, adam.eps = hyper
        adam.t = t
        for name, p in model.params.items():
            adam.m[name] = rng.standard_normal(p.shape).astype(np.float32)
            adam.v[name] = rng.exponential(size=p.shape).astype(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.ckpt")
            save_checkpoint(model, adam, path, config_hash, epoch=epoch)
            model2, adam2, epoch2, stored = load_checkpoint(
                path, expected_hash=config_hash)
        assert (epoch2, stored, model2.input_height) == (epoch, config_hash, height)
        _assert_checkpoint_equal(model, adam, model2, adam2)

    def test_pooling_mismatch_is_incompatible(self, tmp_path):
        run6 = RunConfig(pooling="pool6", sslm_inputs=("mfcc-cosine",))
        run23 = RunConfig(pooling="pool2_3", sslm_inputs=("mfcc-cosine",))
        model = BoundaryNet(input_height=80)
        adam = init_adam(model.params)
        path = tmp_path / "c.ckpt"
        save_checkpoint(model, adam, path, run6.pipeline_hash(), epoch=3)
        with pytest.raises(CompatibilityError):
            load_checkpoint(path, expected_hash=run23.pipeline_hash())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d[:_COUNT_AT] + struct.pack("<I", 0),
         "checkpoint lacks tensor 'conv1.w'"),
        (lambda d: d[:_NAME_AT] + b"\xff" + d[_NAME_AT + 1:],
         "checkpoint tensor name is not UTF-8"),
        # 2**64 elements: a wrapping product would ask for 0 bytes
        (lambda d: d[:_SHAPE_AT + 4] + struct.pack("<4I", *[65536] * 4)
         + d[_SHAPE_AT + 20:], "checkpoint truncated"),
        (lambda d: _with_u32(d, _HEIGHT_AT, 0),
         "checkpoint input height must be at least 3"),
        (lambda d: _with_u32(d, _HEIGHT_AT, 2),
         "checkpoint input height must be at least 3"),
        # the shapes are checked before a model of this height is built
        (lambda d: _with_u32(d, _HEIGHT_AT, 4000),
         "checkpoint tensor 'conv3.w' has shape (128, 128, 1, 1), "
         "expected (128, 51200, 1, 1)"),
    ], ids=["header-only", "bad-name", "huge-shape", "height-0", "height-2",
            "height-4000"])
    def test_malformed_tensor_table_names_file(self, tmp_path, damage, message):
        path = tmp_path / "c.ckpt"
        model = BoundaryNet(input_height=12)
        save_checkpoint(model, init_adam(model.params), path,
                        RunConfig().pipeline_hash(), epoch=1)
        data = path.read_bytes()
        assert data[_NAME_AT - 4:_NAME_AT + 7] == struct.pack("<I", 7) + b"conv1.w"
        assert data[_SHAPE_AT:_SHAPE_AT + 20] == struct.pack("<5I", 4, 32, 1, 5, 7)
        assert data[_HEIGHT_AT:_HEIGHT_AT + 4] == struct.pack("<I", 12)
        path.write_bytes(damage(data))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError,
                               match=f"^{re.escape(f'{path}: {message}')}$"):
                load_checkpoint(path, expected_hash=RunConfig().pipeline_hash())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a model built for height 4000 would allocate about 80 MB
        assert peak < 10e6

    @pytest.mark.parametrize("tensor", ["conv3.w", "adam.m/conv2.b",
                                        "adam.v/conv4.w"])
    def test_tensor_of_wrong_shape_names_file(self, tmp_path, tensor):
        model = BoundaryNet(input_height=12)
        adam = init_adam(model.params)
        *moment, name = tensor.split("/")
        store = getattr(adam, moment[0][-1]) if moment else model.params
        expected = store[name].shape
        store[name] = np.zeros((2, *expected), np.float32)
        path = tmp_path / "c.ckpt"
        save_checkpoint(model, adam, path, RunConfig().pipeline_hash(), epoch=1)
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: checkpoint tensor {tensor!r} has "
                                   f"shape {(2, *expected)}, expected {expected}")

    @pytest.mark.parametrize("table, tail, message", [
        (lambda t: [t[1], t[0], *t[2:]], b"",
         "checkpoint tensor 'conv1.b' where 'conv1.w' belongs"),
        (lambda t: [*t, t[0]], b"", "checkpoint holds 25 tensors, expected 24"),
        (lambda t: [t[0], t[0], *t[2:]], b"",
         "checkpoint tensor 'conv1.w' where 'conv1.b' belongs"),
        (lambda t: t, b"\0", "checkpoint holds 1 B after its last tensor"),
    ], ids=["reordered", "extra-tensor", "duplicate-tensor", "trailing-byte"])
    def test_tensor_table_read_strictly_in_order(self, tmp_path, monkeypatch,
                                                 table, tail, message):
        model = BoundaryNet(input_height=12)
        path = tmp_path / "c.ckpt"
        written = table(serialize._tensor_table(12))
        monkeypatch.setattr(serialize, "_tensor_table", lambda height: written)
        save_checkpoint(model, init_adam(model.params), path,
                        RunConfig().pipeline_hash(), epoch=1)
        monkeypatch.undo()
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(FormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"

    def test_hash_of_other_length_rejected(self, tmp_path):
        model = BoundaryNet(input_height=12)
        path = tmp_path / "c.ckpt"
        with pytest.raises(ValueError, match="31 bytes"):
            save_checkpoint(model, init_adam(model.params), path, "ab" * 31, epoch=0)
        assert not path.exists()


def _checkpoint_u32_fields(data):
    """Offsets of a checkpoint's u32 fields: the header's version, epoch,
    height and tensor count, then each tensor's name length, rank and
    dimensions."""
    offsets = [8, 52, _HEIGHT_AT, _COUNT_AT]
    pos = serialize.CHECKPOINT_HEADER.size
    while pos < len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        offsets.append(pos)
        pos += 4 + length
        (ndim,) = struct.unpack_from("<I", data, pos)
        shape = struct.unpack_from(f"<{ndim}I", data, pos + 4)
        offsets.extend(pos + 4 * i for i in range(ndim + 1))
        pos += 4 * (ndim + 1) + 4 * int(np.prod(shape))
    return offsets


@pytest.fixture(scope="module")
def binary_files(tmp_path_factory):
    """``kind -> (bytes, offsets of its u32 fields)`` of a small valid matrix,
    height-3 checkpoint and 16-bit WAV."""
    tmp = tmp_path_factory.mktemp("binary")
    save_matrix(FeatureMatrix(np.arange(12, dtype=np.float32).reshape(3, 4),
                              hop_seconds=0.1, pool_factor=6, pad_frames=1,
                              kind="net_input"), tmp / "m.mat")
    model = BoundaryNet(input_height=3)
    save_checkpoint(model, init_adam(model.params), tmp / "c.ckpt",
                    RunConfig().pipeline_hash(), epoch=1)
    write_wav(tmp / "a.wav", AudioBuffer(np.linspace(-0.5, 0.5, 16), 8000))
    checkpoint = (tmp / "c.ckpt").read_bytes()
    return {"matrix": ((tmp / "m.mat").read_bytes(), [8, 12, 16, 28, 32]),
            "checkpoint": (checkpoint, _checkpoint_u32_fields(checkpoint)),
            "wav": ((tmp / "a.wav").read_bytes(), [4, 16, 24, 28, 40])}


def _loaded_is_valid(result):
    if isinstance(result, FeatureMatrix):
        return (result.values.shape == (result.n_bins, result.n_frames)
                and math.isfinite(result.hop_seconds) and result.hop_seconds > 0
                and result.pool_factor > 0)
    if isinstance(result, AudioBuffer):
        return result.samples.ndim == 1 and result.sample_rate > 0
    model, adam, _, _ = result
    shapes = param_shapes(model.input_height)
    return all(store[name].shape == shape for name, shape in shapes.items()
               for store in (model.params, adam.m, adam.v))


# Each binary reader, the file kind it reads, and the errors it may raise.
_BINARY_READERS = {
    "load_matrix": (load_matrix, "matrix", (FormatError, OSError)),
    "load_checkpoint": (load_checkpoint, "checkpoint", (FormatError, OSError)),
    "load_checkpoint-expected-hash": (
        lambda path: load_checkpoint(path, expected_hash=RunConfig().pipeline_hash()),
        "checkpoint", (FormatError, OSError, CompatibilityError)),
    "read_wav": (read_wav, "wav", (FormatError, OSError)),
}


def _mutations(size, fields):
    """Lists of byte flips (biased to the u32 fields), u32 fields set to
    extreme values, truncations and appended bytes."""
    at = st.one_of(st.integers(0, size - 1),
                   st.builds(operator.add, st.sampled_from(fields), st.integers(0, 3)))
    return st.lists(st.one_of(
        st.tuples(st.just("flip"), at, st.integers(1, 255)),
        st.tuples(st.just("u32"), st.sampled_from(fields),
                  st.sampled_from([0, 1, 2**31, 2**32 - 1])),
        st.tuples(st.just("cut"), st.integers(0, size - 1), st.just(0)),
        st.tuples(st.just("append"), st.integers(1, 8), st.integers(0, 255)),
    ), min_size=1, max_size=3)


def _mutate(data, mutations):
    data = bytearray(data)
    for kind, at, value in mutations:
        if kind == "flip" and at < len(data):
            data[at] ^= value
        elif kind == "u32" and at + 4 <= len(data):
            struct.pack_into("<I", data, at, value)
        elif kind == "cut":
            del data[at:]
        elif kind == "append":
            data += bytes([value]) * at
    return bytes(data)


@pytest.mark.parametrize("reader", sorted(_BINARY_READERS))
def test_mutated_binary_file_loads_or_names_itself(binary_files, tmp_path_factory,
                                                   reader):
    read, kind, errors = _BINARY_READERS[reader]
    data, fields = binary_files[kind]
    path = tmp_path_factory.mktemp("mutated") / f"f.{kind}"

    @settings(max_examples=150, deadline=None)
    @given(mutations=_mutations(len(data), fields))
    def loads_or_names_itself(mutations):
        path.write_bytes(_mutate(data, mutations))
        tracemalloc.reset_peak()
        try:
            result = read(path)
        except errors as exc:
            assert str(exc).startswith(f"{path}: "), exc
        else:
            assert _loaded_is_valid(result)
        # a valid load peaks near 1 MB; a claimed size is never allocated
        assert tracemalloc.get_traced_memory()[1] < 8e6

    tracemalloc.start()
    try:
        loads_or_names_itself()
    finally:
        tracemalloc.stop()


class _FailAfterFirstWrite:
    """File wrapper whose second ``write`` raises, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("disk full")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrites:
    def _save_matrix(self, path, fill):
        save_matrix(FeatureMatrix(values=np.full((3, 4), fill, dtype=np.float32),
                                  hop_seconds=0.1, kind="net_input"), path)

    def _save_checkpoint(self, path, seed):
        model = BoundaryNet(input_height=8, seed=seed)
        save_checkpoint(model, init_adam(model.params), path,
                        RunConfig().pipeline_hash(), epoch=seed)

    @pytest.mark.parametrize("kind", ["matrix", "checkpoint"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"artifact.{kind}"
        save = self._save_matrix if kind == "matrix" else self._save_checkpoint
        save(path, 1)
        before = path.read_bytes()
        monkeypatch.setattr(
            serialize, "open", raising=False,
            value=lambda p, mode, **kw: _FailAfterFirstWrite(builtins.open(p, mode, **kw)))
        with pytest.raises(OSError, match="disk full"):
            save(path, 2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_successful_write_replaces_file(self, tmp_path):
        path = tmp_path / "m.mat"
        self._save_matrix(path, 1)
        self._save_matrix(path, 2)
        assert np.all(load_matrix(path).values == 2)
        assert os.listdir(tmp_path) == ["m.mat"]


class _DiskFull(_FailAfterFirstWrite):
    """File wrapper whose first ``write`` already raises."""

    def write(self, data):
        raise OSError("disk full")


# Text artifacts by file name: a writer taking (path, version), and the bytes
# that version 1 writes (the SVG, 2233 bytes, as their sha256).
_TEXT_WRITERS = {
    "ref.txt": (lambda path, v: ann.write_functions_file(path, BoundarySet([v, 9.0])),
                b"0.0\tstart\n1.0\tsegment1\n9.0\tsegment2\n"),
    "est.txt": (lambda path, v: ann.write_boundary_file(path, BoundarySet([v, 9.0])),
                b"1.0\n9.0\n"),
    "split.tsv": (lambda path, v: ann.save_split_manifest(
        path, ann.DatasetSplit(train=[f"t{v}"])), b"t1\ttrain\n"),
    "log.csv": (lambda path, v: write_log_csv(
        path, [EpochStats(v, "train", 0.5, 1.0, 1.0, 1.0)]),
        b"epoch,split,loss,precision,recall,f1\n1,train,0.5,1.0,1.0,1.0\n"),
    "sweep.csv": (lambda path, v: write_sweep_csv(path, [SweepRow(0.0, v, 0.0, 0.0)]),
                  b"threshold,precision,recall,f_beta\n0.000,1.000000,0.000000,0.000000\n"),
    "plot.svg": (lambda path, v: save_line_plot(path, {"f": ([0.0, 1.0], [0.0, 1.0])},
                                                title=str(v)),
                 "381d847619ff5f3e0e5e4a1acf026751c11c79a436d2199840c4c74470dbed88"),
    "run.cfg": (lambda path, v: RunConfig(epochs=v).to_file(path), "".join(
        f"{line}\n" for line in [
            "epochs = 1", "final_pad = 50", "floor_db = -70.0", "fmax = 16000.0",
            "fmin = 80.0", "hop = 1024", "include_mls = true", "lag_seconds = 14.0",
            "n_mels = 80", "pool_post = 3", "pool_pre = 2", "pool_single = 6",
            "pooling = pool6", "quantile = 0.1", "seed = 0", "sr = 44100",
            "sslm_inputs = ", "stacking = 2", "threshold = 0.205", "window = 2048",
        ]).encode()),
    "audio.wav": (lambda path, v: write_wav(path, AudioBuffer(np.full(8, v / 4), 8000)),
                  b"RIFF4\0\0\0WAVEfmt \x10\0\0\0\x01\0\x01\0@\x1f\0\0\x80>\0\0"
                  b"\x02\0\x10\0data\x10\0\0\0" + b"\0 " * 8),
}


def _write_meta(path, v):
    """The ``.meta`` sidecar of a 2 s sawtooth track named after ``path``."""
    wav = path.with_suffix(".wav")
    write_wav(wav, AudioBuffer((np.arange(2 * 44100) % 100) * v / 400, 44100))
    extract_track_features(wav, path.parent, RunConfig())


def _evaluate_out(path, v):
    """``songseg evaluate --out`` into ``path``'s directory, two tracks."""
    ref, est = path.parent / "ref", path.parent / "est"
    ref.mkdir()
    est.mkdir()
    for tid, times in (("a", [v, 9.0]), ("b", [4.0])):
        ann.write_functions_file(ref / f"{tid}.txt", BoundarySet([3.0, 9.0]))
        ann.write_boundary_file(est / f"{tid}.txt", BoundarySet(times))
    assert main(["evaluate", "--ref-dir", str(ref), "--est-dir", str(est),
                 "--out", str(path.parent)]) == 0


# Text artifacts pinned byte for byte that the failed-write check above
# cannot take: they are written beside other files, or write nothing.
_MORE_TEXT_BYTES = {
    "track.meta": (_write_meta, (
        b"pipeline_hash\tf0a52a0cf74eb9e2e0f0a2fd8171ee2264ced88309cd87f1dc5b78200a6252b8\n"
        b"audio_sha256\td83120e6be802c68d8ef6a42076a2a26b3bb00997a7d382ed5a86971c462ed1a\n"
        b"inputs\tmls\n")),
    "scores_tol0.5_beta1.csv": (_evaluate_out, (
        b"track,precision,recall,f_beta\na,0.500000,0.500000,0.500000\n"
        b"b,0.000000,0.000000,0.000000\nmean,0.250000,0.250000,0.250000\n"
        b"std,0.250000,0.250000,0.250000\n")),
    "scores_table.txt": (_evaluate_out, (
        "Input        Tol.   P      R      F1 (std)\n"
        "-----------  -----  -----  -----  -------------\n"
        "predictions  \u00b10.5s  0.250  0.250  0.250 (0.250)\n").encode()),
    "empty.txt": (lambda path, v: ann.write_boundary_file(path, BoundarySet([])), b""),
}


@pytest.mark.parametrize("name", sorted(_TEXT_WRITERS))
def test_failed_text_write_keeps_previous_file(tmp_path, monkeypatch, name):
    (write, _), path = _TEXT_WRITERS[name], tmp_path / name
    write(path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(serialize, "open", raising=False,
                        value=lambda p, mode, **kw: _DiskFull(builtins.open(p, mode, **kw)))
    with pytest.raises(OSError, match="disk full"):
        write(path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]
    write(path, 2)
    assert path.read_bytes() != before


_TEXT_BYTES = {**_TEXT_WRITERS, **_MORE_TEXT_BYTES}


@pytest.mark.parametrize("name", sorted(_TEXT_BYTES))
def test_text_file_bytes_pinned(tmp_path, name):
    write, expected = _TEXT_BYTES[name]
    path = tmp_path / name
    write(path, 1)
    data = path.read_bytes()
    if isinstance(expected, str):
        data = hashlib.sha256(data).hexdigest()
    assert data == expected


class TestRunConfigHash:
    def test_training_knobs_do_not_change_hash(self):
        a = RunConfig(epochs=10, seed=1)
        b = RunConfig(epochs=500, seed=99, threshold=0.4)
        assert a.pipeline_hash() == b.pipeline_hash()

    def test_pipeline_knobs_change_hash(self):
        base = RunConfig()
        assert base.pipeline_hash() != RunConfig(pooling="pool2_3").pipeline_hash()
        assert base.pipeline_hash() != \
            RunConfig(sslm_inputs=("mfcc-cosine",)).pipeline_hash()

    def test_config_file_roundtrip(self, tmp_path):
        run = RunConfig(pooling="pool2_3", include_mls=True,
                        sslm_inputs=("mfcc-euclidean", "chroma-cosine"),
                        epochs=42, seed=3, threshold=0.24)
        path = tmp_path / "run.cfg"
        run.to_file(path)
        back = RunConfig.from_file(path)
        assert back == run
        assert back.pipeline_hash() == run.pipeline_hash()

    def test_pipeline_hash_pinned(self):
        # A changed digest orphans every feature file and checkpoint on disk.
        assert RunConfig().pipeline_hash() == (
            "f0a52a0cf74eb9e2e0f0a2fd8171ee2264ced88309cd87f1dc5b78200a6252b8")
        assert RunConfig(pooling="pool6", sslm_inputs=SSLM_VARIANTS).pipeline_hash() == (
            "a18e64f7f030339217eed432f122709be95d7d17f591fe244eb0a4192a4af0f7")
        assert RunConfig(pooling="pool2_3", sslm_inputs=SSLM_VARIANTS).pipeline_hash() == (
            "5d2e2f936d6e8443da356fc971a6944eea6075bbc3fbe49ea77af707ffec6005")

    def test_config_file_roundtrip_every_field(self, tmp_path):
        params = PipelineParams(sr=22050, window=1024, hop=256, n_mels=40,
                                fmin=100.0, fmax=8000.0, lag_seconds=9.5,
                                pool_single=8, pool_pre=4, pool_post=2,
                                stacking=3, quantile=0.25, final_pad=20,
                                floor_db=-60.0)
        run = RunConfig(params=params, pooling="pool2_3", include_mls=False,
                        sslm_inputs=("mfcc-cosine", "chroma-euclidean"),
                        epochs=7, seed=11, threshold=0.3)
        for obj, default in ((params, PipelineParams()), (run, RunConfig())):
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name
        path = tmp_path / "run.cfg"
        run.to_file(path)
        back = RunConfig.from_file(path)
        assert back == run
        assert back.pipeline_hash() == run.pipeline_hash()

    def test_malformed_value_names_key_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pooling = pool6\nepochs = ten\n")
        with pytest.raises(FormatError, match=r"run\.cfg:2: epochs = 'ten'"):
            RunConfig.from_file(path)
        with pytest.raises(FormatError, match="include_mls"):
            RunConfig.from_mapping({"include_mls": "maybe"})
        with pytest.raises(FormatError, match="quantile"):
            RunConfig.from_mapping({"quantile": "tenth"})

    @pytest.mark.parametrize("line, message", [
        ("pooling = pool7", "unknown pooling strategy"),
        ("sslm_inputs = mfcc-cosine,mfcc-cosine", "duplicate SSLM variant"),
        ("quantile = 1.5", "quantile must lie in"),
        ("final_pad = -2", "final_pad must be non-negative"),
    ])
    def test_rejected_value_names_key_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"epochs = 3\n{line}\n")
        key, value = line.split(" = ")
        with pytest.raises(FormatError,
                           match=rf"run\.cfg:2: {key} = '{value}': {message}"):
            RunConfig.from_file(path)

    # At most 5.5 frames of 1024 samples at 44.1 kHz round to fewer than the
    # 6 that give pool6 one lag bin.
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-3", "0.05",
                                       "0.1277"])
    def test_lag_seconds_without_a_lag_bin_names_the_key(self, tmp_path, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"epochs = 3\nlag_seconds = {value}\n")
        with pytest.raises(FormatError, match=rf"run\.cfg:2: lag_seconds = '{value}': "
                                              r"lag_seconds must be finite"):
            RunConfig.from_file(path)

    _OUT_OF_DOMAIN = [
        (key, value, message)
        for key, values, message in [
            ("n_mels", ["0", "-1"], "n_mels must be at least 1"),
            ("floor_db", ["nan", "inf", "-inf"], "floor_db must be finite"),
            ("epochs", ["0", "-2"], "epochs must be at least 1"),
            ("threshold", ["nan", "-0.01", "1.5", "inf"], r"threshold must lie in \[0, 1\]"),
            ("seed", ["-1"], "seed must be non-negative"),
            ("fmin", ["-100", "20000", "nan", "-inf"], r"fmin must lie in \[0, fmax\)"),
            ("fmax", ["50", "nan"], r"fmin must lie in \[0, fmax\)"),
            ("fmax", ["50000", "inf"], "fmax must not exceed the Nyquist frequency"),
            ("window", ["3"], "hop must not exceed window"),
            ("hop", ["4096"], "hop must not exceed window"),
            ("stacking", ["0", "-1"], "stacking must be at least 1"),
            ("pool_pre", ["0"], "pool_pre must be at least 1"),
            ("pool_post", ["0"], "pool_post must be at least 1"),
        ]
        for value in values
    ]

    @pytest.mark.parametrize("key, value, message", _OUT_OF_DOMAIN,
                             ids=[f"{k}={v}" for k, v, _ in _OUT_OF_DOMAIN])
    def test_out_of_domain_value_names_the_key(self, tmp_path, key, value, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"epochs = 3\n{key} = {value}\n")
        with pytest.raises(FormatError,
                           match=rf"run\.cfg:2: {key} = '{value}': {message}"):
            RunConfig.from_file(path)

    def test_domain_edges_accepted_and_hash_unchanged(self):
        run = RunConfig.from_mapping({"n_mels": "1", "floor_db": "-1e300",
                                      "epochs": "1", "threshold": "0", "seed": "0",
                                      "fmin": "0", "fmax": "22050", "hop": "2048",
                                      "stacking": "1", "pool_pre": "1",
                                      "pool_post": "6"})
        assert (run.params.n_mels, run.epochs, run.seed) == (1, 1, 0)
        p = run.params
        assert (p.fmin, p.fmax, p.hop, p.window) == (0.0, 22050.0, 2048, 2048)
        assert (p.stacking, p.pool_pre, p.pool_post, p.pool_single) == (1, 1, 6, 6)
        assert RunConfig.from_mapping({"threshold": "1"}).threshold == 1.0
        # The checks add no canonical line: the default hash predates them.
        assert RunConfig().pipeline_hash() == (
            "f0a52a0cf74eb9e2e0f0a2fd8171ee2264ced88309cd87f1dc5b78200a6252b8")

    def test_shortest_lag_span_accepted_and_hash_unchanged(self):
        assert RunConfig.from_mapping({"lag_seconds": "0.1278"}).params.lag_frames == 6
        # The check adds no canonical line: the default hash predates it.
        assert RunConfig().pipeline_hash() == (
            "f0a52a0cf74eb9e2e0f0a2fd8171ee2264ced88309cd87f1dc5b78200a6252b8")

    def test_sslm_inputs_stored_in_canonical_order(self, tmp_path):
        run = RunConfig(sslm_inputs=("chroma-cosine", "mfcc-cosine"))
        assert run.sslm_inputs == ("mfcc-cosine", "chroma-cosine")
        assert run == RunConfig(sslm_inputs=("mfcc-cosine", "chroma-cosine"))
        path = tmp_path / "run.cfg"
        run.to_file(path)
        assert RunConfig.from_file(path) == run

    def test_duplicate_sslm_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            RunConfig(sslm_inputs=("mfcc-cosine", "mfcc-cosine"))
        path = tmp_path / "run.cfg"
        path.write_text("sslm_inputs = mfcc-cosine,mfcc-cosine\n")
        with pytest.raises(ValueError, match="duplicate"):
            RunConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epoch = 1\n")
        with pytest.raises(FormatError, match="epoch"):
            RunConfig.from_file(path)
        # removed: the split comes from `songseg synth --split-seed`
        path.write_text("split_seed = 0\n")
        with pytest.raises(FormatError, match="unknown config key\\(s\\): split_seed$"):
            RunConfig.from_file(path)


# Each line-oriented text reader, a file of three lines it accepts, and what
# it parses them to.
_TEXT_READERS = {
    "functions": (ann.parse_functions_file,
                  ["0.0\tstart", "12.5\tverse", "40.25\tchorus"],
                  BoundarySet([12.5, 40.25])),
    "boundaries": (ann.read_boundary_file, ["2.25", "9.5", "12.0"],
                   BoundarySet([2.25, 9.5, 12.0])),
    "split": (ann.load_split_manifest, ["a\ttrain", "b\tval", "c\ttest"],
              ann.DatasetSplit(train=["a"], validation=["b"], test=["c"])),
    "config": (RunConfig.from_file, ["epochs = 3", "seed = 4  # comment", "pooling = pool2_3"],
               RunConfig(epochs=3, seed=4, pooling="pool2_3")),
    "sweep": (read_sweep_csv, ["threshold,precision,recall,f_beta",
                               "0.000,1.0,0.5,0.6", "0.005,0.5,0.25,0.3"],
              [SweepRow(0.0, 1.0, 0.5, 0.6), SweepRow(0.005, 0.5, 0.25, 0.3)]),
    "meta": (_read_meta, ["pipeline_hash\tab", "audio_sha256\tcd", "inputs\tmls"],
             {"pipeline_hash": "ab", "audio_sha256": "cd", "inputs": "mls"}),
}
_ENDINGS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
@pytest.mark.parametrize("reader", sorted(_TEXT_READERS))
class TestTextReaders:
    def test_every_line_ending_parses_alike(self, tmp_path, reader, ending):
        read, lines, expected = _TEXT_READERS[reader]
        path = tmp_path / "in.txt"
        path.write_bytes("".join(line + _ENDINGS[ending] for line in lines).encode())
        assert read(path) == expected

    def test_non_utf8_byte_reports_its_line(self, tmp_path, reader, ending):
        read, lines, _ = _TEXT_READERS[reader]
        path = tmp_path / "in.txt"
        eol = _ENDINGS[ending].encode()
        path.write_bytes(lines[0].encode() + eol + b"\xff" + lines[1].encode()
                         + eol + lines[2].encode() + eol)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
            read(path)
