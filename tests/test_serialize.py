import builtins
import os
import re
import struct
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg import annotations as ann
from songseg.annotations import BoundarySet, TargetCurve
from songseg.audio import AudioBuffer, write_wav
from songseg.errors import CompatibilityError, FormatError
from songseg.model import BoundaryNet
from songseg.optim import init_adam
from songseg.params import SSLM_VARIANTS, PipelineParams, RunConfig
from songseg import serialize
from songseg.pipeline import _read_meta
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
           hop=st.floats(allow_nan=False), pool=st.integers(0, 2**32 - 1),
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


# Offsets into a checkpoint: the tensor count (the last header field) and
# the first byte of the first tensor name.
_COUNT_AT, _NAME_AT = 92, 100


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
        path = tmp_path / "c.ckpt"
        save_checkpoint(model, result.adam, path, run.pipeline_hash(), epoch=1)
        model2, adam2, epoch, _ = load_checkpoint(path)
        assert epoch == 1
        assert adam2.t == 1
        _assert_checkpoint_equal(model, result.adam, model2, adam2)

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
    ], ids=["header-only", "bad-name"])
    def test_malformed_tensor_table_names_file(self, tmp_path, damage, message):
        path = tmp_path / "c.ckpt"
        model = BoundaryNet(input_height=12)
        save_checkpoint(model, init_adam(model.params), path,
                        RunConfig().pipeline_hash(), epoch=1)
        data = path.read_bytes()
        assert data[_NAME_AT - 4:_NAME_AT + 7] == struct.pack("<I", 7) + b"conv1.w"
        path.write_bytes(damage(data))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_checkpoint(path, expected_hash=RunConfig().pipeline_hash())

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

    def test_hash_of_other_length_rejected(self, tmp_path):
        model = BoundaryNet(input_height=12)
        path = tmp_path / "c.ckpt"
        with pytest.raises(ValueError, match="31 bytes"):
            save_checkpoint(model, init_adam(model.params), path, "ab" * 31, epoch=0)
        assert not path.exists()


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


# Text artifacts by file name: a writer taking (path, version).
_TEXT_WRITERS = {
    "ref.txt": lambda path, v: ann.write_functions_file(path, BoundarySet([v, 9.0])),
    "est.txt": lambda path, v: ann.write_boundary_file(path, BoundarySet([v, 9.0])),
    "split.tsv": lambda path, v: ann.save_split_manifest(
        path, ann.DatasetSplit(train=[f"t{v}"])),
    "log.csv": lambda path, v: write_log_csv(
        path, [EpochStats(v, "train", 0.5, 1.0, 1.0, 1.0)]),
    "sweep.csv": lambda path, v: write_sweep_csv(path, [SweepRow(0.0, v, 0.0, 0.0)]),
    "plot.svg": lambda path, v: save_line_plot(path, {"f": ([0.0, 1.0], [0.0, 1.0])},
                                               title=str(v)),
    "run.cfg": lambda path, v: RunConfig(epochs=v).to_file(path),
    "audio.wav": lambda path, v: write_wav(path, AudioBuffer(np.full(8, v / 4), 8000)),
}


@pytest.mark.parametrize("name", sorted(_TEXT_WRITERS))
def test_failed_text_write_keeps_previous_file(tmp_path, monkeypatch, name):
    write, path = _TEXT_WRITERS[name], tmp_path / name
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
                                      "epochs": "1", "threshold": "0"})
        assert (run.params.n_mels, run.epochs) == (1, 1)
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
