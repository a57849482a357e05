import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from songseg import pipeline, spectral, sslm
from songseg.annotations import BoundarySet, TargetCurve
from songseg.audio import write_wav
from songseg.errors import CompatibilityError, FormatError
from songseg.model import BoundaryNet
from songseg.params import PipelineParams, RunConfig, SSLM_VARIANTS
from songseg.pipeline import (PINK_SEEDS, extract_inputs, extract_track_features,
                              load_track_input, matrix_filename, sslm_config_for)
from songseg.serialize import load_matrix, save_matrix
from songseg.spectral import max_pool_time, mel_log_spectrogram
from songseg.sslm import (FrontEnd, SslmConfig, align_frames, compute_sslm,
                          finalize_input)
from songseg.synth import synth_corpus
from songseg.training import TrackExample, train

from conftest import random_audio


class TestExtractInputs:
    def test_mls_only_shape(self):
        run = RunConfig(include_mls=True)
        audio = random_audio(1, 6.0)
        mats = extract_inputs(audio, run)
        assert list(mats) == ["mls"]
        m = mats["mls"]
        n_raw = (audio.samples.size - 2048) // 1024 + 1
        pooled = -(-n_raw // 6)
        assert m.values.shape == (80, pooled + 100)
        assert m.kind == "net_input"
        assert m.pad_frames == 50

    def test_all_five_inputs_share_frames(self):
        run = RunConfig(include_mls=True, sslm_inputs=SSLM_VARIANTS)
        mats = extract_inputs(random_audio(2, 6.0), run)
        assert list(mats) == ["mls"] + list(SSLM_VARIANTS)
        frames = {m.n_frames for m in mats.values()}
        assert len(frames) == 1
        assert [mats[n].n_bins for n in mats] == [80, 100, 100, 100, 100]

    def test_inputs_standardized(self):
        run = RunConfig(include_mls=True, sslm_inputs=("mfcc-cosine",))
        mats = extract_inputs(random_audio(3, 5.0), run)
        for m in mats.values():
            live = m.values.std(axis=1) > 0
            assert np.all(np.abs(m.values[live].mean(axis=1)) < 1e-6)
            assert np.all(np.abs(m.values[live].std(axis=1) - 1.0) < 1e-6)

    def test_resamples_foreign_rate(self):
        run = RunConfig()
        audio = random_audio(4, 6.0, sr=22050)
        mats = extract_inputs(audio, run)
        assert mats["mls"].n_bins == 80

    def test_deterministic(self):
        run = RunConfig(include_mls=True, sslm_inputs=("chroma-cosine",))
        audio = random_audio(5, 5.0)
        a = extract_inputs(audio, run)
        b = extract_inputs(audio, run)
        for name in a:
            np.testing.assert_array_equal(a[name].values, b[name].values)


class TestSharedFrontEnd:
    """One front end per track: same matrices as separate per-input runs."""

    @pytest.mark.parametrize("pooling", ["pool6", "pool2_3"])
    def test_bit_identical_to_per_input_computation(self, pooling):
        run = RunConfig(pooling=pooling, sslm_inputs=SSLM_VARIANTS)
        audio = random_audio(8, 4.0)
        raw = [max_pool_time(mel_log_spectrogram(audio, run.params),
                             run.params.pool_single)]
        raw += [compute_sslm(audio, sslm_config_for(name, run))
                for name in SSLM_VARIANTS]
        got = extract_inputs(audio, run)
        for name, m in zip(run.input_names(), align_frames(raw)):
            want = finalize_input(m, run.params.final_pad, PINK_SEEDS[name])
            assert np.array_equal(got[name].values, want.values), name

    def test_one_stft_per_extraction(self, monkeypatch):
        original = spectral.stft_magnitude
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (spectral, sslm, pipeline):
            if getattr(module, "stft_magnitude", None) is original:
                monkeypatch.setattr(module, "stft_magnitude", counted)
        run = RunConfig(sslm_inputs=SSLM_VARIANTS)
        audio = random_audio(9, 3.0)
        extract_inputs(audio, run)
        assert len(calls) == 1
        extract_inputs(audio, run)
        assert len(calls) == 2

    def test_front_end_must_match(self, params):
        audio = random_audio(10, 2.0)
        config = SslmConfig("mfcc", "cosine", "pool6", params)
        with pytest.raises(ValueError, match="front end"):
            compute_sslm(audio, config, FrontEnd(random_audio(11, 2.0), params))
        with pytest.raises(ValueError, match="front end"):
            compute_sslm(audio, config,
                         FrontEnd(audio, PipelineParams(fmin=100.0)))


class TestHeights:
    """Stacked network-input height: n_mels rows plus lag bins per SSLM."""

    def _height(self, run):
        mats = extract_inputs(random_audio(6, 2.0), run)
        return sum(m.n_bins for m in mats.values())

    def test_pool6_full_selection(self):
        run = RunConfig(include_mls=True, sslm_inputs=SSLM_VARIANTS,
                        pooling="pool6")
        assert self._height(run) == 80 + 4 * 100

    def test_pool2_3_lag_bins(self):
        run = RunConfig(include_mls=False, sslm_inputs=("mfcc-cosine",),
                        pooling="pool2_3")
        assert self._height(run) == 301


class TestTrackFeatureFiles:
    @pytest.fixture
    def corpus(self, tmp_path):
        (track,) = synth_corpus(seed=1, n_tracks=1, segments_per_track=(2, 2),
                                segment_duration=(3.0, 4.0))
        wav = tmp_path / "audio" / "track000.wav"
        os.makedirs(wav.parent)
        write_wav(wav, track.audio)
        return tmp_path, wav

    def test_extract_skip_and_force(self, corpus):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True)
        paths = extract_track_features(wav, out, run)
        assert all(os.path.exists(p) for p in paths)
        stamps = {p: os.path.getmtime(p) for p in paths}

        again = extract_track_features(wav, out, run)
        assert again == paths
        assert {p: os.path.getmtime(p) for p in paths} == stamps  # skipped

        forced = extract_track_features(wav, out, run, force=True)
        assert forced == paths

    def test_config_change_invalidates(self, corpus):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True)
        extract_track_features(wav, out, run)
        meta = (out / "track000.meta").read_text()

        other = replace(run, params=replace(run.params, n_mels=40))
        extract_track_features(wav, out, other)
        assert (out / "track000.meta").read_text() != meta

    def test_load_track_input_stacks_in_order(self, corpus):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True, sslm_inputs=("mfcc-euclidean",))
        extract_track_features(wav, out, run)
        stacked, frame_rate, pad = load_track_input(out, "track000", run)
        assert stacked.shape[0] == 180
        assert frame_rate == pytest.approx(44100 / (1024 * 6))
        assert pad == 50

    @pytest.mark.parametrize("pooling", ["pool6", "pool2_3"])
    def test_load_track_input_accepts_every_input(self, corpus, pooling):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(pooling=pooling, sslm_inputs=SSLM_VARIANTS)
        extract_track_features(wav, out, run)
        stacked, _, pad = load_track_input(out, "track000", run)
        lag_bins = 100 if pooling == "pool6" else 301
        assert stacked.shape[0] == 80 + 4 * lag_bins
        assert pad == run.params.final_pad

    def test_load_track_input_takes_a_hop_pooled_in_two_steps(self, corpus):
        # at 1000 samples, 44.1 kHz and 3 * 3, pooling twice rounds the hop
        # differently from pooling once
        tmp_path, wav = corpus
        out = tmp_path / "features"
        params = PipelineParams(hop=1000, pool_single=9, pool_pre=3, pool_post=3)
        run = RunConfig(params=params, pooling="pool2_3",
                        sslm_inputs=("mfcc-cosine",))
        paths = extract_track_features(wav, out, run)
        hop = params.base_hop_seconds * params.pool_single
        assert load_matrix(paths[1]).hop_seconds != hop
        assert load_matrix(paths[1]).hop_seconds == pytest.approx(hop, rel=1e-15)
        assert load_track_input(out, "track000", run)[0].shape[0] == 80 + 617 // 3

    @pytest.mark.parametrize("index, change, message", [
        (0, dict(values=np.zeros((81, 1))), "row count 81, expected 80"),
        (0, dict(pad_frames=49), "pad 49, expected 50"),
        (1, dict(pool_factor=2), "pool factor 2, expected 6"),
        (1, dict(values=np.zeros((99, 1))), "row count 99, expected 100"),
        (1, dict(hop_seconds=1024 / 44100 * 6 * (1 + 1e-11)),
         f"hop {1024 / 44100 * 6 * (1 + 1e-11)!r} s, expected {1024 / 44100 * 6!r} s"),
    ], ids=["mls-rows", "pad", "pool-factor", "sslm-rows", "hop"])
    def test_load_track_input_checks_each_header_against_the_run(
            self, corpus, index, change, message):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True, sslm_inputs=("mfcc-euclidean",))
        paths = extract_track_features(wav, out, run)
        assert load_track_input(out, "track000", run)[0].shape[0] == 180
        save_matrix(replace(load_matrix(paths[index]), **change), paths[index])
        with pytest.raises(FormatError) as err:
            load_track_input(out, "track000", run)
        assert str(err.value) == f"{paths[index]}: {message}"

    def test_missing_matrix_raises(self, corpus):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True)
        extract_track_features(wav, out, run)
        os.remove(out / matrix_filename("track000", "mls"))
        with pytest.raises(FileNotFoundError, match="track000"):
            load_track_input(out, "track000", run)

    def test_load_track_input_checks_meta_sidecar(self, corpus):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        extracted = RunConfig(params=PipelineParams(fmin=80.0))
        extract_track_features(wav, out, extracted)
        with pytest.raises(CompatibilityError, match="track000"):
            load_track_input(out, "track000",
                             RunConfig(params=PipelineParams(fmin=100.0)))
        os.remove(out / "track000.meta")
        with pytest.raises(FileNotFoundError, match="track000.meta"):
            load_track_input(out, "track000", extracted)
        with pytest.raises(FileNotFoundError, match="track000"):
            load_track_input(tmp_path / "nowhere", "track000", extracted)

    def test_interrupted_reextraction_leaves_no_sidecar(self, corpus, monkeypatch):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True, sslm_inputs=("mfcc-euclidean",))
        paths = extract_track_features(wav, out, run)
        before = [open(p, "rb").read() for p in paths]

        def save_then_fail(m, path):
            if path == paths[1]:
                raise OSError("disk full")
            save_matrix(m, path)

        monkeypatch.setattr("songseg.serialize.save_matrix", save_then_fail)
        with pytest.raises(OSError, match="disk full"):
            extract_track_features(wav, out, run, force=True)
        # The stale sidecar and the old matrices went before any matrix was
        # rewritten, so the half-rewritten track no longer passes as complete.
        assert not (out / "track000.meta").exists()
        with pytest.raises(FileNotFoundError, match="track000.meta"):
            load_track_input(out, "track000", run)
        assert open(paths[0], "rb").read() == before[0]
        assert os.listdir(out) == [os.path.basename(paths[0])]

    def test_forced_rerun_renames_over_no_file(self, corpus, monkeypatch):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True, sslm_inputs=("mfcc-euclidean",))
        files = [*extract_track_features(wav, out, run), str(out / "track000.meta")]
        before = [open(p, "rb").read() for p in files]
        real_replace, targets = os.replace, []

        def replace_recording(src, dst):
            targets.append((str(dst), os.path.exists(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_recording)
        extract_track_features(wav, out, run, force=True)
        assert targets == [(p, False) for p in files]
        assert [open(p, "rb").read() for p in files] == before
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in files)

    def test_load_track_input_rejects_frame_mismatch(self, corpus):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True, sslm_inputs=("mfcc-euclidean",))
        paths = extract_track_features(wav, out, run)
        save_matrix(replace(load_matrix(paths[1]), values=np.zeros((100, 7))),
                    paths[1])
        with pytest.raises(ValueError, match="disagree"):
            load_track_input(out, "track000", run)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_track_input_rejects_non_finite_values(self, corpus, bad):
        tmp_path, wav = corpus
        out = tmp_path / "features"
        run = RunConfig(include_mls=True, sslm_inputs=("mfcc-euclidean",))
        paths = extract_track_features(wav, out, run)
        m = load_matrix(paths[1])
        m.values[7, 3] = bad
        m.values[9, 1] = bad
        save_matrix(m, paths[1])
        with pytest.raises(FormatError) as err:
            load_track_input(out, "track000", run)
        assert str(err.value) == f"{paths[1]}: non-finite value at row 7, column 3"


def test_matrix_filename():
    assert matrix_filename("track007", "mfcc-cosine") == "track007.mfcc-cosine.mat"


# Edge values for the config-domain property: each key gets every one of
# them as its file text.
_EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-308")
_CONFIG_KEYS = [line.split(" = ")[0] for line in RunConfig().canonical_lines()]
# All four lag matrices, so the SSLM-only keys shape what is extracted.
_ALL_SSLMS = {"sslm_inputs": ",".join(SSLM_VARIANTS)}


def _short_examples(height):
    rng = np.random.default_rng(0)
    return [TrackExample(name, rng.standard_normal((height, width)),
                         TargetCurve(values=np.linspace(0.0, 1.0, width),
                                     frame_rate=7.177734375, pad_frames=5),
                         BoundarySet([1.0]))
            for name, width in (("a", 24), ("b", 31))]


@pytest.mark.parametrize("key", _CONFIG_KEYS)
@settings(max_examples=2 * len(_EDGE_VALUES), deadline=None)
@given(value=st.sampled_from(_EDGE_VALUES))
def test_config_edge_value_is_rejected_by_name_or_runs(key, value):
    try:
        run = RunConfig.from_mapping({**_ALL_SSLMS, key: value})
    except FormatError as exc:
        assert f"{key} = {value!r}" in str(exc)
        return
    audio = random_audio(7, 3.0, sr=run.params.sr)
    p = run.params
    n_raw = (audio.samples.size - p.window) // p.hop + 1
    pooled = -(-n_raw // p.pool_single)
    mats = extract_inputs(audio, run)
    assert list(mats) == run.input_names()
    (frames,) = {m.n_frames for m in mats.values()}
    # the lag matrices' pooling may end a frame or two before the mel's
    assert pooled - 2 <= frames - 2 * p.final_pad <= pooled
    for name, m in mats.items():
        rows = p.n_mels if name == "mls" else sslm_config_for(name, run).lag_bins
        assert m.values.shape == (rows, frames)
        assert np.isfinite(m.values).all()
    if key in ("epochs", "seed", "threshold"):
        epochs = run.epochs if key == "epochs" else 1
        net = BoundaryNet(p.n_mels, seed=run.seed)
        result = train(net, _short_examples(p.n_mels), epochs=epochs, seed=run.seed,
                       threshold=run.threshold)
        assert len(result.log) == epochs
