import multiprocessing as mp
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from songseg import synth
from songseg.synth import synth_corpus


def _spectral_centroid(samples, sr):
    """Magnitude-weighted mean frequency, computed straight from the DFT."""
    mag = np.abs(np.fft.rfft(samples))
    freqs = np.fft.rfftfreq(samples.size, d=1.0 / sr)
    return float((freqs * mag).sum() / mag.sum())


def test_exact_segment_construction():
    (track,) = synth_corpus(seed=7, n_tracks=1, segments_per_track=(3, 3),
                            segment_duration=(10.0, 10.0))
    assert track.audio.duration == 30.0
    np.testing.assert_array_equal(track.boundaries.times, [10.0, 20.0])
    assert len(track.segment_specs) == 3


def test_same_seed_is_byte_identical():
    a = synth_corpus(seed=3, n_tracks=2)
    b = synth_corpus(seed=3, n_tracks=2)
    for ta, tb in zip(a, b):
        assert ta.audio.samples.tobytes() == tb.audio.samples.tobytes()
        assert ta.segment_specs == tb.segment_specs


def test_adjacent_segments_contrast_in_centroid():
    tracks = synth_corpus(seed=11, n_tracks=4, segments_per_track=(3, 5),
                          segment_duration=(4.0, 6.0))
    sr = tracks[0].audio.sample_rate
    for track in tracks:
        start = 0
        centroids = []
        for dur, _recipe in track.segment_specs:
            n = int(round(dur * sr))
            centroids.append(
                _spectral_centroid(track.audio.samples[start : start + n], sr))
            start += n
        for c0, c1 in zip(centroids, centroids[1:]):
            assert abs(c0 - c1) > 300.0


def test_adjacent_recipes_distinct():
    tracks = synth_corpus(seed=5, n_tracks=6, segments_per_track=(2, 5))
    for track in tracks:
        recipes = [rid for _, rid in track.segment_specs]
        assert all(a != b for a, b in zip(recipes, recipes[1:]))


def test_boundaries_reconstructible_from_specs():
    tracks = synth_corpus(seed=2, n_tracks=3, segments_per_track=(2, 4),
                          segment_duration=(3.0, 7.0))
    for track in tracks:
        rebuilt = np.cumsum([d for d, _ in track.segment_specs])[:-1]
        np.testing.assert_allclose(rebuilt, track.boundaries.times, atol=1e-9)


def test_amplitude_headroom():
    tracks = synth_corpus(seed=9, n_tracks=2)
    for track in tracks:
        assert np.abs(track.audio.samples).max() < 1.0


def test_duration_below_one_sample_rejected():
    with pytest.raises(ValueError, match=r"\(1e-05, 0\.001\) s is shorter than "
                                         r"one sample at sr=44100 Hz"):
        synth_corpus(seed=0, n_tracks=1, segment_duration=(1e-5, 1e-3))


@pytest.mark.parametrize("segments, duration", [
    ((2, 4), (1.0, np.inf)), ((2, 4), (np.nan, np.nan)), ((2, 4), (1.0, np.nan)),
    ((2, 4), (2.0, 1.0)), ((2, 4), (0.0, 1.0)), ((3, 2), (1.0, 2.0)), ((0, 2), (1.0, 2.0)),
])
def test_empty_or_non_finite_range_rejected(segments, duration):
    with pytest.raises(ValueError, match="is empty or not finite"):
        synth_corpus(seed=0, n_tracks=1, segments_per_track=segments,
                     segment_duration=duration)


def _corpus_and_calls(monkeypatch, cpus, **kwargs):
    """The corpus rendered with ``cpus`` CPUs available, and the number of
    segments this process rendered itself."""
    calls = []
    render = synth._render_segment
    monkeypatch.setattr(synth, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(synth, "_render_segment",
                        lambda *job: calls.append(job[0]) or render(*job))
    return synth_corpus(**kwargs), len(calls)


def test_worker_processes_render_what_this_process_would(monkeypatch):
    kwargs = dict(seed=8, n_tracks=6, segments_per_track=(1, 3),
                  segment_duration=(0.5, 1.5))
    inline, inline_calls = _corpus_and_calls(monkeypatch, 1, **kwargs)
    pooled, pooled_calls = _corpus_and_calls(monkeypatch, 3, **kwargs)
    recipes = [rid for t in inline for _, rid in t.segment_specs]
    assert {rid.split("-")[0] for rid in recipes} == {"noise", "harm"}
    assert 1 in {len(t.segment_specs) for t in inline}
    assert (inline_calls, pooled_calls) == (len(recipes), 0)
    for a, b in zip(inline, pooled):
        assert a.audio.samples.tobytes() == b.audio.samples.tobytes()
        assert a.boundaries.times.tobytes() == b.boundaries.times.tobytes()
        assert a.segment_specs == b.segment_specs
    assert mp.active_children() == []


def test_single_segment_renders_in_this_process(monkeypatch):
    (track,), calls = _corpus_and_calls(
        monkeypatch, 3, seed=1, n_tracks=1, segments_per_track=(1, 1),
        segment_duration=(1.0, 1.0))
    assert calls == 1 and track.audio.duration == 1.0


def _samples(kwargs) -> list:
    return [t.audio.samples.tobytes() for t in synth_corpus(**kwargs)]


def test_same_audio_inside_a_pool_worker():
    # A pool worker is daemonic and may not start processes of its own.
    kwargs = dict(seed=6, n_tracks=3, segments_per_track=(2, 3),
                  segment_duration=(0.5, 1.0))
    with mp.Pool(1) as pool:
        got = pool.apply(_samples, (kwargs,))
    assert got == _samples(kwargs)


# The pool forks its workers, so the patched renderer reaches them too.
@pytest.mark.parametrize("cpus", [1, 3])
def test_failing_segment_raises_in_caller(monkeypatch, cpus):
    def fail(recipe_id, sr, n, phases):
        raise ValueError(f"no partials for {recipe_id}")

    monkeypatch.setattr(synth, "_render_harmonic", fail)
    monkeypatch.setattr(synth, "_cpu_count", lambda: cpus)
    with pytest.raises(ValueError, match="no partials for harm-"):
        synth_corpus(seed=6, n_tracks=3, segments_per_track=(3, 3),
                     segment_duration=(0.5, 1.0))
    assert mp.active_children() == []


def test_dying_worker_raises_in_caller(monkeypatch):
    def die(recipe_id, sr, draws, out):
        os._exit(3)

    monkeypatch.setattr(synth, "_render_segment", die)
    monkeypatch.setattr(synth, "_cpu_count", lambda: 3)
    with pytest.raises(RuntimeError) as excinfo:
        synth_corpus(seed=6, n_tracks=3, segments_per_track=(3, 3),
                     segment_duration=(0.5, 1.0))
    assert excinfo.type is BrokenProcessPool
    assert mp.active_children() == []
