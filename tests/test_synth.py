import numpy as np

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
