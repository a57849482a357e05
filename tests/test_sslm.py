import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg import sslm
from songseg.audio import AudioBuffer
from songseg.errors import InputTooShortError
from songseg.params import PipelineParams
from songseg.spectral import (FeatureMatrix, max_pool_time, mel_log_spectrogram,
                              stft_magnitude)
from songseg.sslm import (FrontEnd, SslmConfig, align_frames,
                          compute_sslm, dct_features, equalize,
                          finalize_input, lag_distances, pad_noise_floor,
                          recurrence, stack_frames)
from songseg.synth import synth_corpus

from conftest import random_audio
from oracles import (causal_lag_view, equalize_by_partition,
                     equalize_by_quantile, equalize_by_sort,
                     finalize_input_by_rows, front_end_series,
                     lag_distances_by_gather,
                     max_pool_time_by_padding, pad_noise_floor_by_hstack,
                     pairwise_ssm, pink_noise, recurrence_by_masks)

SIGMOID_OF_ONE = 0.7310585786300049


def distance(u, v, metric):
    """Distance of ``u`` from its predecessor ``v``: lag 1 of a two-frame series."""
    return lag_distances(np.column_stack([v, u]), 1, metric)[1, 0]


class TestPadNoiseFloor:
    def test_lag_frame_count(self, params):
        mls = mel_log_spectrogram(random_audio(1, 1.0), params)
        padded = pad_noise_floor(mls, params)
        # round(14 * 44100 / 1024) frames prepended
        assert params.lag_frames == 603
        assert padded.n_frames == mls.n_frames + 603
        assert padded.pad_frames == 603

    def test_mls_pad_value(self, params):
        mls = mel_log_spectrogram(random_audio(1, 0.5), params)
        padded = pad_noise_floor(mls, params)
        assert np.all(padded.values[:, :603] == -70.0)

    def test_stft_pad_value(self, params):
        stft = stft_magnitude(random_audio(1, 0.5), params)
        padded = pad_noise_floor(stft, params)
        assert np.all(padded.values[:, :603] == 10.0 ** (-70.0 / 20.0))

    def test_zero_lag_identity(self):
        params = PipelineParams(lag_seconds=0.0)
        mls = mel_log_spectrogram(random_audio(1, 0.5), params)
        padded = pad_noise_floor(mls, params)
        np.testing.assert_array_equal(padded.values, mls.values)

    @pytest.mark.parametrize("lag_seconds", [0.0, 0.05, 14.0])
    def test_bit_identical_to_hstack_form(self, lag_seconds):
        params = PipelineParams(lag_seconds=lag_seconds)
        audio = random_audio(2, 0.5)
        for front, factor in itertools.product(
                (mel_log_spectrogram(audio, params), stft_magnitude(audio, params)),
                (1, 2, 3, 6)):
            pooled = pad_noise_floor(front, params, factor)
            want = max_pool_time_by_padding(pad_noise_floor_by_hstack(front, params),
                                            factor)
            assert pooled.values.dtype == want.dtype, (front.kind, factor)
            assert pooled.values.flags.c_contiguous, (front.kind, factor)
            assert np.array_equal(pooled.values, want), (front.kind, factor)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), factor=st.integers(1, 7), n_frames=st.integers(0, 20),
           n_bins=st.integers(0, 4), kind=st.sampled_from(["mls", "stft_mag"]),
           floor_db=st.sampled_from([-70.0, 0.0, -np.inf]), transposed=st.booleans())
    def test_pooled_pad_matches_two_step_form(self, data, factor, n_frames, n_bins,
                                              kind, floor_db, transposed):
        # floor_db -inf makes the fill -inf (mls) or 0.0 (stft_mag), so the
        # values below tie with it, signed zeros included.
        params = PipelineParams(sr=1, hop=1, floor_db=floor_db,
                                lag_seconds=float(data.draw(
                                    st.integers(0, 4).map(lambda k: k * factor)
                                    | st.integers(0, n_frames + 2 * factor),
                                    label="lag_frames")))
        values = data.draw(arrays(
            np.float64, (n_bins, n_frames),
            elements=st.sampled_from([0.0, -0.0, 1.0, -70.0, 10.0 ** (-70.0 / 20.0),
                                      np.inf, -np.inf, np.nan])
            | st.floats(allow_nan=False)), label="values")
        if transposed:  # the STFT's layout: a transposed frame-major array
            values = np.ascontiguousarray(values.T).T
        front = FeatureMatrix(values=values, hop_seconds=0.25, pool_factor=2,
                              pad_frames=3, kind=kind)
        pooled = pad_noise_floor(front, params, factor)

        padded = pad_noise_floor_by_hstack(front, params)
        want = max_pool_time_by_padding(padded, factor)
        assert np.array_equal(pooled.values, want, equal_nan=True)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(pooled.values[number]), np.signbit(want[number]))
        assert pooled.values.dtype == np.float64 and pooled.values.flags.c_contiguous
        assert not np.shares_memory(pooled.values, values)
        two_step = max_pool_time(replace(front, values=padded,
                                         pad_frames=front.pad_frames + params.lag_frames),
                                 factor)
        assert (pooled.hop_seconds, pooled.pool_factor, pooled.pad_frames, pooled.kind) == (
            two_step.hop_seconds, two_step.pool_factor, two_step.pad_frames, two_step.kind)

    def test_rejects_factor_below_one(self, params):
        mls = mel_log_spectrogram(random_audio(1, 0.2), params)
        with pytest.raises(ValueError, match="pool factor"):
            pad_noise_floor(mls, params, 0)


class TestFrontEnd:
    def test_chroma_series_never_builds_the_padded_stft(self, params):
        front = FrontEnd(random_audio(3, 20.0), params)
        stft = front.stft
        padded_bytes = stft.n_bins * (params.lag_frames + stft.n_frames) * 8
        tracemalloc.start()
        try:
            front.series("chroma", params.pool_single)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < padded_bytes

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), seconds=st.floats(0.05, 2.0),
           lead=st.floats(0.0, 1.0), trail=st.floats(0.0, 1.0),
           gain=st.sampled_from([1.0, 1e-3, 0.0]))
    def test_series_equal_pad_then_pool_oracle(self, seed, seconds, lead, trail, gain):
        params = PipelineParams()
        sr = params.sr
        noise = np.random.default_rng(seed).uniform(-gain, gain, int(seconds * sr))
        audio = AudioBuffer(np.concatenate([np.zeros(int(lead * sr)), noise,
                                            np.zeros(int(trail * sr))]), sr)
        front = FrontEnd(audio, params)
        for feature, pooling in itertools.product(("mfcc", "chroma"),
                                                  ("pool6", "pool2_3")):
            config = SslmConfig(feature, "euclidean", pooling, params)
            got = front.series(feature, config.pool_pre)
            want = front_end_series(audio, config).vectors
            assert got.dtype == want.dtype == np.float64, (feature, pooling)
            assert np.array_equal(got, want), (feature, pooling)


class TestDctFeatures:
    def _mls(self, values):
        return FeatureMatrix(values=np.asarray(values, dtype=np.float64),
                             hop_seconds=0.1, kind="mls")

    def test_constant_frame_maps_to_zero(self):
        out = dct_features(self._mls(np.full((80, 3), -70.0)))
        assert out.shape == (79, 3)
        # cancellation noise scales with the constant's magnitude
        np.testing.assert_allclose(out, 0.0, atol=1e-11)

    def test_output_dimension(self, rng):
        out = dct_features(self._mls(rng.standard_normal((80, 5))))
        assert out.shape[0] == 79

    def test_impulse_coefficients(self):
        frame = np.zeros((80, 1))
        frame[0, 0] = 1.0
        out = dct_features(self._mls(frame))[:, 0]
        k = np.arange(1, 80)
        expected = np.sqrt(2.0 / 80.0) * np.cos(np.pi * k * 0.5 / 80.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestStackFrames:
    def test_columns_pair_with_offset(self):
        cols = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = stack_frames(cols, 2)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_count_doubles(self, rng):
        out = stack_frames(rng.standard_normal((79, 10)), 2)
        assert out.shape == (158, 8)

    def test_degenerate_length_flagged_downstream(self, rng):
        out = stack_frames(rng.standard_normal((4, 2)), 2)
        assert out.shape[1] == 0
        with pytest.raises(InputTooShortError):
            lag_distances(out, 1, "euclidean")


class TestDistance:
    def test_identical_vectors(self):
        u = np.array([1.0, 2.0, -3.0])
        assert distance(u, u, "euclidean") == 0.0
        assert distance(u, u, "cosine") == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_cosine(self):
        assert distance([1.0, 0.0], [0.0, 2.0], "cosine") == pytest.approx(1.0)

    def test_worked_example(self):
        u, v = [1.0, 0.0], [1.0, 1.0]
        assert distance(u, v, "euclidean") == pytest.approx(1.0)
        assert distance(u, v, "cosine") == pytest.approx(1.0 - 1.0 / np.sqrt(2.0))

    def test_zero_vector_guard(self):
        assert distance([0.0, 0.0], [1.0, 2.0], "cosine") == 0.0
        assert distance([1.0, 2.0], [0.0, 0.0], "cosine") == 0.0


class TestLagDistances:
    def test_identical_columns_zero(self):
        d = lag_distances(np.ones((3, 8)), 3, "euclidean")
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_periodic_series(self, rng):
        block = rng.standard_normal((4, 3))
        d = lag_distances(np.hstack([block] * 4), 3, "euclidean")
        np.testing.assert_allclose(d[3:, 2], 0.0, atol=1e-12)

    def test_matches_bruteforce_loop(self, rng):
        vectors = rng.standard_normal((5, 10))
        for metric in ("euclidean", "cosine"):
            d = lag_distances(vectors, 3, metric)
            ref = causal_lag_view(pairwise_ssm(vectors, metric), 3)
            np.testing.assert_allclose(d, ref, rtol=0, atol=1e-12)


@st.composite
def _lag_series(draw):
    """Frame vectors on a coarse grid, with zero and NaN columns."""
    lag_bins = draw(st.integers(1, 8))
    n = lag_bins + 1 + draw(st.integers(0, 10))
    dim = draw(st.integers(1, 20))
    v = draw(arrays(np.float64, (dim, n),
                    elements=st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.5])
                    | st.floats(-1e3, 1e3)))
    for col in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        v[:, col] = 0.0
    for col in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        v[:, col] = np.nan
    return v, lag_bins


@st.composite
def _near_duplicate_series(draw):
    """Gaussian frames around a common offset, with runs of repeated frames
    and copies of other frames moved by 1e-8 to 1e-10 of their norm."""
    lag_bins = draw(st.integers(1, 12))
    n = lag_bins + 1 + draw(st.integers(0, 40))
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = (rng.standard_normal((dim, n)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
         + draw(st.sampled_from([0.0, 10.0, -1e3])))
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        step = rng.standard_normal(dim)
        scale = draw(st.sampled_from([1e-8, 1e-9, 1e-10])) * np.linalg.norm(v[:, j])
        v[:, i] = v[:, j] + step * (scale / max(np.linalg.norm(step), 1e-300))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        v[:, start : start + draw(st.integers(1, lag_bins + 2))] = v[:, start : start + 1]
    return v, lag_bins


# 1 - cos carries an absolute rounding error of a few ulps of 1 however the
# dot products are summed, so near-parallel frames are compared absolutely.
COSINE_ATOL = 1e-12


def assert_matches_gather(v, lag_bins, metric):
    """``lag_distances`` against the former per-lag gather: NaN and +-inf at
    the same places, finite entries within 1e-6 relative, and the euclidean
    zeros of identical frames exact."""
    got = lag_distances(v, lag_bins, metric)
    want = lag_distances_by_gather(v, lag_bins, metric)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    if metric == "euclidean":
        assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-6,
                               atol=0.0 if metric == "euclidean" else COSINE_ATOL)


class TestLagDistancesProperties:
    """``lag_distances`` against its former per-lag gather, within tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(case=_lag_series())
    def test_matches_gather(self, case):
        v, lag_bins = case
        for metric in ("euclidean", "cosine"):
            assert_matches_gather(v, lag_bins, metric)

    @settings(max_examples=200, deadline=None)
    @given(case=_near_duplicate_series())
    def test_near_duplicates_match_gather(self, case):
        v, lag_bins = case
        for metric in ("euclidean", "cosine"):
            assert_matches_gather(v, lag_bins, metric)

    # n = L + 1 leaves one frame past the lag window; n - L == L splits the
    # frames evenly between the two slices.
    @pytest.mark.parametrize("dim, lag_bins, n", [
        (1, 1, 2), (12, 1, 2), (20, 5, 6), (20, 3, 6), (158, 4, 8), (24, 7, 30)])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_edge_shapes(self, rng, dim, lag_bins, n, metric):
        v = rng.standard_normal((dim, n)) * 10.0
        v[:, n // 2] = 0.0
        v[:, -1] = np.nan
        assert_matches_gather(v, lag_bins, metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_runs_of_identical_frames_are_exact_zeros(self, rng, metric):
        v = rng.standard_normal((6, 40))
        v[:, :5] = v[:, :1]
        v[:, 20:31] = v[:, 20:21]
        d = lag_distances(v, 8, metric)
        assert (d[:5] == 0.0).all()  # frame 0's clamped copies join its run
        for i in range(21, 31):
            assert (d[i, : min(i - 20, 8)] == 0.0).all()
        assert (d[31:] != 0.0).all()

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_inf_frames_follow_the_gather(self, rng, metric):
        v = rng.standard_normal((5, 30))
        v[:, 3] = np.inf
        v[:, 4] = np.inf  # an identical run of +inf frames stays NaN
        v[1, 12] = -np.inf
        v[2, 20] = np.nan
        assert_matches_gather(v, 6, metric)

    # Whole series whose squares fall into the subnormal range, or whose
    # squared norms sum past the overflow threshold.
    @pytest.mark.parametrize("scale", [1e-160, 1e-300, 6e153])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_norms_near_the_float_limits(self, rng, scale, metric):
        v = rng.standard_normal((4, 30)) * scale
        v[:, 10] = v[:, 9] * (1.0 + 1e-12)
        v[:, 20:] *= 1e-3
        assert_matches_gather(v, 6, metric)

    # Blocks of LAG_BLOCK_FRAMES (256) frames; with 300 lags the second block
    # still reaches back into frame 0's clamped copies.
    @pytest.mark.parametrize("n, lag_bins", [(255, 60), (256, 60), (257, 60),
                                             (700, 300)])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_block_edges(self, rng, n, lag_bins, metric):
        v = rng.standard_normal((10, n)) + 3.0
        v[:, 100:110] = v[:, 100:101]
        v[:, n - 5] = v[:, n - 40] + 1e-9
        assert_matches_gather(v, lag_bins, metric)


class TestEqualize:
    def test_constant_distances(self):
        d = np.full((6, 4), 3.7)
        np.testing.assert_allclose(equalize(d, 0.1), 3.7)

    def test_known_quantile(self):
        # row 1 with its predecessor forms the multiset {1..10}
        d = np.array([[1.0, 2.0, 3.0, 4.0, 5.0],
                      [6.0, 7.0, 8.0, 9.0, 10.0]])
        eps = equalize(d, 0.1)
        assert eps[1, 0] == pytest.approx(1.9)

    def test_early_rows_duplicate_themselves(self):
        d = np.array([[2.0, 4.0], [6.0, 8.0], [1.0, 3.0]])
        eps = equalize(d, 0.5)
        # row 0 at any lag sees {2,4} twice; median 3
        assert eps[0, 0] == pytest.approx(3.0)
        assert eps[0, 1] == pytest.approx(3.0)

    def test_nan_row_poisons_its_multisets(self):
        d = np.arange(12.0).reshape(4, 3)
        d[1, 2] = np.nan
        np.testing.assert_array_equal(equalize(d, 0.1),
                                      equalize_by_quantile(d, 0.1))
        assert np.isnan(equalize(d, 0.1)[2, 0])


# Distances on a coarse grid so that ties are common; zero rows included.
_distance_rows = st.integers(1, 12).flatmap(lambda lag_bins: arrays(
    np.float64, st.tuples(st.integers(0, 2 * lag_bins + 3), st.just(lag_bins)),
    elements=st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 7.25])
    | st.floats(0.0, 10.0, allow_nan=False)))


_KAPPAS = [0.1, 0.37, 0.5, 0.9, np.nextafter(1.0, 0.0)]


class TestEqualizeProperties:
    """``equalize`` against the np.quantile definition, any shape and kappa."""

    @settings(max_examples=300, deadline=None)
    @given(d=_distance_rows,
           kappa=st.sampled_from([0.1, 0.37, 0.5, 0.9]))
    def test_bit_identical_to_np_quantile(self, d, kappa):
        # kappa = 0.9 puts the interpolation weight past 0.5, where numpy
        # interpolates down from the upper order statistic.
        assert np.array_equal(equalize(d, kappa), equalize_by_quantile(d, kappa))

    @settings(max_examples=100, deadline=None)
    @given(d=_distance_rows,
           kappa=st.sampled_from([0.1, 0.37, 0.5, 0.9]))
    def test_matches_sort_and_interpolate(self, d, kappa):
        # equalize_by_sort always interpolates up from the lower statistic,
        # so it may differ from numpy's rule in the last bit.
        np.testing.assert_allclose(equalize(d, kappa), equalize_by_sort(d, kappa),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, lag_bins", [(3, 10), (0, 5), (7, 1), (1, 1)])
    @pytest.mark.parametrize("kappa", [0.1, 0.37, 0.5, 0.9, np.nextafter(1.0, 0.0)])
    def test_edge_shapes(self, rng, n, lag_bins, kappa):
        d = rng.uniform(0.0, 5.0, (n, lag_bins))
        if n:
            d[0] = 0.0
        assert np.array_equal(equalize(d, kappa), equalize_by_quantile(d, kappa))

    @settings(max_examples=300, deadline=None)
    @given(d=_distance_rows, nan_rows=st.lists(st.integers(0, 30), max_size=2),
           kappa=st.sampled_from(_KAPPAS))
    def test_bit_identical_to_partition_form(self, d, nan_rows, kappa):
        for row in nan_rows:
            if row < d.shape[0]:
                d[row, row % d.shape[1]] = np.nan
        assert np.array_equal(equalize(d, kappa), equalize_by_partition(d, kappa),
                              equal_nan=True)

    @pytest.mark.parametrize("n, lag_bins", [(3, 10), (0, 5), (7, 1), (1, 1), (40, 13)])
    @pytest.mark.parametrize("kappa", _KAPPAS)
    def test_edge_shapes_with_nan_row(self, rng, n, lag_bins, kappa):
        d = rng.choice([0.0, 0.5, 1.0, 2.0], (n, lag_bins))
        if n > 1:
            d[1, 0] = np.nan
        assert np.array_equal(equalize(d, kappa), equalize_by_partition(d, kappa),
                              equal_nan=True)


class TestRecurrence:
    def test_equal_distance_and_equalizer(self):
        d = np.full((3, 2), 0.8)
        np.testing.assert_allclose(recurrence(d, d.copy()), 0.5)

    def test_zero_distance(self):
        d = np.zeros((2, 2))
        eps = np.full((2, 2), 1.5)
        np.testing.assert_allclose(recurrence(d, eps), SIGMOID_OF_ONE)

    def test_degenerate_equalizer_guard(self):
        d = np.zeros((2, 2))
        eps = np.zeros((2, 2))
        np.testing.assert_allclose(recurrence(d, eps), SIGMOID_OF_ONE)
        # nonzero distance with zero equalizer collapses toward 0
        r = recurrence(np.full((1, 1), 2.0), np.zeros((1, 1)))
        assert 0.0 < r[0, 0] < 1e-20

    def test_open_unit_interval(self, rng):
        d = np.abs(rng.standard_normal((5, 4)))
        eps = np.abs(rng.standard_normal((5, 4))) + 0.1
        r = recurrence(d, eps)
        assert np.all((r > 0.0) & (r < 1.0))

    # Values on both sides of EPSILON_MIN and of the RATIO_LARGE clamp.
    _VALUES = [0.0, 5e-10, 1e-9, 2e-9, 0.01, 0.3, 1.0, 49.0, 50.0, 1e3, np.inf, np.nan]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(0, 12), st.integers(0, 12)))
    def test_equals_masked_gather_oracle(self, data, shape):
        d, eps = (data.draw(arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from(self._VALUES), st.floats(0.0, 100.0)))) for _ in range(2))
        assert recurrence(d, eps).tobytes() == recurrence_by_masks(d, eps).tobytes()


class TestComputeSslm:
    def test_frame_counts_agree_across_poolings(self, params):
        audio = random_audio(21, 5.0)
        frames = {}
        for pooling in ("pool6", "pool2_3"):
            config = SslmConfig(feature="mfcc", metric="euclidean",
                                pooling=pooling, params=params)
            out = compute_sslm(audio, config)
            frames[pooling] = out.n_frames
            assert out.kind == "sslm"
        assert abs(frames["pool6"] - frames["pool2_3"]) <= 1

    def test_lag_bin_counts(self, params):
        audio = random_audio(22, 5.0)
        c6 = SslmConfig("mfcc", "euclidean", "pool6", params)
        c23 = SslmConfig("mfcc", "euclidean", "pool2_3", params)
        assert compute_sslm(audio, c6).n_bins == 603 // 6
        assert compute_sslm(audio, c23).n_bins == 603 // 2

    def test_values_in_open_interval(self, params):
        audio = random_audio(23, 4.0)
        for feature in ("mfcc", "chroma"):
            config = SslmConfig(feature, "cosine", "pool6", params)
            r = compute_sslm(audio, config).values
            assert np.all((r > 0.0) & (r < 1.0))
            assert np.all(np.isfinite(r))

    def test_periodic_audio_lights_up_period_lag(self, params):
        # 1 s of noise tiled: strong recurrence at the 1-second lag bin
        rng = np.random.default_rng(8)
        chunk = rng.uniform(-0.5, 0.5, params.sr)
        audio = AudioBuffer(np.tile(chunk, 6), params.sr)
        config = SslmConfig("mfcc", "euclidean", "pool6", params)
        r = compute_sslm(audio, config).values
        period_bin = round(1.0 * params.sr / (params.hop * 6)) - 1
        assert r[period_bin].mean() > r.mean()

    def test_causality(self, params):
        full = random_audio(24, 6.0)
        truncated = AudioBuffer(full.samples[: 5 * params.sr], params.sr)
        config = SslmConfig("mfcc", "cosine", "pool6", params)
        r_full = compute_sslm(full, config).values
        r_trunc = compute_sslm(truncated, config).values
        keep = r_trunc.shape[1] - 3  # pooled tail of the truncated run differs
        np.testing.assert_array_equal(r_full[:, :keep], r_trunc[:, :keep])

    def test_cosine_chroma_scale_invariance(self, params):
        audio = random_audio(25, 5.0)
        config = SslmConfig("chroma", "cosine", "pool6", params)
        base = compute_sslm(audio, config).values
        scaled = compute_sslm(
            AudioBuffer(audio.samples * 2.0, params.sr), config).values
        assert np.max(np.abs(base - scaled)) < 1e-6

    def test_too_short_raises(self, params):
        with pytest.raises(InputTooShortError):
            compute_sslm(random_audio(26, 0.1),
                         SslmConfig("mfcc", "euclidean", "pool6", params))


class TestLagDistancesInThePipeline:
    """The final SSLMs of a 90 s synthetic track against the same pipeline run
    through the per-lag gather.  The track spans several product blocks and
    holds harmonic near-duplicate frames, which the 5 s noise clips of the
    acceptance gate do not reach."""

    def test_all_variants_within_1e6_of_gather(self, params, monkeypatch):
        track = synth_corpus(seed=11, n_tracks=1, segments_per_track=(12, 12),
                             segment_duration=(7.5, 8.5), sr=params.sr)[0]
        audio = AudioBuffer(track.audio.samples[: 90 * params.sr], params.sr)
        front = FrontEnd(audio, params)
        configs = [SslmConfig(feature, metric, pooling, params)
                   for pooling in ("pool6", "pool2_3")
                   for feature in ("mfcc", "chroma")
                   for metric in ("euclidean", "cosine")]
        got = [compute_sslm(audio, c, front).values for c in configs]
        monkeypatch.setattr(sslm, "lag_distances", lag_distances_by_gather)
        for config, values in zip(configs, got):
            want = compute_sslm(audio, config, front).values
            assert values.shape == want.shape
            np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-6,
                                       err_msg=str(config))


class TestFinalizeInput:
    def _matrix(self, values, kind="mls"):
        return FeatureMatrix(values=np.asarray(values, dtype=np.float64),
                             hop_seconds=0.139, pool_factor=6, kind=kind)

    def test_adds_fifty_frames_each_side(self, rng):
        m = self._matrix(rng.standard_normal((10, 40)))
        out = finalize_input(m, 50, seed=1)
        assert out.n_frames == 140
        assert out.pad_frames == 50
        assert out.kind == "net_input"

    def test_rows_standardized(self, rng):
        m = self._matrix(rng.standard_normal((12, 60)) * 5 + 3)
        out = finalize_input(m, 50, seed=2)
        assert np.all(np.abs(out.values.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(out.values.std(axis=1) - 1.0) < 1e-6)

    def test_constant_row_zeroed(self, rng):
        values = rng.standard_normal((3, 30))
        values[1] = 4.2
        out = finalize_input(self._matrix(values), 50, seed=3)
        assert np.all(out.values[1] == 0.0)
        assert np.abs(out.values[0].std() - 1.0) < 1e-6

    def test_deterministic(self, rng):
        m = self._matrix(rng.standard_normal((4, 20)))
        a = finalize_input(m, 50, seed=9)
        b = finalize_input(m, 50, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_net_input(self, rng):
        m = self._matrix(rng.standard_normal((4, 20)))
        out = finalize_input(m, 10, seed=0)
        with pytest.raises(ValueError):
            finalize_input(out, 10, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(values=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 30)),
                         elements=st.floats(-100.0, 100.0)),
           constant=st.lists(st.integers(0, 5), max_size=2),
           gamma=st.sampled_from([0, 1, 50]), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_per_band_loop(self, values, constant, gamma, seed):
        assume(values.shape[1] or gamma)
        for row in constant:
            if row < values.shape[0]:
                values[row] = 4.25
        out = finalize_input(self._matrix(values), gamma, seed)
        assert np.array_equal(out.values, finalize_input_by_rows(values, gamma, seed))


def test_pink_noise_deterministic():
    a = pink_noise(100, np.random.default_rng(5))
    b = pink_noise(100, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert a.std() > 0


def test_align_frames():
    mats = [FeatureMatrix(np.zeros((2, n)), hop_seconds=0.1, kind="sslm")
            for n in (10, 9, 11)]
    aligned = align_frames(mats)
    assert [m.n_frames for m in aligned] == [9, 9, 9]
