import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg import spectral
from songseg.audio import AudioBuffer
from songseg.errors import InputTooShortError
from songseg.params import PipelineParams
from songseg.spectral import (FeatureMatrix, chroma_project, max_pool_time,
                              mel_log_spectrogram, stft_magnitude)

from conftest import random_audio
from oracles import dft_direct, max_pool_time_by_padding, stft_by_gather


def _tone(freq, seconds, sr=44100, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def _independent_mel_centers(params):
    """Filter-center table recomputed from the mel-scale definition."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    grid = np.linspace(to_mel(params.fmin), to_mel(params.fmax),
                       params.n_mels + 2)
    return to_hz(grid)[1:-1]


class TestStft:
    def test_zero_signal_all_zero(self, params):
        buf = AudioBuffer(np.zeros(3 * params.window), params.sr)
        out = stft_magnitude(buf, params)
        assert out.kind == "stft_mag"
        assert out.n_bins == 1025
        assert np.all(out.values == 0.0)

    def test_constant_signal_dc_bin(self, params):
        buf = AudioBuffer(np.ones(params.window + params.hop), params.sr)
        out = stft_magnitude(buf, params)
        # DC magnitude of a windowed constant frame is the window sum
        np.testing.assert_allclose(out.values[0], 1023.5, atol=1e-9)

    def test_against_direct_dft(self, params):
        buf = random_audio(42, 0.1)
        out = stft_magnitude(buf, params)
        frame = buf.samples[params.hop : params.hop + params.window]
        ref = np.abs(dft_direct(frame * np.hanning(params.window)))
        np.testing.assert_allclose(out.values[:, 1], ref[:1025], atol=1e-8)

    def test_frame_count(self, params):
        buf = AudioBuffer(np.zeros(44100), params.sr)
        assert stft_magnitude(buf, params).n_frames == 42

    @settings(max_examples=30, deadline=None)
    @given(frames=st.integers(1, 3 * spectral.STFT_BLOCK_FRAMES + 1),
           tail=st.integers(0, 1023), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_index_gather(self, frames, tail, seed):
        # frame counts around and between block boundaries, ragged tails
        params = PipelineParams()
        n = params.window + (frames - 1) * params.hop + tail
        samples = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        out = stft_magnitude(AudioBuffer(samples, params.sr), params).values
        ref = stft_by_gather(samples, params.window, params.hop)
        assert np.array_equal(out, ref)
        # same memory layout, so BLAS products downstream round the same way
        assert out.strides == ref.strides

    @pytest.mark.parametrize("extra", [0, 1, 1023])
    def test_one_frame_at_window_length(self, params, extra):
        samples = np.random.default_rng(extra).uniform(-1.0, 1.0, params.window + extra)
        out = stft_magnitude(AudioBuffer(samples, params.sr), params)
        assert out.n_frames == 1
        assert np.array_equal(out.values, stft_by_gather(samples, params.window,
                                                         params.hop))

    def test_too_short(self, params):
        with pytest.raises(InputTooShortError):
            stft_magnitude(AudioBuffer(np.zeros(params.window - 1), params.sr),
                           params)

    def test_wrong_rate(self, params):
        with pytest.raises(ValueError):
            stft_magnitude(AudioBuffer(np.zeros(44100), 22050), params)

    def test_magnitude_linear_in_gain(self, params):
        buf = random_audio(7, 0.15)
        scaled = AudioBuffer(buf.samples * 3.0, params.sr)
        a = stft_magnitude(buf, params).values
        b = stft_magnitude(scaled, params).values
        np.testing.assert_allclose(b, 3.0 * a, atol=1e-9)


class TestMelLogSpectrogram:
    def test_silence_floor_is_exact(self, params):
        buf = AudioBuffer(np.zeros(2 * params.window), params.sr)
        out = mel_log_spectrogram(buf, params)
        assert out.kind == "mls"
        assert np.all(out.values == -70.0)

    def test_eighty_bands(self, params):
        out = mel_log_spectrogram(random_audio(3, 0.2), params)
        assert out.n_bins == 80

    def test_floor_is_global_minimum(self, params):
        out = mel_log_spectrogram(random_audio(4, 0.3), params)
        assert out.values.min() >= -70.0

    def test_tone_at_filter_center_maximizes_that_band(self, params):
        centers = _independent_mel_centers(params)
        for band in (10, 40, 70):
            out = mel_log_spectrogram(_tone(centers[band], 0.3), params)
            mid = out.values[:, out.n_frames // 2]
            assert int(np.argmax(mid)) == band

    def test_given_stft_gives_same_result(self, params):
        audio = random_audio(5, 0.3)
        stft = stft_magnitude(audio, params)
        np.testing.assert_array_equal(
            mel_log_spectrogram(audio, params, stft).values,
            mel_log_spectrogram(audio, params).values)
        with pytest.raises(ValueError, match="stft_mag"):
            mel_log_spectrogram(audio, params, mel_log_spectrogram(audio, params))


class TestChroma:
    def test_zero_spectrum(self, params):
        stft = stft_magnitude(AudioBuffer(np.zeros(2 * params.window), params.sr),
                              params)
        out = chroma_project(stft, params)
        assert out.kind == "chroma"
        assert out.n_bins == 12
        assert np.all(out.values == 0.0)

    def test_a440_maps_to_row_a(self, params):
        stft = stft_magnitude(_tone(440.0, 0.25), params)
        chroma = chroma_project(stft, params).values
        assert int(np.argmax(chroma[:, 2])) == 9  # row order C..B puts A at 9

    def test_octave_invariance(self, params):
        stft = stft_magnitude(_tone(880.0, 0.25), params)
        chroma = chroma_project(stft, params).values
        assert int(np.argmax(chroma[:, 2])) == 9

    def test_nonnegative(self, params):
        stft = stft_magnitude(random_audio(5, 0.2), params)
        assert chroma_project(stft, params).values.min() >= 0.0

    def test_rejects_wrong_kind(self, params):
        mls = mel_log_spectrogram(random_audio(6, 0.2), params)
        with pytest.raises(ValueError):
            chroma_project(mls, params)


class TestMaxPoolTime:
    def _matrix(self, values):
        return FeatureMatrix(values=np.asarray(values, dtype=np.float64),
                             hop_seconds=0.1, kind="mls")

    def test_factor_one_identity(self):
        m = self._matrix([[1.0, 2.0, 3.0]])
        out = max_pool_time(m, 1)
        np.testing.assert_array_equal(out.values, m.values)
        assert out.pool_factor == 1

    def test_window_maxima(self):
        m = self._matrix([[1.0, 5.0, 3.0, 2.0, 9.0, 4.0]])
        out = max_pool_time(m, 3)
        np.testing.assert_array_equal(out.values, [[5.0, 9.0]])

    def test_ragged_tail_ceil(self):
        m = self._matrix([[1.0, 5.0, 3.0, 2.0, 9.0]])
        out = max_pool_time(m, 3)
        np.testing.assert_array_equal(out.values, [[5.0, 9.0]])
        assert out.n_frames == 2

    def test_constant_stays_constant(self):
        m = self._matrix(np.full((4, 10), 2.5))
        out = max_pool_time(m, 4)
        assert out.n_frames == 3
        assert np.all(out.values == 2.5)

    def test_metadata_scaling(self):
        m = self._matrix(np.zeros((2, 12)))
        m.pad_frames = 7
        out = max_pool_time(m, 3)
        assert out.hop_seconds == pytest.approx(0.3)
        assert out.pool_factor == 3
        assert out.pad_frames == 2

    def test_composition_when_divisible(self, rng):
        m = self._matrix(rng.standard_normal((5, 24)))
        once = max_pool_time(m, 6)
        twice = max_pool_time(max_pool_time(m, 2), 3)
        np.testing.assert_array_equal(once.values, twice.values)

    @settings(max_examples=300, deadline=None)
    @given(values=arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 20)),
                         elements=st.sampled_from([0.0, -0.0, 1.5, -2.0, np.nan,
                                                   np.inf, -np.inf])
                         | st.floats(allow_nan=False)),
           factor=st.integers(1, 6), fortran=st.booleans())
    def test_matches_padded_reshape(self, values, factor, fortran):
        if fortran:
            values = np.asfortranarray(values)
        out = max_pool_time(self._matrix(values), factor).values
        want = values if factor == 1 else max_pool_time_by_padding(values, factor)
        assert np.array_equal(out, want, equal_nan=True)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(out[number]), np.signbit(want[number]))
        assert out.dtype == np.float64 and out.flags.c_contiguous
