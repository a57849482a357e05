import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg.audio import (WAV_BLOCK_SAMPLES, AudioBuffer, read_wav, resample,
                           write_wav)
from songseg.errors import FormatError


def _write_raw_wav(path, payload, fmt_code=1, channels=1, sr=44100, bits=16,
                   declared_size=None):
    size = len(payload) if declared_size is None else declared_size
    block = channels * bits // 8
    header = b"".join([
        b"RIFF", struct.pack("<I", 36 + size), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, fmt_code, channels, sr,
                             sr * block, block, bits),
        b"data", struct.pack("<I", size),
    ])
    path.write_bytes(header + payload)


def _former_samples(payload, dtype, channels):
    """The former conversion: a float64 copy, scaled, then a channel mean."""
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if dtype == "<i2":
        samples = samples / 32768.0
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return samples


class TestReadWav:
    def test_one_second_of_zeros(self, tmp_path):
        path = tmp_path / "zeros.wav"
        _write_raw_wav(path, b"\x00" * (44100 * 2))
        buf = read_wav(path)
        assert buf.sample_rate == 44100
        assert buf.samples.size == 44100
        assert np.all(buf.samples == 0.0)

    def test_stereo_mean_downmix_cancels(self, tmp_path):
        # constant +0.5 / -0.5 channels cancel to silence
        left = int(0.5 * 32768)
        frames = struct.pack("<hh", left, -left) * 100
        path = tmp_path / "stereo.wav"
        _write_raw_wav(path, frames, channels=2)
        buf = read_wav(path)
        assert buf.samples.size == 100
        assert np.all(buf.samples == 0.0)

    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "half.wav"
        _write_raw_wav(path, struct.pack("<h", 16384))
        buf = read_wav(path)
        assert buf.samples[0] == 16384 / 32768  # exactly 0.5

    def test_float32_roundtrip(self, tmp_path):
        original = AudioBuffer(np.linspace(-0.9, 0.9, 300), 22050)
        path = tmp_path / "f32.wav"
        _write_raw_wav(path, original.samples.astype("<f4").tobytes(),
                       fmt_code=3, sr=22050, bits=32)
        buf = read_wav(path)
        assert buf.sample_rate == 22050
        np.testing.assert_allclose(buf.samples, original.samples, atol=1e-7)

    def test_int16_write_roundtrip(self, tmp_path):
        original = AudioBuffer(np.linspace(-0.9, 0.9, 300), 22050)
        path = tmp_path / "i16.wav"
        write_wav(path, original)
        buf = read_wav(path)
        assert buf.sample_rate == 22050
        np.testing.assert_allclose(buf.samples, original.samples, atol=1 / 32768)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "alaw.wav"
        _write_raw_wav(path, b"\x00" * 16, fmt_code=6, bits=8)
        with pytest.raises(FormatError):
            read_wav(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.wav"
        _write_raw_wav(path, b"\x00" * 10, declared_size=400)
        with pytest.raises(OSError):
            read_wav(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), channels=st.sampled_from([1, 2]),
           dtype=st.sampled_from(["<i2", "<f4"]), frames=st.integers(0, 40))
    def test_bytes_equal_former_conversion(self, data, channels, dtype, frames):
        payload = data.draw(arrays(dtype, frames * channels)).tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "any.wav"
            _write_raw_wav(path, payload, fmt_code=1 if dtype == "<i2" else 3,
                           channels=channels, bits=16 if dtype == "<i2" else 32)
            finite = np.isfinite(np.frombuffer(payload, dtype))
            if not finite.all():
                with pytest.raises(FormatError, match="non-finite sample at index "
                                                      f"{np.argmin(finite)}$"):
                    read_wav(path)
                return
            samples = read_wav(path).samples
        assert samples.dtype == np.float64
        assert samples.tobytes() == _former_samples(payload, dtype, channels).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("last", [False, True])
    def test_non_finite_float_sample_rejected(self, tmp_path, value, channels, last):
        samples = np.linspace(-0.5, 0.5, 20 * channels).astype("<f4")
        index = samples.size - 1 if last else 0
        samples[index] = value
        path = tmp_path / "nonfinite.wav"
        _write_raw_wav(path, samples.tobytes(), fmt_code=3, channels=channels, bits=32)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "
                                              f"non-finite sample at index {index}$"):
            read_wav(path)

    @pytest.mark.parametrize("bits, fmt_code, size", [(16, 1, 3), (32, 3, 6),
                                                      (32, 3, 1)])
    def test_partial_sample_rejected(self, tmp_path, bits, fmt_code, size):
        path = tmp_path / "partial.wav"
        _write_raw_wav(path, b"\x01" * size, fmt_code=fmt_code, bits=bits)
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: data chunk of {size} bytes"):
            read_wav(path)

    def test_stereo_peak_is_file_plus_result(self, tmp_path):
        frames = 10 * 44100
        payload = np.random.default_rng(3).integers(
            -32768, 32768, 2 * frames).astype("<i2").tobytes()
        path = tmp_path / "long.wav"
        _write_raw_wav(path, payload, channels=2)
        tracemalloc.start()
        try:
            buf = read_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buf.samples.size == frames
        # The former form held a payload copy and two full float64 arrays.
        assert peak < len(payload) + buf.samples.nbytes * 1.1

    @pytest.mark.parametrize("offset, fmt, value, message", [
        (16, "<I", 8, "malformed fmt chunk"),
        (20, "<H", 6, "unsupported encoding"),
        (22, "<H", 3, "unsupported channel count 3"),
        (24, "<I", 0, "sample rate 0"),
    ])
    def test_corrupted_header_field(self, tmp_path, offset, fmt, value, message):
        path = tmp_path / "bad.wav"
        write_wav(path, AudioBuffer(np.zeros(8), 22050))
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}"):
            read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"OggS" + b"\x00" * 100)
        with pytest.raises(FormatError):
            read_wav(path)


class TestWriteWav:
    @staticmethod
    def _former_payload(samples):
        """The whole-signal conversion ``write_wav`` used before it went blockwise."""
        return np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()

    def test_bytes_equal_the_whole_signal_conversion(self, tmp_path, rng):
        # Two blocks and a tail; half-steps round to even; the ends clip.
        samples = rng.uniform(-1.2, 1.2, 2 * WAV_BLOCK_SAMPLES + 3)
        samples[:8] = [1.0, -1.0, 1.5, -1.5, 0.5 / 32768, 1.5 / 32768,
                       32767.5 / 32768, -32768.5 / 32768]
        path = tmp_path / "blocks.wav"
        write_wav(path, AudioBuffer(samples, 22050))
        data = path.read_bytes()
        assert data[44:] == self._former_payload(samples)
        assert struct.unpack_from("<I", data, 40)[0] == 2 * samples.size
        assert struct.unpack_from("<I", data, 4)[0] == 36 + 2 * samples.size

    def test_peak_memory_is_bounded_by_a_block(self, tmp_path):
        samples = np.random.default_rng(4).uniform(-1.0, 1.0, 30 * 44100)
        tracemalloc.start()
        try:
            write_wav(tmp_path / "long.wav", AudioBuffer(samples, 44100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The former form held three float64 copies of the samples.
        assert peak < 4 * WAV_BLOCK_SAMPLES * 8


class TestResample:
    def test_same_rate_is_identity(self, rng):
        buf = AudioBuffer(rng.standard_normal(1000), 44100)
        out = resample(buf, 44100)
        assert out.sample_rate == 44100
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_constant_preserved(self):
        buf = AudioBuffer(np.full(22050, 0.25), 22050)
        out = resample(buf, 44100)
        assert out.sample_rate == 44100
        assert out.samples.size == 44100
        assert np.all(out.samples == 0.25)

    def test_ramp_linear_interpolation(self):
        buf = AudioBuffer(np.array([0.0, 1.0, 2.0, 3.0]), 2)
        out = resample(buf, 4)
        np.testing.assert_array_equal(
            out.samples, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.0])

    def test_duration_preserved_within_one_period(self, rng):
        buf = AudioBuffer(rng.standard_normal(44100), 44100)
        for target in (8000, 22050, 48000, 96000):
            out = resample(buf, target)
            assert abs(out.duration - buf.duration) <= 1.0 / target

    def test_down_up_roundtrip_of_constant(self):
        buf = AudioBuffer(np.full(4410, -0.125), 44100)
        down = resample(buf, 22050)
        back = resample(down, 44100)
        assert back.sample_rate == 44100
        assert np.all(back.samples == -0.125)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            resample(AudioBuffer(np.zeros(10), 44100), 0)
