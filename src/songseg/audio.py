"""WAV ingestion and resampling.

Reads RIFF/WAVE files carrying 16-bit integer PCM or 32-bit float samples,
downmixes stereo to mono by channel mean, and resamples with linear
interpolation.  Higher-fidelity decoding and windowed-sinc resampling are
deliberately out of scope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .serialize import atomic_write

# Samples converted per step by write_wav.
WAV_BLOCK_SAMPLES = 1 << 16


@dataclass
class AudioBuffer:
    """Mono sample sequence plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioBuffer samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def read_wav(path) -> AudioBuffer:
    """Read a PCM WAV file into a mono :class:`AudioBuffer`.

    Supports 16-bit integer and 32-bit float encodings with 1 or 2
    channels.  16-bit samples are scaled by 1/32768; stereo is downmixed
    by the per-frame channel mean, ``(left + right) / 2``.  The payload is
    read in place from the file's bytes and converted once.

    Raises
    ------
    FormatError
        If the file is not a RIFF/WAVE container, uses an unsupported
        encoding, declares a sample rate of 0, holds a NaN or infinite
        float sample, or its data chunk is not a whole number of samples.
    OSError
        If the declared data payload is truncated.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data_span = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body_start + 16 > len(data):
                raise FormatError(f"{path}: malformed fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            if body_start + chunk_size > len(data):
                raise OSError(f"{path}: data chunk truncated "
                              f"({len(data) - body_start} of {chunk_size} bytes)")
            data_span = (body_start, chunk_size)
        # chunks are word-aligned
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt is None or data_span is None:
        raise FormatError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise FormatError(f"{path}: unsupported channel count {channels}")
    if sample_rate == 0:
        raise FormatError(f"{path}: sample rate 0")
    if audio_format == 1 and bits == 16:
        dtype, scale = "<i2", 32768.0
    elif audio_format == 3 and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise FormatError(
            f"{path}: unsupported encoding (format {audio_format}, {bits}-bit)"
        )
    offset, size = data_span
    if size % (bits // 8):
        raise FormatError(f"{path}: data chunk of {size} bytes is not a whole "
                          f"number of {bits}-bit samples")
    raw = np.frombuffer(data, dtype, size // (bits // 8), offset)
    if audio_format == 3 and not np.isfinite(raw).all():
        raise FormatError(f"{path}: non-finite sample at index "
                          f"{np.argmin(np.isfinite(raw))}")

    if channels == 2:
        if raw.size % 2:
            raise OSError(f"{path}: stereo payload has an odd sample count")
        # The channel mean's order, ((0.0 + left) + right) / 2, keeps it bit
        # for bit (-0.0 pairs give +0.0); scaling after the sum is exact.
        samples = np.zeros(raw.size // 2)
        samples += raw[0::2]
        samples += raw[1::2]
        scale *= 2.0
    else:
        samples = raw.astype(np.float64)
    if scale != 1.0:
        samples /= scale

    return AudioBuffer(samples=samples, sample_rate=sample_rate)


def write_wav(path, audio: AudioBuffer) -> None:
    """Write a mono AudioBuffer as a 16-bit PCM WAV, replacing ``path`` atomically.

    Samples are scaled by 32768, rounded and clipped to the 16-bit range
    ``WAV_BLOCK_SAMPLES`` at a time, so no whole-signal temporary is built.
    """
    size = 2 * audio.samples.size
    sr = audio.sample_rate
    header = b"".join([
        b"RIFF", struct.pack("<I", 36 + size), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16),
        b"data", struct.pack("<I", size),
    ])
    with atomic_write(path) as fh:
        fh.write(header)
        for start in range(0, audio.samples.size, WAV_BLOCK_SAMPLES):
            block = audio.samples[start : start + WAV_BLOCK_SAMPLES] * 32768.0
            np.round(block, out=block)
            np.clip(block, -32768, 32767, out=block)
            fh.write(block.astype("<i2").tobytes())


def resample(audio: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample by linear interpolation between source samples.

    Output duration matches the input within one sample period; positions
    past the last source sample clamp to it.  Equal rates return an exact
    copy.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == audio.sample_rate:
        return AudioBuffer(audio.samples.copy(), audio.sample_rate)

    n_in = audio.samples.size
    n_out = int(round(n_in * target_rate / audio.sample_rate))
    positions = np.arange(n_out) * (audio.sample_rate / target_rate)
    samples = np.interp(positions, np.arange(n_in), audio.samples)
    return AudioBuffer(samples=samples, sample_rate=target_rate)
