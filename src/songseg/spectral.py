"""Spectral front end: STFT magnitudes, mel-log spectrogram, chroma, pooling.

All features are returned as :class:`FeatureMatrix` values, a 2-D array of
shape ``(bins, frames)`` plus the time-axis metadata (seconds per frame,
accumulated pool factor, number of prepended padding frames) that later
stages need to convert frames back to seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputTooShortError

if TYPE_CHECKING:
    from .audio import AudioBuffer
    from .params import PipelineParams

FEATURE_KINDS = ("stft_mag", "mls", "chroma", "sslm", "net_input")
# Frames windowed and transformed per step of the STFT: bounds its
# temporaries to a few MB instead of several copies of the whole signal.
STFT_BLOCK_FRAMES = 128


@dataclass
class FeatureMatrix:
    """2-D feature array ``(bins, frames)`` with time-axis metadata."""

    values: np.ndarray
    hop_seconds: float
    pool_factor: int = 1
    pad_frames: int = 0
    kind: str = "mls"

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError("FeatureMatrix values must be 2-D (bins x frames)")
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")

    @property
    def n_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def stft_magnitude(audio: AudioBuffer, params: PipelineParams) -> FeatureMatrix:
    """Hann-windowed STFT magnitude, no center padding.

    Frames start at the window start, so frame ``i`` covers samples
    ``[i*hop, i*hop + window)`` and the frame count is
    ``(len - window)//hop + 1``.
    """
    if audio.sample_rate != params.sr:
        raise ValueError(
            f"audio at {audio.sample_rate} Hz, pipeline expects {params.sr} Hz"
        )
    n = audio.samples.size
    if n < params.window:
        raise InputTooShortError(
            f"need at least {params.window} samples for one window, got {n}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(audio.samples, params.window)
    frames = frames[:: params.hop]
    hann = np.hanning(params.window)
    # Filled frame-major and returned transposed, so the mel and chroma
    # products see the layout they always had (BLAS rounding depends on it).
    mag = np.empty((frames.shape[0], params.window // 2 + 1))
    for start in range(0, frames.shape[0], STFT_BLOCK_FRAMES):
        block = frames[start : start + STFT_BLOCK_FRAMES] * hann
        np.abs(np.fft.rfft(block, axis=1), out=mag[start : start + STFT_BLOCK_FRAMES])
    return FeatureMatrix(
        values=mag.T,
        hop_seconds=params.base_hop_seconds,
        kind="stft_mag",
    )


def mel_filterbank(params: PipelineParams) -> np.ndarray:
    """Triangular unit-peak mel filters sampled at the STFT bin frequencies.

    Centers are equally spaced on the HTK mel scale between ``fmin`` and
    ``fmax``; shape is ``(n_mels, window//2 + 1)``.
    """
    edges = mel_to_hz(
        np.linspace(hz_to_mel(params.fmin), hz_to_mel(params.fmax), params.n_mels + 2)
    )
    bin_freqs = np.arange(params.window // 2 + 1) * params.sr / params.window
    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs[None, :] - lower) / (center - lower)
    falling = (upper - bin_freqs[None, :]) / (upper - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_log_spectrogram(audio: AudioBuffer, params: PipelineParams,
                        stft: FeatureMatrix = None) -> FeatureMatrix:
    """Mel-band energies in dB with a hard floor at ``params.floor_db``.

    ``stft`` is the STFT magnitude of ``audio`` when the caller already
    holds it; otherwise it is computed here.  Silence maps exactly to the
    floor: energies at or below the linear floor amplitude are assigned
    ``floor_db`` rather than passed through the logarithm.
    """
    if stft is None:
        stft = stft_magnitude(audio, params)
    elif stft.kind != "stft_mag":
        raise ValueError(f"mel projection expects stft_mag input, got {stft.kind!r}")
    mel = mel_filterbank(params) @ stft.values
    floor = params.floor_amplitude
    db = np.full(mel.shape, params.floor_db)
    above = mel > floor
    db[above] = 20.0 * np.log10(mel[above])
    np.maximum(db, params.floor_db, out=db)
    return FeatureMatrix(values=db, hop_seconds=stft.hop_seconds, kind="mls")


def chroma_filterbank(params: PipelineParams) -> np.ndarray:
    """Binary map from STFT bins to the 12 pitch classes, rows C..B.

    Every bin above DC is assigned to the pitch class of its nearest
    equal-tempered pitch (A4 = 440 Hz), which makes the projection
    octave-invariant by construction.
    """
    n_bins = params.window // 2 + 1
    fb = np.zeros((12, n_bins))
    freqs = np.arange(1, n_bins) * params.sr / params.window
    midi = 69.0 + 12.0 * np.log2(freqs / 440.0)
    classes = np.round(midi).astype(int) % 12
    fb[classes, np.arange(1, n_bins)] = 1.0
    return fb


def chroma_project(stft: FeatureMatrix, params: PipelineParams) -> FeatureMatrix:
    """Sum STFT magnitudes into 12 pitch-class rows (C, C#, ..., B)."""
    if stft.kind != "stft_mag":
        raise ValueError(f"chroma projection expects stft_mag input, got {stft.kind!r}")
    values = chroma_filterbank(params) @ stft.values
    return replace(stft, values=values, kind="chroma")


def max_pool_time(m: FeatureMatrix, factor: int) -> FeatureMatrix:
    """Element-wise max over blocks of ``factor`` frames (ceil mode).

    The ragged tail pools over however many frames remain, so no
    end-of-signal content is dropped.  Time metadata is rescaled and any
    prepended padding count is floor-divided.  The result is a new
    C-ordered float64 array (the chroma product rounds by layout).
    """
    if factor < 1:
        raise ValueError("pool factor must be >= 1")
    pooled = np.empty((m.n_bins, -(-m.n_frames // factor)))
    _max_pool_into(pooled, m.values, factor)
    return replace(
        m,
        values=pooled,
        hop_seconds=m.hop_seconds * factor,
        pool_factor=m.pool_factor * factor,
        pad_frames=m.pad_frames // factor,
    )


def _max_pool_into(out: np.ndarray, values: np.ndarray, factor: int) -> None:
    """Write the ceil-mode time max-pool of ``values`` into ``out``.

    ``out`` holds ``ceil(frames / factor)`` columns.  Complete blocks take a
    running maximum over the frames at each offset, in frame order as a
    reduction over each block would; the ragged tail is reduced directly.
    """
    if factor == 1:
        out[...] = values
        return
    n = values.shape[1]
    n_full = n // factor
    end = n_full * factor
    full = out[:, :n_full]
    np.maximum(values[:, 0:end:factor], values[:, 1:end:factor], out=full)
    for offset in range(2, factor):
        np.maximum(full, values[:, offset:end:factor], out=full)
    if end < n:
        values[:, end:].max(axis=1, out=out[:, n_full])
