"""Synthetic desk-scale corpus with known boundaries.

Each track is a concatenation of segments rendered from a small bank of
contrasting recipes: band-limited noise bursts and harmonic stacks.
Adjacent segments always come from different recipe families and have
spectral centroids far enough apart that both timbre and harmony features
see the junction.  Boundary times follow from exact sample counts, so the
ground truth is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import BoundarySet
from .audio import AudioBuffer

SEGMENT_RMS = 0.12

# (recipe id, family, approximate spectral centroid in Hz). Noise recipes
# are flat in the given band; harmonic recipes stack six partials with 1/k
# amplitudes above the given fundamental.
NOISE_RECIPES = (
    ("noise-low", 150.0, 450.0),
    ("noise-mid", 600.0, 1200.0),
    ("noise-high", 1800.0, 3200.0),
    ("noise-top", 4500.0, 8000.0),
)
HARMONIC_RECIPES = (
    ("harm-a2", 110.0),
    ("harm-g3", 196.0),
    ("harm-d4", 294.0),
    ("harm-a4", 440.0),
)
N_PARTIALS = 6

# Minimum centroid gap enforced between adjacent segments.
CENTROID_MARGIN_HZ = 400.0


@dataclass
class SyntheticTrack:
    audio: AudioBuffer
    boundaries: BoundarySet
    segment_specs: list  # [(duration_seconds, recipe_id), ...]


def _recipe_centroid(recipe_id: str) -> float:
    for rid, lo, hi in NOISE_RECIPES:
        if rid == recipe_id:
            return (lo + hi) / 2.0
    for rid, f0 in HARMONIC_RECIPES:
        if rid == recipe_id:
            amps = 1.0 / np.arange(1, N_PARTIALS + 1)
            freqs = f0 * np.arange(1, N_PARTIALS + 1)
            return float((freqs * amps).sum() / amps.sum())
    raise ValueError(f"unknown recipe {recipe_id!r}")


def _render_noise(recipe_id: str, n: int, sr: int, rng) -> np.ndarray:
    lo, hi = next((l, h) for rid, l, h in NOISE_RECIPES if rid == recipe_id)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spectrum, n)


def _render_harmonic(recipe_id: str, n: int, sr: int, rng) -> np.ndarray:
    f0 = next(f for rid, f in HARMONIC_RECIPES if rid == recipe_id)
    t = np.arange(n) / sr
    out = np.zeros(n)
    for k in range(1, N_PARTIALS + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += np.sin(2.0 * np.pi * k * f0 * t + phase) / k
    return out


def _render_segment(recipe_id: str, n: int, sr: int, rng) -> np.ndarray:
    if recipe_id.startswith("noise"):
        x = _render_noise(recipe_id, n, sr, rng)
    else:
        x = _render_harmonic(recipe_id, n, sr, rng)
    rms = np.sqrt(np.mean(x * x))
    if rms > 0:
        x = x * (SEGMENT_RMS / rms)
    return x


def _pick_recipes(n_segments: int, rng) -> list:
    """Alternate noise/harmonic recipes with well-separated centroids."""
    noise_ids = [rid for rid, _, _ in NOISE_RECIPES]
    harm_ids = [rid for rid, _ in HARMONIC_RECIPES]
    start_with_noise = bool(rng.integers(0, 2))
    picks = []
    for i in range(n_segments):
        pool = noise_ids if (i % 2 == 0) == start_with_noise else harm_ids
        if picks:
            prev_c = _recipe_centroid(picks[-1])
            pool = [rid for rid in pool
                    if abs(_recipe_centroid(rid) - prev_c) >= CENTROID_MARGIN_HZ]
        picks.append(pool[rng.integers(0, len(pool))])
    return picks


def synth_corpus(
    seed: int,
    n_tracks: int,
    segments_per_track=(2, 4),
    segment_duration=(8.0, 14.0),
    sr: int = 44100,
) -> list:
    """Generate ``n_tracks`` deterministic synthetic tracks.

    ``segments_per_track`` and ``segment_duration`` are inclusive
    ``(low, high)`` ranges.  The same seed always produces byte-identical
    audio.
    """
    if n_tracks < 1:
        raise ValueError("n_tracks must be >= 1")
    s_lo, s_hi = segments_per_track
    d_lo, d_hi = segment_duration
    if s_lo > s_hi or d_lo > d_hi or s_lo < 1 or d_lo <= 0:
        raise ValueError("empty segment count or duration range")

    rng = np.random.default_rng(seed)
    tracks = []
    for _ in range(n_tracks):
        n_segments = int(rng.integers(s_lo, s_hi + 1))
        recipes = _pick_recipes(n_segments, rng)
        durations = rng.uniform(d_lo, d_hi, size=n_segments)
        pieces = []
        sample_counts = []
        specs = []
        for recipe_id, dur in zip(recipes, durations):
            n = int(round(dur * sr))
            pieces.append(_render_segment(recipe_id, n, sr, rng))
            sample_counts.append(n)
            specs.append((n / sr, recipe_id))
        samples = np.concatenate(pieces)
        junctions = np.cumsum(sample_counts)[:-1] / sr
        tracks.append(
            SyntheticTrack(
                audio=AudioBuffer(samples=samples, sample_rate=sr),
                boundaries=BoundarySet(junctions),
                segment_specs=specs,
            )
        )
    return tracks
