"""Synthetic desk-scale corpus with known boundaries.

Each track is a concatenation of segments rendered from a small bank of
contrasting recipes: band-limited noise bursts and harmonic stacks.
Adjacent segments always come from different recipe families and have
spectral centroids far enough apart that both timbre and harmony features
see the junction.  Boundary times follow from exact sample counts, so the
ground truth is exact.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
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


def _render_noise(recipe_id: str, sr: int, white: np.ndarray) -> np.ndarray:
    lo, hi = next((l, h) for rid, l, h in NOISE_RECIPES if rid == recipe_id)
    n = white.size
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / sr)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spectrum, n)


def _render_harmonic(recipe_id: str, sr: int, n: int, phases) -> np.ndarray:
    f0 = next(f for rid, f in HARMONIC_RECIPES if rid == recipe_id)
    t = np.arange(n) / sr
    out = np.zeros(n)
    for k, phase in enumerate(phases, start=1):
        out += np.sin(2.0 * np.pi * k * f0 * t + phase) / k
    return out


def _render_segment(recipe_id: str, sr: int, draws, out: np.ndarray) -> None:
    """Render one segment into ``out`` from its random draws: the white
    noise of a noise recipe, or the partials' phases of a harmonic one."""
    if recipe_id.startswith("noise"):
        x = _render_noise(recipe_id, sr, draws)
    else:
        x = _render_harmonic(recipe_id, sr, out.size, draws)
    rms = np.sqrt(np.mean(x * x))
    if rms > 0:
        x = x * (SEGMENT_RMS / rms)
    out[:] = x


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_jobs: list = []  # a pool worker's jobs, inherited from the caller through fork


def _keep_jobs(jobs: list) -> None:
    global _jobs
    _jobs = jobs


def _render_job(i: int) -> None:
    _render_segment(*_jobs[i])


def _render_all(jobs: list) -> None:
    """Render every ``(recipe_id, sr, draws, out)`` job into its ``out``.

    Rendering is a pure function of the draws, so the samples do not depend
    on where it runs: in one worker process per available CPU, or in this
    process when one worker would do or when this process is daemonic and
    may not start children.  The workers are forked with the job list, so
    each ``out`` they write is the caller's shared mapping, not a pickled
    copy, and nothing but job indices crosses a pipe.  A job that raises
    re-raises in the caller; a worker that dies raises ``BrokenProcessPool``.
    """
    n_workers = min(_cpu_count(), len(jobs))
    if n_workers < 2 or mp.current_process().daemon:
        for job in jobs:
            _render_segment(*job)
        return
    with ProcessPoolExecutor(n_workers, mp_context=mp.get_context("fork"),
                             initializer=_keep_jobs, initargs=(jobs,)) as pool:
        list(pool.map(_render_job, range(len(jobs))))


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
    audio, whatever the number of CPUs: this process draws every random
    value in one stream, and worker processes only render segments from
    those values (see ``_render_all``).
    """
    if n_tracks < 1:
        raise ValueError("n_tracks must be >= 1")
    s_lo, s_hi = segments_per_track
    d_lo, d_hi = segment_duration
    if not (1 <= s_lo <= s_hi and 0 < d_lo <= d_hi < math.inf):
        raise ValueError(f"segment count range ({s_lo}, {s_hi}) or duration range "
                         f"({d_lo}, {d_hi}) s is empty or not finite")
    if round(d_lo * sr) < 1:
        raise ValueError(f"segment duration range ({d_lo}, {d_hi}) s is shorter "
                         f"than one sample at sr={sr} Hz")

    rng = np.random.default_rng(seed)
    tracks = []
    jobs = []
    for _ in range(n_tracks):
        n_segments = int(rng.integers(s_lo, s_hi + 1))
        recipes = _pick_recipes(n_segments, rng)
        durations = rng.uniform(d_lo, d_hi, size=n_segments)
        sample_counts = [int(round(dur * sr)) for dur in durations]
        # Shared with the forked renderers, which write into it in place.
        samples = np.frombuffer(mmap.mmap(-1, 8 * sum(sample_counts)))
        start = 0
        for recipe_id, n in zip(recipes, sample_counts):
            out = samples[start : start + n]
            if recipe_id.startswith("noise"):
                draws = rng.standard_normal(out=out)
            else:
                draws = rng.uniform(0.0, 2.0 * np.pi, size=N_PARTIALS)
            jobs.append((recipe_id, sr, draws, out))
            start += n
        junctions = np.cumsum(sample_counts)[:-1] / sr
        tracks.append(
            SyntheticTrack(
                audio=AudioBuffer(samples=samples, sample_rate=sr),
                boundaries=BoundarySet(junctions),
                segment_specs=[(n / sr, rid)
                               for rid, n in zip(recipes, sample_counts)],
            )
        )
    _render_all(jobs)
    return tracks
