"""From logit curves to boundary predictions.

Peak picking finds runs of equal values in one vectorized pass and keeps
those above their neighbours and a threshold, then takes them strongest
first, each kept peak blocking the frames within six seconds of it in a
per-frame mask.  The threshold sweep splits the grid with one
``searchsorted`` per curve into segments that keep the same peaks, matches
each segment once, averages the per-track scores at every threshold and
reports the best-scoring one.  Outputs equal the frame-by-frame loop
references in ``tests/oracles.py`` bit for bit.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .annotations import BoundarySet
from .evaluation import match_times, prf
from .errors import FormatError
from .layers import sigmoid
from .serialize import read_lines, write_text

SUPPRESSION_SECONDS = 6.0
SWEEP_STEP = 0.005
SWEEP_CSV_HEADER = "threshold,precision,recall,f_beta"


@dataclass
class PredictionCurve:
    """Per-frame boundary probabilities for one padded network input."""

    probs: np.ndarray
    frame_rate: float
    pad_frames: int


def from_logits(logits, frame_rate: float, pad_frames: int) -> PredictionCurve:
    probs = sigmoid(np.asarray(logits, dtype=np.float64))
    return PredictionCurve(probs=probs, frame_rate=frame_rate, pad_frames=pad_frames)


def _peak_frames(probs: np.ndarray) -> np.ndarray:
    """First frames of the runs of equal values whose neighbours are lower.

    One comparison of each frame with the next splits the curve into runs;
    a run is a peak when every existing neighbouring run is strictly lower,
    and a run spanning the whole curve is not a peak.  NaN equals nothing,
    so each NaN is a run of its own that is never a peak nor lower.
    """
    new_run = np.empty(probs.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(probs[1:], probs[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    if starts.size < 2:  # an empty curve or a single run spanning it
        return starts[:0]
    values = probs[starts]
    peak = np.empty(starts.size, dtype=bool)
    peak[0] = True
    np.less(values[:-1], values[1:], out=peak[1:])  # the left run is lower
    peak[:-1] &= values[1:] < values[:-1]  # and so is the right one
    return starts[peak]


def pick_peaks(curve: PredictionCurve, threshold: float) -> BoundarySet:
    """Thresholded peak picking with six-second non-maximum suppression.

    Candidates are taken strongest first (a stable sort, so on ties the
    earlier frame wins) and kept unless a kept peak lies within six seconds.
    Frames are integers, so ``|f - a| < gap`` exactly when ``|f - a| <=
    ceil(gap) - 1``: each kept peak blocks that reach on both sides in a
    per-frame mask, and each candidate is one lookup in it.  A gap longer
    than the curve, or NaN, blocks the whole curve (only the strongest peak
    is kept); a gap of at most one frame blocks no other frame.  A weaker
    candidate never displaces a stronger one, so the peaks kept at a higher
    threshold are exactly those kept at a lower one whose probability
    reaches it.  Kept frames convert to seconds relative to the padding
    offset; negative times are dropped.
    """
    probs = curve.probs
    candidates = _peak_frames(probs)
    candidates = candidates[probs[candidates] >= threshold]
    candidates = candidates[np.argsort(-probs[candidates], kind="stable")]
    gap = SUPPRESSION_SECONDS * curve.frame_rate
    reach = probs.size if not gap <= probs.size else math.ceil(max(gap, 1.0)) - 1
    # frame f is blocked[f + reach]; a peak kept at f blocks f - reach .. f + reach
    span = b"\1" * (2 * reach + 1)
    blocked = bytearray(probs.size + len(span) - 1)
    accepted = []
    for f in candidates.tolist():
        if not blocked[f + reach]:
            accepted.append(f)
            blocked[f : f + len(span)] = span
    times = [(f - curve.pad_frames) / curve.frame_rate for f in accepted]
    return BoundarySet([t for t in times if t >= 0.0])


@dataclass
class SweepRow:
    threshold: float
    precision: float
    recall: float
    f_score: float


def sweep_threshold(pairs, tolerance: float = 0.5, beta: float = 1.0):
    """Score every threshold on a grid over [0, 1] and return the optimum.

    ``pairs`` is a list of ``(PredictionCurve, BoundarySet)`` items.  Returns
    ``(best_threshold, rows)`` where rows hold mean precision/recall/F per
    threshold, as :func:`score_corpus` reports them for the peaks
    :func:`pick_peaks` keeps there; ties on F go to the smallest threshold.

    Peaks are picked once per curve at threshold 0; each threshold keeps
    those whose probability reaches it.  With the peak probabilities sorted,
    ``ends = searchsorted(grid, probs, side="right")`` makes grid points
    ``[0, ends[j])`` keep peak ``j``, so once the peaks from the strongest
    down to ``j`` are added, the segment ``[ends[j - 1], ends[j])`` (from 0
    for the weakest) keeps exactly them: each non-empty segment is matched
    once and its row added to all of it.  A threshold keeping no peak would
    add zeros.  Rows are summed in track order and divided, as
    ``score_corpus``'s mean.
    """
    if not pairs:
        raise ValueError("need at least one (curve, reference) pair")
    grid = np.arange(int(round(1.0 / SWEEP_STEP)) + 1) * SWEEP_STEP
    total = np.zeros((grid.size, 3))
    for curve, ref in pairs:
        peaks = pick_peaks(curve, 0.0)
        # each peak's frame, recovered from its time, gives its probability
        frames = np.rint(peaks.times * curve.frame_rate).astype(int) + curve.pad_frames
        probs = curve.probs[frames]
        order = np.argsort(probs)
        ends = np.searchsorted(grid, probs[order], side="right").tolist()
        refs, times, kept = ref.times.tolist(), peaks.times[order].tolist(), []
        for j in reversed(range(len(ends))):
            insort(kept, times[j])
            start = ends[j - 1] if j else 0
            if start < ends[j]:
                total[start : ends[j]] += prf(match_times(refs, kept, tolerance), beta)
    means = total / len(pairs)
    best = int(np.argmax(means[:, 2]))  # the first maximum
    return grid[best].item(), list(map(SweepRow, grid.tolist(), *means.T.tolist()))


def write_sweep_csv(path, rows) -> None:
    write_text(path, [SWEEP_CSV_HEADER] + [
        f"{r.threshold:.3f},{r.precision:.6f},{r.recall:.6f},{r.f_score:.6f}"
        for r in rows])


def read_sweep_csv(path) -> list:
    """Rows of a file written by :func:`write_sweep_csv`.

    A wrong header or a row that is not four numbers raises
    :class:`FormatError` prefixed ``path:line:``.
    """
    lines = read_lines(path)
    if next(lines, (1, None))[1] != SWEEP_CSV_HEADER:
        raise FormatError(f"{path}:1: expected the header {SWEEP_CSV_HEADER!r}")
    rows = []
    for number, line in lines:
        try:  # a wrong field count is a TypeError
            rows.append(SweepRow(*map(float, line.split(","))))
        except (TypeError, ValueError):
            raise FormatError(f"{path}:{number}: expected four numbers, "
                              f"got {line!r}") from None
    return rows
