"""From logit curves to boundary predictions.

Peak picking finds runs of equal values in one vectorized pass and keeps
those above their neighbours and a threshold, then greedily suppresses any
peak within six seconds of a stronger one, comparing each candidate with
the nearest accepted peak on either side.  The threshold sweep counts the
peaks each curve keeps at every threshold with one ``searchsorted``,
matches each curve once per distinct count, averages the per-track scores
at every threshold and reports the best-scoring one.  Outputs equal the
frame-by-frame loop references in ``tests/oracles.py`` bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
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
    starts = np.flatnonzero(np.concatenate(([True], probs[1:] != probs[:-1])))
    if starts.size < 2:  # an empty curve or a single run spanning it
        return starts[:0]
    values = probs[starts]
    left_lower = np.concatenate(([True], values[:-1] < values[1:]))
    right_lower = np.concatenate((values[1:] < values[:-1], [True]))
    return starts[left_lower & right_lower]


def pick_peaks(curve: PredictionCurve, threshold: float) -> BoundarySet:
    """Thresholded peak picking with six-second non-maximum suppression.

    Candidates are processed strongest-first (a stable sort, so on ties the
    earlier frame wins) and accepted only when no already-accepted peak lies
    within six seconds.  The accepted frames are kept sorted, so a bisection
    finds the nearest one on each side and only those two are compared:
    O(C log A) for C candidates and A accepted peaks.  A weaker candidate
    never displaces a stronger one, so the peaks kept at a higher threshold
    are exactly those kept at a lower one whose probability reaches it.
    Accepted frames convert to seconds relative to the padding offset;
    negative times are dropped.
    """
    probs = curve.probs
    candidates = _peak_frames(probs)
    candidates = candidates[probs[candidates] >= threshold]
    candidates = candidates[np.argsort(-probs[candidates], kind="stable")]
    accepted = []
    min_gap = SUPPRESSION_SECONDS * curve.frame_rate
    for f in candidates.tolist():
        i = bisect_left(accepted, f)
        if ((i == 0 or f - accepted[i - 1] >= min_gap)
                and (i == len(accepted) or accepted[i] - f >= min_gap)):
            accepted.insert(i, f)
    times = [(f - curve.pad_frames) / curve.frame_rate for f in accepted]
    return BoundarySet(t for t in times if t >= 0.0)


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
    those whose probability reaches it.  One ``searchsorted`` of the grid
    into a curve's sorted peak probabilities counts the peaks it keeps at
    every threshold, and each distinct count is matched once.  Per-track
    scores are summed in track order and divided, as ``score_corpus``'s mean.
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
        counts = probs.size - np.searchsorted(np.sort(probs), grid, side="left")
        _, first, which = np.unique(counts, return_index=True, return_inverse=True)
        refs = ref.times.tolist()
        table = [prf(match_times(refs, peaks.times[probs >= t].tolist(), tolerance), beta)
                 for t in grid[first].tolist()]
        total += np.asarray(table)[which]
    means = total / len(pairs)
    best = int(np.argmax(means[:, 2]))  # the first maximum
    return grid[best].item(), [SweepRow(t, *row)
                               for t, row in zip(grid.tolist(), means.tolist())]


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
