"""Boundary annotations: parsing, Gaussian target curves, dataset splits.

Reference boundaries come from tab-separated ``seconds<TAB>label`` text
files (one section start per line); the first entry of every file is
discarded because it marks the start of the piece rather than a structural
transition.  Training targets are per-frame curves with a unit-height
Gaussian bump at each boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .serialize import read_lines, write_text

# Boundaries closer than this are considered duplicates.
DUPLICATE_EPS = 1e-9

# Gaussian bump width, in seconds, around each boundary.
TARGET_SIGMA_SECONDS = 0.1


class BoundarySet:
    """Sorted, deduplicated boundary times in seconds."""

    __slots__ = ("times",)

    def __init__(self, times=()):
        arr = np.sort(np.asarray(list(times), dtype=np.float64))
        if arr.size:
            keep = np.ones(arr.size, dtype=bool)
            keep[1:] = np.diff(arr) > DUPLICATE_EPS
            arr = arr[keep]
            if arr[0] < 0:
                raise ValueError("boundary times must be non-negative")
        self.times = arr

    def __len__(self):
        return self.times.size

    def __iter__(self):
        return iter(self.times)

    def __eq__(self, other):
        if not isinstance(other, BoundarySet):
            return NotImplemented
        return self.times.shape == other.times.shape and bool(
            np.all(self.times == other.times)
        )

    def __repr__(self):
        return f"BoundarySet({self.times.tolist()!r})"


@dataclass
class TargetCurve:
    """Per-frame training target in [0, 1], aligned to a padded net input."""

    values: np.ndarray
    frame_rate: float
    pad_frames: int


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)
    validation: list = field(default_factory=list)
    test: list = field(default_factory=list)


def parse_functions_file(path) -> BoundarySet:
    """Parse a ``seconds<TAB>label`` file, dropping the first (start) entry.

    Lines are sorted and deduplicated before the first is removed, so input
    ordering does not matter.  A malformed, non-finite or negative time token
    raises :class:`FormatError` naming the line.
    """
    times = [_parse_time(line.split("\t", 1)[0].split()[0], path, lineno)
             for lineno, line in read_lines(path) if line]
    canonical = BoundarySet(times)
    return BoundarySet(canonical.times[1:])


def write_functions_file(path, boundaries: BoundarySet) -> None:
    """Write boundaries in the annotation format, prefixed with a 0.0 start line.

    Parsing the result recovers ``boundaries`` exactly (the synthetic start
    line is the entry the parser drops).
    """
    write_text(path, ["0.0\tstart"] + [f"{float(t)!r}\tsegment{i}"
                                       for i, t in enumerate(boundaries, start=1)])


def read_boundary_file(path) -> BoundarySet:
    """Read plain predicted boundaries, one time in seconds per line.

    A malformed, non-finite or negative time raises :class:`FormatError`
    naming the line.
    """
    return BoundarySet(_parse_time(line, path, lineno)
                       for lineno, line in read_lines(path) if line)


def _parse_time(token: str, path, lineno: int) -> float:
    """A finite time >= 0 in seconds, or :class:`FormatError` at ``path:lineno``."""
    try:
        t = float(token)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: cannot parse time from {token!r}") from None
    if not math.isfinite(t):
        raise FormatError(f"{path}:{lineno}: time {token!r} is not finite")
    if t < 0:
        raise FormatError(f"{path}:{lineno}: time {token!r} is negative")
    return t


def write_boundary_file(path, boundaries: BoundarySet) -> None:
    write_text(path, (repr(float(t)) for t in boundaries))


def to_target_curve(
    boundaries: BoundarySet, n_frames: int, frame_rate: float, gamma: int
) -> TargetCurve:
    """Gaussian target curve over ``n_frames`` padded frames.

    Each boundary lands on frame ``round(t * frame_rate) + gamma`` with a
    unit-height Gaussian of width ``0.1 s * frame_rate`` frames; overlapping
    bumps combine by maximum so the curve stays in [0, 1].  Boundaries past
    the unpadded content are dropped with a warning.
    """
    values = np.zeros(n_frames)
    if n_frames == 0:
        return TargetCurve(values=values, frame_rate=frame_rate, pad_frames=gamma)
    sigma = TARGET_SIGMA_SECONDS * frame_rate
    content_frames = n_frames - 2 * gamma
    frames = np.arange(n_frames, dtype=np.float64)
    for t in boundaries:
        center = int(round(t * frame_rate))
        if center > content_frames:
            warnings.warn(
                f"boundary at {t:.3f}s lies beyond the track content; dropped",
                stacklevel=2,
            )
            continue
        mu = center + gamma
        bump = np.exp(-((frames - mu) ** 2) / (2.0 * sigma * sigma))
        np.maximum(values, bump, out=values)
    return TargetCurve(values=values, frame_rate=frame_rate, pad_frames=gamma)


def split_dataset(track_ids, seed: int) -> DatasetSplit:
    """Deterministic 65/15/20 split.

    Track ids are sorted, shuffled by ``seed``, and cut at
    ``floor(0.65 n)`` / ``floor(0.15 n)``; the remainder goes to the test
    split.  Every split is kept non-empty (for tiny corpora the validation
    split takes one track back from test).
    """
    ids = sorted(track_ids)
    n = len(ids)
    if n < 3:
        raise ValueError("need at least 3 tracks to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [ids[i] for i in order]

    n_train = int(n * 0.65)
    n_val = int(n * 0.15)
    if n_val == 0:
        n_val = 1
    train = shuffled[:n_train]
    val = shuffled[n_train : n_train + n_val]
    test = shuffled[n_train + n_val :]
    return DatasetSplit(train=train, validation=val, test=test)


def save_split_manifest(path, split: DatasetSplit) -> None:
    """Write ``track_id<TAB>{train|val|test}`` lines."""
    buckets = {"train": split.train, "val": split.validation, "test": split.test}
    write_text(path, (f"{tid}\t{name}" for name, ids in buckets.items() for tid in ids))


def load_split_manifest(path) -> DatasetSplit:
    split = DatasetSplit()
    buckets = {"train": split.train, "val": split.validation, "test": split.test}
    listed = {}  # track -> the line that lists it
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in buckets:
            raise FormatError(f"{path}:{lineno}: expected 'id<TAB>train|val|test'")
        if listed.setdefault(parts[0], lineno) != lineno:
            raise FormatError(f"{path}:{lineno}: track {parts[0]!r} is already "
                              f"listed on line {listed[parts[0]]}")
        buckets[parts[1]].append(parts[0])
    return split
