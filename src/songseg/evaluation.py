"""Tolerance-window boundary scoring.

A predicted boundary counts as a hit when it can be paired with a reference
boundary within the tolerance window, each side used at most once.  The
pairing is a maximum-cardinality matching, found by one pass over the two
sorted time lists; a nearest-first greedy pass is not maximum and can
under-count (see the tests).  Scores aggregate per track first; corpus
numbers are the mean and population standard deviation of per-track scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annotations import BoundarySet


@dataclass
class MatchResult:
    tp: int
    fp: int
    fn: int
    pairs: list = field(default_factory=list)  # [(ref_time, est_time), ...]


@dataclass
class ScoreReport:
    per_track: list  # [(precision, recall, f), ...]
    mean_precision: float
    mean_recall: float
    mean_f: float
    std_precision: float
    std_recall: float
    std_f: float
    beta: float
    tolerance: float


def match_boundaries(ref: BoundarySet, est: BoundarySet,
                     tolerance: float) -> MatchResult:
    """Maximum matching between reference and estimated boundaries."""
    return match_times(ref.times.tolist(), est.times.tolist(), tolerance)


def match_times(ref_times: list, est_times: list, tolerance: float) -> MatchResult:
    """Maximum matching between two sorted lists of times.

    A pair is a hit when ``abs(ref - est) <= tolerance``.  For one reference
    the estimates it accepts form a contiguous run of the sorted times, and
    both ends of the run only move right as the reference does, so pairing
    each reference in time order with the first free estimate of its run is
    maximum (an exchange argument).  Pairs come out sorted.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    pairs = []
    j = 0
    for r in ref_times:
        # estimates left of this window are left of every later one too
        while j < len(est_times) and r - est_times[j] > tolerance:
            j += 1
        if j < len(est_times) and abs(r - est_times[j]) <= tolerance:
            pairs.append((r, est_times[j]))
            j += 1
    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(est_times) - tp, fn=len(ref_times) - tp,
                       pairs=pairs)


def prf(m: MatchResult, beta: float = 1.0):
    """Precision, recall and F_beta; 0/0 cases are defined as 0."""
    p = m.tp / (m.tp + m.fp) if (m.tp + m.fp) else 0.0
    r = m.tp / (m.tp + m.fn) if (m.tp + m.fn) else 0.0
    denom = beta * beta * p + r
    f = (1.0 + beta * beta) * p * r / denom if denom else 0.0
    return p, r, f


def score_corpus(pairs, tolerance: float, beta: float = 1.0) -> ScoreReport:
    """Per-track scores plus their mean and population std.

    ``pairs`` is a list of ``(reference, estimate)`` boundary sets.  Note
    that averaging per-track F differs from computing F of the averaged
    precision/recall; the former is reported.
    """
    if not pairs:
        raise ValueError("need at least one (reference, estimate) pair")
    per_track = [prf(match_boundaries(ref, est, tolerance), beta)
                 for ref, est in pairs]
    arr = np.asarray(per_track, dtype=np.float64)
    means = arr.mean(axis=0)
    stds = arr.std(axis=0)  # population std: deterministic even for one track
    return ScoreReport(
        per_track=per_track,
        mean_precision=float(means[0]), mean_recall=float(means[1]),
        mean_f=float(means[2]),
        std_precision=float(stds[0]), std_recall=float(stds[1]),
        std_f=float(stds[2]),
        beta=beta, tolerance=tolerance,
    )


def report_csv_lines(report: ScoreReport, track_ids) -> list:
    lines = ["track,precision,recall,f_beta"]
    for tid, (p, r, f) in zip(track_ids, report.per_track):
        lines.append(f"{tid},{p:.6f},{r:.6f},{f:.6f}")
    lines.append(f"mean,{report.mean_precision:.6f},"
                 f"{report.mean_recall:.6f},{report.mean_f:.6f}")
    lines.append(f"std,{report.std_precision:.6f},"
                 f"{report.std_recall:.6f},{report.std_f:.6f}")
    return lines


def format_score_table(reports, label) -> str:
    """Aligned text table of corpus scores, one row per tolerance.

    Columns: label, tolerance, P, R, then ``F<beta> (std)`` per beta.
    """
    betas = list(dict.fromkeys(f"F{rep.beta:g} (std)" for rep in reports))
    header = ["Input", "Tol.", "P", "R", *betas]
    rows = [header]
    by_tolerance = {}
    for rep in reports:
        by_tolerance.setdefault(rep.tolerance, {})[f"F{rep.beta:g} (std)"] = rep
    for tol, cells in by_tolerance.items():
        any_rep = next(iter(cells.values()))
        row = [label, f"±{tol:g}s",
               f"{any_rep.mean_precision:.3f}", f"{any_rep.mean_recall:.3f}"]
        for tag in betas:
            rep = cells.get(tag)
            row.append(f"{rep.mean_f:.3f} ({rep.std_f:.3f})" if rep else "-")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
