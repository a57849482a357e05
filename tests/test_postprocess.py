import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg import evaluation, postprocess
from songseg.annotations import BoundarySet
from songseg.evaluation import score_corpus
from songseg.postprocess import (SUPPRESSION_SECONDS, SWEEP_STEP, PredictionCurve,
                                 SweepRow, _peak_frames, from_logits, pick_peaks,
                                 read_sweep_csv, sweep_threshold, write_sweep_csv)

from oracles import (accepted_frames_loop, peak_frames_loop, pick_peaks_loop,
                     sweep_threshold_loop)

FRAME_RATE = 44100 / (1024 * 6)
GAMMA = 50


def _curve(probs, frame_rate=FRAME_RATE, pad=GAMMA):
    return PredictionCurve(probs=np.asarray(probs, dtype=np.float64),
                           frame_rate=frame_rate, pad_frames=pad)


def _spiky(length, peaks):
    """Curve with isolated single-frame peaks: {frame: height}."""
    probs = np.zeros(length)
    for frame, height in peaks.items():
        probs[frame] = height
        probs[frame - 1] = max(probs[frame - 1], height / 4)
        probs[frame + 1] = max(probs[frame + 1], height / 4)
    return _curve(probs)


class TestPickPeaks:
    def test_all_zero_curve(self):
        assert len(pick_peaks(_curve(np.zeros(200)), 0.0)) == 0

    def test_suppression_keeps_strongest_within_six_seconds(self):
        curve = _spiky(200, {60: 0.4, 70: 0.3})
        out = pick_peaks(curve, 0.2)
        assert len(out) == 1
        assert out.times[0] == pytest.approx((60 - GAMMA) / FRAME_RATE)
        assert out.times[0] == pytest.approx(1.3931972789115646, abs=1e-12)

    def test_far_peaks_both_kept(self):
        curve = _spiky(200, {60: 0.4, 110: 0.3})  # 50 frames ~ 7 s apart
        out = pick_peaks(curve, 0.2)
        assert len(out) == 2

    def test_threshold_one_empties(self):
        curve = _spiky(200, {60: 0.97, 120: 0.9})
        assert len(pick_peaks(curve, 1.0)) == 0

    def test_negative_times_dropped(self):
        curve = _spiky(200, {30: 0.9})  # frame 30 < pad of 50
        assert len(pick_peaks(curve, 0.1)) == 0

    def test_plateau_counts_once_at_first_frame(self):
        probs = np.zeros(150)
        probs[80:84] = 0.6
        out = pick_peaks(_curve(probs), 0.5)
        assert len(out) == 1
        assert out.times[0] == pytest.approx((80 - GAMMA) / FRAME_RATE)

    def test_output_sorted_with_minimum_gap(self, rng):
        probs = np.clip(rng.uniform(0, 1, 600), 0, 1)
        out = pick_peaks(_curve(probs), 0.3)
        times = out.times
        assert np.all(np.diff(times) > 0)
        if len(times) > 1:
            assert np.min(np.diff(times)) >= 6.0 - 1e-9

    def test_threshold_monotonicity(self, rng):
        probs = rng.uniform(0, 1, 400)
        curve = _curve(probs)
        previous = None
        for threshold in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            current = set(np.round(pick_peaks(curve, threshold).times, 9))
            if previous is not None:
                assert current.issubset(previous)
            previous = current


def test_frame_second_roundtrip_within_one_frame():
    for frame in range(GAMMA, 5000, 37):
        t = (frame - GAMMA) / FRAME_RATE
        assert round(t * FRAME_RATE) + GAMMA == frame


class TestFromLogits:
    def test_sigmoid_applied(self):
        curve = from_logits(np.array([0.0, 100.0, -100.0]), FRAME_RATE, GAMMA)
        assert curve.probs[0] == pytest.approx(0.5)
        assert 0.0 <= curve.probs[2] < 1e-6
        assert curve.pad_frames == GAMMA


class TestSweepThreshold:
    def _oracle_pairs(self):
        """Strong true peaks over a floor of weak spurious ones."""
        pairs = []
        for frames in ((100, 160), (90, 170, 250)):
            length = 320
            probs = np.zeros(length)
            for f in range(10, length - 10, 47):  # low-level distractors
                probs[f] = 0.25
            for f in frames:
                probs[f - 1 : f + 2] = [0.3, 0.95, 0.3]
            refs = BoundarySet([(f - GAMMA) / FRAME_RATE for f in frames])
            pairs.append((_curve(probs), refs))
        return pairs

    def test_perfect_curves_reach_f1_of_one(self):
        best, rows = sweep_threshold(self._oracle_pairs(), tolerance=0.5)
        assert len(rows) == 201
        best_row = next(r for r in rows if r.threshold == best)
        assert best_row.f_score == pytest.approx(1.0)
        # the distractor floor forces the optimum strictly inside (0, 1)
        assert 0.0 < best < 1.0

    def test_recall_non_increasing(self, rng):
        pairs = []
        for _ in range(3):
            probs = rng.uniform(0, 1, 420)
            refs = BoundarySet(np.sort(rng.uniform(0, 40, 4)))
            pairs.append((_curve(probs), refs))
        _, rows = sweep_threshold(pairs, tolerance=0.5)
        recalls = [r.recall for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_tie_goes_to_smallest_threshold(self):
        # no peaks at all: F = 0 everywhere, optimum reported at 0.0
        pairs = [(_curve(np.zeros(200)), BoundarySet([5.0]))]
        best, rows = sweep_threshold(pairs, tolerance=0.5)
        assert best == 0.0
        assert all(r.f_score == 0.0 for r in rows)

    def test_one_matching_per_curve_and_distinct_kept_count(self, monkeypatch):
        # two curves of 746 frames with 10 peaks each, as in perfbench's sweep
        rng = np.random.default_rng(28)
        frames = GAMMA + 10 + 65 * np.arange(10)
        pairs, bound = [], 0
        for _ in range(2):
            heights = rng.uniform(0.05, 0.99, frames.size)
            probs = np.zeros(746)
            probs[frames] = heights
            refs = BoundarySet((frames[::2] + rng.integers(-3, 4, 5) - GAMMA) / FRAME_RATE)
            pairs.append((_curve(probs), refs))
            bound += len({np.count_nonzero(heights >= i * SWEEP_STEP)
                          for i in range(int(round(1.0 / SWEEP_STEP)) + 1)})
        want = sweep_threshold_loop(pairs, tolerance=0.5)
        calls, real = [], evaluation.match_times

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "match_times", counting)
        monkeypatch.setattr(postprocess, "match_times", counting)
        best, rows = sweep_threshold(pairs, tolerance=0.5)
        assert (best, [(r.threshold, r.precision, r.recall, r.f_score)
                       for r in rows]) == want
        assert 2 <= len(calls) <= bound

    def test_csv_output(self, tmp_path):
        _, rows = sweep_threshold(self._oracle_pairs(), tolerance=0.5)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,precision,recall,f_beta"
        assert len(lines) == 202


# Probability curves from a few levels, so plateaus, equal peaks and NaN
# runs abound.
_LEVELS = [0.0, 0.1, 0.2, 0.205, 0.5, 0.5, 0.9, 1.0, np.nan]
_plateau_curves = st.tuples(
    arrays(np.float64, st.integers(0, 160), elements=st.sampled_from(_LEVELS)),
    st.sampled_from([FRAME_RATE, 1.3, 2.5, 20.0]),
    st.integers(0, 60),
).map(lambda t: _curve(*t))


class TestPeakProperties:
    @settings(max_examples=200, deadline=None)
    @given(curve=_plateau_curves, threshold=st.floats(0.0, 1.0))
    def test_accepted_peaks_reach_threshold_and_keep_their_distance(
            self, curve, threshold):
        times = pick_peaks(curve, threshold).times
        frames = np.rint(times * curve.frame_rate).astype(int) + curve.pad_frames
        assert np.all(curve.probs[frames] >= threshold)
        assert np.all(np.diff(times) >= SUPPRESSION_SECONDS - 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(curves=st.lists(_plateau_curves, min_size=1, max_size=3),
           refs=st.lists(st.floats(0.0, 30.0), max_size=5),
           tolerance=st.sampled_from([0.5, 3.0]))
    def test_sweep_equals_pick_peaks_at_every_threshold(self, curves, refs, tolerance):
        pairs = [(curve, BoundarySet(refs)) for curve in curves]
        best, rows = sweep_threshold(pairs, tolerance=tolerance)
        want, best_f = [], -1.0
        for i in range(int(round(1.0 / SWEEP_STEP)) + 1):
            threshold = i * SWEEP_STEP
            report = score_corpus([(ref, pick_peaks(curve, threshold))
                                   for curve, ref in pairs], tolerance=tolerance)
            want.append(SweepRow(threshold, report.mean_precision,
                                 report.mean_recall, report.mean_f))
            if report.mean_f > best_f:
                best_f, want_best = report.mean_f, threshold
        assert rows == want
        assert best == want_best


def _frames(probs):
    return np.asarray(_peak_frames(probs), dtype=int).tolist()


def _assert_sweep_matches_loop(pairs, tolerance=0.5, beta=1.0):
    best, rows = sweep_threshold(pairs, tolerance=tolerance, beta=beta)
    want_best, want_rows = sweep_threshold_loop(pairs, tolerance=tolerance, beta=beta)
    assert [(r.threshold, r.precision, r.recall, r.f_score) for r in rows] == want_rows
    assert best == want_best


def _assert_matches_loops(curve, thresholds=(0.0, 0.2, 0.205, 0.5, 1.0)):
    """``_peak_frames``, ``pick_peaks`` and the sweep equal the loop oracles."""
    assert _frames(curve.probs) == peak_frames_loop(curve.probs)
    for threshold in thresholds:
        assert pick_peaks(curve, threshold) == BoundarySet(pick_peaks_loop(
            curve.probs, curve.frame_rate, curve.pad_frames, threshold))
    _assert_sweep_matches_loop([(curve, BoundarySet([0.0, 2.0, 9.5]))])


class TestAgainstLoopOracles:
    @settings(max_examples=300, deadline=None)
    @given(probs=arrays(np.float64, st.integers(0, 200), elements=st.one_of(
        st.sampled_from(_LEVELS), st.floats(0.0, 1.0, allow_subnormal=False))))
    def test_peak_frames(self, probs):
        assert _frames(probs) == peak_frames_loop(probs)

    @settings(max_examples=300, deadline=None)
    @given(curve=_plateau_curves, threshold=st.one_of(
        st.floats(0.0, 1.0), st.sampled_from(_LEVELS[:-1])))
    def test_pick_peaks(self, curve, threshold):
        assert pick_peaks(curve, threshold) == BoundarySet(pick_peaks_loop(
            curve.probs, curve.frame_rate, curve.pad_frames, threshold))

    # Up to 12 tracks, so the per-track means sum more than 8 terms; every
    # curve draws from the same few levels, so the tracks' kept counts
    # change at shared thresholds.
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(_plateau_curves,
                                    st.lists(st.floats(0.0, 60.0), max_size=5)),
                          min_size=1, max_size=12),
           tolerance=st.sampled_from([0.5, 3.0]), beta=st.sampled_from([0.5, 1.0]))
    def test_sweep_threshold(self, pairs, tolerance, beta):
        _assert_sweep_matches_loop([(curve, BoundarySet(refs)) for curve, refs in pairs],
                                   tolerance, beta)

    @pytest.mark.parametrize("probs, frames", [
        ([], []),
        ([0.7], []),
        ([0.4] * 9, []),
        ([np.nan] * 5, []),
        ([0.1, np.nan, 0.6, 0.2], []),          # NaN on the left of a peak
        ([0.1, 0.6, np.nan, 0.2], []),          # NaN on the right of a peak
        ([np.nan, 0.6, 0.2, np.nan], []),
        ([0.9, 0.1, 0.2, 0.8], [0, 3]),          # peaks at both ends
        ([0.9, 0.9, 0.1, 0.8, 0.8], [0, 3]),     # end plateaus: first frame
        ([0.2, 0.5, 0.5, 0.5, 0.3], [1]),
        ([0.2, 0.5, 0.5, 0.7, 0.3], [3]),
    ])
    def test_edge_curves(self, probs, frames):
        curve = _curve(probs, frame_rate=1.3, pad=0)
        assert _frames(curve.probs) == frames
        _assert_matches_loops(curve)

    @pytest.mark.parametrize("frame_rate, gap, both_kept", [
        (1.3, 7, False),    # min_gap 7.8: floor suppresses
        (1.3, 8, True),     # ceil keeps
        (2.5, 14, False),   # min_gap 15.0: one frame short
        (2.5, 15, True),    # exactly min_gap apart
    ])
    def test_candidates_about_min_gap_apart(self, frame_rate, gap, both_kept):
        probs = np.zeros(40)
        probs[5], probs[5 + gap] = 0.9, 0.6
        curve = _curve(probs, frame_rate=frame_rate, pad=0)
        want = [5 / frame_rate] + ([(5 + gap) / frame_rate] if both_kept else [])
        assert pick_peaks(curve, 0.0).times.tolist() == want
        _assert_matches_loops(curve)

    @pytest.mark.parametrize("frames, kept", [  # min_gap 7.8
        ((6, 11), [6]),
        ((6, 11, 14), [6, 14]),
        ((3, 9, 12, 20), [3, 12, 20]),
    ])
    def test_equal_candidates_earlier_frame_wins(self, frames, kept):
        probs = np.zeros(30)
        probs[list(frames)] = 0.5
        curve = _curve(probs, frame_rate=1.3, pad=0)
        assert pick_peaks(curve, 0.0).times.tolist() == [f / 1.3 for f in kept]
        _assert_matches_loops(curve)

    # Gaps in frames: below one, exactly 7 and 15, just above an integer,
    # longer than the 40-frame curve, and unbounded.  A weaker (or equal)
    # candidate sits ``reach = ceil(gap) - 1`` and ``reach + 1`` frames from
    # the stronger one, and at the far end of the curve, on either side.
    @pytest.mark.parametrize("frame_rate", [0.5 / 6, 7 / 6, 2.5, 7.000001 / 6,
                                            2.0000001 / 6, 100 / 6, np.inf])
    @pytest.mark.parametrize("strong", [0, 1, 20, 38, 39])
    @pytest.mark.parametrize("weak_height", [0.5, 0.9])
    def test_suppression_reach(self, frame_rate, strong, weak_height):
        n, gap = 40, SUPPRESSION_SECONDS * frame_rate
        reach = math.ceil(gap) - 1 if gap < n else n
        checked = 0
        for weak in {strong - reach, strong - reach - 1, strong + reach,
                     strong + reach + 1, 0, n - 1}:
            if not 0 <= weak < n or abs(weak - strong) < 2:
                continue  # neighbouring frames are never both peaks
            probs = np.zeros(n)
            probs[strong], probs[weak] = 0.9, weak_height
            # on equal heights the earlier frame is the stronger candidate
            first = strong if weak_height < 0.9 else min(strong, weak)
            want = sorted({weak, strong}) if abs(weak - strong) >= gap else [first]
            assert sorted(accepted_frames_loop(probs, frame_rate, 0.0)) == want
            curve = _curve(probs, frame_rate=frame_rate, pad=0)
            assert pick_peaks(curve, 0.0) == BoundarySet(f / frame_rate for f in want)
            checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("heights", [
        [[0.0, 0.005, 0.205, 41 * SWEEP_STEP, 1.0]],          # on grid points
        [[0.005, 0.5, 0.005, 1.0, 1.0], [0.005, 0.205, 0.205, 1.0]],  # repeated
        [[0.205, 1.0, 0.0], []],                              # a curve with no peak
        [[], []],
    ])
    @pytest.mark.parametrize("refs", [[], [3.8, 19.0, 30.0]])
    def test_sweep_peaks_on_grid_points(self, heights, refs):
        # peaks 10 frames apart, beyond the 7.8-frame gap, over a floor of
        # -1 so that a peak of probability 0 is one too
        pairs = []
        for curve_heights in heights:
            probs = np.full(10 * len(curve_heights) + 10, -1.0)
            probs[5 : 5 + 10 * len(curve_heights) : 10] = curve_heights
            pairs.append((_curve(probs, frame_rate=1.3, pad=0), BoundarySet(refs)))
        for tolerance in (0.5, 3.0):
            _assert_sweep_matches_loop(pairs, tolerance)

    @pytest.mark.parametrize("pad", [40, 41, 200])
    def test_pad_beyond_curve_end(self, pad):
        curve = _curve(_spiky(40, {10: 0.9, 30: 0.8}).probs, frame_rate=1.3, pad=pad)
        assert len(pick_peaks(curve, 0.0)) == 0
        _assert_matches_loops(curve)


def test_sweep_csv_roundtrip(tmp_path):
    # values with at most the written number of decimals come back exactly
    rows = [SweepRow(0.0, 1.0, 0.0, 0.0), SweepRow(0.005, 0.5, 0.25, 0.333333),
            SweepRow(1.0, 0.125, 0.75, 0.214286)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    assert read_sweep_csv(path) == rows
    write_sweep_csv(path, [])
    assert read_sweep_csv(path) == []
