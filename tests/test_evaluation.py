import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from songseg.annotations import BoundarySet
from songseg.evaluation import (format_score_table, match_boundaries, prf,
                                report_csv_lines, score_corpus)

from oracles import exhaustive_match_count


class TestMatchBoundaries:
    def test_identical_sets(self):
        b = BoundarySet([1.0, 5.0, 9.0])
        m = match_boundaries(b, BoundarySet(b.times), tolerance=0.5)
        assert (m.tp, m.fp, m.fn) == (3, 0, 0)
        assert m.pairs == [(1.0, 1.0), (5.0, 5.0), (9.0, 9.0)]

    def test_partial_match(self):
        m = match_boundaries(BoundarySet([1.0, 5.0]), BoundarySet([1.2, 7.0]),
                             tolerance=0.5)
        assert (m.tp, m.fp, m.fn) == (1, 1, 1)
        assert m.pairs == [(1.0, 1.2)]

    def test_maximum_matching_beats_greedy(self):
        # nearest-first greedy pairs 1.2 with 1.0 OR 1.4 and strands the rest;
        # the maximum matching pairs 1.0-1.2 and 1.4-1.9
        ref = BoundarySet([1.0, 1.4])
        est = BoundarySet([1.2, 1.9])
        m = match_boundaries(ref, est, tolerance=0.5)
        assert m.tp == 2
        assert exhaustive_match_count(ref.times, est.times, 0.5) == 2

    def test_counts_are_consistent(self, rng):
        for _ in range(30):
            ref = BoundarySet(np.sort(rng.uniform(0, 30, rng.integers(0, 7))))
            est = BoundarySet(np.sort(rng.uniform(0, 30, rng.integers(0, 7))))
            m = match_boundaries(ref, est, tolerance=1.0)
            assert m.tp + m.fn == len(ref)
            assert m.tp + m.fp == len(est)
            assert m.tp == exhaustive_match_count(ref.times, est.times, 1.0)

    # times on a quarter-second grid, so that distances equal to the
    # tolerance (the boundary case of a hit) come up often
    _grid_times = st.lists(st.integers(0, 40).map(lambda k: k * 0.25), max_size=7)

    @settings(max_examples=300, deadline=None)
    @given(ref=_grid_times, est=_grid_times,
           tolerance=st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    def test_tp_is_maximum_matching(self, ref, est, tolerance):
        ref, est = BoundarySet(ref), BoundarySet(est)
        m = match_boundaries(ref, est, tolerance=tolerance)
        assert m.tp == exhaustive_match_count(ref.times, est.times, tolerance)
        # pairs form a matching of that size, in time order
        refs_used = [r for r, _ in m.pairs]
        ests_used = [e for _, e in m.pairs]
        assert len(m.pairs) == m.tp
        assert len(set(refs_used)) == len(set(ests_used)) == m.tp
        assert set(refs_used) <= set(ref.times) and set(ests_used) <= set(est.times)
        assert all(abs(r - e) <= tolerance for r, e in m.pairs)
        assert m.pairs == sorted(m.pairs)

    def test_thousands_of_interleaved_boundaries(self):
        # every estimate lies within the window of two references, so a
        # matcher that recurses once per reference overflows the stack here
        ref = BoundarySet(np.arange(3000) * 0.3)
        est = BoundarySet(np.arange(3000) * 0.3 + 0.2)
        m = match_boundaries(ref, est, tolerance=0.5)
        assert (m.tp, m.fp, m.fn) == (3000, 0, 0)

    def test_swap_symmetry(self, rng):
        ref = BoundarySet(np.sort(rng.uniform(0, 20, 5)))
        est = BoundarySet(np.sort(rng.uniform(0, 20, 6)))
        forward = match_boundaries(ref, est, tolerance=0.8)
        backward = match_boundaries(est, ref, tolerance=0.8)
        assert forward.tp == backward.tp
        assert forward.fp == backward.fn
        assert forward.fn == backward.fp

    def test_tolerance_monotonicity(self, rng):
        ref = BoundarySet(np.sort(rng.uniform(0, 20, 6)))
        est = BoundarySet(np.sort(rng.uniform(0, 20, 6)))
        tps = [match_boundaries(ref, est, tol).tp
               for tol in (0.1, 0.5, 1.0, 3.0, 10.0)]
        assert tps == sorted(tps)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            match_boundaries(BoundarySet([1.0]), BoundarySet([1.0]), 0.0)

    @staticmethod
    def _greedy_nearest_first(ref, est, tolerance):
        """Repeatedly match the globally closest remaining pair."""
        pairs = sorted(
            (abs(r - e), i, j)
            for i, r in enumerate(ref) for j, e in enumerate(est)
            if abs(r - e) <= tolerance
        )
        used_ref, used_est = set(), set()
        tp = 0
        for _, i, j in pairs:
            if i not in used_ref and j not in used_est:
                used_ref.add(i)
                used_est.add(j)
                tp += 1
        return tp

    def test_maximum_matching_never_below_greedy(self, rng):
        # in the seeded case greedy grabs the closest pair (1.4, 1.3) and
        # strands 1.0; maximum matching pairs 1.0-1.3 and 1.4-1.9
        cases = [([1.0, 1.4], [1.3, 1.9], 0.5)]
        for _ in range(200):
            cases.append((np.sort(rng.uniform(0, 12, rng.integers(1, 7))),
                          np.sort(rng.uniform(0, 12, rng.integers(1, 7))),
                          1.0))
        strictly_better_seen = False
        for ref_times, est_times, tol in cases:
            ref, est = BoundarySet(ref_times), BoundarySet(est_times)
            maximum = match_boundaries(ref, est, tolerance=tol).tp
            greedy = self._greedy_nearest_first(ref.times, est.times, tol)
            assert maximum >= greedy
            strictly_better_seen |= maximum > greedy
        assert strictly_better_seen  # the divergence actually occurs


class TestPrf:
    def _m(self, tp, fp, fn):
        from songseg.evaluation import MatchResult
        return MatchResult(tp=tp, fp=fp, fn=fn)

    def test_symmetric_case(self):
        assert prf(self._m(1, 1, 1), beta=1.0) == (0.5, 0.5, 0.5)

    def test_zero_guard(self):
        assert prf(self._m(0, 0, 0)) == (0.0, 0.0, 0.0)
        assert prf(self._m(0, 3, 2)) == (0.0, 0.0, 0.0)

    def test_f1_closed_form(self):
        # corpus-mean P/R run through the F formula give ~0.418; a per-track
        # mean of F over the same corpus is a different number, so the two
        # aggregation orders must not be conflated
        p, r = 0.501, 0.359
        assert 2 * p * r / (p + r) == pytest.approx(0.4182767441860465,
                                                    abs=1e-12)

    def test_fbeta_equals_p_at_balance(self):
        for beta in (1.0, 0.58):
            m = self._m(3, 2, 2)  # P = R = 0.6
            p, r, f = prf(m, beta=beta)
            assert p == r == pytest.approx(0.6)
            assert f == pytest.approx(0.6, abs=1e-12)

    def test_f_between_min_and_max(self, rng):
        for _ in range(50):
            tp, fp, fn = rng.integers(1, 10, 3)
            p, r, f = prf(self._m(int(tp), int(fp), int(fn)))
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


class TestScoreCorpus:
    def test_single_perfect_track(self):
        b = BoundarySet([2.0, 8.0])
        report = score_corpus([(b, BoundarySet(b.times))], tolerance=0.5)
        assert report.mean_f == 1.0
        assert report.std_f == 0.0

    def test_two_track_mean_and_std(self):
        perfect = (BoundarySet([2.0]), BoundarySet([2.0]))
        miss = (BoundarySet([2.0]), BoundarySet([9.0]))
        report = score_corpus([perfect, miss], tolerance=0.5)
        assert report.mean_f == pytest.approx(0.5)
        assert report.std_f == pytest.approx(0.5)

    def test_per_track_mean_differs_from_f_of_mean_p_and_r(self):
        # per-track triples (tp,fp,fn) = (1,0,1) and (1,1,0):
        # mean of per-track F is 2/3, but F applied to the mean P and mean R
        # (0.75 each) is 0.75
        track_a = (BoundarySet([1.0, 10.0]), BoundarySet([1.0]))
        track_b = (BoundarySet([1.0]), BoundarySet([1.0, 10.0]))
        report = score_corpus([track_a, track_b], tolerance=0.5, beta=1.0)
        assert report.mean_f == pytest.approx(2 / 3, abs=1e-12)
        f_of_means = (2 * report.mean_precision * report.mean_recall
                      / (report.mean_precision + report.mean_recall))
        assert f_of_means == pytest.approx(0.75, abs=1e-12)
        assert abs(f_of_means - report.mean_f) > 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_corpus([], tolerance=0.5)


def test_report_csv_and_table():
    pairs = [(BoundarySet([1.0, 5.0]), BoundarySet([1.1, 5.2]))]
    rep1 = score_corpus(pairs, tolerance=0.5, beta=1.0)
    rep058 = score_corpus(pairs, tolerance=0.5, beta=0.58)
    lines = report_csv_lines(rep1, ["songA"])
    assert lines[0] == "track,precision,recall,f_beta"
    assert lines[1].startswith("songA,")
    table = format_score_table([rep1, rep058], "mls")
    assert "F1 (std)" in table
    assert "F0.58 (std)" in table


def test_score_table_one_row_per_tolerance():
    pairs = [(BoundarySet([1.0, 5.0]), BoundarySet([1.1, 7.0]))]
    reports = [score_corpus(pairs, tolerance=tol, beta=beta)
               for tol, beta in [(0.5, 1.0), (0.5, 0.58), (3.0, 1.0), (3.0, 0.58)]]
    lines = format_score_table(reports, "mls").splitlines()
    assert lines[0].split() == ["Input", "Tol.", "P", "R",
                                "F1", "(std)", "F0.58", "(std)"]
    assert [line.split()[:2] for line in lines[2:]] == [["mls", "±0.5s"],
                                                        ["mls", "±3s"]]
