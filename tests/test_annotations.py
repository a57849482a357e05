import re

import numpy as np
import pytest

from songseg.annotations import (BoundarySet, load_split_manifest,
                                 parse_functions_file, read_boundary_file,
                                 save_split_manifest, split_dataset,
                                 to_target_curve, write_boundary_file,
                                 write_functions_file)
from songseg.errors import FormatError

FRAME_RATE = 44100 / (1024 * 6)

# time tokens both parsers reject, with the reason they give
BAD_TIMES = [("nan", "not finite"), ("inf", "not finite"), ("-inf", "not finite"),
             ("Infinity", "not finite"), ("-1.5", "negative")]
BAD_TIME_IDS = [token for token, _ in BAD_TIMES]


class TestBoundarySet:
    def test_sorts_and_dedupes(self):
        b = BoundarySet([4.0, 1.0, 4.0 + 1e-12, 2.0])
        np.testing.assert_array_equal(b.times, [1.0, 2.0, 4.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BoundarySet([-1.0, 2.0])


class TestParseFunctionsFile:
    def test_first_entry_removed(self, tmp_path):
        path = tmp_path / "functions.txt"
        path.write_text("0.0\tSilence\n12.5\tVerse\n40.2\tChorus\n")
        b = parse_functions_file(path)
        np.testing.assert_array_equal(b.times, [12.5, 40.2])

    def test_single_line_yields_empty(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0.0\tSilence\n")
        assert len(parse_functions_file(path)) == 0

    def test_out_of_order_lines_sorted_before_removal(self, tmp_path):
        path = tmp_path / "shuffled.txt"
        path.write_text("40.2\tChorus\n0.0\tSilence\n12.5\tVerse\n")
        b = parse_functions_file(path)
        np.testing.assert_array_equal(b.times, [12.5, 40.2])

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0\tok\nnot-a-number\toops\n")
        with pytest.raises(FormatError, match=":2:"):
            parse_functions_file(path)

    @pytest.mark.parametrize("token, problem", BAD_TIMES, ids=BAD_TIME_IDS)
    def test_non_finite_time_reports_line(self, tmp_path, token, problem):
        path = tmp_path / "bad.txt"
        path.write_text(f"0.0\tstart\n12.5\tVerse\n{token}\tChorus\n")
        with pytest.raises(FormatError, match=f"{path}:3: time '{token}' is {problem}"):
            parse_functions_file(path)

    def test_negative_zero_is_a_time(self, tmp_path):
        path = tmp_path / "start.txt"
        path.write_text("-0.0\tstart\n12.5\tVerse\n")
        assert parse_functions_file(path) == BoundarySet([12.5])

    def test_write_parse_roundtrip(self, tmp_path):
        original = BoundarySet([3.25, 17.816326530612244, 60.0])
        path = tmp_path / "rt.txt"
        write_functions_file(path, original)
        assert parse_functions_file(path) == original


class TestBoundaryFiles:
    def test_roundtrip(self, tmp_path):
        original = BoundarySet([0.5, 2.25, 9.125])
        path = tmp_path / "est.txt"
        write_boundary_file(path, original)
        assert read_boundary_file(path) == original

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert len(read_boundary_file(path)) == 0

    @pytest.mark.parametrize("token, problem", BAD_TIMES, ids=BAD_TIME_IDS)
    def test_non_finite_time_reports_line(self, tmp_path, token, problem):
        path = tmp_path / "est.txt"
        path.write_text(f"2.25\n\n{token}\n")
        with pytest.raises(FormatError, match=f"{path}:3: time '{token}' is {problem}"):
            read_boundary_file(path)

    def test_negative_zero_is_a_time(self, tmp_path):
        path = tmp_path / "est.txt"
        path.write_text("-0.0\n2.25\n")
        assert read_boundary_file(path) == BoundarySet([0.0, 2.25])

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "est.txt"
        path.write_text("2.25\nsoon\n")
        with pytest.raises(FormatError, match=f"{path}:2: cannot parse"):
            read_boundary_file(path)


class TestTargetCurve:
    def test_empty_boundaries_all_zero(self):
        curve = to_target_curve(BoundarySet(), 200, FRAME_RATE, 50)
        assert curve.values.shape == (200,)
        assert np.all(curve.values == 0.0)

    def test_peak_is_one_at_offset_frame(self):
        t = 5.0
        curve = to_target_curve(BoundarySet([t]), 300, FRAME_RATE, 50)
        peak = round(t * FRAME_RATE) + 50
        assert curve.values[peak] == 1.0
        assert curve.values.max() == 1.0
        assert int(np.argmax(curve.values)) == peak

    def test_close_pair_matches_direct_evaluation(self):
        boundaries = BoundarySet([5.0, 5.05])
        curve = to_target_curve(boundaries, 300, FRAME_RATE, 50)
        sigma = 0.1 * FRAME_RATE
        frames = np.arange(300, dtype=np.float64)
        expected = np.zeros(300)
        for t in boundaries:
            mu = round(t * FRAME_RATE) + 50
            expected = np.maximum(
                expected, np.exp(-((frames - mu) ** 2) / (2 * sigma * sigma)))
        np.testing.assert_allclose(curve.values, expected, atol=1e-12)

    def test_values_in_unit_interval(self):
        curve = to_target_curve(BoundarySet([1.0, 1.1, 1.2, 30.0]), 400,
                                FRAME_RATE, 50)
        assert curve.values.min() >= 0.0
        assert curve.values.max() <= 1.0

    def test_one_local_maximum_per_separated_boundary(self):
        boundaries = BoundarySet([5.0, 10.0, 20.0])
        curve = to_target_curve(boundaries, 400, FRAME_RATE, 50)
        v = curve.values
        interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
        assert int(interior.sum()) == 3

    def test_shift_moves_argmax(self):
        # each peak lands on round(t * rate) + pad, so a shift moves the
        # argmax by that rule (within the interplay of the two roundings)
        base = to_target_curve(BoundarySet([8.0]), 400, FRAME_RATE, 50)
        shifted = to_target_curve(BoundarySet([8.0 + 2.0]), 400, FRAME_RATE, 50)
        assert int(np.argmax(base.values)) == round(8.0 * FRAME_RATE) + 50
        assert int(np.argmax(shifted.values)) == round(10.0 * FRAME_RATE) + 50
        delta = int(np.argmax(shifted.values)) - int(np.argmax(base.values))
        assert abs(delta - round(2.0 * FRAME_RATE)) <= 1

    def test_boundary_past_content_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="dropped"):
            curve = to_target_curve(BoundarySet([1000.0]), 120, FRAME_RATE, 50)
        assert np.all(curve.values == 0.0)


class TestSplitDataset:
    def test_spec_proportions_at_corpus_scale(self):
        ids = [f"t{i:04d}" for i in range(1006)]
        split = split_dataset(ids, seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (653, 150, 203)

    def test_minimum_viable(self):
        split = split_dataset(["a", "b", "c"], seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == \
            (1, 1, 1)

    def test_deterministic(self):
        ids = [f"t{i}" for i in range(50)]
        a = split_dataset(ids, seed=7)
        b = split_dataset(ids, seed=7)
        assert a.train == b.train and a.validation == b.validation \
            and a.test == b.test

    def test_partition(self):
        ids = [f"t{i}" for i in range(101)]
        split = split_dataset(ids, seed=3)
        union = set(split.train) | set(split.validation) | set(split.test)
        assert union == set(ids)
        assert len(split.train) + len(split.validation) + len(split.test) == 101

    def test_too_few(self):
        with pytest.raises(ValueError):
            split_dataset(["a", "b"], seed=0)


def test_split_manifest_roundtrip(tmp_path):
    split = split_dataset([f"t{i}" for i in range(20)], seed=2)
    path = tmp_path / "splits.tsv"
    save_split_manifest(path, split)
    loaded = load_split_manifest(path)
    assert loaded.train == split.train
    assert loaded.validation == split.validation
    assert loaded.test == split.test


@pytest.mark.parametrize("second", ["train", "test"])
def test_split_manifest_track_listed_twice(tmp_path, second):
    path = tmp_path / "splits.tsv"
    path.write_text(f"t1\ttrain\nt2\ttrain\n\nt1\t{second}\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:4: track 't1' "
                                          "is already listed on line 1$"):
        load_split_manifest(path)
