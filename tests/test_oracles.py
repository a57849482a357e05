import numpy as np
import pytest

import songseg.layers

import oracles


def test_suite_passes_on_fresh_checkout():
    reports = oracles.oracle_suite(seed=0)
    assert reports, "suite must register cases"
    failed = [r.case_id for r in reports if not r.passed]
    assert failed == []


def test_suite_detects_a_corrupted_weight_gradient(monkeypatch):
    original = songseg.layers.conv2d_backward

    def sabotaged(grad_out, cache):
        gx, gw, gb = original(grad_out, cache)
        return gx, -gw, gb

    monkeypatch.setattr(songseg.layers, "conv2d_backward", sabotaged)
    reports = {r.case_id: r for r in oracles.oracle_suite(seed=0)}
    assert not reports["conv2d_grad_vs_fd"].passed


def test_ssm_lag_view_index_formula(rng):
    ssm = rng.standard_normal((4, 4))
    out = oracles.ssm_to_sslm(ssm)
    for i in range(4):
        for j in range(4):
            assert out[i, j] == ssm[(i + j) % 4, j]


def test_ssm_diagonal_zero_both_metrics(rng):
    vectors = rng.standard_normal((5, 7))
    for metric in ("euclidean", "cosine"):
        ssm = oracles.pairwise_ssm(vectors, metric)
        np.testing.assert_allclose(np.diag(ssm), 0.0, atol=1e-12)


def test_ssm_identical_columns_all_zero():
    vectors = np.tile(np.array([[1.0], [2.0]]), (1, 6))
    for metric in ("euclidean", "cosine"):
        np.testing.assert_allclose(oracles.pairwise_ssm(vectors, metric), 0.0,
                                   atol=1e-12)


def test_causal_lag_view_clamps_at_zero(rng):
    ssm = rng.standard_normal((5, 5))
    d = oracles.causal_lag_view(ssm, 3)
    assert d[0, 0] == ssm[0, 0]  # i-l < 0 clamps to column 0
    assert d[1, 2] == ssm[1, 0]
    assert d[4, 2] == ssm[4, 1]  # i=4, lag 3 -> column 1


def test_quantile_sorted_worked_example():
    assert oracles.quantile_sorted(range(1, 11), 0.1) == pytest.approx(1.9)
    assert oracles.quantile_sorted([5.0], 0.3) == 5.0


def test_exhaustive_match_small_cases():
    assert oracles.exhaustive_match_count([1.0, 1.4], [1.2, 1.9], 0.5) == 2
    assert oracles.exhaustive_match_count([], [1.0], 0.5) == 0
    assert oracles.exhaustive_match_count([1.0], [], 0.5) == 0


def test_tap_format():
    reports = [
        oracles.OracleReport("good_case", 1e-9, 1e-9, 1e-6, True),
        oracles.OracleReport("bad_case", 0.5, 0.5, 1e-6, False),
    ]
    tap = oracles.format_tap(reports)
    lines = tap.splitlines()
    assert lines[0] == "1..2"
    assert lines[1].startswith("ok 1 - good_case")
    assert lines[2].startswith("not ok 2 - bad_case")
