"""Self-test of the benchmark's tracer and traced report.

Run from the repository root (takes a few minutes; it runs every workload
once, traced):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tr  # noqa: E402

# Layer metrics that read 0 on a workload because it never calls the layer:
# train-sweep extracts the mel spectrogram only, so no lag matrix is made.
NOT_CALLED = {
    "train-sweep": {
        "spectral.chroma_project_s", "sslm.compute_sslm_s",
        "sslm.pad_noise_floor_s", "sslm.dct_features_s", "sslm.lag_distances_s",
        "sslm.equalize_s", "sslm.recurrence_s", "sslm.compute_sslm_calls",
        "sslm.equalize_entries",
    },
}
# Differences of two wall times; their sign is not fixed.
SIGNED = {"trace.overhead_s"}


def test_benchmark_json_lists_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


def test_rebind_reaches_from_imports():
    from songseg import pipeline, sslm
    import songseg

    original = sslm.compute_sslm
    rec = tr.Tracer()
    undo = tr.instrument(rec, {"songseg.sslm:compute_sslm": "sslm.compute_sslm"})
    try:
        # bound by `from .sslm import compute_sslm` in pipeline and __init__
        assert pipeline.compute_sslm is sslm.compute_sslm is songseg.compute_sslm
        assert sslm.compute_sslm is not original
    finally:
        tr.restore(undo)
    assert pipeline.compute_sslm is original and sslm.compute_sslm is original


def test_self_time_excludes_children():
    rec = tr.Tracer()
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(10000))
    assert rec.calls("inner", parent="outer") == 1
    assert math.isclose(rec.self_s("outer"),
                        rec.total_s("outer") - rec.total_s("inner"))


@pytest.fixture(scope="module", params=sorted(
    ["extract-pool6", "extract-pool2_3", "train-sweep"]))
def traced(request):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         request.param, "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return request.param, json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_is_correct_and_complete(traced):
    _, result = traced
    assert result["correct"] and result["failed"] == 0
    assert [n for n, _ in run.per_layer_names()] == list(result["metrics"])


def test_layer_metrics_nonzero_where_called(traced):
    workload, result = traced
    skip = NOT_CALLED.get(workload, set())
    for name, metric in result["metrics"].items():
        if name in SIGNED:
            continue
        if name in skip:
            assert metric["value"] == 0, name
        else:
            assert metric["value"] > 0, name


def test_untraced_remainder_per_phase(traced):
    metrics = traced[1]["metrics"]
    for phase in ("setup", "extract", "train", "predict", "sweep"):
        value = metrics[f"untraced.{phase}_s"]["value"]
        assert 0 < value, phase
    assert metrics["untraced.extract_s"]["value"] < metrics["trace.traced_wall_s"]["value"]


def test_overhead_is_traced_minus_untraced(traced):
    metrics = traced[1]["metrics"]
    assert math.isclose(metrics["trace.overhead_s"]["value"],
                        metrics["trace.traced_wall_s"]["value"]
                        - metrics["trace.untraced_wall_s"]["value"],
                        rel_tol=1e-9, abs_tol=1e-12)
