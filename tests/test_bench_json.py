"""The perf-trajectory summary over two checkouts' perfbench records."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_json.py")
_spec = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def _record(checkout, workload, seed, trace, rate, ok=True):
    records = checkout / ".perfbench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    rec = {"env": {"workload": workload, "seed": seed, "git_rev": checkout.name},
           "checks": {"sslm_oracle": ok}, "errors": [],
           "metrics": {"extract_audio_s_per_s": {"value": rate, "unit": "audio_s/s"}}}
    path = records / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(rec))


def test_median_min_max_per_workload_and_side(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, rate in ((1, 300.0), (2, 320.0), (3, 310.0)):
        _record(parent, "extract-pool6", seed, 0, rate)
        _record(change, "extract-pool6", seed, 0, 2 * rate, ok=seed != 2)
    _record(parent, "extract-pool6", 9, 1, 1.0)  # traced: not end to end
    out = tmp_path / "bench.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    got = json.loads(out.read_text())["extract-pool6"]
    assert got["parent"]["metrics"]["extract_audio_s_per_s"] == {
        "unit": "audio_s/s", "median": 310.0, "min": 300.0, "max": 320.0}
    assert got["parent"]["seeds"] == [1, 2, 3] and got["parent"]["all_correct"]
    assert got["change"]["metrics"]["extract_audio_s_per_s"]["median"] == 620.0
    assert got["change"]["git_rev"] == ["change"]
    assert not got["change"]["all_correct"]


def test_missing_records_exit_1(tmp_path, capsys):
    _record(tmp_path / "parent", "train-sweep", 1, 0, 1.0)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(tmp_path / "parent"), str(tmp_path / "none"),
                            "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: no end-to-end records")
    assert not out.exists()
