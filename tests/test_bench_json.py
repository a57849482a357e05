"""The perf-trajectory summary over two checkouts' perfbench records."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_json.py")
_spec = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def _record(checkout, workload, seed, trace, rate, ok=True, **metrics):
    records = checkout / ".perfbench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    rec = {"env": {"workload": workload, "seed": seed, "git_rev": checkout.name},
           "checks": {"sslm_oracle": ok}, "errors": [],
           "metrics": {"extract_audio_s_per_s": {"value": rate, "unit": "audio_s/s"},
                       **{name: {"value": v, "unit": "s"} for name, v in metrics.items()}}}
    path = records / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(rec))


def _benchmark(checkout):
    """A BENCHMARK.json naming the better direction of the test metrics.

    ``sweep_s`` has no bound, so it gets no verdict.
    """
    checkout.mkdir(parents=True, exist_ok=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "extract_audio_s_per_s", "better": "higher", "bound": 0.25},
        {"name": "train_epoch_s", "better": "lower", "bound": 0.25},
        {"name": "sweep_s", "better": "lower"}]}))


def test_median_min_max_per_workload_and_side(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, rate in ((1, 300.0), (2, 320.0), (3, 310.0)):
        _record(parent, "extract-pool6", seed, 0, rate)
        _record(change, "extract-pool6", seed, 0, 2 * rate, ok=seed != 2)
    _record(parent, "extract-pool6", 9, 1, 1.0)  # traced: not end to end
    _benchmark(change)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    got = json.loads(out.read_text())["extract-pool6"]
    assert got["parent"]["metrics"]["extract_audio_s_per_s"] == {
        "unit": "audio_s/s", "median": 310.0, "q1": 305.0, "q3": 315.0,
        "min": 300.0, "max": 320.0}
    assert got["parent"]["seeds"] == [1, 2, 3] and got["parent"]["all_correct"]
    assert got["change"]["metrics"]["extract_audio_s_per_s"]["median"] == 620.0
    assert got["change"]["git_rev"] == ["change"]
    assert not got["change"]["all_correct"]


def test_checkout_kind_per_side(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _record(parent, "train-sweep", 1, 0, 300.0)
    _record(change, "train-sweep", 1, 0, 310.0)
    _benchmark(change)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    got = json.loads(out.read_text())["train-sweep"]
    assert got["git_dir"] == {"parent": False, "change": False}
    assert got["same_checkout_kind"]
    assert capsys.readouterr().err == ""
    (parent / ".git").mkdir()  # a clone against a plain copy
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    got = json.loads(out.read_text())["train-sweep"]
    assert got["git_dir"] == {"parent": True, "change": False}
    assert not got["same_checkout_kind"]
    assert capsys.readouterr().err.startswith("warning: one checkout has a .git")


def test_missing_records_exit_1(tmp_path, capsys):
    _record(tmp_path / "parent", "train-sweep", 1, 0, 1.0)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(tmp_path / "parent"), str(tmp_path / "none"),
                            "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: no end-to-end records")
    assert not out.exists()


def test_quartiles_interpolate_between_order_statistics():
    assert bench_json.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)
    assert bench_json.quartiles([7.0]) == (7.0, 7.0)


def test_pair_wins_follow_the_better_direction(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # (seed, parent rate, change rate, parent epoch s, change epoch s)
    for seed, p_rate, c_rate, p_epoch, c_epoch in ((1, 300.0, 330.0, 0.40, 0.30),
                                                   (2, 310.0, 305.0, 0.40, 0.40),
                                                   (3, 320.0, 320.0, 0.40, 0.45),
                                                   (4, 290.0, 350.0, 0.50, 0.30)):
        _record(parent, "extract-pool6", seed, 0, p_rate, train_epoch_s=p_epoch)
        _record(change, "extract-pool6", seed, 0, c_rate, train_epoch_s=c_epoch)
    _record(parent, "extract-pool6", 5, 0, 1.0, train_epoch_s=9.0)  # no partner
    _record(change, "train-sweep", 1, 0, 700.0)  # no parent run of the workload
    _benchmark(change)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    # ties are no win; sweep_s is in neither side's records
    assert got["extract-pool6"]["pairs"] == {
        "seeds": [1, 2, 3, 4],
        "change_wins": {"extract_audio_s_per_s": 2, "train_epoch_s": 2}}
    assert got["extract-pool6"]["parent"]["seeds"] == [1, 2, 3, 4, 5]
    assert got["train-sweep"]["parent"] is None
    assert got["train-sweep"]["pairs"] == {"seeds": [], "change_wins": {}}


def test_missing_benchmark_json_exit_1(tmp_path, capsys):
    _record(tmp_path / "parent", "train-sweep", 1, 0, 1.0)
    _record(tmp_path / "change", "train-sweep", 1, 0, 2.0)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                            "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read the metric directions")
    assert not out.exists()


def test_verdicts_per_workload_and_bounded_metric(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # workload: (parent rates, change rates, parent epoch s, change epoch s);
    # sweep_s is recorded but has no bound
    cases = {
        # rate 1.6% lower: ok; epoch 50% longer, lower is better: worse
        "steady": ((300.0, 310.0, 320.0), (300.0, 305.0, 310.0), 0.40, 0.60),
        # rate 32% lower: worse; epoch 25% shorter: ok
        "slower": ((300.0, 310.0, 320.0), (200.0, 210.0, 220.0), 0.40, 0.30),
        # the parent's quartiles lie 200 apart around a median of 300, wider
        # than the 25% bound, so a regression of that size cannot be told
        "noisy": ((100.0, 300.0, 500.0), (290.0, 300.0, 310.0), 0.40, 0.40),
        # as noisy, but every change run beats every parent run
        "dominant": ((100.0, 300.0, 500.0), (600.0, 700.0, 800.0), 0.40, 0.40),
    }
    for workload, (p_rates, c_rates, p_epoch, c_epoch) in cases.items():
        for seed, (p_rate, c_rate) in enumerate(zip(p_rates, c_rates)):
            _record(parent, workload, seed, 0, p_rate, train_epoch_s=p_epoch,
                    sweep_s=0.01)
            _record(change, workload, seed, 0, c_rate, train_epoch_s=c_epoch,
                    sweep_s=0.02)
    _record(change, "change-only", 1, 0, 700.0)
    _benchmark(change)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    got = {workload: v["verdicts"] for workload, v in json.loads(out.read_text()).items()}
    assert got == {
        "steady": {"extract_audio_s_per_s": "ok", "train_epoch_s": "worse"},
        "slower": {"extract_audio_s_per_s": "worse", "train_epoch_s": "ok"},
        "noisy": {"extract_audio_s_per_s": "unresolved", "train_epoch_s": "ok"},
        "dominant": {"extract_audio_s_per_s": "ok", "train_epoch_s": "ok"},
        "change-only": {},
    }


def test_gains_follow_the_claim_rule(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # The parent's epochs take 1.00-1.09 s: quartiles 1.0225 and 1.0675, an
    # interquartile range of 0.045 s around a median of 1.045 s.
    epochs = [1.00 + 0.01 * i for i in range(10)]
    cases = {
        # 10/10 wins, medians 0.10 s apart
        "gain": [e - 0.10 for e in epochs],
        # 8/10 wins
        "mostly": [e - 0.10 if i < 8 else e + 0.01 for i, e in enumerate(epochs)],
        # 10/10 wins, medians 0.02 s apart: inside the parent's spread
        "close": [e - 0.02 for e in epochs],
        # 8 wins and 2 ties: a tie is no win
        "ties": [e - 0.10 if i < 8 else e for i, e in enumerate(epochs)],
    }
    for workload, change_epochs in cases.items():
        for seed, (p_epoch, c_epoch) in enumerate(zip(epochs, change_epochs)):
            # equal rates: every pair a tie, so no gain in either direction
            _record(parent, workload, seed, 0, 300.0, train_epoch_s=p_epoch)
            _record(change, workload, seed, 0, 300.0, train_epoch_s=c_epoch)
    _record(change, "change-only", 1, 0, 700.0)
    _benchmark(change)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["ties"]["pairs"]["change_wins"]["train_epoch_s"] == 8
    got = {workload: v["gains"] for workload, v in result.items()}
    assert got == {
        "gain": {"extract_audio_s_per_s": False, "train_epoch_s": True},
        "mostly": {"extract_audio_s_per_s": False, "train_epoch_s": False},
        "close": {"extract_audio_s_per_s": False, "train_epoch_s": False},
        "ties": {"extract_audio_s_per_s": False, "train_epoch_s": False},
        "change-only": {},
    }


def test_gain_in_the_higher_direction(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        _record(parent, "extract-pool6", seed, 0, 300.0 + seed)
        _record(change, "extract-pool6", seed, 0, 330.0 + seed)
    _benchmark(change)
    out = tmp_path / "bench.json"
    assert bench_json.main([str(parent), str(change), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["extract-pool6"]["gains"] == {
        "extract_audio_s_per_s": True}
