"""The in-process step profiler runs end to end at a tiny size."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "step_profile.py")
_spec = importlib.util.spec_from_file_location("step_profile", _PATH)
step_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_profile)


def test_profile_reports_every_phase():
    result = step_profile.profile(height=8, train_width=12, predict_width=20,
                                  steps=3, warmup=1)
    assert (result["height"], result["train_width"], result["predict_width"],
            result["steps"]) == (8, 12, 20, 3)
    phases = result["phases"]
    assert set(phases) == {"forward", "backward", "adam", "step", "predict"}
    for summary in phases.values():
        assert 0 <= summary["ms_min"] <= summary["ms"] <= summary["ms_max"]
        assert summary["minflt"] >= 0
    parts = sum(phases[name]["ms_min"] for name in ("forward", "backward", "adam"))
    assert phases["step"]["ms_min"] >= parts * (1 - 1e-9)
