import numpy as np
import pytest

from songseg.annotations import BoundarySet, TargetCurve
from songseg.model import BoundaryNet
from songseg.training import TrackExample, train, write_log_csv

FRAME_RATE = 44100 / (1024 * 6)


def _example(rng, name="t0", width=60, height=12, boundary_frame=30):
    inputs = rng.standard_normal((height, width))
    values = np.zeros(width)
    sigma = 0.1 * FRAME_RATE
    frames = np.arange(width, dtype=np.float64)
    values = np.exp(-((frames - boundary_frame) ** 2) / (2 * sigma * sigma))
    gamma = 10
    target = TargetCurve(values=values, frame_rate=FRAME_RATE, pad_frames=gamma)
    boundaries = BoundarySet([(boundary_frame - gamma) / FRAME_RATE])
    return TrackExample(name=name, inputs=inputs, target=target,
                        boundaries=boundaries)


def test_zero_epochs_leaves_model_unchanged(rng):
    ex = _example(rng)
    model = BoundaryNet(input_height=12, seed=0)
    before = model.copy_params()
    result = train(model, [ex], epochs=0, seed=0)
    for name in before:
        np.testing.assert_array_equal(model.params[name], before[name])
    assert result.log == []
    assert result.best_epoch == 0


def test_loss_decreases_when_overfitting_one_track(rng):
    ex = _example(rng)
    model = BoundaryNet(input_height=12, seed=1)
    result = train(model, [ex], epochs=200, seed=1)
    losses = [row.loss for row in result.log if row.split == "train"]
    assert losses[-1] < losses[0]


def test_fixed_seed_gives_bit_identical_logs(rng):
    ex = _example(rng)
    runs = []
    for _ in range(2):
        model = BoundaryNet(input_height=12, seed=5)
        result = train(model, [ex], epochs=10, seed=5)
        runs.append([(r.epoch, r.split, r.loss, r.precision, r.recall, r.f1)
                     for r in result.log])
    assert runs[0] == runs[1]


def test_validation_tracked_and_best_retained(rng):
    train_ex = _example(rng, "train0")
    val_ex = _example(rng, "val0", boundary_frame=25)
    model = BoundaryNet(input_height=12, seed=2)
    result = train(model, [train_ex], epochs=15, seed=2, val_set=[val_ex])
    val_rows = [r for r in result.log if r.split == "val"]
    assert len(val_rows) == 15
    assert 1 <= result.best_epoch <= 15
    best_losses = [r.loss for r in val_rows]
    assert result.best_epoch == val_rows[int(np.argmin(best_losses))].epoch
    assert set(result.best_params) == set(model.params)


def test_nan_loss_aborts_with_diagnostic(rng):
    ex = _example(rng)
    model = BoundaryNet(input_height=12, seed=3)
    model.params["conv1.w"][0, 0, 0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        train(model, [ex], epochs=1, seed=3)


def test_empty_training_set_rejected():
    model = BoundaryNet(input_height=12, seed=0)
    with pytest.raises(ValueError):
        train(model, [], epochs=1, seed=0)


def test_log_csv_format(tmp_path, rng):
    ex = _example(rng)
    model = BoundaryNet(input_height=12, seed=4)
    result = train(model, [ex], epochs=2, seed=4)
    path = tmp_path / "log.csv"
    write_log_csv(path, result.log)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,loss,precision,recall,f1"
    assert len(lines) == 3
    assert lines[1].startswith("1,train,")
