"""Training loop: one whole track per step, Adam, per-epoch metric log."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .annotations import BoundarySet, TargetCurve
from .evaluation import match_boundaries, prf
from .layers import bce_with_logits
from .model import BoundaryNet
from .optim import AdamState, adam_step, init_adam
from .params import DEFAULT_MLS_THRESHOLD
from .postprocess import from_logits, pick_peaks
from .serialize import write_text

# Hit-rate tolerance, in seconds, of the per-epoch precision/recall/F1 log.
SCORE_TOLERANCE = 0.5


@dataclass
class TrackExample:
    """One training item: stacked input image, target curve, reference times."""

    name: str
    inputs: np.ndarray  # (bins, frames)
    target: TargetCurve
    boundaries: BoundarySet


@dataclass
class EpochStats:
    epoch: int
    split: str
    loss: float
    precision: float
    recall: float
    f1: float


@dataclass
class TrainResult:
    log: list
    best_params: dict
    best_adam: AdamState
    best_epoch: int


def _score(ex, logits, threshold):
    """Precision, recall and F1 of the peaks picked from one logit curve."""
    curve = from_logits(logits, ex.target.frame_rate, ex.target.pad_frames)
    est = pick_peaks(curve, threshold)
    return prf(match_boundaries(ex.boundaries, est, SCORE_TOLERANCE))


def _epoch_stats(epoch, split, losses, scores) -> EpochStats:
    """Mean loss and mean per-track precision/recall/F1 of one split."""
    arr = np.asarray(scores, dtype=np.float64)
    return EpochStats(epoch, split, float(np.mean(losses)),
                      *(float(arr[:, i].mean()) for i in range(3)))


def train(
    model: BoundaryNet,
    train_set,
    epochs: int,
    seed: int,
    val_set=None,
    lr: float = 0.001,
    threshold: float = DEFAULT_MLS_THRESHOLD,
) -> TrainResult:
    """Train in place for ``epochs`` passes over ``train_set``.

    Every epoch visits each track once in a seeded shuffled order (batch
    size is one whole track).  Train and validation loss plus hit-rate
    metrics are logged per epoch; the parameter snapshot with the lowest
    validation loss is retained (train loss stands in when there is no
    validation set).  A non-finite loss aborts immediately: with this
    learning rate that indicates an initialization or input-scaling fault.
    """
    if not train_set:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(seed)
    adam = init_adam(model.params, lr=lr)
    log = []
    best_params = model.copy_params()
    best_adam = copy.deepcopy(adam)
    best_epoch = 0
    best_val_loss = np.inf

    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_set))
        epoch_losses = []
        step_scores = []
        for idx in order:
            ex = train_set[idx]
            logits, caches = model.forward_with_cache(ex.inputs)
            loss, grad_logits = bce_with_logits(logits, ex.target.values)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} on {ex.name!r}; "
                    "check input scaling and learning rate"
                )
            grads, _ = model.backward(grad_logits, caches, input_grad=False)
            adam_step(model.params, grads, adam)
            epoch_losses.append(loss)
            # score the step's own forward pass rather than re-running the
            # whole split after the epoch
            step_scores.append(_score(ex, logits, threshold))

        log.append(_epoch_stats(epoch, "train", epoch_losses, step_scores))
        if val_set:
            val_losses, val_scores = [], []
            for ex in val_set:
                logits = model.forward(ex.inputs)
                val_losses.append(bce_with_logits(logits, ex.target.values)[0])
                val_scores.append(_score(ex, logits, threshold))
            log.append(_epoch_stats(epoch, "val", val_losses, val_scores))
        monitored = log[-1].loss
        if monitored < best_val_loss:
            best_val_loss = monitored
            best_epoch = epoch
            best_params = model.copy_params()
            best_adam = copy.deepcopy(adam)

    return TrainResult(log=log, best_params=best_params, best_adam=best_adam,
                       best_epoch=best_epoch)


def write_log_csv(path, log) -> None:
    write_text(path, ["epoch,split,loss,precision,recall,f1"] + [
        f"{row.epoch},{row.split},{row.loss!r},{row.precision!r},{row.recall!r},{row.f1!r}"
        for row in log])
