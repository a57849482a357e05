"""Wall time and minor page faults of warm training steps and predict forwards.

Run from a checkout, with no options:

    python3 tools/step_profile.py

It imports ``songseg`` from the checkout's ``src/`` and prints one JSON line.
On a fresh model and a standard-normal input it runs warm training steps at
80×373 (the widest acceptance track): a forward with caches, BCE, a backward
without input gradient and an Adam step. Then it runs warm cache-free
forwards at 80×846, as predict does. For each phase it reports the median,
min and max wall time in ms and the median minor page faults, read with
``getrusage(RUSAGE_SELF)`` (this process only) around the phase. The BLAS
thread count is whatever the environment sets. These in-process figures
locate time and faults; speed claims come from perfbench.
"""

import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                 "src"))

import numpy as np  # noqa: E402

from songseg.layers import bce_with_logits  # noqa: E402
from songseg.model import BoundaryNet  # noqa: E402
from songseg.optim import adam_step, init_adam  # noqa: E402


def _timed(fn, samples):
    """``fn()``, appending its ``(ms, minor faults)`` to ``samples``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    out = fn()
    ms = 1e3 * (time.perf_counter() - start)
    samples.append((ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    return out


def _summary(samples):
    ms = [m for m, _ in samples]
    return {"ms": round(statistics.median(ms), 3), "ms_min": round(min(ms), 3),
            "ms_max": round(max(ms), 3),
            "minflt": statistics.median(f for _, f in samples)}


def profile(height=80, train_width=373, predict_width=846, steps=30, warmup=3,
            seed=0) -> dict:
    """Per phase (``forward``, ``backward``, ``adam``, ``step``, ``predict``)
    the summary of ``steps`` repeats that follow ``warmup`` unrecorded ones."""
    rng = np.random.default_rng(seed)
    net = BoundaryNet(height, seed=seed)
    adam = init_adam(net.params)
    x = rng.standard_normal((height, train_width))
    target = (rng.random(train_width) < 0.05).astype(np.float64)
    samples = {name: [] for name in ("forward", "backward", "adam", "predict")}
    for _ in range(warmup + steps):
        logits, caches = _timed(lambda: net.forward_with_cache(x), samples["forward"])
        _, grad = bce_with_logits(logits, target)
        grads, _ = _timed(lambda: net.backward(grad, caches, input_grad=False),
                          samples["backward"])
        _timed(lambda: adam_step(net.params, grads, adam), samples["adam"])
    x = rng.standard_normal((height, predict_width))
    for _ in range(warmup + steps):
        _timed(lambda: net.forward(x), samples["predict"])
    warm = {name: runs[warmup:] for name, runs in samples.items()}
    warm["step"] = [tuple(map(sum, zip(*parts)))
                    for parts in zip(warm["forward"], warm["backward"], warm["adam"])]
    return {"height": height, "train_width": train_width,
            "predict_width": predict_width, "steps": steps,
            "numpy": np.__version__,
            "phases": {name: _summary(runs) for name, runs in warm.items()}}


if __name__ == "__main__":
    print(json.dumps(profile()))
