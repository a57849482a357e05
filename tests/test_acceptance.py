"""Release gate: every criterion below must pass at its stated tolerance.

Each criterion prints one PASS line (run with ``pytest -s`` to see them
live).  The determinism criterion re-executes the expensive computations
from scratch and demands bit-identical logs, so this module is the slowest
part of the suite (a few minutes of CPU).
"""

import numpy as np

from songseg.annotations import BoundarySet, to_target_curve
from songseg.audio import AudioBuffer
from songseg.evaluation import match_boundaries, prf, score_corpus
from songseg.layers import (bce_with_logits, collapse_freq_backward,
                            collapse_freq_forward, conv2d_backward,
                            conv2d_forward, leaky_relu_backward,
                            leaky_relu_forward, maxpool2d_backward,
                            maxpool2d_forward)
from songseg.model import CONV1, CONV2, CONV3, CONV4, POOL, BoundaryNet
from songseg.params import (DEFAULT_MLS_THRESHOLD, PipelineParams, RunConfig)
from songseg.pipeline import extract_inputs
from songseg.postprocess import from_logits, pick_peaks, sweep_threshold
from songseg.spectral import mel_log_spectrogram
from songseg.sslm import SslmConfig, compute_sslm
from songseg.synth import synth_corpus
from songseg.training import TrackExample, train

from oracles import (exhaustive_match_count, finite_difference,
                     finite_difference_at, front_end_series,
                     relative_error, sslm_via_ssm)

PARAMS = PipelineParams()

# First-run results, reused by the hygiene and determinism criteria.
_CACHE = {}


def _cached(key, fn):
    if key not in _CACHE:
        _CACHE[key] = fn()
    return _CACHE[key]


# ----------------------------------------------------------------------
# criterion 1: pipeline SSLMs equal the full-SSM brute-force path
# ----------------------------------------------------------------------

def _run_criterion_1():
    lines = []
    worst = 0.0
    in_open_interval = True
    finite = True
    for clip_idx in range(10):
        rng = np.random.default_rng(1000 + clip_idx)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, 5 * PARAMS.sr), PARAMS.sr)
        for feature in ("mfcc", "chroma"):
            for metric in ("euclidean", "cosine"):
                for pooling in ("pool6", "pool2_3"):
                    config = SslmConfig(feature, metric, pooling, PARAMS)
                    got = compute_sslm(audio, config)
                    series = front_end_series(audio, config)
                    lag_bins = PARAMS.lag_frames // config.pool_pre
                    pool_post = PARAMS.pool_post if pooling == "pool2_3" else 1
                    ref = sslm_via_ssm(series.vectors, lag_bins, metric,
                                       PARAMS.quantile, pool_post=pool_post)
                    err = float(np.max(np.abs(got.values - ref)))
                    worst = max(worst, err)
                    finite &= bool(np.all(np.isfinite(got.values)))
                    in_open_interval &= bool(np.all((got.values > 0.0)
                                                    & (got.values < 1.0)))
                    lines.append(f"{clip_idx}:{feature}:{metric}:{pooling}:"
                                 f"{err!r}")
    return {"log": "\n".join(lines), "worst": worst, "finite": finite,
            "open_interval": in_open_interval}


def test_criterion_1_sslm_oracle_equivalence():
    result = _cached("c1", _run_criterion_1)
    assert result["worst"] < 1e-6
    print(f"\nPASS criterion 1: 80 SSLM configurations match the "
          f"brute-force path (max abs err {result['worst']:.3g} < 1e-6)")


# ----------------------------------------------------------------------
# criterion 2: analytic gradients match central finite differences
# ----------------------------------------------------------------------

def _conv_case(rng, kernel, stride, pad, dilation, out_ch=3):
    x = rng.standard_normal((1, 2, 8, 10))
    w = rng.standard_normal((out_ch, 2, *kernel)) * 0.4
    b = rng.standard_normal(out_ch) * 0.1
    y, cache = conv2d_forward(x, w, b, stride, pad, dilation)
    up = rng.standard_normal(y.shape)
    gx, gw, gb = conv2d_backward(up, cache)

    def loss(which):
        def f(v):
            parts = {"x": x, "w": w, "b": b}
            parts[which] = v
            out, _ = conv2d_forward(parts["x"], parts["w"], parts["b"],
                                    stride, pad, dilation)
            return float((out * up).sum())
        return f

    return max(relative_error(gx, finite_difference(loss("x"), x)),
               relative_error(gw, finite_difference(loss("w"), w)),
               relative_error(gb, finite_difference(loss("b"), b)))


def _pool_case(rng):
    x = rng.standard_normal((1, 2, 8, 10))
    y, cache = maxpool2d_forward(x, POOL["kernel"], POOL["stride"], POOL["pad"])
    up = rng.standard_normal(y.shape)
    gx = maxpool2d_backward(up, cache)

    def loss(v):
        out, _ = maxpool2d_forward(v, POOL["kernel"], POOL["stride"],
                                   POOL["pad"])
        return float((out * up).sum())

    return relative_error(gx, finite_difference(loss, x))


def _collapse_case(rng):
    x = rng.standard_normal((1, 3, 4, 6))
    y, cache = collapse_freq_forward(x)
    up = rng.standard_normal(y.shape)
    gx = collapse_freq_backward(up, cache)

    def loss(v):
        out, _ = collapse_freq_forward(v)
        return float((out * up).sum())

    return relative_error(gx, finite_difference(loss, x))


def _leaky_case(rng):
    x = rng.standard_normal(60)
    x = np.where(np.abs(x) < 1e-3, x + 0.01, x)  # stay off the kink
    y, cache = leaky_relu_forward(x)
    up = rng.standard_normal(60)
    gx = leaky_relu_backward(up, cache)

    def loss(v):
        out, _ = leaky_relu_forward(v)
        return float((out * up).sum())

    return relative_error(gx, finite_difference(loss, x))


def _bce_case(rng):
    z = rng.standard_normal(40)
    targets = rng.uniform(0.0, 1.0, 40)
    _, grad = bce_with_logits(z, targets)

    def loss(v):
        out, _ = bce_with_logits(v, targets)
        return out

    return relative_error(grad, finite_difference(loss, z))


def _composed_case(rng):
    net = BoundaryNet(input_height=10, seed=int(rng.integers(0, 2**31)))
    x = rng.standard_normal((10, 9))
    targets = rng.uniform(0.0, 1.0, 9)
    logits, caches = net.forward_with_cache(x)
    _, grad_logits = bce_with_logits(logits, targets)
    grads, grad_input = net.backward(grad_logits, caches)

    def input_loss(v):
        loss, _ = bce_with_logits(net.forward(v), targets)
        return loss

    idx = rng.choice(x.size, size=20, replace=False)
    worst = relative_error(grad_input.ravel()[idx],
                           finite_difference_at(input_loss, x, idx))

    for name in ("conv1.w", "conv2.w", "conv3.w", "conv4.w"):
        def param_loss(v, name=name):
            saved = net.params[name]
            net.params[name] = v
            loss, _ = bce_with_logits(net.forward(x), targets)
            net.params[name] = saved
            return loss

        flat = net.params[name].astype(np.float64)
        idx = rng.choice(flat.size, size=min(20, flat.size), replace=False)
        fd = finite_difference_at(param_loss, flat, idx)
        worst = max(worst, relative_error(grads[name].ravel()[idx], fd))
    return worst


def _run_criterion_2():
    cases = {
        "conv_first": lambda rng: _conv_case(
            rng, CONV1["kernel"], CONV1["stride"], CONV1["pad"],
            CONV1["dilation"]),
        "conv_dilated": lambda rng: _conv_case(
            rng, CONV2["kernel"], CONV2["stride"], CONV2["pad"],
            CONV2["dilation"]),
        "conv_1x1": lambda rng: _conv_case(
            rng, CONV3["kernel"], CONV3["stride"], CONV3["pad"],
            CONV3["dilation"]),
        "conv_head": lambda rng: _conv_case(
            rng, CONV4["kernel"], CONV4["stride"], CONV4["pad"],
            CONV4["dilation"], out_ch=1),
        "maxpool": _pool_case,
        "collapse": _collapse_case,
        "leaky_relu": _leaky_case,
        "bce_with_logits": _bce_case,
        "composed_network": _composed_case,
    }
    lines = []
    worst = 0.0
    for name, case in cases.items():
        for i in range(20):
            rng = np.random.default_rng(2000 + 37 * i)
            err = case(rng)
            worst = max(worst, err)
            lines.append(f"{name}:{i}:{err!r}")
    return {"log": "\n".join(lines), "worst": worst}


def test_criterion_2_gradient_checks():
    result = _cached("c2", _run_criterion_2)
    assert result["worst"] < 1e-4
    print(f"\nPASS criterion 2: 20 finite-difference cases per layer and "
          f"for the composed network (max rel err {result['worst']:.3g} "
          f"< 1e-4)")


# ----------------------------------------------------------------------
# criterion 3: logit curve length equals input frame count
# ----------------------------------------------------------------------

def test_criterion_3_shape_contract():
    rng = np.random.default_rng(3000)
    for height in (80, 180, 480):
        net = BoundaryNet(input_height=height, seed=1)
        for width in (7, 50, 100, 1000):
            logits = net.forward(
                rng.standard_normal((height, width)).astype(np.float32))
            assert logits.shape == (width,), (height, width)
    print("\nPASS criterion 3: output length equals frame count for "
          "heights {80, 180, 480} x widths {7, 50, 100, 1000}")


# ----------------------------------------------------------------------
# criterion 4: metric suite
# ----------------------------------------------------------------------

def test_criterion_4_metric_suite():
    # the three worked matching examples, exhaustively cross-checked
    m = match_boundaries(BoundarySet([1.0, 5.0]), BoundarySet([1.0, 5.0]), 0.5)
    assert (m.tp, m.fp, m.fn) == (2, 0, 0)
    m = match_boundaries(BoundarySet([1.0, 5.0]), BoundarySet([1.2, 7.0]), 0.5)
    assert (m.tp, m.fp, m.fn) == (1, 1, 1)
    ref, est = BoundarySet([1.0, 1.4]), BoundarySet([1.2, 1.9])
    m = match_boundaries(ref, est, 0.5)
    assert m.tp == 2 == exhaustive_match_count(ref.times, est.times, 0.5)

    # F closed forms at both betas
    from songseg.evaluation import MatchResult
    for tp, fp, fn in ((3, 2, 1), (5, 0, 3), (1, 4, 4)):
        p_ref = tp / (tp + fp)
        r_ref = tp / (tp + fn)
        for beta in (1.0, 0.58):
            p, r, f = prf(MatchResult(tp=tp, fp=fp, fn=fn), beta=beta)
            f_ref = (1 + beta**2) * p_ref * r_ref / (beta**2 * p_ref + r_ref)
            assert abs(p - p_ref) < 1e-12
            assert abs(r - r_ref) < 1e-12
            assert abs(f - f_ref) < 1e-12

    # recall never increases across the 201-point sweep
    rng = np.random.default_rng(4000)
    pairs = []
    for _ in range(4):
        probs = rng.uniform(0, 1, 500)
        refs = BoundarySet(np.sort(rng.uniform(0, 55, 5)))
        from songseg.postprocess import PredictionCurve
        pairs.append((PredictionCurve(probs, PARAMS.frame_rate, 50), refs))
    _, rows = sweep_threshold(pairs, tolerance=0.5, beta=1.0)
    assert len(rows) == 201
    recalls = [r.recall for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))
    print("\nPASS criterion 4: matching examples exact, F-beta closed forms "
          "to 1e-12, recall monotone over the 201-point sweep")


# ----------------------------------------------------------------------
# criterion 5: end-to-end synthetic overfit
# ----------------------------------------------------------------------

OVERFIT_EPOCHS = 80  # saturates well before the 500-epoch allowance


def _run_criterion_5():
    tracks = synth_corpus(seed=20, n_tracks=5, segments_per_track=(3, 5),
                          segment_duration=(7.0, 8.0))
    run = RunConfig(include_mls=True)  # MLS-only, pool6
    examples = []
    targets_in_range = True
    inputs_finite = True
    for i, track in enumerate(tracks):
        assert 20.0 <= track.audio.duration <= 40.0
        assert 2 <= len(track.boundaries) <= 4
        mls = extract_inputs(track.audio, run)["mls"]
        target = to_target_curve(track.boundaries, mls.n_frames,
                                 run.params.frame_rate, run.params.final_pad)
        inputs_finite &= bool(np.all(np.isfinite(mls.values)))
        targets_in_range &= bool(target.values.min() >= 0.0
                                 and target.values.max() <= 1.0)
        examples.append(TrackExample(f"track{i}", mls.values, target,
                                     track.boundaries))

    train_set, heldout = examples[:4], examples[4]
    model = BoundaryNet(input_height=80, seed=0)
    result = train(model, train_set, epochs=OVERFIT_EPOCHS, seed=0, lr=0.001)

    pairs = []
    for ex in train_set:
        curve = from_logits(model.forward(ex.inputs), ex.target.frame_rate,
                            ex.target.pad_frames)
        pairs.append((curve, ex.boundaries))
    best_threshold, rows = sweep_threshold(pairs, tolerance=0.5, beta=1.0)
    train_scored = [(ex.boundaries, pick_peaks(curve, best_threshold))
                    for (curve, _), ex in zip(pairs, train_set)]
    train_report = score_corpus(train_scored, tolerance=0.5)

    held_curve = from_logits(model.forward(heldout.inputs),
                             heldout.target.frame_rate,
                             heldout.target.pad_frames)
    held_report = score_corpus(
        [(heldout.boundaries, pick_peaks(held_curve, best_threshold))],
        tolerance=0.5)

    # one backward pass for the gradient-hygiene check
    logits, caches = model.forward_with_cache(train_set[0].inputs)
    _, grad_logits = bce_with_logits(logits, train_set[0].target.values)
    grads, grad_input = model.backward(grad_logits, caches)
    grads_finite = all(np.all(np.isfinite(g)) for g in grads.values())
    grads_finite &= bool(np.all(np.isfinite(grad_input)))

    log_lines = [f"{row.epoch}:{row.split}:{row.loss!r}" for row in result.log]
    log_lines.append(f"threshold:{best_threshold!r}")
    log_lines.append(f"train_f1:{train_report.mean_f!r}")
    log_lines.append(f"held_f1:{held_report.mean_f!r}")
    return {
        "log": "\n".join(log_lines),
        "train_f1": train_report.mean_f,
        "held_f1": held_report.mean_f,
        "losses": [row.loss for row in result.log if row.split == "train"],
        "inputs_finite": inputs_finite,
        "targets_in_range": targets_in_range,
        "grads_finite": grads_finite,
    }


def test_criterion_5_end_to_end_overfit():
    result = _cached("c5", _run_criterion_5)
    assert result["losses"][-1] < result["losses"][0]
    assert result["train_f1"] >= 0.95
    assert result["held_f1"] >= 0.5
    print(f"\nPASS criterion 5: {OVERFIT_EPOCHS}-epoch overfit reaches "
          f"train F1={result['train_f1']:.3f} (>= 0.95), held-out "
          f"F1={result['held_f1']:.3f} (>= 0.5)")


# ----------------------------------------------------------------------
# criterion 6: configured constants
# ----------------------------------------------------------------------

def test_criterion_6_constants_audit():
    p = PARAMS
    assert p.sr == 44100
    assert p.window == 2048                      # 46 ms at 44.1 kHz
    assert p.hop == 1024                         # 50% overlap (23 ms)
    assert p.lag_seconds == 14.0
    assert p.pool_single == 6
    assert (p.pool_pre, p.pool_post) == (2, 3)
    assert p.stacking == 2
    assert p.quantile == 0.1
    assert p.final_pad == 50
    assert (p.n_mels, p.fmin, p.fmax) == (80, 80.0, 16000.0)

    assert CONV1 == {"maps": 32, "kernel": (5, 7), "stride": (1, 1),
                     "pad": (2, 3), "dilation": (1, 1)}
    assert POOL == {"kernel": (5, 3), "stride": (5, 1), "pad": (1, 1)}
    assert CONV2 == {"maps": 64, "kernel": (3, 5), "stride": (1, 1),
                     "pad": (1, 6), "dilation": (1, 3)}
    assert CONV3 == {"maps": 128, "kernel": (1, 1), "stride": (1, 1),
                     "pad": (0, 0), "dilation": (1, 1)}
    assert CONV4 == {"maps": 1, "kernel": (1, 1), "stride": (1, 1),
                     "pad": (0, 0), "dilation": (1, 1)}

    assert DEFAULT_MLS_THRESHOLD == 0.205
    assert RunConfig().threshold == 0.205
    print("\nPASS criterion 6: pipeline constants, network architecture and "
          "default threshold match their specified values")


# ----------------------------------------------------------------------
# criterion 7: numerical hygiene
# ----------------------------------------------------------------------

def test_criterion_7_numerical_hygiene():
    c1 = _cached("c1", _run_criterion_1)
    c5 = _cached("c5", _run_criterion_5)
    assert c1["finite"], "non-finite SSLM entries"
    assert c1["open_interval"], "SSLM entries outside (0, 1)"
    assert c5["inputs_finite"], "non-finite network inputs"
    assert c5["targets_in_range"], "target curve outside [0, 1]"
    assert c5["grads_finite"], "non-finite gradients"

    silence = AudioBuffer(np.zeros(3 * PARAMS.window), PARAMS.sr)
    mls = mel_log_spectrogram(silence, PARAMS)
    assert np.all(mls.values == -70.0), "silence must sit exactly on the floor"
    print("\nPASS criterion 7: matrices and gradients finite, SSLMs in "
          "(0,1), targets in [0,1], silence floor exactly -70 dB")


# ----------------------------------------------------------------------
# criterion 8: bit-identical reruns
# ----------------------------------------------------------------------

def test_criterion_8_determinism():
    first_1 = _cached("c1", _run_criterion_1)["log"]
    first_2 = _cached("c2", _run_criterion_2)["log"]
    first_5 = _cached("c5", _run_criterion_5)["log"]
    assert _run_criterion_1()["log"] == first_1
    assert _run_criterion_2()["log"] == first_2
    assert _run_criterion_5()["log"] == first_5
    print("\nPASS criterion 8: SSLM-equivalence, gradient-check and "
          "training logs are bit-identical across two runs")
