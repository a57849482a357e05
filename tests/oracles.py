"""Independent reference implementations used only by the test suite.

Imports are absolute (``songseg.``) and the module avoids postponed
annotations, so it also works when loaded by file path without being
registered in ``sys.modules``.

Everything here recomputes a production quantity through a different route:
definitional DFT/DCT summations, the full self-similarity matrix with lag
extraction (instead of direct per-lag distances), sort-and-interpolate
and ``np.quantile`` quantiles, scipy distance/sigmoid primitives, central finite differences,
exhaustive boundary matching, and index-gather/``np.add.at`` convolution,
pooling and STFT framing (instead of strided slices).  None of it shares
code with the production paths it checks.

The former forms of replaced kernels are kept here too, as the references
their replacements must equal bit for bit: per-lag gathered distances, the
per-lag partition equalizer, per-band pink noise, ``-inf``-padded time
pooling, the ``hstack`` noise-floor pad, the per-tap max pool, the pool's
routing into its padded input, the model's former activate-then-pool
order, the masked-gather recurrence, the frame-by-frame peak picking
with its all-pairs suppression and per-threshold sweep counts, and the
masked ``np.where`` LeakyReLU.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import expit

# Constants mirrored from the documented recurrence and finalize contracts.
_EPS_MIN = 1e-9
_RATIO_LARGE = 50.0
_VARIANCE_FLOOR = 1e-12
_PINK_GENERATORS = 16


def dft_direct(x) -> np.ndarray:
    """Definitional DFT: X[k] = sum_n x[n] exp(-2*pi*i*k*n/N)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    grid = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(grid, grid) / n)
    return basis @ x


def dct2_direct(frame) -> np.ndarray:
    """Orthonormal type-II DCT by direct summation, first coefficient dropped."""
    x = np.asarray(frame, dtype=np.float64)
    n = x.size
    out = np.empty(n - 1)
    for k in range(1, n):
        acc = 0.0
        for i in range(n):
            acc += x[i] * np.cos(np.pi * (i + 0.5) * k / n)
        out[k - 1] = np.sqrt(2.0 / n) * acc
    return out


def pairwise_ssm(vectors, metric: str) -> np.ndarray:
    """Full pairwise distance matrix over frame vectors (columns).

    Cosine distances involving a zero vector are defined as 0, matching the
    documented NaN guard.
    """
    pts = np.asarray(vectors, dtype=np.float64).T
    if metric == "euclidean":
        return cdist(pts, pts, metric="euclidean")
    if metric == "cosine":
        with np.errstate(invalid="ignore", divide="ignore"):
            ssm = cdist(pts, pts, metric="cosine")
        ssm = np.nan_to_num(ssm, nan=0.0)
        norms = np.linalg.norm(pts, axis=1)
        zero = norms == 0.0
        ssm[zero, :] = 0.0
        ssm[:, zero] = 0.0
        return ssm
    raise ValueError(f"unknown metric {metric!r}")


def ssm_to_sslm(ssm: np.ndarray) -> np.ndarray:
    """Lag view of a square similarity matrix with wraparound indexing.

    ``out[i, j] = ssm[(i + j) % n, j]``: row ``i`` relates each frame to
    the frame ``i`` steps ahead, modulo the length.
    """
    n = ssm.shape[0]
    ii = np.arange(n)[:, None]
    jj = np.arange(n)[None, :]
    return ssm[(ii + jj) % n, jj]


def causal_lag_view(ssm: np.ndarray, lag_bins: int) -> np.ndarray:
    """Causal lag extraction: ``out[i, l-1] = ssm[i, i-l]``, clamped at 0.

    This is the no-wraparound reading the pipeline uses: references before
    the first frame resolve to frame 0, which lies inside the noise pad.
    """
    n = ssm.shape[0]
    ii = np.arange(n)[:, None]
    ll = np.arange(1, lag_bins + 1)[None, :]
    prev = np.maximum(ii - ll, 0)
    return ssm[ii, prev]


def quantile_sorted(values, q: float) -> float:
    """Linear-interpolation quantile via an explicit sort."""
    v = sorted(float(x) for x in values)
    if not v:
        raise ValueError("empty value set")
    h = q * (len(v) - 1)
    lo = int(np.floor(h))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def equalize_by_sort(d: np.ndarray, kappa: float) -> np.ndarray:
    """Quantile equalization recomputed with np.sort plus manual interpolation."""
    n, lag_bins = d.shape
    eps = np.empty_like(d)
    n_vals = 2 * lag_bins
    h = kappa * (n_vals - 1)
    lo = int(np.floor(h))
    hi = min(lo + 1, n_vals - 1)
    frac = h - lo
    base = np.arange(n)
    for lag in range(1, lag_bins + 1):
        prev = base - lag
        prev[prev < 0] = base[prev < 0]
        merged = np.sort(np.concatenate([d, d[prev]], axis=1), axis=1)
        eps[:, lag - 1] = merged[:, lo] + frac * (merged[:, hi] - merged[:, lo])
    return eps


def equalize_by_quantile(d: np.ndarray, kappa: float) -> np.ndarray:
    """Quantile equalization with one ``np.quantile`` over both rows per lag.

    The definitional form of ``sslm.equalize``, which must match it bit
    for bit.
    """
    n, lag_bins = d.shape
    eps = np.empty_like(d)
    base = np.arange(n)
    for lag in range(1, lag_bins + 1):
        prev = base - lag
        prev[prev < 0] = base[prev < 0]
        stacked = np.hstack([d, d[prev]])
        eps[:, lag - 1] = np.quantile(stacked, kappa, axis=1, method="linear")
    return eps


def lag_distances_by_gather(vectors, lag_bins: int, metric: str) -> np.ndarray:
    """Per-lag distances from a ``(dim, n)`` gather of each frame's predecessor.

    The former form of ``sslm.lag_distances``, whose blocked products must
    match it within tolerance (see ``tests/test_sslm.py``).
    """
    v = np.asarray(vectors, dtype=np.float64)
    n = v.shape[1]
    d = np.empty((n, lag_bins))
    if metric == "cosine":
        norms = np.linalg.norm(v, axis=0)
    base = np.arange(n)
    for lag in range(1, lag_bins + 1):
        prev = np.maximum(base - lag, 0)
        if metric == "euclidean":
            d[:, lag - 1] = np.linalg.norm(v - v[:, prev], axis=0)
        else:
            dots = np.einsum("ij,ij->j", v, v[:, prev])
            denom = norms * norms[prev]
            with np.errstate(divide="ignore", invalid="ignore"):
                cos = np.where(denom > 0.0, 1.0 - dots / denom, 0.0)
            d[:, lag - 1] = cos
    return d


def equalize_by_partition(d: np.ndarray, kappa: float) -> np.ndarray:
    """Quantile equalization partitioning the two sorted row heads per lag.

    The former form of ``sslm.equalize``, which must match it bit for bit.
    """
    n, lag_bins = d.shape
    h = (2 * lag_bins - 1) * kappa
    lo = int(np.floor(h))
    hi = min(lo + 1, 2 * lag_bins - 1)
    gamma = h - lo
    head = np.sort(d, axis=1)[:, : min(lo + 2, lag_bins)]
    nan_rows = np.isnan(d).any(axis=1)
    a = np.empty_like(d)
    b = np.empty_like(d)
    base = np.arange(n)
    for lag in range(1, lag_bins + 1):
        prev = base - lag
        prev[prev < 0] = base[prev < 0]
        merged = np.concatenate([head, head[prev]], axis=1)
        merged.partition([lo, hi], axis=1)
        a[:, lag - 1] = merged[:, lo]
        b[:, lag - 1] = merged[:, hi]
        a[nan_rows | nan_rows[prev], lag - 1] = np.nan
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1.0 - gamma)
    return a + diff * gamma


def pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Voss-McCartney pink noise, one sample at a time.

    At step ``i`` the generator indexed by the number of trailing zero bits
    of ``i`` is redrawn.  The former per-band generator of
    ``sslm.finalize_input``.
    """
    if n <= 0:
        return np.zeros(0)
    held = rng.standard_normal(_PINK_GENERATORS)
    total = held.sum()
    out = np.empty(n)
    out[0] = total
    for i in range(1, n):
        k = min((i & -i).bit_length() - 1, _PINK_GENERATORS - 1)
        total -= held[k]
        held[k] = rng.standard_normal()
        total += held[k]
        out[i] = total
    return out


def finalize_input_by_rows(values, gamma: int, seed: int) -> np.ndarray:
    """Pink-noise padding and standardization, one band at a time.

    The former form of ``sslm.finalize_input`` (returns its values), which
    must match it bit for bit.  With ``gamma == 0`` no noise is drawn.
    """
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n_bins, n_frames = values.shape
    out = np.empty((n_bins, n_frames + 2 * gamma))
    out[:, gamma : gamma + n_frames] = values
    for row in range(n_bins if gamma else 0):
        noise = pink_noise(2 * gamma, rng)
        lo = values[row].min() if n_frames else 0.0
        hi = values[row].max() if n_frames else 0.0
        span = hi - lo
        n_lo, n_hi = noise.min(), noise.max()
        if span > 0.0 and n_hi > n_lo:
            scaled = lo + (noise - n_lo) / (n_hi - n_lo) * span
        else:
            scaled = np.full(2 * gamma, lo)
        out[row, :gamma] = scaled[:gamma]
        out[row, gamma + n_frames :] = scaled[gamma:]
    mean = out.mean(axis=1, keepdims=True)
    var = out.var(axis=1, keepdims=True)
    centered = out - mean
    dead = var[:, 0] < _VARIANCE_FLOOR
    centered[dead] = 0.0
    scale = np.sqrt(np.where(var < _VARIANCE_FLOOR, 1.0, var))
    return centered / scale


def max_pool_time_by_padding(values, factor: int) -> np.ndarray:
    """Time max-pooling (ceil mode) of a ``-inf``-padded copy, block by block.

    The former form of ``spectral.max_pool_time`` for ``factor > 1``.
    """
    values = np.asarray(values)
    n_bins, n = values.shape
    n_out = -(-n // factor)
    padded = np.full((n_bins, n_out * factor), -np.inf)
    padded[:, :n] = values
    return padded.reshape(n_bins, n_out, factor).max(axis=2)


def pad_noise_floor_by_hstack(features, params) -> np.ndarray:
    """Noise-floor pad built by ``np.full`` and ``np.hstack``; returns the
    padded values.

    The former form of ``sslm.pad_noise_floor``, which must match it bit
    for bit.
    """
    n_pad = params.lag_frames
    if n_pad == 0:
        return features.values.copy()
    fill = params.floor_db if features.kind == "mls" else params.floor_amplitude
    return np.hstack([np.full((features.n_bins, n_pad), fill), features.values])


def sslm_via_ssm(vectors, lag_bins: int, metric: str, kappa: float,
                 pool_post: int = 1) -> np.ndarray:
    """Lag-matrix reference path: full SSM, lag view, quantile, sigmoid.

    Takes the same stacked feature vectors the pipeline feeds its distance
    stage and returns a ``(lag_bins, frames)`` matrix directly comparable
    to the pipeline output.
    """
    ssm = pairwise_ssm(vectors, metric)
    d = causal_lag_view(ssm, lag_bins)
    eps = equalize_by_sort(d, kappa)
    d = d[lag_bins:]
    eps = eps[lag_bins:]
    ratio = np.where(
        eps >= _EPS_MIN,
        np.minimum(d / np.where(eps >= _EPS_MIN, eps, 1.0), _RATIO_LARGE),
        np.where(d < _EPS_MIN, 0.0, _RATIO_LARGE),
    )
    r = np.nan_to_num(expit(1.0 - ratio), nan=0.0).T
    if pool_post > 1:
        n_out = -(-r.shape[1] // pool_post)
        pooled = np.empty((r.shape[0], n_out))
        for j in range(n_out):
            pooled[:, j] = r[:, j * pool_post : (j + 1) * pool_post].max(axis=1)
        r = pooled
    return r


def recurrence_by_masks(d, eps) -> np.ndarray:
    """Recurrence with a boolean gather per branch and a final ``nan_to_num``."""
    from songseg.layers import sigmoid

    ratio = np.empty_like(d)
    ok = eps >= _EPS_MIN
    ratio[ok] = np.minimum(d[ok] / eps[ok], _RATIO_LARGE)
    degenerate = ~ok
    ratio[degenerate] = np.where(d[degenerate] < _EPS_MIN, 0.0, _RATIO_LARGE)
    return np.nan_to_num(sigmoid(1.0 - ratio), nan=0.0)


def peak_frames_loop(probs) -> list:
    """First frames of runs of equal values whose existing neighbours are lower.

    Walks the curve frame by frame; a run spanning the whole curve is no
    peak, and NaN (equal to nothing) is a run of its own that never wins.
    """
    n = probs.size
    peaks = []
    start = 0
    for i in range(1, n + 1):
        if i < n and probs[i] == probs[start]:
            continue
        left_lower = start == 0 or probs[start - 1] < probs[start]
        right_lower = i == n or probs[i] < probs[start]
        whole_curve = start == 0 and i == n
        if left_lower and right_lower and not whole_curve:
            peaks.append(start)
        start = i
    return peaks


def accepted_frames_loop(probs, frame_rate: float, threshold: float,
                         suppression_seconds: float = 6.0) -> list:
    """Peak frames reaching ``threshold``, taken strongest first (earlier frame
    on ties), each kept only when every kept one lies at least
    ``suppression_seconds`` away."""
    candidates = [f for f in peak_frames_loop(probs) if probs[f] >= threshold]
    candidates.sort(key=lambda f: (-probs[f], f))
    accepted = []
    min_gap = suppression_seconds * frame_rate
    for f in candidates:
        if all(abs(f - a) >= min_gap for a in accepted):
            accepted.append(f)
    return accepted


def pick_peaks_loop(probs, frame_rate: float, pad_frames: int, threshold: float) -> list:
    """Accepted peaks as seconds after the padding, negative times dropped."""
    times = [(f - pad_frames) / frame_rate
             for f in accepted_frames_loop(probs, frame_rate, threshold)]
    return [t for t in times if t >= 0.0]


def sweep_threshold_loop(pairs, tolerance: float, beta: float = 1.0,
                         step: float = 0.005):
    """``(best_threshold, [(threshold, precision, recall, f), ...])``.

    Peaks are accepted once per curve at threshold 0; each threshold
    ``i * step`` keeps those whose probability reaches it, counted with one
    ``count_nonzero`` per curve and threshold, and each distinct selection
    is scored once.  Ties on F go to the first threshold.
    """
    from songseg.annotations import BoundarySet
    from songseg.evaluation import score_corpus

    picked = []
    for curve, ref in pairs:
        frames = np.array([f for f in accepted_frames_loop(curve.probs, curve.frame_rate, 0.0)
                           if f >= curve.pad_frames], dtype=int)
        picked.append((ref, (frames - curve.pad_frames) / curve.frame_rate,
                       curve.probs[frames]))
    rows, best, best_f, reports = [], 0.0, -1.0, {}
    for i in range(int(round(1.0 / step)) + 1):
        threshold = i * step
        kept = tuple(np.count_nonzero(probs >= threshold) for _, _, probs in picked)
        if kept not in reports:
            reports[kept] = score_corpus(
                [(ref, BoundarySet(times[probs >= threshold]))
                 for ref, times, probs in picked], tolerance=tolerance, beta=beta)
        report = reports[kept]
        rows.append((threshold, report.mean_precision, report.mean_recall,
                     report.mean_f))
        if report.mean_f > best_f:
            best, best_f = threshold, report.mean_f
    return best, rows


def finite_difference(func, x, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function at x."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = func(x)
        flat[i] = orig - step
        f_minus = func(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def finite_difference_at(func, x, flat_indices, step: float = 1e-5) -> np.ndarray:
    """Central differences at selected coordinates only (for big tensors)."""
    x = np.array(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(len(flat_indices))
    for pos, i in enumerate(flat_indices):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = func(x)
        flat[i] = orig - step
        f_minus = func(x)
        flat[i] = orig
        out[pos] = (f_plus - f_minus) / (2.0 * step)
    return out


def exhaustive_match_count(ref, est, tolerance: float) -> int:
    """Maximum hit count by trying every injective pairing."""
    ref = [float(t) for t in ref]
    est = [float(t) for t in est]
    used = [False] * len(est)

    def best(i):
        if i == len(ref):
            return 0
        score = best(i + 1)
        for j, e in enumerate(est):
            if not used[j] and abs(ref[i] - e) <= tolerance:
                used[j] = True
                score = max(score, 1 + best(i + 1))
                used[j] = False
        return score

    return best(0)


def relative_error(analytic, reference, floor: float = 1e-6) -> float:
    """Max elementwise |a - b| / max(|a|, |b|, floor)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(reference, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


@dataclass
class OracleReport:
    case_id: str
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool


def _report(case_id, analytic, reference, tolerance, relative=False) -> OracleReport:
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    abs_err = float(np.max(np.abs(a - b))) if a.size else 0.0
    rel_err = relative_error(a, b)
    err = rel_err if relative else abs_err
    return OracleReport(case_id=case_id, max_abs_err=abs_err,
                        max_rel_err=rel_err, tolerance=tolerance,
                        passed=bool(err < tolerance))


def oracle_suite(seed: int = 0) -> list:
    """Run every registered oracle-vs-implementation comparison."""
    from songseg.audio import AudioBuffer
    from songseg.layers import (bce_with_logits, conv2d_backward, conv2d_forward,
                                maxpool2d_backward, maxpool2d_forward)
    from songseg.params import PipelineParams
    from songseg.spectral import FeatureMatrix, stft_magnitude
    from songseg.sslm import (SslmConfig, compute_sslm, dct_features, equalize,
                              lag_distances)
    from songseg.evaluation import match_boundaries
    from songseg.annotations import BoundarySet

    rng = np.random.default_rng(seed)
    params = PipelineParams()
    reports = []

    # STFT frame vs definitional DFT.
    audio = AudioBuffer(rng.uniform(-0.5, 0.5, params.window + 3 * params.hop),
                        params.sr)
    stft = stft_magnitude(audio, params)
    frame = audio.samples[params.hop : params.hop + params.window] * np.hanning(
        params.window)
    ref_mag = np.abs(dft_direct(frame))[: params.window // 2 + 1]
    reports.append(_report("stft_vs_direct_dft", stft.values[:, 1], ref_mag, 1e-6))

    # DCT features vs direct summation.
    mls_col = rng.uniform(-70.0, 0.0, (params.n_mels, 1))
    fm = FeatureMatrix(values=mls_col, hop_seconds=params.base_hop_seconds,
                       kind="mls")
    got = dct_features(fm)[:, 0]
    reports.append(_report("dct_vs_direct_sum", got, dct2_direct(mls_col[:, 0]),
                           1e-9))

    # Per-lag distances vs the full-SSM route.
    vectors = rng.standard_normal((6, 10))
    for metric in ("euclidean", "cosine"):
        got = lag_distances(vectors, 3, metric)
        ref = causal_lag_view(pairwise_ssm(vectors, metric), 3)
        reports.append(_report(f"lag_distances_vs_ssm_{metric}", got, ref, 1e-9))

    # Quantile equalization vs sort-and-interpolate.
    d = rng.uniform(0.0, 5.0, (12, 4))
    reports.append(_report("equalize_vs_sorted_quantile",
                           equalize(d, 0.1), equalize_by_sort(d, 0.1), 1e-12))

    # Full pipeline vs SSM route, every feature/metric pair, 5 s of audio.
    clip = AudioBuffer(rng.uniform(-0.5, 0.5, 5 * params.sr), params.sr)
    for feature in ("mfcc", "chroma"):
        for metric in ("euclidean", "cosine"):
            config = SslmConfig(feature=feature, metric=metric,
                                pooling="pool6", params=params)
            got = compute_sslm(clip, config)
            stacked = front_end_series(clip, config)
            ref = sslm_via_ssm(stacked.vectors, params.lag_frames // 6,
                               metric, params.quantile)
            reports.append(_report(f"sslm_pipeline_{feature}_{metric}",
                                   got.values, ref, 1e-6))

    # Layer gradients vs central differences.
    x = rng.standard_normal((1, 2, 8, 10))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    up = rng.standard_normal((1, 3, 8, 10))

    def conv_loss_x(xv):
        y, _ = conv2d_forward(xv, w, b, (1, 1), (1, 1), (1, 1))
        return float((y * up).sum())

    def conv_loss_w(wv):
        y, _ = conv2d_forward(x, wv, b, (1, 1), (1, 1), (1, 1))
        return float((y * up).sum())

    y, cache = conv2d_forward(x, w, b, (1, 1), (1, 1), (1, 1))
    gx, gw, _ = conv2d_backward(up, cache)
    fd_x = finite_difference(conv_loss_x, x)
    fd_w = finite_difference(conv_loss_w, w)
    err = max(relative_error(gx, fd_x), relative_error(gw, fd_w))
    reports.append(OracleReport(
        "conv2d_grad_vs_fd",
        max(float(np.max(np.abs(gx - fd_x))), float(np.max(np.abs(gw - fd_w)))),
        err, 1e-4, err < 1e-4))

    def pool_loss(xv):
        y, _ = maxpool2d_forward(xv, (5, 3), (5, 1), (1, 1))
        return float((y * up_pool).sum())

    up_pool = rng.standard_normal((1, 2, 2, 10))
    y, cache = maxpool2d_forward(x, (5, 3), (5, 1), (1, 1))
    gx = maxpool2d_backward(up_pool, cache)
    fd = finite_difference(pool_loss, x)
    reports.append(OracleReport("maxpool_grad_vs_fd",
                                float(np.max(np.abs(gx - fd))),
                                relative_error(gx, fd),
                                1e-4, relative_error(gx, fd) < 1e-4))

    z = rng.standard_normal(40)
    targets = rng.uniform(0.0, 1.0, 40)

    def bce_loss(zv):
        loss, _ = bce_with_logits(zv, targets)
        return loss

    _, grad = bce_with_logits(z, targets)
    fd = finite_difference(bce_loss, z)
    reports.append(OracleReport("bce_grad_vs_fd",
                                float(np.max(np.abs(grad - fd))),
                                relative_error(grad, fd),
                                1e-4, relative_error(grad, fd) < 1e-4))

    # Matching vs exhaustive search on random instances.
    worst = 0
    for _ in range(25):
        ref_times = np.sort(rng.uniform(0.0, 20.0, rng.integers(0, 6)))
        est_times = np.sort(rng.uniform(0.0, 20.0, rng.integers(0, 6)))
        got = match_boundaries(BoundarySet(ref_times), BoundarySet(est_times), 1.0).tp
        want = exhaustive_match_count(ref_times, est_times, 1.0)
        worst = max(worst, abs(got - want))
    reports.append(OracleReport("matching_vs_exhaustive", float(worst),
                                float(worst), 0.5, worst == 0))

    return reports


def front_end_series(audio, config):
    """Front half of the pipeline, up to the stacked feature series.

    Shared input for comparing the production lag path against the
    full-SSM route; the comparison replaces everything downstream of it.
    The stacked ``(dim, frames)`` array is returned as ``.vectors``.
    """
    from songseg.spectral import chroma_project, max_pool_time, mel_log_spectrogram, \
        stft_magnitude
    from songseg.sslm import dct_features, pad_noise_floor, stack_frames

    p = config.params
    if config.feature == "mfcc":
        front = mel_log_spectrogram(audio, p)
    else:
        front = stft_magnitude(audio, p)
    pooled = max_pool_time(pad_noise_floor(front, p), config.pool_pre)
    if config.feature == "mfcc":
        vectors = dct_features(pooled)
    else:
        vectors = chroma_project(pooled, p).values
    return SimpleNamespace(vectors=stack_frames(vectors, p.stacking))


def _gather_indices(kh, kw, h_out, w_out, stride, dilation):
    """Row/col index grids mapping padded input positions to output patches."""
    sh, sw = stride
    dh, dw = dilation
    i0 = np.repeat(dh * np.arange(kh), kw)
    j0 = np.tile(dw * np.arange(kw), kh)
    i1 = sh * np.repeat(np.arange(h_out), w_out)
    j1 = sw * np.tile(np.arange(w_out), h_out)
    return i0[:, None] + i1[None, :], j0[:, None] + j1[None, :]


def _out_size(size, kernel, stride, pad, dilation):
    return (size + 2 * pad - dilation * (kernel - 1) - 1) // stride + 1


def conv2d_by_gather(x, weights, bias, stride, pad, dilation):
    """Convolution through a fancy-index im2col and an ``np.add.at`` col2im.

    Returns ``(y, grad_fn)``; ``grad_fn(grad_out)`` gives the input, weight
    and bias gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    _, c, h, wid = x.shape
    out_ch, _, kh, kw = w.shape
    (ph, pw), (sh, sw), (dh, dw) = pad, stride, dilation
    h_out = _out_size(h, kh, sh, ph, dh)
    w_out = _out_size(wid, kw, sw, pw, dw)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    rows, cols = _gather_indices(kh, kw, h_out, w_out, stride, dilation)
    patches = xp[0][:, rows, cols].reshape(c * kh * kw, h_out * w_out)
    w2 = w.reshape(out_ch, -1)
    y = (w2 @ patches + np.asarray(bias, dtype=np.float64)[:, None])
    y = y.reshape(1, out_ch, h_out, w_out)

    def grad_fn(grad_out):
        g = np.asarray(grad_out, dtype=np.float64).reshape(out_ch, -1)
        grad_patches = (w2.T @ g).reshape(c, *rows.shape)
        grad_xp = np.zeros(xp.shape)
        chans = np.arange(c)[:, None, None]
        np.add.at(grad_xp[0], (chans, rows[None], cols[None]), grad_patches)
        grad_x = grad_xp[:, :, ph:ph + h, pw:pw + wid]
        return grad_x, (g @ patches.T).reshape(w.shape), g.sum(axis=1)

    return y, grad_fn


def maxpool2d_by_gather(x, kernel, stride, pad):
    """Max pooling through a gathered window tensor and ``argmax``.

    Returns ``(y, grad_fn)``; ``grad_fn(grad_out)`` routes each output
    gradient to the first (row-major) window position holding the maximum,
    accumulating with ``np.add.at``.
    """
    x = np.asarray(x, dtype=np.float64)
    _, c, h, wid = x.shape
    (kh, kw), (ph, pw) = kernel, pad
    h_out = _out_size(h, kh, stride[0], ph, 1)
    w_out = _out_size(wid, kw, stride[1], pw, 1)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    rows, cols = _gather_indices(kh, kw, h_out, w_out, stride, (1, 1))
    windows = xp[0][:, rows, cols]
    arg = windows.argmax(axis=1)
    y = np.take_along_axis(windows, arg[:, None, :], axis=1)[:, 0, :]
    y = y.reshape(1, c, h_out, w_out)

    def grad_fn(grad_out):
        n_out = rows.shape[1]
        g = np.asarray(grad_out, dtype=np.float64).reshape(c, n_out)
        sel = np.arange(n_out)[None, :]
        grad_xp = np.zeros(xp.shape)
        np.add.at(grad_xp[0], (np.arange(c)[:, None], rows[arg, sel], cols[arg, sel]), g)
        return grad_xp[:, :, ph:ph + h, pw:pw + wid]

    return y, grad_fn


def maxpool2d_per_tap(x, kernel, stride, pad):
    """Max pooling by one ``>`` / ``np.where`` pass per window tap.

    The former form of ``layers.maxpool2d_forward``, which must match it in
    value, sign of zero and winner.  Returns ``(y, cache)`` in the layout
    ``layers.maxpool2d_backward`` reads: each window's winner is looked up
    in a padded map of input indices, whose padding holds ``x.size``.
    """
    x = np.asarray(x, dtype=np.float64)
    _, c, h, wid = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    h_out = _out_size(h, kh, sh, ph, 1)
    w_out = _out_size(wid, kw, sw, pw, 1)
    widths = ((0, 0), (0, 0), (ph, ph), (pw, pw))
    xp = np.pad(x, widths, constant_values=-np.inf)
    index = np.pad(np.arange(x.size).reshape(x.shape), widths, constant_values=x.size)
    taps = [(slice(i, i + sh * (h_out - 1) + 1, sh),
             slice(j, j + sw * (w_out - 1) + 1, sw))
            for i in range(kh) for j in range(kw)]
    y = xp[0, :, taps[0][0], taps[0][1]]
    winners = index[0, :, taps[0][0], taps[0][1]]
    has_nan = np.isnan(x).any()
    for rows, cols in taps[1:]:
        tap = xp[0, :, rows, cols]
        wins = tap > y
        if has_nan:
            wins |= np.isnan(tap) & ~np.isnan(y)
        y = np.where(wins, tap, y)
        winners = np.where(wins, index[0, :, rows, cols], winners)
    return np.ascontiguousarray(y)[None], (winners, x.shape)


def maxpool2d_backward_padded(grad_out, cache, pad):
    """The former ``layers.maxpool2d_backward``: route into the whole padded
    input with ``bincount``, scale by an activation cache's slope, and crop.
    A window that padding wins (winner ``x.size``) routes to the padded
    input's first cell, which is padding.
    """
    winners, x_shape, *act = cache
    _, _, h, w = x_shape
    ph, pw = pad
    inside = np.pad(np.ones(x_shape, dtype=bool), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # each input cell's index in the padded input, then padding's
    flat = np.append(np.flatnonzero(inside), 0)[winners]
    g = np.asarray(grad_out, dtype=np.float64).ravel()
    grad_xp = np.bincount(flat.ravel(), weights=g, minlength=inside.size)
    if act:
        nonneg, slope = act
        grad_xp[flat[~nonneg.reshape(flat.shape)]] *= slope
    return grad_xp.reshape(inside.shape)[:, :, ph : ph + h, pw : pw + w]


def leaky_relu_by_where(x, slope):
    """``(values, nonneg)``: ``x`` where it is >= 0, else ``slope * x``, by mask."""
    x = np.asarray(x, dtype=np.float64)
    nonneg = x >= 0
    return np.where(nonneg, x, slope * x), nonneg


def boundary_net_act_first(net, x, grad_logits):
    """``(logits, grads, grad_x)`` of ``net`` in the former layer order.

    Conv1's output is activated and then pooled by the per-tap form, and
    the backward runs the pool and the activation in reverse: the former
    ``BoundaryNet.forward_with_cache`` and ``backward``.
    """
    from songseg import layers
    from songseg.model import CONV1, CONV2, CONV3, CONV4, LEAKY_SLOPE, POOL

    def conv(h, name, spec):
        return layers.conv2d_forward(h, net.params[f"{name}.w"], net.params[f"{name}.b"],
                                     spec["stride"], spec["pad"], spec["dilation"])

    h, conv1 = conv(np.asarray(x, dtype=np.float64)[None, None], "conv1", CONV1)
    h, act1 = layers.leaky_relu_forward(h, LEAKY_SLOPE)
    h, pool = maxpool2d_per_tap(h, POOL["kernel"], POOL["stride"], POOL["pad"])
    h, conv2 = conv(h, "conv2", CONV2)
    h, act2 = layers.leaky_relu_forward(h, LEAKY_SLOPE)
    h, collapse = layers.collapse_freq_forward(h)
    h, conv3 = conv(h, "conv3", CONV3)
    h, act3 = layers.leaky_relu_forward(h, LEAKY_SLOPE)
    h, conv4 = conv(h, "conv4", CONV4)

    grads = {}
    g = np.asarray(grad_logits, dtype=np.float64).reshape(1, 1, 1, -1)
    g, grads["conv4.w"], grads["conv4.b"] = layers.conv2d_backward(g, conv4)
    g = layers.leaky_relu_backward(g, act3)
    g, grads["conv3.w"], grads["conv3.b"] = layers.conv2d_backward(g, conv3)
    g = layers.collapse_freq_backward(g, collapse)
    g = layers.leaky_relu_backward(g, act2)
    g, grads["conv2.w"], grads["conv2.b"] = layers.conv2d_backward(g, conv2)
    g = layers.maxpool2d_backward(g, pool)
    g = layers.leaky_relu_backward(g, act1)
    g, grads["conv1.w"], grads["conv1.b"] = layers.conv2d_backward(g, conv1)
    return h[0, 0, 0, :], grads, g


def stft_by_gather(samples, window: int, hop: int) -> np.ndarray:
    """Hann-windowed STFT magnitude ``(bins, frames)`` from an index-gathered frame copy."""
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = (samples.size - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = samples[idx] * np.hanning(window)
    return np.abs(np.fft.rfft(frames, axis=1)).T


def format_tap(reports) -> str:
    """Render oracle reports as TAP-style text."""
    lines = [f"1..{len(reports)}"]
    for i, rep in enumerate(reports, start=1):
        status = "ok" if rep.passed else "not ok"
        lines.append(
            f"{status} {i} - {rep.case_id} "
            f"(abs={rep.max_abs_err:.3g} rel={rep.max_rel_err:.3g} "
            f"tol={rep.tolerance:g})"
        )
    return "\n".join(lines)
