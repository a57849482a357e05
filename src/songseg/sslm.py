"""Self-similarity lag matrices.

The chain implemented here turns a spectral front end into a recurrence
score between each time frame and its recent past:

1. prepend a constant noise-floor pad spanning the lag window and
   max-pool time (by 6 up front, or by 2 now and 3 at the very end), in
   one pass that writes the pad straight into the pooled frames,
2. reduce frames to timbre (DCT of the mel bands, first coefficient
   dropped) or harmony (chroma) vectors,
3. stack each frame with a frame a fixed offset ahead,
4. compute per-lag distances, equalize them by a local quantile, drop the
   frames that lie inside the pad, and squash through a sigmoid.

One :class:`FrontEnd` per track computes the STFT once and serves every
input from it: the mel spectrogram and each stacked series are derived
from that one STFT.  Distances come from blocked matrix products of the
series with its own recent past, each lag read through a strided view.
Equalization finds the two order statistics the quantile interpolates
between by a merge-path search over each row's sorted head, exactly
matching ``np.quantile(method="linear")``.  The pink-noise padding
of the network inputs is generated for all bands at once.

Outputs are in (0, 1): values near 1 mean a frame closely repeats material
from that many frames ago.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .audio import AudioBuffer
from .errors import InputTooShortError
from .layers import sigmoid
from .params import POOLINGS, PipelineParams
from .spectral import (
    FeatureMatrix,
    _max_pool_into,
    chroma_project,
    max_pool_time,
    mel_log_spectrogram,
    stft_magnitude,
)

FEATURES = ("mfcc", "chroma")
METRICS = ("euclidean", "cosine")

# Below this the equalization factor is treated as zero and the distance
# ratio is pinned instead of divided.
EPSILON_MIN = 1e-9
# Cap on the distance ratio: also assigned when the equalizer is zero but
# the distance is not.  sigmoid(1 - 50) ~ 5e-22, small but still nonzero,
# so outputs stay strictly inside (0, 1) instead of underflowing to 0.
RATIO_LARGE = 50.0

VARIANCE_FLOOR = 1e-12

# Voss-McCartney generator count for the pink-noise padding.
PINK_GENERATORS = 16

# Frames per matrix product of the lag-distance stage.  Each product is a
# BLAS call, and a call can stall for milliseconds when another process
# holds a CPU, so blocks stay large enough to keep the calls per track few.
LAG_BLOCK_FRAMES = 256
# Euclidean entries with d^2 below this fraction of |a|^2 + |b|^2 lose most
# of their bits to cancellation in the Gram form and are recomputed per pair.
CANCELLATION_GUARD = 1e-8
# Frames with a nonzero squared norm outside [GRAM_FLOOR, 1 / GRAM_FLOOR] are
# computed pair by pair: products near the subnormal range keep too few bits,
# and sums near the overflow threshold lose them.
GRAM_FLOOR = 1e-280
# Values gathered per step when distances are computed pair by pair: small
# enough that the step's temporaries are reused rather than mapped afresh.
PAIR_BLOCK_VALUES = 1 << 15

# Lags the equalizer searches per step: bounds its index temporaries to
# about a megabyte per array on long tracks.
EQUALIZE_BLOCK_LAGS = 32


@dataclass(frozen=True)
class SslmConfig:
    """One lag-matrix variant: feature type, distance metric, pooling plan."""

    feature: str
    metric: str
    pooling: str
    params: PipelineParams

    def __post_init__(self):
        if self.feature not in FEATURES:
            raise ValueError(f"unknown feature {self.feature!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling {self.pooling!r}")

    @property
    def pool_pre(self) -> int:
        """Time-pool factor applied before distances are computed."""
        return (self.params.pool_single if self.pooling == "pool6"
                else self.params.pool_pre)

    @property
    def lag_bins(self) -> int:
        """Rows of this variant's lag matrix: the lag span in pre-pooled frames."""
        return self.params.lag_frames // self.pool_pre


def pad_noise_floor(features: FeatureMatrix, params: PipelineParams,
                    factor: int = 1) -> FeatureMatrix:
    """Prepend a constant noise-floor pad covering the lag span and max-pool
    time by ``factor``, in one pass.

    The pad is ``round(lag_seconds * sr / hop)`` frames at the matrix's
    un-pooled rate: the dB floor for mel input, its linear-magnitude
    equivalent for STFT input.  The padded matrix is never built: blocks
    wholly inside the pad are the fill value, the block shared by pad and
    track is the running maximum of the fill and its track frames, and the
    remaining blocks pool the track frames.  The result equals
    ``max_pool_time`` of the padded matrix bit for bit, as a new C-ordered
    float64 array.  A frame-major input (the STFT) is pooled frame-major,
    so each maximum runs over whole frames, and transposed once at the end.
    """
    if features.kind not in ("mls", "stft_mag"):
        raise ValueError(f"cannot pad feature kind {features.kind!r}")
    if factor < 1:
        raise ValueError("pool factor must be >= 1")
    n_pad = params.lag_frames
    n_out = -(-(n_pad + features.n_frames) // factor)
    frame_major = not features.values.flags.c_contiguous
    pooled = (np.empty((n_out, features.n_bins)).T if frame_major
              else np.empty((features.n_bins, n_out)))
    pad_blocks = -(-n_pad // factor)
    pooled[:, :pad_blocks] = (params.floor_db if features.kind == "mls"
                              else params.floor_amplitude)
    # Track frames that share the last pad block join its maximum in frame order.
    head = -n_pad % factor
    for frame in features.values[:, :head].T:
        np.maximum(pooled[:, pad_blocks - 1], frame, out=pooled[:, pad_blocks - 1])
    _max_pool_into(pooled[:, pad_blocks:], features.values[:, head:], factor)
    return replace(
        features,
        values=np.ascontiguousarray(pooled),
        hop_seconds=features.hop_seconds * factor,
        pool_factor=features.pool_factor * factor,
        pad_frames=(features.pad_frames + n_pad) // factor,
    )


def dct_basis(n_bands: int) -> np.ndarray:
    """Orthonormal type-II DCT rows 2..n_bands (the DC row is dropped)."""
    k = np.arange(1, n_bands)[:, None]
    n = np.arange(n_bands)[None, :]
    return np.sqrt(2.0 / n_bands) * np.cos(np.pi * (n + 0.5) * k / n_bands)


def dct_features(mls_frames: FeatureMatrix) -> np.ndarray:
    """Per-frame orthonormal DCT-II of the mel bands, first coefficient dropped.

    Returns ``(n_bins - 1, frames)`` vectors.  A constant frame maps to the
    zero vector, which is what the noise-floor pad produces.
    """
    if mls_frames.kind != "mls":
        raise ValueError(f"DCT features expect mls input, got {mls_frames.kind!r}")
    return dct_basis(mls_frames.n_bins) @ mls_frames.values


def stack_frames(vectors: np.ndarray, m: int) -> np.ndarray:
    """Concatenate each ``(dim, frames)`` column with the one ``m`` steps ahead.

    Column ``i`` of the output is ``[v_i; v_{i+m}]``; the series loses its
    last ``m`` columns.  Too-short input yields zero columns, which the
    distance stage rejects.
    """
    if m < 1:
        raise ValueError("stacking factor must be >= 1")
    n_out = max(vectors.shape[1] - m, 0)
    return np.vstack([vectors[:, :n_out], vectors[:, m : m + n_out]])


def _clamped(a: np.ndarray, lag_bins: int) -> np.ndarray:
    """``a`` along its last axis with ``lag_bins`` copies of its first entry
    prepended, so index ``i + lag_bins - l`` reads entry ``max(i - l, 0)``."""
    head = np.repeat(a[..., :1], lag_bins, axis=-1)
    return np.concatenate([head, a], axis=-1)


def _lag_band(flat: np.ndarray, rows: int, lag_bins: int, row_step: int) -> np.ndarray:
    """Read-only ``(rows, lag_bins)`` view ``B[r, l-1] = flat[r * row_step + lag_bins - l]``.

    On a clamped per-frame array (``row_step`` 1) row ``i`` holds the
    values of frame ``i``'s references ``max(i - l, 0)``.  On the flattened
    product of a block's ``b`` frames with their ``b + lag_bins - 1``
    reference columns (``row_step = b + lag_bins``), row ``r`` holds the
    products of the block's frame ``r`` with its references.  No entry is
    copied.
    """
    step = flat.strides[0]
    return np.lib.stride_tricks.as_strided(
        flat[lag_bins - 1 :], shape=(rows, lag_bins),
        strides=(row_step * step, -step), writeable=False)


def _run_depth(v: np.ndarray, served: np.ndarray, lag_bins: int,
               norms: np.ndarray) -> np.ndarray:
    """Per frame, how many of its references (up to ``lag_bins``) lie in its
    run of identical frames, among the frames ``served`` by the product;
    the clamped copies of frame 0 count as frames before it.  Identical
    frames have equal ``norms``, so only frames that repeat their
    predecessor's norm are compared element by element."""
    n = v.shape[1]
    joins = np.zeros(n, dtype=bool)
    same = np.flatnonzero(norms[1:] == norms[:-1]) + 1
    joins[same] = (v[:, same] == v[:, same - 1]).all(axis=0)
    joins[1:] &= served[1:] & served[:-1]
    index = np.arange(n)
    depth = index - np.maximum.accumulate(np.where(joins, 0, index))
    if served[0]:
        depth[depth == index] += lag_bins
    return np.minimum(depth, lag_bins)


def _pair_distances(v: np.ndarray, rows: np.ndarray, refs: np.ndarray,
                    metric: str) -> np.ndarray:
    """Distances between frames ``rows`` and ``refs``, pair by pair, with
    the formulas and column layout of a per-lag loop over the frames, so
    that NaN, inf and overflow land where that loop puts them."""
    step = max(1, PAIR_BLOCK_VALUES // v.shape[0])
    out = np.empty(rows.size)
    for s in range(0, rows.size, step):
        a, b = v[:, rows[s : s + step]], v[:, refs[s : s + step]]
        if metric == "euclidean":
            out[s : s + step] = np.linalg.norm(a - b, axis=0)
            continue
        dots = np.einsum("ij,ij->j", a, b)
        denom = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[s : s + step] = np.where(denom > 0.0, 1.0 - dots / denom, 0.0)
    return out


def lag_distances(vectors: np.ndarray, lag_bins: int, metric: str) -> np.ndarray:
    """Distance from every frame to each of its ``lag_bins`` predecessors.

    ``vectors`` holds one frame per column.  Returns ``D`` of shape
    ``(frames, lag_bins)`` with
    ``D[i, l-1] = distance(v_i, v_{i-l})``.  References before the first
    frame clamp to frame 0, which lies inside the noise-floor pad whenever
    the series was padded.  Cosine distance involving a zero vector is
    defined as 0 so that constant (pad) frames never produce NaN.

    The dot products come from one matrix product per block of
    ``LAG_BLOCK_FRAMES`` frames against the block and its ``lag_bins``
    predecessors, and each lag is read from it through a strided view.
    Euclidean distances are ``sqrt(|a|^2 + |b|^2 - 2 a.b)`` on frames
    centred by the mean of the finite frames.  Three rules keep the values
    of the pair-by-pair form:

    * a frame is at distance exactly 0 from its references in the same run
      of identical frames (the noise-floor pad);
    * a euclidean entry with ``d^2 < CANCELLATION_GUARD * (|a|^2 + |b|^2)``
      lost most of its bits to cancellation and is computed pair by pair;
    * so is every entry that involves a non-finite frame, or a norm the
      product cannot carry, so NaN and inf land where the pair-by-pair
      form puts them.

    Other entries agree with the pair-by-pair form to about 1e-8 relative
    (cosine: 1e-15 absolute); their last bits depend on the BLAS thread
    count.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if lag_bins < 1:
        raise ValueError("lag_bins must be >= 1")
    v = np.asarray(vectors, dtype=np.float64)
    n = v.shape[1]
    if n < lag_bins + 1:
        raise InputTooShortError(
            f"series has {n} frames, need at least {lag_bins + 1} for "
            f"{lag_bins} lag bins"
        )
    euclidean = metric == "euclidean"
    if euclidean:
        centre = v.mean(axis=1, keepdims=True)
        if not np.isfinite(centre).all():
            finite = np.isfinite(v).all(axis=0)
            centre = v[:, finite].mean(axis=1, keepdims=True) if finite.any() else 0.0
        x = v - centre
    else:
        x = v
    sq = np.einsum("ij,ij->j", x, x)
    # Frames whose squared norm is non-finite or outside the product's range
    # get a NaN norm, which sends every entry they take part in to the
    # pair-by-pair form.
    served = (sq == 0.0) | ((sq >= GRAM_FLOOR) & (sq <= 1.0 / GRAM_FLOOR))
    norms = np.where(served, sq if euclidean else np.sqrt(sq), np.nan)
    depth = _run_depth(v, served, lag_bins, norms)
    ref_norms = _lag_band(_clamped(norms, lag_bins), n, lag_bins, 1)
    lag_index = np.arange(lag_bins)
    d = np.empty((n, lag_bins))
    # Per-block buffers, reused so that no block maps fresh memory.
    width = min(LAG_BLOCK_FRAMES, n)
    gram = np.empty(width * (width + lag_bins - 1))
    sums = np.empty((width, lag_bins))
    marks = np.empty((width, lag_bins), dtype=bool)
    recompute = []
    for s in range(0, n, LAG_BLOCK_FRAMES):
        e = min(s + LAG_BLOCK_FRAMES, n)
        b = e - s
        rows, out, tmp, redo = slice(s, e), d[s:e], sums[:b], marks[:b]
        # Frame s + r's references are columns r .. r + lag_bins - 1.
        refs = (x[:, s - lag_bins : e - 1] if s >= lag_bins
                else _clamped(x[:, : e - 1], lag_bins - s))
        np.matmul(x[:, rows].T, refs, out=gram[: b * (b + lag_bins - 1)].reshape(b, -1))
        dots = _lag_band(gram, b, lag_bins, b + lag_bins)
        if euclidean:
            np.add(ref_norms[rows], norms[rows, None], out=tmp)
            np.multiply(dots, -2.0, out=out)
            out += tmp
            tmp *= CANCELLATION_GUARD
            np.greater_equal(out, tmp, out=redo)
            np.logical_not(redo, out=redo)
        else:
            np.multiply(ref_norms[rows], norms[rows, None], out=tmp)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(dots, tmp, out=out)
            np.subtract(1.0, out, out=out)
            np.isnan(tmp, out=redo)
            out[~(tmp > 0.0)] = 0.0
        if depth[rows].any():
            in_run = lag_index < depth[rows, None]
            out[in_run] = 0.0
            redo &= ~in_run
        if euclidean:
            with np.errstate(invalid="ignore"):
                np.sqrt(out, out=out)
        recompute.append(np.flatnonzero(redo) + s * lag_bins)
    flat = np.concatenate(recompute)
    rows, lags = np.divmod(flat, lag_bins)
    d.ravel()[flat] = _pair_distances(v, rows, np.maximum(rows - lags - 1, 0), metric)
    return d


def equalize(d: np.ndarray, kappa: float) -> np.ndarray:
    """Per-entry equalization factor: a quantile of two distance rows.

    ``eps[i, l-1]`` is the ``kappa``-quantile (linear interpolation) of the
    multiset formed by row ``i`` and row ``i-l`` of ``d``; when ``i-l`` is
    before the first row, row ``i`` is used twice.

    The result equals ``np.quantile(..., method="linear")`` bit for bit.
    That quantile reads only the order statistics at ``lo = floor(h)`` and
    ``lo + 1`` of the merged row, ``h = (2L - 1) * kappa``, and those lie
    among the ``m = lo + 2`` smallest values of either row (at most L).  So
    every row is sorted once and cut to its ``m``-value head.  For each
    (row, lag) entry a binary search over the two sorted heads (a merge-path
    search) finds how many of the ``lo + 1`` smallest merged values come
    from row ``i``; the largest value left of that split is statistic
    ``lo`` and the smallest value right of it is ``lo + 1``.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    n, lag_bins = d.shape
    h = (2 * lag_bins - 1) * kappa
    lo = int(np.floor(h))
    gamma = h - lo
    m = min(lo + 2, lag_bins)
    k = lo + 1  # merged values left of the split
    # Each head between a -inf and a +inf sentinel: column j + 1 holds the
    # j-th smallest value, so the split reads need no bounds checks.
    width = m + 2
    heads = np.empty((n, width))
    heads[:, 0] = -np.inf
    heads[:, 1 : m + 1] = np.sort(d, axis=1)[:, :m]
    heads[:, m + 1] = np.inf
    flat = heads.ravel()
    nan_rows = np.isnan(d).any(axis=1)
    s_min, s_max = max(0, k - m), min(k, m)
    steps = [1 << bit for bit in reversed(range((s_max - s_min).bit_length()))]
    rows = np.arange(n)[:, None]
    own = rows * width  # row i's head
    a = np.empty_like(d)
    b = np.empty_like(d)
    for start in range(1, lag_bins + 1, EQUALIZE_BLOCK_LAGS):
        lags = np.arange(start, min(start + EQUALIZE_BLOCK_LAGS, lag_bins + 1))
        prev = rows - lags
        prev = np.where(prev < 0, rows, prev)
        other = prev * width + (k + 1)  # row i-l's head, offset for k - s
        # s, the count taken from row i, is the largest in [s_min, s_max]
        # whose (s-1)-th value of row i lies below the (k-s)-th of row i-l.
        s = np.full(prev.shape, s_min)
        for step in steps:
            t = np.minimum(s + step, s_max)
            s = np.where(flat[own + t] < flat[other - t], t, s)
        block = np.s_[:, lags[0] - 1 : lags[-1]]
        np.maximum(flat[own + s], flat[other - 1 - s], out=a[block])
        np.minimum(flat[own + 1 + s], flat[other - s], out=b[block])
        # np.quantile answers NaN for any multiset holding a NaN.
        a[block][nan_rows[:, None] | nan_rows[prev]] = np.nan
    # numpy's interpolation rule (``_lerp``), kept for bit equality.
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1.0 - gamma)
    return a + diff * gamma


def recurrence(d: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Sigmoid of one minus the equalized distance ratio.

    Where the equalizer underflows (all-identical frames), the ratio is
    pinned to 0 for a near-zero distance and to a large constant otherwise,
    so uniform input produces sigmoid(1) rather than NaN.  Any residual NaN
    is mapped to 0.
    """
    if d.shape != eps.shape:
        raise ValueError("distance and equalization arrays must align")
    ratio = np.where(d < EPSILON_MIN, 0.0, RATIO_LARGE)
    np.divide(d, eps, out=ratio, where=eps >= EPSILON_MIN)
    np.minimum(ratio, RATIO_LARGE, out=ratio)  # leaves 0 and RATIO_LARGE as they are
    return np.nan_to_num(sigmoid(1.0 - ratio), nan=0.0, copy=False)


class FrontEnd:
    """One track's spectral front end, shared by all of its input matrices.

    The STFT magnitude, the mel spectrogram derived from it, and each
    (feature, pre-pool factor) stacked series are computed on first use and
    kept for the life of the object, so one STFT serves every input and
    the euclidean and cosine matrices of a feature read the same series.
    """

    def __init__(self, audio: AudioBuffer, params: PipelineParams):
        self.audio = audio
        self.params = params
        self._series = {}

    @cached_property
    def stft(self) -> FeatureMatrix:
        return stft_magnitude(self.audio, self.params)

    @cached_property
    def mls(self) -> FeatureMatrix:
        return mel_log_spectrogram(self.audio, self.params, self.stft)

    def series(self, feature: str, pool_pre: int) -> np.ndarray:
        """Padded, pooled, DCT or chroma, stacked ``(dim, frames)`` vectors."""
        key = (feature, pool_pre)
        if key not in self._series:
            p = self.params
            if feature == "mfcc":
                vectors = dct_features(pad_noise_floor(self.mls, p, pool_pre))
            else:
                pooled = pad_noise_floor(self.stft, p, pool_pre)
                vectors = chroma_project(pooled, p).values
            self._series[key] = stack_frames(vectors, p.stacking)
        return self._series[key]


def compute_sslm(audio: AudioBuffer, config: SslmConfig,
                 front: FrontEnd = None) -> FeatureMatrix:
    """Full lag-matrix pipeline for one (feature, metric, pooling) variant.

    Output is ``(lag_bins, frames)`` with values in (0, 1) at the final
    pooled frame rate ``sr / (hop * 6)`` for either pooling strategy.
    ``front`` is the track's shared :class:`FrontEnd`; without it the
    front end is computed for this call alone.
    """
    p = config.params
    p_pre = config.pool_pre
    if front is None:
        front = FrontEnd(audio, p)
    elif front.audio is not audio or front.params != p:
        raise ValueError("front end was built for another track or configuration")
    stacked = front.series(config.feature, p_pre)

    lag_bins = config.lag_bins
    d = lag_distances(stacked, lag_bins, config.metric)
    eps = equalize(d, p.quantile)
    # The first lag_bins frames sit inside the noise-floor pad; drop them.
    r = recurrence(d[lag_bins:], eps[lag_bins:])

    out = FeatureMatrix(
        values=r.T,
        hop_seconds=p.base_hop_seconds * p_pre,
        pool_factor=p_pre,
        pad_frames=0,
        kind="sslm",
    )
    if config.pooling == "pool2_3":
        out = max_pool_time(out, p.pool_post)
    return out


def _pink_noise_rows(rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` independent Voss-McCartney pink-noise rows of ``n >= 1`` samples.

    Summed generators updated at halving rates: at step ``i`` the generator
    indexed by the number of trailing zero bits of ``i`` is redrawn, so
    generator ``k`` changes every ``2**k`` steps.  Row after row, each takes
    ``PINK_GENERATORS + n - 1`` consecutive draws from ``rng``, the
    generators' initial values first, so a row equals what a generator of
    one row alone would give from the same point of the stream.
    """
    draws = rng.standard_normal(rows * (PINK_GENERATORS + n - 1))
    draws = draws.reshape(rows, PINK_GENERATORS + n - 1)
    held = draws[:, :PINK_GENERATORS].copy()
    total = held.sum(axis=1)
    out = np.empty((rows, n))
    out[:, 0] = total
    for i in range(1, n):
        k = min((i & -i).bit_length() - 1, PINK_GENERATORS - 1)
        total -= held[:, k]
        held[:, k] = draws[:, PINK_GENERATORS + i - 1]
        total += held[:, k]
        out[:, i] = total
    return out


def finalize_input(m: FeatureMatrix, gamma: int, seed: int) -> FeatureMatrix:
    """Pad with pink noise and standardize each band.

    ``gamma`` pink-noise frames are prepended and appended (per band, scaled
    into that band's empirical value range), then every band is normalized
    to zero mean and unit variance.  Bands whose padded variance is below
    ``VARIANCE_FLOOR`` are zeroed instead of divided.
    """
    if m.kind not in ("mls", "sslm"):
        raise ValueError(f"cannot finalize feature kind {m.kind!r}")
    n_bins, n_frames = m.values.shape
    out = np.empty((n_bins, n_frames + 2 * gamma))
    out[:, gamma : gamma + n_frames] = m.values
    if gamma > 0:
        noise = _pink_noise_rows(n_bins, 2 * gamma, np.random.default_rng(seed))
        if n_frames:
            lo, hi = m.values.min(axis=1), m.values.max(axis=1)
        else:
            lo = hi = np.zeros(n_bins)
        span = hi - lo
        n_lo, n_hi = noise.min(axis=1), noise.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = (lo[:, None] + (noise - n_lo[:, None]) / (n_hi - n_lo)[:, None]
                      * span[:, None])
        # A flat band, or flat noise, pads with the band's minimum.
        flat = ~((span > 0.0) & (n_hi > n_lo))
        scaled[flat] = lo[flat, None]
        out[:, :gamma] = scaled[:, :gamma]
        out[:, gamma + n_frames :] = scaled[:, gamma:]

    mean = out.mean(axis=1, keepdims=True)
    var = out.var(axis=1, keepdims=True)
    centered = out - mean
    dead = var[:, 0] < VARIANCE_FLOOR
    centered[dead] = 0.0
    scale = np.sqrt(np.where(var < VARIANCE_FLOOR, 1.0, var))
    return FeatureMatrix(
        values=centered / scale,
        hop_seconds=m.hop_seconds,
        pool_factor=m.pool_factor,
        pad_frames=gamma,
        kind="net_input",
    )


def align_frames(matrices: list) -> list:
    """Truncate a group of matrices to their common frame count.

    The pooling arithmetic of the MLS and SSLM paths can disagree by a
    frame or two at the tail; inputs stacked for the network must agree
    exactly, so everything is cut to the shortest (frames are dropped from
    the end, keeping time zero aligned).
    """
    if not matrices:
        return []
    n = min(m.n_frames for m in matrices)
    return [replace(m, values=m.values[:, :n].copy()) for m in matrices]
