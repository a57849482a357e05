"""From-scratch tensor layers with manual backward passes.

Every forward returns ``(output, cache)``; the matching backward consumes
the upstream gradient plus that cache and produces gradients by the chain
rule.  Tensors are ``(batch=1, channels, height, width)`` arrays; all
arithmetic runs in float64 regardless of input dtype so finite-difference
checks stay meaningful.

The convolution and the pool pad by index and never write their padding,
and the pool's backward is one scatter over winners cached as input indices.
They and the cache-free LeakyReLU take an optional ``buffers(role, shape)``
callable, such as :meth:`Workspace.buffers`, that supplies their large
temporaries in place of fresh arrays.  Their output and cache then live in
those buffers, and are overwritten when the buffers are handed out again.
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Reusable float64 scratch arrays, one flat buffer per role.

    A buffer grows to the largest element count asked of it, and a smaller
    request gets a view of its start, so inputs of many widths share one
    buffer per role instead of one per shape.
    """

    def __init__(self):
        self._flat = {}

    def buffers(self, layer: str, shared=None, roles=()):
        """The ``buffers(role, shape)`` callable for one layer's roles.  Those
        named in ``roles``, all dead before the owner of the flat array
        ``shared`` writes it, lie end to end from its start in the order
        asked for; a view past its end is a ValueError."""
        end = 0

        def take(role, shape):
            nonlocal end
            n = math.prod(shape)
            if role in roles:
                start, end = end, end + n
                return shared[start:end].reshape(shape)
            return self.flat(f"{layer}.{role}", n)[:n].reshape(shape)
        return take

    def flat(self, key: str, n: int) -> np.ndarray:
        """The whole buffer ``key``, grown to at least ``n`` elements."""
        if key not in self._flat or self._flat[key].size < n:
            self._flat.pop(key, None)  # free the old buffer before growing
            self._flat[key] = np.empty(n)
        return self._flat[key]


def _empty(buffers, role, shape):
    return np.empty(shape) if buffers is None else buffers(role, shape)


def _frame_into(out, x, rows, cols):
    """``out`` holding ``x`` at ``[..., rows, cols]`` inside a frame of zeros."""
    out[..., : rows.start, :] = 0.0
    out[..., rows.stop :, :] = 0.0
    out[..., rows, : cols.start] = 0.0
    out[..., rows, cols.stop :] = 0.0
    out[..., rows, cols] = x


def _check_tensor4(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] != 1:
        raise ValueError(f"expected a (1, C, H, W) tensor, got shape {x.shape}")
    return x


def _taps(kernel, size, out_size, stride, pad, dilation):
    """Per kernel tap, row-major, ``((rows, cols), (x_rows, x_cols))``: the
    output windows whose tap reads a cell of the unpadded input, and the
    strided slices of the cells they read.  im2col and col2im loop over taps.
    """
    axes = [[_real_windows(k * d, s, p, n, n_out) for k in range(kn)]
            for kn, n, n_out, s, p, d
            in zip(kernel, size, out_size, stride, pad, dilation)]
    return [((rows, cols), (x_rows, x_cols))
            for rows, x_rows in axes[0] for cols, x_cols in axes[1]]


def conv_output_size(size, kernel, stride, pad, dilation) -> int:
    return (size + 2 * pad - dilation * (kernel - 1) - 1) // stride + 1


def conv2d_forward(x, weights, bias, stride=(1, 1), pad=(0, 0), dilation=(1, 1),
                   buffers=None):
    """Cross-correlation with zero padding, stride and dilation.

    The padding is never written out: im2col frames the input cells each
    tap reads with zeros, and the backward adds into the unpadded input's
    gradient.  ``buffers`` supplies the roles ``patches`` and ``out``.  A
    single tap that reads all of ``x`` (no padding and no stride), for
    more than one output map, takes ``x`` as its patch matrix in place, so
    the cache then holds a view of it, and writing to ``x`` before
    ``backward`` changes the weight gradient.
    """
    x = _check_tensor4(x)
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    _, c, h, wid = x.shape
    out_ch, in_ch, kh, kw = w.shape
    if in_ch != c:
        raise ValueError(f"weights expect {in_ch} input channels, tensor has {c}")
    ph, pw = pad
    h_out = conv_output_size(h, kh, stride[0], ph, dilation[0])
    w_out = conv_output_size(wid, kw, stride[1], pw, dilation[1])
    if h_out <= 0 or w_out <= 0:
        raise ValueError("input too small for this kernel/stride/padding")

    taps = _taps((kh, kw), (h, wid), (h_out, w_out), stride, pad, dilation)
    if (len(taps) == 1 and out_ch > 1
            and ph == pw == 0 and (h, wid) == (h_out, w_out)):
        # BLAS rounds a product with more than one output row alike for
        # either layout of the patches, so the input serves as they are;
        # OpenBLAS's small-matrix kernels (up to 10^6 multiply-adds) are
        # the exception.
        patches = x[0, :, None]
    else:
        # One tap: column-major, the layout an index gather gives, since
        # BLAS rounds a matrix-vector product differently for the two
        # layouts.
        patches = (_empty(buffers, "patches", (c, len(taps), h_out, w_out))
                   if len(taps) > 1 else
                   _empty(buffers, "patches", (1, h_out, w_out, c)).transpose(3, 0, 1, 2))
        for t, ((rows, cols), (x_rows, x_cols)) in enumerate(taps):
            _frame_into(patches[:, t], x[0, :, x_rows, x_cols], rows, cols)
    y = np.matmul(w.reshape(out_ch, -1), patches.reshape(-1, h_out * w_out),
                  out=_empty(buffers, "out", (out_ch, h_out * w_out)))
    y += b[:, None]
    return y.reshape(1, out_ch, h_out, w_out), (patches, taps, x.shape, w)


def conv2d_backward(grad_out, cache, input_grad=True, buffers=None):
    """Gradients w.r.t. input, weights and bias.

    With ``input_grad`` false the input gradient is not computed and None
    stands in for it.  ``buffers`` supplies the role ``grad_patches``.
    """
    patches, taps, x_shape, w = cache
    out_ch = w.shape[0]
    g = np.asarray(grad_out, dtype=np.float64).reshape(out_ch, -1)
    grad_b = g.sum(axis=1)
    grad_w = (g @ patches.reshape(-1, g.shape[1]).T).reshape(w.shape)
    if not input_grad:
        return None, grad_w, grad_b
    w2 = w.reshape(out_ch, -1)
    grad_patches = np.matmul(w2.T, g, out=_empty(
        buffers, "grad_patches", (w2.shape[1], g.shape[1]))).reshape(patches.shape)
    grad_x = np.zeros(x_shape)
    # tap order fixes the summation order
    for t, ((rows, cols), (x_rows, x_cols)) in enumerate(taps):
        grad_x[0, :, x_rows, x_cols] += grad_patches[:, t, rows, cols]
    return grad_x, grad_w, grad_b


def maxpool2d_forward(x, kernel=(5, 3), stride=(5, 1), pad=(1, 1), buffers=None,
                      keep_cache=True):
    """Max pooling over -inf padding; as with ``argmax``, the first maximum
    (or NaN) in row-major window order wins.

    Separable: each padded column's maximum over a window's rows, then the
    maximum over the window's columns.  -inf changes no maximum, so the
    padding is never written out: a window's column maxima come from its
    rows inside ``x``, and a padding column's are -inf.  The order of the
    maxima matters only for zeros and NaNs, whose values are taken from the
    winning position.  The cache holds each window's winner as an index into
    the flattened ``x``, its window's origin plus a per-tap offset (``x.size``
    where padding wins, which it can only where the maximum is -inf), and
    ``x``'s shape; with ``keep_cache`` false winners are found only for such
    windows, and the cache is None.  ``buffers`` supplies the roles
    ``col_max`` and ``out``.
    """
    x = _check_tensor4(x)[0]
    c, h, wid = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    h_out = conv_output_size(h, kh, sh, ph, 1)
    w_out = conv_output_size(wid, kw, sw, pw, 1)
    if h_out <= 0 or w_out <= 0:
        raise ValueError("input too small to pool")

    rows = [_real_windows(i, sh, ph, h, h_out) for i in range(kh)]
    col_max = _empty(buffers, "col_max", (c, h_out, wid + 2 * pw))
    col_max[..., :pw] = -np.inf
    col_max[..., pw + wid:] = -np.inf
    inner = col_max[..., pw : pw + wid]
    # Windows whose rows all lie in x reduce one strided view of them; the
    # few that reach into the padding reduce their rows in x one by one.
    lo, hi = rows[0][0].start, max(rows[0][0].start, rows[-1][0].stop)
    s0, s1, s2 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x[:, sh * lo - ph :], (c, hi - lo, kh, wid), (s0, sh * s1, s1, s2))
    np.maximum.reduce(windows, axis=2, out=inner[:, lo:hi])
    for o in (*range(lo), *range(hi, h_out)):
        first, last = max(0, sh * o - ph), min(h, sh * o - ph + kh)
        inner[:, o] = x[:, first:last].max(axis=1) if first < last else -np.inf
    cols = [np.s_[:, :, j : j + sw * (w_out - 1) + 1 : sw] for j in range(kw)]
    y = _empty(buffers, "out", (c, h_out, w_out))
    y[...] = col_max[cols[0]]
    for cs in cols[1:]:
        np.maximum(y, col_max[cs], out=y)
    # A NaN no window reads changes nothing, so look only at what they read.
    has_nan = bool(np.isnan(col_max).any())
    # np.maximum may return either zero of a tie, or either NaN: take those
    # values from the winning position.
    fix = y == 0
    if has_nan:
        fix |= np.isnan(y)
    if not keep_cache and not fix.any():
        return y[None], None
    tap = _first_max_tap(x, rows, col_max, pw, cols, y, kw, has_nan)
    # each winner's index in x.ravel(): its window's origin plus its tap's offset
    offs = (wid * np.arange(kh)[:, None] + np.arange(kw)).ravel()
    winners = offs.take(tap)
    winners += (wid * (h * np.arange(c)[:, None] + sh * np.arange(h_out) - ph))[..., None]
    winners += sw * np.arange(w_out) - pw
    # only a window whose maximum is -inf can be won by padding: x.size there
    _, o, p = edge = np.unravel_index(np.flatnonzero(y == -np.inf), y.shape)
    r, q = sh * o - ph + tap[edge] // kw, sw * p - pw + tap[edge] % kw
    padded = (r < 0) | (r >= h) | (q < 0) | (q >= wid)
    winners[tuple(e[padded] for e in edge)] = x.size
    y[fix] = x.ravel()[winners[fix]]
    return y[None], ((winners, (1, c, h, wid)) if keep_cache else None)


def _real_windows(tap, stride, pad, size, n_out):
    """``(windows, cells)``: the slice of output windows whose ``tap`` reads
    a cell of the unpadded axis, and the slice of the cells they read."""
    lo = min(n_out, max(0, -((tap - pad) // stride)))
    hi = max(lo, min(n_out, (size - 1 + pad - tap) // stride + 1))
    start = stride * lo + tap - pad
    return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)


def _first_max_tap(x, rows, col_max, pw, cols, y, kw, has_nan):
    """Each window's winning tap ``row * kw + column``.

    The first row holding a column's maximum is the number of leading rows
    that miss it, a padding row holding only -inf, and is 0 in a padding
    column; the winner is the least such tap over the columns that hold the
    window's maximum, and a column that misses it is pushed past every tap.
    """
    kh = len(rows)
    dtype = np.min_scalar_type(2 * kh * kw)
    real = np.s_[..., pw : col_max.shape[-1] - pw]
    inner = col_max[real]
    first_tap = np.zeros(col_max.shape, dtype)
    missed = np.ones(inner.shape, dtype=bool)
    row_missed = np.empty(inner.shape, dtype=bool)
    for win, src in rows[:-1]:
        for part in (np.s_[:, : win.start], np.s_[:, win.stop :]):
            np.not_equal(inner[part], -np.inf, out=row_missed[part])
        _misses(x[:, src], inner[:, win], has_nan, out=row_missed[:, win])
        missed &= row_missed
        first_tap[real] += missed
    first_tap *= dtype.type(kw)
    arg = None
    for j, cs in enumerate(cols):
        key = first_tap[cs] + dtype.type(j)
        key += _misses(col_max[cs], y, has_nan) * dtype.type(kh * kw)
        arg = key if arg is None else np.minimum(arg, key, out=arg)
    return arg


def _misses(values, maximum, has_nan, out=None):
    """Where ``values`` does not hold ``maximum``: differs from it, and is
    not a NaN standing for a NaN maximum."""
    missed = np.not_equal(values, maximum, out=out)
    if has_nan:
        missed &= ~np.isnan(values)
    return missed


def maxpool2d_backward(grad_out, cache):
    """Route each output gradient to the input position that won the max.

    One ``bincount`` over the cached winners; a window won by padding routes
    nowhere.  A cache extended by the ``(nonneg, slope)`` cache of a LeakyReLU
    applied to the pooled output also runs that activation's backward, in the
    place it would take if it had been applied before pooling: the gradients
    a position won are summed first and scaled once, by the slope where the
    pooled value is negative or NaN.  Scaling each pooled gradient before
    routing would round the sum differently.
    """
    winners, x_shape, *act = cache
    n = math.prod(x_shape)
    g = np.asarray(grad_out, dtype=np.float64).ravel()
    # bincount sums the gradients of one position in increasing output order
    grad_x = np.bincount(winners.ravel(), weights=g, minlength=n + 1)
    if act:
        nonneg, slope = act
        grad_x[winners[~nonneg.reshape(winners.shape)]] *= slope
    return grad_x[:n].reshape(x_shape)


def leaky_relu_forward(x, slope=0.01, inplace=False, keep_cache=True,
                       buffers=None):
    """``x`` where it is >= 0, else ``slope * x``, as ``max(x, slope * x)``.

    The two agree only for a slope in (0, 1], so any other slope is a
    ValueError.  ``inplace`` writes the result over ``x``.  With
    ``keep_cache`` false no sign mask is made, None stands in for the cache,
    and ``buffers`` supplies the role ``scaled`` that holds ``slope * x``.
    """
    if not 0.0 < slope <= 1.0:
        raise ValueError(f"a LeakyReLU needs a slope in (0, 1], got {slope}")
    x = np.asarray(x, dtype=np.float64)
    out = x if inplace else None
    if not keep_cache:
        scaled = np.multiply(x, slope, out=_empty(buffers, "scaled", x.shape))
        return np.maximum(x, scaled, out=out), None
    nonneg = x >= 0
    return np.maximum(x, slope * x, out=out), (nonneg, slope)


def leaky_relu_backward(grad_out, cache):
    nonneg, slope = cache
    return np.asarray(grad_out, dtype=np.float64) * np.where(nonneg, 1.0, slope)


def collapse_freq_forward(x):
    """Fold the height axis into channels: (1,C,H,W) -> (1,C*H,1,W)."""
    x = _check_tensor4(x)
    _, c, h, w = x.shape
    return x.reshape(1, c * h, 1, w), (c, h, w)


def collapse_freq_backward(grad_out, cache):
    c, h, w = cache
    return np.asarray(grad_out, dtype=np.float64).reshape(1, c, h, w)


def sigmoid(z):
    """Logistic function, overflow-free for either sign of ``z``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_with_logits(logits, targets):
    """Mean binary cross entropy on raw scores, overflow-stable.

    Returns ``(loss, grad_wrt_logits)`` where the gradient is
    ``(sigmoid(z) - y) / n``.
    """
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    if z.shape != y.shape:
        raise ValueError("logits and targets must have equal length")
    if y.size and (y.min() < 0.0 or y.max() > 1.0):
        raise ValueError("targets must lie in [0, 1]")
    per_frame = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = float(per_frame.mean())
    grad = (sigmoid(z) - y) / z.size
    return loss, grad
