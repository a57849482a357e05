"""From-scratch tensor layers with manual backward passes.

Every forward returns ``(output, cache)``; the matching backward consumes
the upstream gradient plus that cache and produces gradients by the chain
rule.  Tensors are ``(batch=1, channels, height, width)`` arrays; all
arithmetic runs in float64 regardless of input dtype so finite-difference
checks stay meaningful.
"""

from __future__ import annotations

import numpy as np


def _check_tensor4(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[0] != 1:
        raise ValueError(f"expected a (1, C, H, W) tensor, got shape {x.shape}")
    return x


def _taps(kh, kw, h_out, w_out, stride, dilation):
    """Per kernel tap, row-major, the strided (rows, cols) slices of the padded
    input it reads: im2col and col2im loop over taps.
    """
    sh, sw = stride
    dh, dw = dilation
    return [(slice(i * dh, i * dh + sh * (h_out - 1) + 1, sh),
             slice(j * dw, j * dw + sw * (w_out - 1) + 1, sw))
            for i in range(kh) for j in range(kw)]


def conv_output_size(size, kernel, stride, pad, dilation) -> int:
    return (size + 2 * pad - dilation * (kernel - 1) - 1) // stride + 1


def conv2d_forward(x, weights, bias, stride=(1, 1), pad=(0, 0), dilation=(1, 1)):
    """Cross-correlation with zero padding, stride and dilation."""
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

    xp = np.zeros((1, c, h + 2 * ph, wid + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + wid] = x
    taps = _taps(kh, kw, h_out, w_out, stride, dilation)
    # One tap: column-major, the layout an index gather gives, since BLAS
    # rounds a matrix-vector product differently for the two layouts.
    patches = (np.empty((c, len(taps), h_out, w_out)) if len(taps) > 1
               else np.empty((1, h_out, w_out, c)).transpose(3, 0, 1, 2))
    for t, (rows, cols) in enumerate(taps):
        patches[:, t] = xp[0, :, rows, cols]
    y = w.reshape(out_ch, -1) @ patches.reshape(-1, h_out * w_out)
    y += b[:, None]
    cache = (patches, taps, xp.shape, w, np.s_[:, :, ph : ph + h, pw : pw + wid])
    return y.reshape(1, out_ch, h_out, w_out), cache


def conv2d_backward(grad_out, cache):
    """Gradients w.r.t. input, weights and bias."""
    patches, taps, xp_shape, w, crop = cache
    out_ch = w.shape[0]
    g = np.asarray(grad_out, dtype=np.float64).reshape(out_ch, -1)
    grad_b = g.sum(axis=1)
    grad_w = (g @ patches.reshape(-1, g.shape[1]).T).reshape(w.shape)
    grad_patches = (w.reshape(out_ch, -1).T @ g).reshape(patches.shape)
    grad_xp = np.zeros(xp_shape)
    for t, (rows, cols) in enumerate(taps):  # tap order fixes the summation order
        grad_xp[0, :, rows, cols] += grad_patches[:, t]
    return grad_xp[crop], grad_w, grad_b


def maxpool2d_forward(x, kernel=(5, 3), stride=(5, 1), pad=(1, 1)):
    """Max pooling over -inf padding; as with ``argmax``, the first maximum
    (or NaN) in row-major window order wins.

    Separable: each padded column's maximum over a window's rows and the
    first row holding it, then the maximum over the window's columns and
    the first tap ``row * kw + column`` among the columns holding that.
    """
    x = _check_tensor4(x)
    _, c, h, wid = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    h_out = conv_output_size(h, kh, sh, ph, 1)
    w_out = conv_output_size(wid, kw, sw, pw, 1)
    if h_out <= 0 or w_out <= 0:
        raise ValueError("input too small to pool")

    xp = np.full((c, h + 2 * ph, wid + 2 * pw), -np.inf)
    xp[:, ph : ph + h, pw : pw + wid] = x[0]
    rows = [xp[:, i : i + sh * (h_out - 1) + 1 : sh] for i in range(kh)]
    col_max = rows[0].copy()
    for r in rows[1:]:
        np.maximum(col_max, r, out=col_max)
    # A NaN no window reads changes nothing, so look only at what they read.
    has_nan = bool(np.isnan(col_max).any())
    # The first row holding the maximum is the number of leading rows that
    # miss it.
    dtype = np.min_scalar_type(2 * kh * kw)
    missed = _misses(rows[0], col_max, has_nan)
    first_row = missed.astype(dtype)
    for r in rows[1:-1]:
        missed &= _misses(r, col_max, has_nan)
        first_row += missed

    cols = [np.s_[:, :, j : j + sw * (w_out - 1) + 1 : sw] for j in range(kw)]
    y = col_max[cols[0]].copy()
    for cs in cols[1:]:
        np.maximum(y, col_max[cs], out=y)
    # The winning tap is the least row * kw + column over the columns that
    # hold the maximum; a column that misses it is pushed past every tap.
    first_tap = first_row * dtype.type(kw)
    arg = None
    for j, cs in enumerate(cols):
        key = first_tap[cs] + dtype.type(j)
        key += _misses(col_max[cs], y, has_nan) * dtype.type(kh * kw)
        arg = key if arg is None else np.minimum(arg, key, out=arg)
    # np.maximum may return either zero of a tie, or either NaN: take those
    # values from the winning position.
    fix = y == 0
    if has_nan:
        fix |= np.isnan(y)
    if fix.any():
        y[fix] = xp.ravel()[_winner_index(arg[fix], kw, (sh, sw), xp.shape,
                                          *np.nonzero(fix))]
    cache = (arg, kw, (sh, sw), (1, *xp.shape),
             np.s_[:, :, ph : ph + h, pw : pw + wid])
    return y[None], cache


def _misses(values, maximum, has_nan):
    """Where ``values`` does not hold ``maximum``: differs from it, and is
    not a NaN standing for a NaN maximum."""
    missed = values != maximum
    if has_nan:
        missed &= ~np.isnan(values)
    return missed


def _winner_index(arg, kw, stride, padded_shape, chan, row, col):
    """Flat index into the ``(C, H, W)`` padded input of the winning tap
    ``arg`` of output windows ``(chan, row, col)``."""
    _, hp, wp = padded_shape
    return ((chan * hp + stride[0] * row + arg // kw) * wp
            + stride[1] * col + arg % kw)


def maxpool2d_backward(grad_out, cache):
    """Route each output gradient to the input position that won the max.

    A cache extended by the ``(nonneg, slope)`` cache of a LeakyReLU applied
    to the pooled output also runs that activation's backward, in the place
    it would take if it had been applied before pooling: the gradients a
    position won are summed first and scaled once, by the slope where the
    pooled value is negative or NaN.  Scaling each pooled gradient before
    routing would round the sum differently.
    """
    arg, kw, stride, xp_shape, crop, *act = cache
    c, h_out, w_out = arg.shape
    flat = _winner_index(arg, kw, stride, xp_shape[1:], np.arange(c)[:, None, None],
                         np.arange(h_out)[:, None], np.arange(w_out))
    g = np.asarray(grad_out, dtype=np.float64).ravel()
    # bincount sums the gradients of one position in increasing output order
    grad_xp = np.bincount(flat.ravel(), weights=g, minlength=np.prod(xp_shape))
    if act:
        nonneg, slope = act
        grad_xp[flat[~nonneg.reshape(arg.shape)]] *= slope
    return grad_xp.reshape(xp_shape)[crop]


def leaky_relu_forward(x, slope=0.01):
    x = np.asarray(x, dtype=np.float64)
    nonneg = x >= 0
    return np.where(nonneg, x, slope * x), (nonneg, slope)


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
