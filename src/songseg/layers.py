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
    input it reads: im2col, col2im and the pooling maximum loop over taps.
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

    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    taps = _taps(kh, kw, h_out, w_out, stride, dilation)
    # One tap: column-major, the layout an index gather gives, since BLAS
    # rounds a matrix-vector product differently for the two layouts.
    patches = (np.empty((c, len(taps), h_out, w_out)) if len(taps) > 1
               else np.empty((1, h_out, w_out, c)).transpose(3, 0, 1, 2))
    for t, (rows, cols) in enumerate(taps):
        patches[:, t] = xp[0, :, rows, cols]
    y = w.reshape(out_ch, -1) @ patches.reshape(-1, h_out * w_out) + b[:, None]
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
    """
    x = _check_tensor4(x)
    _, c, h, wid = x.shape
    (kh, kw), (ph, pw) = kernel, pad
    h_out = conv_output_size(h, kh, stride[0], ph, 1)
    w_out = conv_output_size(wid, kw, stride[1], pw, 1)
    if h_out <= 0 or w_out <= 0:
        raise ValueError("input too small to pool")

    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    taps = _taps(kh, kw, h_out, w_out, stride, (1, 1))
    y = xp[0, :, taps[0][0], taps[0][1]]
    arg = np.zeros(y.shape, dtype=np.min_scalar_type(len(taps) - 1))
    has_nan = np.isnan(x).any()
    for t, (rows, cols) in enumerate(taps[1:], start=1):
        tap = xp[0, :, rows, cols]
        wins = tap > y
        if has_nan:
            wins |= np.isnan(tap) & ~np.isnan(y)
        y = np.where(wins, tap, y)
        arg = np.where(wins, arg.dtype.type(t), arg)
    cache = (arg, kw, stride, xp.shape, np.s_[:, :, ph : ph + h, pw : pw + wid])
    return np.ascontiguousarray(y)[None], cache


def maxpool2d_backward(grad_out, cache):
    """Route each output gradient to the input position that won the max."""
    arg, kw, (sh, sw), xp_shape, crop = cache
    c, h_out, w_out = arg.shape
    rows = sh * np.arange(h_out)[:, None] + arg // kw
    cols = sw * np.arange(w_out) + arg % kw
    flat = (np.arange(c)[:, None, None] * xp_shape[2] + rows) * xp_shape[3] + cols
    g = np.asarray(grad_out, dtype=np.float64).ravel()
    # bincount sums the gradients of one position in increasing output order
    grad_xp = np.bincount(flat.ravel(), weights=g, minlength=np.prod(xp_shape))
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
