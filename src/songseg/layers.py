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


def _gather_indices(kh, kw, h_out, w_out, stride, dilation):
    """Row/col index grids mapping padded input positions to output patches."""
    sh, sw = stride
    dh, dw = dilation
    i0 = np.repeat(dh * np.arange(kh), kw)
    j0 = np.tile(dw * np.arange(kw), kh)
    i1 = sh * np.repeat(np.arange(h_out), w_out)
    j1 = sw * np.tile(np.arange(w_out), h_out)
    rows = i0[:, None] + i1[None, :]
    cols = j0[:, None] + j1[None, :]
    return rows, cols


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
    rows, cols = _gather_indices(kh, kw, h_out, w_out, stride, dilation)
    patches = xp[0][:, rows, cols].reshape(c * kh * kw, h_out * w_out)
    y = (w.reshape(out_ch, -1) @ patches + b[:, None]).reshape(1, out_ch, h_out, w_out)
    cache = (patches, rows, cols, x.shape, xp.shape, w, pad)
    return y, cache


def conv2d_backward(grad_out, cache):
    """Gradients w.r.t. input, weights and bias."""
    patches, rows, cols, x_shape, xp_shape, w, pad = cache
    out_ch = w.shape[0]
    g = np.asarray(grad_out, dtype=np.float64).reshape(out_ch, -1)
    grad_b = g.sum(axis=1)
    grad_w = (g @ patches.T).reshape(w.shape)

    grad_patches = (w.reshape(out_ch, -1).T @ g).reshape(
        x_shape[1], rows.shape[0], rows.shape[1]
    )
    grad_xp = np.zeros(xp_shape)
    chans = np.arange(x_shape[1])[:, None, None]
    np.add.at(grad_xp[0], (chans, rows[None], cols[None]), grad_patches)
    ph, pw = pad
    h, wid = x_shape[2], x_shape[3]
    grad_x = grad_xp[:, :, ph : ph + h, pw : pw + wid]
    return grad_x, grad_w, grad_b


def maxpool2d_forward(x, kernel=(5, 3), stride=(5, 1), pad=(1, 1)):
    """Max pooling; padded positions hold -inf and are never selected."""
    x = _check_tensor4(x)
    _, c, h, wid = x.shape
    kh, kw = kernel
    ph, pw = pad
    h_out = conv_output_size(h, kh, stride[0], ph, 1)
    w_out = conv_output_size(wid, kw, stride[1], pw, 1)
    if h_out <= 0 or w_out <= 0:
        raise ValueError("input too small to pool")

    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    rows, cols = _gather_indices(kh, kw, h_out, w_out, stride, (1, 1))
    windows = xp[0][:, rows, cols]  # (C, kh*kw, L)
    arg = windows.argmax(axis=1)
    y = np.take_along_axis(windows, arg[:, None, :], axis=1)[:, 0, :]
    y = y.reshape(1, c, h_out, w_out)
    cache = (arg, rows, cols, x.shape, xp.shape, pad)
    return y, cache


def maxpool2d_backward(grad_out, cache):
    """Route each output gradient to the input position that won the max."""
    arg, rows, cols, x_shape, xp_shape, pad = cache
    c = x_shape[1]
    n_out = rows.shape[1]
    g = np.asarray(grad_out, dtype=np.float64).reshape(c, n_out)
    sel = np.arange(n_out)[None, :]
    rows_sel = rows[arg, sel]
    cols_sel = cols[arg, sel]
    grad_xp = np.zeros(xp_shape)
    chans = np.arange(c)[:, None]
    np.add.at(grad_xp[0], (chans, rows_sel, cols_sel), g)
    ph, pw = pad
    h, wid = x_shape[2], x_shape[3]
    return grad_xp[:, :, ph : ph + h, pw : pw + wid]


def leaky_relu_forward(x, slope=0.01):
    x = np.asarray(x, dtype=np.float64)
    y = np.where(x >= 0, x, slope * x)
    return y, (x >= 0, slope)


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
