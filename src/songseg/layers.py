"""From-scratch tensor layers with manual backward passes.

Every forward returns ``(output, cache)``; the matching backward consumes
the upstream gradient plus that cache and produces gradients by the chain
rule.  Tensors are ``(batch=1, channels, height, width)`` arrays; all
arithmetic runs in float64 regardless of input dtype so finite-difference
checks stay meaningful.

The convolution, the pool and the cache-free LeakyReLU take an optional
``buffers(role, shape)`` callable, such as :meth:`Workspace.buffers`, that
supplies their large temporaries in place of fresh arrays.  Their output
and cache then live in those buffers, and are overwritten when the buffers
are handed out again.
"""

from __future__ import annotations

import functools
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

    def buffers(self, layer: str, region=None, roles=()):
        """The ``buffers(role, shape)`` callable for one layer's roles; those
        named in ``roles`` come from ``region``, a :class:`Region`, instead."""
        return functools.partial(self._take, layer, region, roles)

    def flat(self, key: str, n: int) -> np.ndarray:
        """The whole buffer ``key``, grown to at least ``n`` elements."""
        if key not in self._flat or self._flat[key].size < n:
            self._flat.pop(key, None)  # free the old buffer before growing
            self._flat[key] = np.empty(n)
        return self._flat[key]

    def _take(self, layer, region, roles, role, shape):
        if role in roles:
            return region(role, shape)
        n = math.prod(shape)
        return self.flat(f"{layer}.{role}", n)[:n].reshape(shape)


class Region:
    """A ``buffers(role, shape)`` callable laying views end to end from the
    start of one flat buffer, for roles that are all dead before the
    buffer's own role writes it.  A view past its end is a ValueError."""

    def __init__(self, flat):
        self._flat = flat
        self._end = 0

    def __call__(self, role, shape):
        start, self._end = self._end, self._end + math.prod(shape)
        return self._flat[start : self._end].reshape(shape)


def _empty(buffers, role, shape):
    return np.empty(shape) if buffers is None else buffers(role, shape)


def _pad_into(out, x, pad, fill):
    """``out`` holding ``x`` inside a frame ``pad`` cells wide of ``fill``."""
    ph, pw = pad
    h, w = x.shape[-2:]
    out[..., :ph, :] = fill
    out[..., ph + h:, :] = fill
    out[..., ph : ph + h, :pw] = fill
    out[..., ph : ph + h, pw + w:] = fill
    out[..., ph : ph + h, pw : pw + w] = x
    return out


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


def conv2d_forward(x, weights, bias, stride=(1, 1), pad=(0, 0), dilation=(1, 1),
                   buffers=None):
    """Cross-correlation with zero padding, stride and dilation.

    ``buffers`` supplies the roles ``padded``, ``patches`` and ``out``.
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

    xp = x if ph == pw == 0 else _pad_into(
        _empty(buffers, "padded", (1, c, h + 2 * ph, wid + 2 * pw)), x, pad, 0.0)
    taps = _taps(kh, kw, h_out, w_out, stride, dilation)
    # One tap: column-major, the layout an index gather gives, since BLAS
    # rounds a matrix-vector product differently for the two layouts.
    patches = (_empty(buffers, "patches", (c, len(taps), h_out, w_out))
               if len(taps) > 1 else
               _empty(buffers, "patches", (1, h_out, w_out, c)).transpose(3, 0, 1, 2))
    for t, (rows, cols) in enumerate(taps):
        patches[:, t] = xp[0, :, rows, cols]
    y = np.matmul(w.reshape(out_ch, -1), patches.reshape(-1, h_out * w_out),
                  out=_empty(buffers, "out", (out_ch, h_out * w_out)))
    y += b[:, None]
    cache = (patches, taps, xp.shape, w, np.s_[:, :, ph : ph + h, pw : pw + wid])
    return y.reshape(1, out_ch, h_out, w_out), cache


def conv2d_backward(grad_out, cache, input_grad=True, buffers=None):
    """Gradients w.r.t. input, weights and bias.

    With ``input_grad`` false the input gradient is not computed and None
    stands in for it.  ``buffers`` supplies the role ``grad_patches``.
    """
    patches, taps, xp_shape, w, crop = cache
    out_ch = w.shape[0]
    g = np.asarray(grad_out, dtype=np.float64).reshape(out_ch, -1)
    grad_b = g.sum(axis=1)
    grad_w = (g @ patches.reshape(-1, g.shape[1]).T).reshape(w.shape)
    if not input_grad:
        return None, grad_w, grad_b
    w2 = w.reshape(out_ch, -1)
    grad_patches = np.matmul(w2.T, g, out=_empty(
        buffers, "grad_patches", (w2.shape[1], g.shape[1]))).reshape(patches.shape)
    grad_xp = np.zeros(xp_shape)
    for t, (rows, cols) in enumerate(taps):  # tap order fixes the summation order
        grad_xp[0, :, rows, cols] += grad_patches[:, t]
    return grad_xp[crop], grad_w, grad_b


def maxpool2d_forward(x, kernel=(5, 3), stride=(5, 1), pad=(1, 1), buffers=None,
                      keep_cache=True):
    """Max pooling over -inf padding; as with ``argmax``, the first maximum
    (or NaN) in row-major window order wins.

    Separable: each padded column's maximum over a window's rows, then the
    maximum over the window's columns.  Only ``backward`` and a window whose
    maximum is 0 or NaN need the winning tap; with ``keep_cache`` false it
    is found only for such windows, and the cache is None.  ``buffers``
    supplies the roles ``padded``, ``col_max`` and ``out``.
    """
    x = _check_tensor4(x)
    _, c, h, wid = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    h_out = conv_output_size(h, kh, sh, ph, 1)
    w_out = conv_output_size(wid, kw, sw, pw, 1)
    if h_out <= 0 or w_out <= 0:
        raise ValueError("input too small to pool")

    xp = _pad_into(_empty(buffers, "padded", (c, h + 2 * ph, wid + 2 * pw)),
                   x[0], pad, -np.inf)
    rows = [xp[:, i : i + sh * (h_out - 1) + 1 : sh] for i in range(kh)]
    col_max = _empty(buffers, "col_max", rows[0].shape)
    col_max[...] = rows[0]
    for r in rows[1:]:
        np.maximum(col_max, r, out=col_max)
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
    arg = _first_max_tap(rows, col_max, cols, y, kh, kw, has_nan)
    if fix.any():
        y[fix] = xp.ravel()[_winner_index(arg[fix], kw, (sh, sw), xp.shape,
                                          *np.nonzero(fix))]
    cache = (arg, kw, (sh, sw), np.s_[:, :, ph : ph + h, pw : pw + wid])
    return y[None], (cache if keep_cache else None)


def _first_max_tap(rows, col_max, cols, y, kh, kw, has_nan):
    """Each window's winning tap ``row * kw + column``.

    The first row holding a column's maximum is the number of leading rows
    that miss it; the winner is the least such tap over the columns that
    hold the window's maximum, and a column that misses it is pushed past
    every tap.
    """
    dtype = np.min_scalar_type(2 * kh * kw)
    missed = _misses(rows[0], col_max, has_nan)
    first_row = missed.astype(dtype)
    for r in rows[1:-1]:
        missed &= _misses(r, col_max, has_nan)
        first_row += missed
    first_tap = first_row * dtype.type(kw)
    arg = None
    for j, cs in enumerate(cols):
        key = first_tap[cs] + dtype.type(j)
        key += _misses(col_max[cs], y, has_nan) * dtype.type(kh * kw)
        arg = key if arg is None else np.minimum(arg, key, out=arg)
    return arg


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

    A window won by padding (every value it reads is -inf) routes nowhere.
    A cache extended by the ``(nonneg, slope)`` cache of a LeakyReLU applied
    to the pooled output also runs that activation's backward, in the place
    it would take if it had been applied before pooling: the gradients a
    position won are summed first and scaled once, by the slope where the
    pooled value is negative or NaN.  Scaling each pooled gradient before
    routing would round the sum differently.
    """
    arg, kw, stride, crop, *act = cache
    c, h_out, w_out = arg.shape
    _, _, rows, cols = crop
    h, w = rows.stop - rows.start, cols.stop - cols.start
    n = c * h * w
    # The winner's row and column in the unpadded input.
    r = stride[0] * np.arange(h_out)[:, None] - rows.start + arg // kw
    q = stride[1] * np.arange(w_out) - cols.start + arg % kw
    flat = ((np.arange(c)[:, None, None] * h + r) * w + q).ravel()
    if r.min() < 0 or r.max() >= h or q.min() < 0 or q.max() >= w:
        # padding's winners go to an extra bin, which is dropped
        flat[((r < 0) | (r >= h) | (q < 0) | (q >= w)).ravel()] = n
    g = np.asarray(grad_out, dtype=np.float64).ravel()
    # bincount sums the gradients of one position in increasing output order
    grad_x = np.bincount(flat, weights=g, minlength=n + 1)
    if act:
        nonneg, slope = act
        grad_x[flat[~nonneg.ravel()]] *= slope
    return grad_x[:n].reshape(1, c, h, w)


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
