"""The fully-convolutional boundary detector.

Four convolutions and one pooling stage map a single-channel input image
(feature bins x time frames) to one logit per time frame.  The first two
convolutions are shape-preserving in time; after pooling, the remaining
height is folded into channels so the last two layers are 1x1 convolutions
over time only.  Because that fold ties the third convolution's input
channel count to the pooled height, a model is built for a specific input
height and records it.
"""

from __future__ import annotations

import math

import numpy as np

from . import layers

LEAKY_SLOPE = 0.01

CONV1 = {"maps": 32, "kernel": (5, 7), "stride": (1, 1), "pad": (2, 3),
         "dilation": (1, 1)}
POOL = {"kernel": (5, 3), "stride": (5, 1), "pad": (1, 1)}
CONV2 = {"maps": 64, "kernel": (3, 5), "stride": (1, 1), "pad": (1, 6),
         "dilation": (1, 3)}
CONV3 = {"maps": 128, "kernel": (1, 1), "stride": (1, 1), "pad": (0, 0),
         "dilation": (1, 1)}
CONV4 = {"maps": 1, "kernel": (1, 1), "stride": (1, 1), "pad": (0, 0),
         "dilation": (1, 1)}


def param_shapes(input_height: int) -> dict:
    """Name -> shape of each parameter, in initialisation and checkpoint order."""
    if input_height < 3:
        raise ValueError("input height must be at least 3")
    # conv3's input channels are conv2's maps times the pooled height
    conv3_in = CONV2["maps"] * layers.conv_output_size(
        input_height, POOL["kernel"][0], POOL["stride"][0], POOL["pad"][0], 1)
    return {
        "conv1.w": (CONV1["maps"], 1, *CONV1["kernel"]),
        "conv1.b": (CONV1["maps"],),
        "conv2.w": (CONV2["maps"], CONV1["maps"], *CONV2["kernel"]),
        "conv2.b": (CONV2["maps"],),
        "conv3.w": (CONV3["maps"], conv3_in, *CONV3["kernel"]),
        "conv3.b": (CONV3["maps"],),
        "conv4.w": (CONV4["maps"], CONV3["maps"], *CONV4["kernel"]),
        "conv4.b": (CONV4["maps"],),
    }


PARAM_NAMES = tuple(param_shapes(3))


def _he_uniform(rng, shape) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class BoundaryNet:
    """Boundary detector for inputs of a fixed height.

    Parameters are stored as float32 (what checkpoints carry); all forward
    and backward arithmetic happens in float64.  They are He-uniform weights
    drawn from ``seed`` and zero biases, or copies of ``params``, checked as
    :meth:`load_params` checks them.  The large temporaries of conv1-conv3
    and the pool live in a workspace the model keeps between calls, grown to
    the widest input seen, so one model must not run two forwards at once.
    """

    def __init__(self, input_height: int, seed: int = 0, params: dict = None):
        self.input_height = int(input_height)
        if params is None:
            rng = np.random.default_rng(seed)
            self.params = {
                name: _he_uniform(rng, shape) if name.endswith(".w")
                else np.zeros(shape, dtype=np.float32)
                for name, shape in param_shapes(self.input_height).items()
            }
        else:
            self.params = {}
            self.load_params(params)
        self.workspace = layers.Workspace()
        self._generation = 0  # forwards run; caches record theirs

    def _as_tensor(self, x) -> np.ndarray:
        """Accept a 2-D (bins x frames) image or a (1,1,H,W) tensor."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[None, None]
        if x.ndim != 4:
            raise ValueError(f"expected a 2-D image or 4-D tensor, got {x.shape}")
        if x.shape[2] != self.input_height:
            raise ValueError(
                f"model expects height {self.input_height}, input has {x.shape[2]}"
            )
        return x

    def _front_sizes(self, width: int):
        """Elements of conv2's patch matrix and output buffers at ``width``
        (conv1 and conv2 keep the width).  conv1's patches and output, laid
        end to end, fit in the patch matrix for every height of 3 or more:
        67·h·W against 480·W per pooled row, tightest at h = 7 (469·W
        against 480·W).  The pool's column maxima (W + 2 columns) and output
        (W columns) end to end take 64·(W + 1) per pooled row, and conv2's
        output 64·W."""
        pooled = layers.conv_output_size(self.input_height, POOL["kernel"][0],
                                         POOL["stride"][0], POOL["pad"][0], 1)
        return (CONV1["maps"] * math.prod(CONV2["kernel"]) * pooled * width,
                2 * CONV1["maps"] * pooled * (width + 1))

    def forward_with_cache(self, x, keep_cache=True):
        """Logits and the per-layer caches ``backward`` reads.

        The caches point into the model's workspace, so they stay valid
        until the next forward of either kind on this model.  With
        ``keep_cache`` false the pool skips finding its winners and None
        stands in for the caches.

        The first activation runs after the pool, on a 5x smaller tensor.
        LeakyReLU is non-decreasing, so pooling first gives the same maxima
        and, with the slope applied to routed sums in ``backward``, the same
        gradients as activating first.  The one exception is a window whose
        maximum is two distinct negative values that the slope rounds to one
        value (adjacent doubles or subnormals): activating first routes to
        the earlier of the two, pooling first to the larger.
        """
        x = self._as_tensor(x)
        p = self.params
        ws = self.workspace
        self._generation += 1
        caches = {"generation": self._generation}
        # conv1's output is dead once the pool returns, and so are conv1's
        # patches when backward will not read them: they lie end to end in
        # conv2's patch buffer, which conv2's im2col then overwrites from
        # its start.  Without caches, each activation's scaled copy goes at
        # its start too.  The pool's column maxima and output lie end to end
        # in conv2's output buffer: neither is cached, and conv2's im2col has
        # read the output before its GEMM writes there.  conv3 reads conv2's
        # output buffer in place, and nothing writes that buffer before
        # backward.
        patches_size, out_size = self._front_sizes(x.shape[3])
        front = ws.flat("conv2.patches", patches_size)
        pool_front = ws.flat("conv2.out", out_size)
        conv1 = ws.buffers("conv1", front,
                           ("out",) if keep_cache else ("patches", "out"))
        h, caches["conv1"] = layers.conv2d_forward(
            x, p["conv1.w"], p["conv1.b"], CONV1["stride"], CONV1["pad"],
            CONV1["dilation"], buffers=conv1)
        h, caches["pool"] = layers.maxpool2d_forward(
            h, POOL["kernel"], POOL["stride"], POOL["pad"],
            buffers=ws.buffers("pool", pool_front, ("col_max", "out")),
            keep_cache=keep_cache)
        h, caches["act1"] = layers.leaky_relu_forward(
            h, LEAKY_SLOPE, inplace=True, keep_cache=keep_cache,
            buffers=ws.buffers("act", front, ("scaled",)))
        h, caches["conv2"] = layers.conv2d_forward(
            h, p["conv2.w"], p["conv2.b"], CONV2["stride"], CONV2["pad"],
            CONV2["dilation"], buffers=ws.buffers("conv2"))
        h, caches["act2"] = layers.leaky_relu_forward(
            h, LEAKY_SLOPE, inplace=True, keep_cache=keep_cache,
            buffers=ws.buffers("act", front, ("scaled",)))
        h, caches["collapse"] = layers.collapse_freq_forward(h)
        h, caches["conv3"] = layers.conv2d_forward(
            h, p["conv3.w"], p["conv3.b"], CONV3["stride"], CONV3["pad"],
            CONV3["dilation"], buffers=ws.buffers("conv3"))
        h, caches["act3"] = layers.leaky_relu_forward(
            h, LEAKY_SLOPE, inplace=True, keep_cache=keep_cache,
            buffers=ws.buffers("act", front, ("scaled",)))
        # conv4's output holds the logits: a fresh array, not a buffer.
        h, caches["conv4"] = layers.conv2d_forward(
            h, p["conv4.w"], p["conv4.b"], CONV4["stride"], CONV4["pad"],
            CONV4["dilation"])
        return h[0, 0, 0, :], (caches if keep_cache else None)

    def forward(self, x) -> np.ndarray:
        """Logit curve, one value per input time frame."""
        logits, _ = self.forward_with_cache(x, keep_cache=False)
        return logits

    def backward(self, grad_logits, caches, input_grad=True):
        """Parameter gradients and the input gradient for a logit gradient.

        The caches must come from this model's latest forward (else
        ValueError).  With ``input_grad`` false the input gradient, which
        training does not use, is not computed and None stands in for it.
        """
        if caches.get("generation") != self._generation:
            raise ValueError("stale caches: a later forward on this model "
                             "has reused their buffers")
        g = np.asarray(grad_logits, dtype=np.float64).reshape(1, 1, 1, -1)
        grads = {}
        g, grads["conv4.w"], grads["conv4.b"] = layers.conv2d_backward(
            g, caches["conv4"])
        g = layers.leaky_relu_backward(g, caches["act3"])
        g, grads["conv3.w"], grads["conv3.b"] = layers.conv2d_backward(
            g, caches["conv3"])
        g = layers.collapse_freq_backward(g, caches["collapse"])
        g = layers.leaky_relu_backward(g, caches["act2"])
        g, grads["conv2.w"], grads["conv2.b"] = layers.conv2d_backward(
            g, caches["conv2"], buffers=self.workspace.buffers("conv2"))
        # The pool's backward also scales by act1's slope, after routing.
        g = layers.maxpool2d_backward(g, (*caches["pool"], *caches["act1"]))
        g, grads["conv1.w"], grads["conv1.b"] = layers.conv2d_backward(
            g, caches["conv1"], input_grad=input_grad)
        return grads, g

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    def load_params(self, params: dict) -> None:
        for name, shape in param_shapes(self.input_height).items():
            if name not in params:
                raise ValueError(f"missing parameter {name}")
            if params[name].shape != shape:
                raise ValueError(
                    f"parameter {name} has shape {params[name].shape}, "
                    f"expected {shape}"
                )
            self.params[name] = params[name].astype(np.float32, copy=True)
