import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg import layers, model
from songseg.params import RunConfig
from songseg.pipeline import extract_inputs
from songseg.synth import synth_corpus

from oracles import (boundary_net_act_first, conv2d_by_gather, finite_difference,
                     leaky_relu_by_where, maxpool2d_backward_padded, maxpool2d_by_gather, maxpool2d_per_tap,
                     relative_error)

GRAD_TOL = 1e-4


class TestConv2d:
    def test_identity_1x1(self):
        x = np.arange(24, dtype=np.float64).reshape(1, 1, 4, 6)
        w = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        y, _ = layers.conv2d_forward(x, w, b)
        np.testing.assert_array_equal(y, x)

    def test_shape_preserving_first_layer(self):
        # kernel 5x7, stride 1, padding 2x3 keeps both dimensions
        x = np.zeros((1, 1, 180, 37))
        w = np.zeros((32, 1, 5, 7))
        y, _ = layers.conv2d_forward(x, w, np.zeros(32), (1, 1), (2, 3))
        assert y.shape == (1, 32, 180, 37)

    def test_dilated_layer_shape(self):
        # kernel 3x5, padding 1x6, dilation 1x3 keeps both dimensions
        x = np.zeros((1, 32, 16, 91))
        w = np.zeros((64, 32, 3, 5))
        y, _ = layers.conv2d_forward(x, w, np.zeros(64), (1, 1), (1, 6), (1, 3))
        assert y.shape == (1, 64, 16, 91)

    def test_all_ones_kernel_interior(self):
        c = 1.7
        x = np.full((1, 1, 6, 6), c)
        w = np.ones((1, 1, 3, 3))
        y, _ = layers.conv2d_forward(x, w, np.zeros(1), (1, 1), (0, 0))
        np.testing.assert_allclose(y, 9 * c)

    def test_bias_applied(self):
        x = np.zeros((1, 1, 3, 3))
        w = np.zeros((2, 1, 1, 1))
        y, _ = layers.conv2d_forward(x, w, np.array([0.5, -1.0]))
        assert np.all(y[0, 0] == 0.5)
        assert np.all(y[0, 1] == -1.0)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            layers.conv2d_forward(np.zeros((1, 3, 4, 4)),
                                  np.zeros((2, 2, 1, 1)), np.zeros(2))

    @pytest.mark.parametrize("stride,pad,dilation", [
        ((1, 1), (1, 1), (1, 1)),
        ((2, 1), (0, 2), (1, 1)),
        ((1, 1), (1, 6), (1, 3)),
    ])
    def test_gradients_match_finite_differences(self, stride, pad, dilation):
        rng = np.random.default_rng(hash((stride, pad, dilation)) % 2**32)
        x = rng.standard_normal((1, 2, 8, 10))
        w = rng.standard_normal((3, 2, 3, 5)) * 0.4
        b = rng.standard_normal(3) * 0.1
        y, cache = layers.conv2d_forward(x, w, b, stride, pad, dilation)
        upstream = rng.standard_normal(y.shape)
        gx, gw, gb = layers.conv2d_backward(upstream, cache)

        def loss_of(which):
            def f(v):
                args = {"x": x, "w": w, "b": b}
                args[which] = v
                out, _ = layers.conv2d_forward(args["x"], args["w"], args["b"],
                                               stride, pad, dilation)
                return float((out * upstream).sum())
            return f

        assert relative_error(gx, finite_difference(loss_of("x"), x)) < GRAD_TOL
        assert relative_error(gw, finite_difference(loss_of("w"), w)) < GRAD_TOL
        assert relative_error(gb, finite_difference(loss_of("b"), b)) < GRAD_TOL


class TestLeakyRelu:
    def test_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        y, _ = layers.leaky_relu_forward(x)
        np.testing.assert_allclose(y, [-0.02, 0.0, 3.0])

    def test_nonnegative_passthrough(self, rng):
        x = np.abs(rng.standard_normal((1, 2, 3, 4)))
        y, _ = layers.leaky_relu_forward(x)
        np.testing.assert_array_equal(y, x)

    def test_gradient(self, rng):
        x = rng.standard_normal(50) + 0.01  # keep clear of the kink
        y, cache = layers.leaky_relu_forward(x)
        upstream = rng.standard_normal(50)
        analytic = layers.leaky_relu_backward(upstream, cache)

        def loss(v):
            out, _ = layers.leaky_relu_forward(v)
            return float((out * upstream).sum())

        assert relative_error(analytic, finite_difference(loss, x)) < GRAD_TOL


class TestMaxPool:
    def test_height_eighty_pools_to_sixteen(self):
        y, _ = layers.maxpool2d_forward(np.zeros((1, 4, 80, 33)))
        assert y.shape == (1, 4, 16, 33)

    def test_width_preserved(self, rng):
        x = rng.standard_normal((1, 2, 23, 57))
        y, _ = layers.maxpool2d_forward(x)
        assert y.shape[3] == 57

    def test_constant_input(self):
        x = np.full((1, 1, 10, 8), 4.25)
        y, _ = layers.maxpool2d_forward(x)
        assert np.all(y == 4.25)

    def test_gradient_routes_to_argmax(self, rng):
        x = rng.standard_normal((1, 2, 11, 9))
        y, cache = layers.maxpool2d_forward(x)
        upstream = rng.standard_normal(y.shape)
        analytic = layers.maxpool2d_backward(upstream, cache)

        def loss(v):
            out, _ = layers.maxpool2d_forward(v)
            return float((out * upstream).sum())

        assert relative_error(analytic, finite_difference(loss, x)) < GRAD_TOL


class TestCollapseFreq:
    def test_shape(self):
        y, _ = layers.collapse_freq_forward(np.zeros((1, 64, 16, 100)))
        assert y.shape == (1, 1024, 1, 100)

    def test_roundtrip(self, rng):
        x = rng.standard_normal((1, 3, 4, 5))
        y, cache = layers.collapse_freq_forward(x)
        back = layers.collapse_freq_backward(y, cache)
        np.testing.assert_array_equal(back, x)

    def test_channel_placement_rule(self):
        x = np.zeros((1, 2, 3, 4))
        x[0, 1, 2, 0] = 7.0  # channel c=1, height h=2 -> flat channel c*H+h=5
        y, _ = layers.collapse_freq_forward(x)
        assert y[0, 5, 0, 0] == 7.0


class TestBceWithLogits:
    def test_symmetric_point(self):
        loss, _ = layers.bce_with_logits(np.zeros(4), np.full(4, 0.5))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_worked_value(self):
        loss, _ = layers.bce_with_logits(np.array([2.0]), np.array([1.0]))
        assert loss == pytest.approx(np.log1p(np.exp(-2.0)), abs=1e-12)

    def test_overflow_stability(self):
        loss, grad = layers.bce_with_logits(np.array([1000.0]), np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_target_domain(self):
        with pytest.raises(ValueError):
            layers.bce_with_logits(np.zeros(2), np.array([0.5, 1.2]))

    def test_matches_naive_form(self, rng):
        z = rng.uniform(-20.0, 20.0, 200)
        y = rng.uniform(0.0, 1.0, 200)
        loss, _ = layers.bce_with_logits(z, y)
        sig = 1.0 / (1.0 + np.exp(-z))
        naive = float(np.mean(-(y * np.log(sig) + (1 - y) * np.log(1 - sig))))
        assert loss == pytest.approx(naive, abs=1e-10)

    def test_gradient(self, rng):
        z = rng.standard_normal(30)
        y = rng.uniform(0.0, 1.0, 30)
        _, grad = layers.bce_with_logits(z, y)

        def loss(v):
            out, _ = layers.bce_with_logits(v, y)
            return out

        assert relative_error(grad, finite_difference(loss, z)) < GRAD_TOL


# Values on a coarse grid so that ties, plateaus and signed zeros are common.
_GRID = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.0, -3.25])
_VALUES = _GRID | st.floats(-4.0, 4.0, allow_nan=False, width=64)


@st.composite
def _geometry(draw, max_dilation):
    """Kernel, stride, pad, dilation and an input size with at least one output."""
    kernel = (draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    pad = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    dilation = (draw(st.integers(1, max_dilation)), draw(st.integers(1, max_dilation)))
    lows = [max(1, d * (k - 1) + 1 - 2 * p) for k, p, d in zip(kernel, pad, dilation)]
    size = tuple(draw(st.integers(low, max(low, 11))) for low in lows)
    return kernel, stride, pad, dilation, size


def _assert_conv_matches_gather(x, w, b, stride, pad, dilation, grad_seed):
    y, cache = layers.conv2d_forward(x, w, b, stride, pad, dilation)
    y_ref, grad_ref = conv2d_by_gather(x, w, b, stride, pad, dilation)
    assert np.array_equal(y, y_ref)
    upstream = np.random.default_rng(grad_seed).standard_normal(y.shape)
    for got, want in zip(layers.conv2d_backward(upstream, cache), grad_ref(upstream)):
        assert np.array_equal(got, want)


def _assert_pool_matches_gather(x, kernel, stride, pad, grad_seed):
    y, cache = layers.maxpool2d_forward(x, kernel, stride, pad)
    y_ref, grad_ref = maxpool2d_by_gather(x, kernel, stride, pad)
    assert np.array_equal(y, y_ref, equal_nan=True)
    assert np.array_equal(np.signbit(y), np.signbit(y_ref))
    upstream = np.random.default_rng(grad_seed).standard_normal(y.shape)
    assert np.array_equal(layers.maxpool2d_backward(upstream, cache),
                          grad_ref(upstream))


class TestBitIdenticalToGatherScatter:
    """Strided-slice kernels against the index-gather / ``np.add.at`` references."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), geometry=_geometry(max_dilation=3),
           channels=st.integers(1, 3), maps=st.integers(1, 3))
    def test_conv_any_geometry(self, data, geometry, channels, maps):
        kernel, stride, pad, dilation, (h, w) = geometry
        x = data.draw(arrays(np.float64, (1, channels, h, w), elements=_VALUES))
        weights = data.draw(arrays(np.float64, (maps, channels, *kernel),
                                   elements=_VALUES))
        bias = data.draw(arrays(np.float64, maps, elements=_VALUES))
        _assert_conv_matches_gather(x, weights, bias, stride, pad, dilation,
                                    data.draw(st.integers(0, 2**32 - 1)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), geometry=_geometry(max_dilation=1),
           channels=st.integers(1, 3))
    def test_pool_ties_plateaus_and_padding(self, data, geometry, channels):
        kernel, stride, pad, _, (h, w) = geometry
        # -inf inputs tie with the padding; NaN counts as the maximum.
        elements = _GRID | st.sampled_from([-np.inf, np.nan])
        x = data.draw(arrays(np.float64, (1, channels, h, w), elements=elements))
        _assert_pool_matches_gather(x, kernel, stride, pad,
                                    data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize("spec, shape", [
        (model.CONV1, (1, 1, 20, 33)),
        (model.CONV2, (1, 32, 4, 33)),
        (model.CONV3, (1, 256, 1, 33)),
        (model.CONV4, (1, 128, 1, 33)),
    ])
    def test_model_convolutions(self, rng, spec, shape):
        x = rng.standard_normal(shape)
        w = rng.standard_normal((spec["maps"], shape[1], *spec["kernel"]))
        b = rng.standard_normal(spec["maps"])
        _assert_conv_matches_gather(x, w, b, spec["stride"], spec["pad"],
                                    spec["dilation"], grad_seed=1)

    @pytest.mark.parametrize("maps, stride, pad, in_place", [
        (4, (1, 1), (0, 0), True),  # conv3: the input is the patch matrix
        (1, (1, 1), (0, 0), False),  # conv4: a matrix-vector product
        (4, (1, 1), (1, 2), False),  # padded: im2col frames the input with zeros
        (4, (2, 3), (0, 0), False),
    ])
    def test_single_tap_convolutions(self, rng, maps, stride, pad, in_place):
        x = rng.standard_normal((1, 3, 7, 11))
        w = rng.standard_normal((maps, 3, 1, 1))
        b = rng.standard_normal(maps)
        _assert_conv_matches_gather(x, w, b, stride, pad, (1, 1), grad_seed=3)
        _, cache = layers.conv2d_forward(x, w, b, stride, pad)
        assert np.shares_memory(cache[0], x) == in_place

    @pytest.mark.parametrize("channels, frames", [(1024, 5), (1024, 7), (64, 122)])
    def test_small_in_place_products_within_rounding(self, rng, channels, frames):
        # conv3's shape with at most 10^6 multiply-adds: OpenBLAS 0.3.31's
        # small-matrix kernels round the in-place (row-major) patches and the
        # gather's column-major ones differently in the last bits.  Each value
        # stays within n * eps * (the same sum over absolute values), the
        # rounding bound of a sum of n products, n = channels + maps.
        x = rng.standard_normal((1, channels, 1, frames))
        w = rng.standard_normal((model.CONV3["maps"], channels, 1, 1))
        b = rng.standard_normal(model.CONV3["maps"])
        y, cache = layers.conv2d_forward(x, w, b)
        assert np.shares_memory(cache[0], x)
        geometry = ((1, 1), (0, 0), (1, 1))
        y_ref, grad_ref = conv2d_by_gather(x, w, b, *geometry)
        y_abs, grad_abs = conv2d_by_gather(abs(x), abs(w), abs(b), *geometry)
        upstream = rng.standard_normal(y.shape)
        tol = (channels + len(b)) * np.finfo(np.float64).eps
        for got, want, scale in zip((y, *layers.conv2d_backward(upstream, cache)),
                                    (y_ref, *grad_ref(upstream)),
                                    (y_abs, *grad_abs(abs(upstream)))):
            assert np.all(abs(got - want) <= tol * scale)

    def test_model_pool_on_rectified_input(self, rng):
        # leaky-ReLU output of a zero-padded convolution: plateaus of zeros
        x = np.maximum(rng.standard_normal((1, 32, 20, 33)), 0.0)
        x[..., :4] = 0.0
        _assert_pool_matches_gather(x, model.POOL["kernel"], model.POOL["stride"],
                                    model.POOL["pad"], grad_seed=2)


_SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def _pool_geometry(draw):
    """Kernel, stride, pad and an input size with at least one output,
    strides above the kernel (rows and columns no window reads) included."""
    kernel = (draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    stride = (draw(st.integers(1, 7)), draw(st.integers(1, 5)))
    pad = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    lows = [max(1, k - 2 * p) for k, p in zip(kernel, pad)]
    size = tuple(draw(st.integers(low, low + 12)) for low in lows)
    return kernel, stride, pad, size


def _unread(size, kernel, stride, pad):
    """Input indices along one axis that no pooling window reads."""
    n_out = layers.conv_output_size(size, kernel, stride, pad, 1)
    read = {stride * o + k - pad for o in range(n_out) for k in range(kernel)}
    return [i for i in range(size) if i not in read]


def _assert_pool_matches_per_tap(x, kernel, stride, pad, grad_seed):
    y, cache = layers.maxpool2d_forward(x, kernel, stride, pad)
    y_ref, cache_ref = maxpool2d_per_tap(x, kernel, stride, pad)
    assert np.array_equal(y, y_ref, equal_nan=True)
    assert np.array_equal(np.signbit(y), np.signbit(y_ref))
    assert np.array_equal(cache[0], cache_ref[0])
    upstream = np.random.default_rng(grad_seed).standard_normal(y.shape)
    assert np.array_equal(layers.maxpool2d_backward(upstream, cache),
                          layers.maxpool2d_backward(upstream, cache_ref))


class TestSeparablePool:
    """The separable first-maximum pool against the former per-tap form."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), geometry=_pool_geometry(), channels=st.integers(1, 3))
    def test_matches_per_tap_form(self, data, geometry, channels):
        kernel, stride, pad, size = geometry
        elements = _VALUES | st.sampled_from([-np.inf, np.nan])
        x = data.draw(arrays(np.float64, (1, channels, *size), elements=elements))
        _assert_pool_matches_per_tap(x, kernel, stride, pad, data.draw(_SEEDS))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), geometry=_pool_geometry())
    def test_nan_where_no_window_reads(self, data, geometry):
        kernel, stride, pad, size = geometry
        rows, cols = (_unread(n, k, s, p) for n, k, s, p in zip(size, kernel, stride, pad))
        assume(rows or cols)
        x = data.draw(arrays(np.float64, (1, 2, *size), elements=_GRID))
        x[:, :, rows] = np.nan
        x[:, :, :, cols] = np.nan
        y, _ = layers.maxpool2d_forward(x, kernel, stride, pad)
        assert not np.isnan(y).any()
        _assert_pool_matches_per_tap(x, kernel, stride, pad, data.draw(_SEEDS))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), geometry=_pool_geometry(), channels=st.integers(1, 3),
           slope=st.sampled_from([model.LEAKY_SLOPE, 0.3, 1.0]))
    def test_activation_cache_scales_routed_sums(self, data, geometry, channels, slope):
        # Backward of activate-then-pool: route, then scale at full size.
        kernel, stride, pad, size = geometry
        elements = _VALUES | st.sampled_from([-np.inf, np.nan])
        x = data.draw(arrays(np.float64, (1, channels, *size), elements=elements))
        y, cache = layers.maxpool2d_forward(x, kernel, stride, pad)
        _, act = layers.leaky_relu_forward(y, slope)
        upstream = np.random.default_rng(data.draw(_SEEDS)).standard_normal(y.shape)
        want = layers.leaky_relu_backward(layers.maxpool2d_backward(upstream, cache),
                                          layers.leaky_relu_forward(x, slope)[1])
        assert np.array_equal(layers.maxpool2d_backward(upstream, (*cache, *act)), want)


class TestUnpaddedPoolRouting:
    """The pool's backward sums into the unpadded input, as the former form
    summed into the padded one and cropped."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), geometry=_pool_geometry(), channels=st.integers(1, 3),
           slope=st.sampled_from([None, model.LEAKY_SLOPE, 0.3]))
    def test_matches_padded_form(self, data, geometry, channels, slope):
        # -inf inputs let the padding win whole windows
        kernel, stride, pad, size = geometry
        elements = _GRID | st.sampled_from([-np.inf, np.nan])
        x = data.draw(arrays(np.float64, (1, channels, *size), elements=elements))
        y, cache = layers.maxpool2d_forward(x, kernel, stride, pad)
        if slope is not None:
            cache = (*cache, *layers.leaky_relu_forward(y, slope)[1])
        upstream = np.random.default_rng(data.draw(_SEEDS)).standard_normal(y.shape)
        got = layers.maxpool2d_backward(upstream, cache)
        assert got.flags.c_contiguous
        want = maxpool2d_backward_padded(upstream, cache, pad)
        assert got.tobytes() == want.tobytes()

    def test_all_padding_window_routes_nowhere(self):
        x = np.full((1, 1, 4, 4), -np.inf)
        y, cache = layers.maxpool2d_forward(x, (3, 3), (1, 1), (1, 1))
        assert np.all(y == -np.inf)
        # padding comes first in the windows of the top row and left column
        assert np.count_nonzero(cache[0] == x.size) == 7
        grad = layers.maxpool2d_backward(np.ones(y.shape), cache)
        assert grad.sum() == y.size - 7
        assert np.array_equal(grad, maxpool2d_backward_padded(np.ones(y.shape), cache,
                                                              (1, 1)))

    def test_real_neg_inf_before_padding_wins(self):
        # the last window reads x[0, 1] before the padding column on its right
        x = np.full((1, 1, 2, 2), -np.inf)
        y, cache = layers.maxpool2d_forward(x, (2, 2), (1, 1), (0, 1))
        assert np.all(y == -np.inf)
        assert cache[0].tolist() == [[[x.size, 0, 1]]]
        grad = layers.maxpool2d_backward(np.array([[[[1.0, 2.0, 3.0]]]]), cache)
        assert grad.tolist() == [[[[2.0, 3.0], [0.0, 0.0]]]]

    def test_padding_first_routes_nowhere(self):
        # The windows of the left column read the padding first.  Their first
        # tap's origin plus offset lands on the previous row's last cell (or
        # before x), which must not receive their gradient.
        x = np.full((1, 1, 2, 2), -np.inf)
        y, cache = layers.maxpool2d_forward(x, (2, 2), (1, 1), (1, 1))
        n = x.size
        assert cache[0].tolist() == [[[n, n, n], [n, 0, 1], [n, 2, 3]]]
        upstream = np.arange(1.0, 10.0).reshape(y.shape)
        grad = layers.maxpool2d_backward(upstream, cache)
        assert grad.tolist() == [[[[5.0, 6.0], [8.0, 9.0]]]]
        assert np.array_equal(grad, maxpool2d_backward_padded(upstream, cache, (1, 1)))


class TestInferenceKernels:
    """Buffers, the cache-free pool and the in-place activation change no bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), geometry=_pool_geometry(), channels=st.integers(1, 3))
    def test_cache_free_pool_matches(self, data, geometry, channels):
        # zeros of either sign and NaN take the fallback that finds winners
        kernel, stride, pad, size = geometry
        elements = _VALUES | st.sampled_from([-np.inf, np.inf, np.nan])
        x = data.draw(arrays(np.float64, (1, channels, *size), elements=elements))
        want, _ = layers.maxpool2d_forward(x, kernel, stride, pad)
        ws = layers.Workspace()
        got, cache = layers.maxpool2d_forward(x, kernel, stride, pad,
                                              buffers=ws.buffers("pool"),
                                              keep_cache=False)
        assert cache is None
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), geometry=_geometry(max_dilation=3),
           channels=st.integers(1, 3), maps=st.integers(1, 3))
    def test_conv_into_grown_buffers(self, data, geometry, channels, maps):
        # a buffer grown by a wider input serves a view to the narrower one
        kernel, stride, pad, dilation, (h, w) = geometry
        x = data.draw(arrays(np.float64, (1, channels, h, w), elements=_VALUES))
        wts = data.draw(arrays(np.float64, (maps, channels, *kernel), elements=_VALUES))
        bias = data.draw(arrays(np.float64, maps, elements=_VALUES))
        ws = layers.Workspace()
        layers.conv2d_forward(np.tile(x, 3), wts, bias, stride, pad, dilation,
                              buffers=ws.buffers("conv"))
        want, want_cache = layers.conv2d_forward(x, wts, bias, stride, pad, dilation)
        got, cache = layers.conv2d_forward(x, wts, bias, stride, pad, dilation,
                                           buffers=ws.buffers("conv"))
        assert got.tobytes() == want.tobytes()
        upstream = np.random.default_rng(data.draw(_SEEDS)).standard_normal(got.shape)
        want_grads = layers.conv2d_backward(upstream, want_cache)
        got_grads = layers.conv2d_backward(upstream, cache, buffers=ws.buffers("conv"))
        for a, b in zip(got_grads, want_grads):
            assert a.tobytes() == b.tobytes()
        gx, *weight_grads = layers.conv2d_backward(upstream, cache, input_grad=False)
        assert gx is None
        for a, b in zip(weight_grads, want_grads[1:]):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 40), elements=_VALUES
                    | st.sampled_from([np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                                       -1e-308])),
           slope=st.sampled_from([model.LEAKY_SLOPE, 5e-324, 0.3, 1.0]))
    def test_in_place_leaky_relu_matches(self, x, slope):
        want, want_nonneg = leaky_relu_by_where(x, slope)
        before = x.tobytes()
        got, (nonneg, got_slope) = layers.leaky_relu_forward(x, slope)
        assert x.tobytes() == before
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(nonneg, want_nonneg) and got_slope == slope
        buf = x.copy()
        got, (nonneg, _) = layers.leaky_relu_forward(buf, slope, inplace=True)
        assert got is buf
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(nonneg, want_nonneg)
        # without a cache, slope * x goes to a buffer; a grown one serves a view
        ws = layers.Workspace()
        ws.flat("act.scaled", 2 * x.size)
        for buffers in (None, ws.buffers("act")):
            buf = x.copy()
            got, cache = layers.leaky_relu_forward(buf, slope, inplace=True,
                                                   keep_cache=False, buffers=buffers)
            assert got is buf and cache is None
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [0.0, -0.5, 1.5])
    def test_in_place_leaky_relu_rejects_slope(self, slope):
        # slope 0 would turn inf into max(inf, 0 * inf) = NaN
        for inplace in (True, False):
            with pytest.raises(ValueError, match="slope"):
                layers.leaky_relu_forward(np.ones(3), slope, inplace=inplace)

    def test_convolutions_write_no_padding(self, rng):
        net = model.BoundaryNet(input_height=12, seed=1)
        x = rng.standard_normal((12, 20))
        net.forward(x)
        logits, caches = net.forward_with_cache(x)
        net.backward(np.tanh(logits), caches)
        assert not [key for key in net.workspace._flat if key.endswith(".padded")]
        # conv2's geometry: both axes padded, time dilated
        x = rng.standard_normal((1, 3, 6, 17))
        w, b = rng.standard_normal((2, 3, 3, 5)), rng.standard_normal(2)
        geometry = ((1, 1), (1, 6), (1, 3))
        y, cache = layers.conv2d_forward(x, w, b, *geometry)
        upstream = rng.standard_normal(y.shape)
        grad_x = layers.conv2d_backward(upstream, cache)[0]
        assert grad_x.flags.c_contiguous
        _, grad_ref = conv2d_by_gather(x, w, b, *geometry)
        assert grad_x.tobytes() == grad_ref(upstream)[0].tobytes()

    def test_workspace_serves_views_of_one_buffer_per_role(self):
        take = layers.Workspace().buffers("conv1")
        wide = take("out", (4, 10))
        narrow = take("out", (3, 5))
        assert narrow.shape == (3, 5) and np.shares_memory(wide, narrow)
        assert not np.shares_memory(wide, take("patches", (4, 10)))
        grown = take("out", (6, 10))
        assert not np.shares_memory(wide, grown)
        assert np.shares_memory(grown, take("out", (4, 10)))

    def test_region_lays_views_end_to_end(self):
        # roles named as shared lie end to end in it; others get their own
        ws = layers.Workspace()
        flat = ws.flat("conv2.patches", 10)
        take = ws.buffers("conv1", flat, ("patches", "out"))
        patches, own = take("patches", (2, 2)), take("grad_patches", (3,))
        out = take("out", (6,))
        assert np.shares_memory(patches, flat[:4]) and np.shares_memory(out, flat[4:])
        assert not np.shares_memory(own, flat)
        assert ws.flat("conv2.patches", 8) is flat
        with pytest.raises(ValueError):
            take("out", (1,))


@functools.lru_cache(maxsize=1)
def _acceptance_mels():
    """Mel inputs of the tracks of the seed-20 acceptance corpus."""
    run = RunConfig()
    tracks = synth_corpus(seed=20, n_tracks=5, segments_per_track=(3, 5),
                          segment_duration=(7.0, 8.0))
    return [extract_inputs(t.audio, run)["mls"].values for t in tracks]


def _slope_ties(net, x):
    """Whether a pool window of conv1's output holds two distinct values that
    LeakyReLU rounds to one, where activating first picks another winner."""
    spec, pool = model.CONV1, model.POOL
    h, _ = layers.conv2d_forward(x[None, None], net.params["conv1.w"],
                                 net.params["conv1.b"], spec["stride"], spec["pad"],
                                 spec["dilation"])
    geometry = pool["kernel"], pool["stride"], pool["pad"]
    activated, _ = layers.leaky_relu_forward(h, model.LEAKY_SLOPE)
    return not np.array_equal(maxpool2d_per_tap(h, *geometry)[1][0],
                              maxpool2d_per_tap(activated, *geometry)[1][0])


class TestPoolBeforeActivation:
    @settings(max_examples=15, deadline=None)
    @given(track=st.integers(0, 4), seed=st.integers(0, 2**31 - 1),
           start=st.integers(0, 400), width=st.integers(1, 400), grad_seed=_SEEDS)
    def test_model_matches_activate_then_pool(self, track, seed, start, width,
                                              grad_seed):
        mel = _acceptance_mels()[track]
        x = mel[:, min(start, mel.shape[1] - 1):][:, :width]
        net = model.BoundaryNet(input_height=80, seed=seed)
        assume(not _slope_ties(net, x))
        logits, caches = net.forward_with_cache(x)
        upstream = np.random.default_rng(grad_seed).standard_normal(logits.shape)
        grads, grad_x = net.backward(upstream, caches)
        ref_logits, ref_grads, ref_grad_x = boundary_net_act_first(net, x, upstream)
        assert np.array_equal(logits, ref_logits)
        for name in model.PARAM_NAMES:
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert np.array_equal(grad_x, ref_grad_x)
