import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from songseg import layers
from songseg.layers import bce_with_logits
from songseg.model import CONV1, CONV2, CONV3, CONV4, PARAM_NAMES, POOL, \
    BoundaryNet, param_shapes

from oracles import finite_difference_at, relative_error


class TestArchitecture:
    def test_layer_constants(self):
        assert CONV1 == {"maps": 32, "kernel": (5, 7), "stride": (1, 1),
                         "pad": (2, 3), "dilation": (1, 1)}
        assert POOL == {"kernel": (5, 3), "stride": (5, 1), "pad": (1, 1)}
        assert CONV2 == {"maps": 64, "kernel": (3, 5), "stride": (1, 1),
                         "pad": (1, 6), "dilation": (1, 3)}
        assert CONV3["maps"] == 128 and CONV3["kernel"] == (1, 1)
        assert CONV4["maps"] == 1 and CONV4["kernel"] == (1, 1)

    def test_parameter_shapes_for_mel_input(self):
        net = BoundaryNet(input_height=80)
        p = net.params
        assert p["conv1.w"].shape == (32, 1, 5, 7)
        assert p["conv2.w"].shape == (64, 32, 3, 5)
        assert p["conv3.w"].shape == (128, 64 * 16, 1, 1)
        assert p["conv4.w"].shape == (1, 128, 1, 1)
        assert all(p[f"conv{i}.b"].shape == (p[f"conv{i}.w"].shape[0],)
                   for i in (1, 2, 3, 4))

    @pytest.mark.parametrize("height", [3, 7, 12, 80, 480])
    def test_param_shapes_is_the_parameter_table(self, height):
        shapes = param_shapes(height)
        assert PARAM_NAMES == tuple(shapes)
        net = BoundaryNet(input_height=height)
        assert [(n, p.shape) for n, p in net.params.items()] == list(shapes.items())

    def test_params_stored_float32(self):
        net = BoundaryNet(input_height=80)
        assert all(v.dtype == np.float32 for v in net.params.values())

    @pytest.mark.parametrize("height", [3, 80])
    def test_model_from_given_params_draws_nothing(self, height, monkeypatch):
        source = BoundaryNet(input_height=height, seed=3)
        given_params = {n: p.astype(np.float64) for n, p in source.params.items()}
        monkeypatch.setattr("songseg.model._he_uniform", _no_draw)
        net = BoundaryNet(height, params=given_params)
        assert list(net.params) == list(PARAM_NAMES)
        for name, p in net.params.items():
            assert p.dtype == np.float32 and not np.shares_memory(p, given_params[name])
            assert p.tobytes() == source.params[name].tobytes()

    def test_model_from_given_params_checks_them(self):
        params = BoundaryNet(input_height=12).params
        with pytest.raises(ValueError, match=r"conv3.w has shape \(128, 128, 1, 1\), "
                                             r"expected \(128, 64, 1, 1\)"):
            BoundaryNet(7, params=params)
        with pytest.raises(ValueError, match="missing parameter conv4.b"):
            BoundaryNet(12, params={n: p for n, p in params.items() if n != "conv4.b"})


def _no_draw(*args):
    raise AssertionError("weights were drawn")


class TestForward:
    def test_output_length_equals_frames(self, rng):
        net = BoundaryNet(input_height=80, seed=1)
        for width in (7, 33, 100):
            logits = net.forward(rng.standard_normal((80, width)))
            assert logits.shape == (width,)

    def test_zero_model_outputs_bias(self, rng):
        net = BoundaryNet(input_height=80)
        for name in net.params:
            net.params[name] = np.zeros_like(net.params[name])
        net.params["conv4.b"] = np.array([0.37], dtype=np.float32)
        logits = net.forward(rng.standard_normal((80, 20)))
        np.testing.assert_allclose(logits, 0.37, atol=1e-12)

    def test_tall_stacked_input(self, rng):
        # mel bands plus four 100-bin lag matrices
        net = BoundaryNet(input_height=480, seed=2)
        logits = net.forward(rng.standard_normal((480, 25)))
        assert logits.shape == (25,)

    def test_height_mismatch_rejected(self, rng):
        net = BoundaryNet(input_height=80)
        with pytest.raises(ValueError):
            net.forward(rng.standard_normal((96, 10)))

    def test_tiny_height_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            BoundaryNet(input_height=2)
        with pytest.raises(ValueError, match="at least 3"):
            param_shapes(0)

    def test_seed_determinism(self):
        a = BoundaryNet(input_height=80, seed=11)
        b = BoundaryNet(input_height=80, seed=11)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        c = BoundaryNet(input_height=80, seed=12)
        assert any(not np.array_equal(a.params[n], c.params[n])
                   for n in a.params)


class TestBackward:
    def test_full_network_gradient_spot_check(self):
        rng = np.random.default_rng(77)
        net = BoundaryNet(input_height=10, seed=3)
        x = rng.standard_normal((10, 9))
        targets = rng.uniform(0.0, 1.0, 9)

        logits, caches = net.forward_with_cache(x)
        _, grad_logits = bce_with_logits(logits, targets)
        grads, grad_input = net.backward(grad_logits, caches)

        def loss_for_param(name):
            # assign the float64 perturbation directly so finite differences
            # are not quantized by the float32 parameter store
            def f(v):
                saved = net.params[name]
                net.params[name] = v
                out = net.forward(x)
                net.params[name] = saved
                loss, _ = bce_with_logits(out, targets)
                return loss
            return f

        for name in ("conv1.w", "conv2.w", "conv3.w", "conv4.w", "conv1.b",
                     "conv4.b"):
            flat = net.params[name].astype(np.float64)
            n = flat.size
            idx = rng.choice(n, size=min(20, n), replace=False)
            fd = finite_difference_at(loss_for_param(name), flat, idx)
            analytic = grads[name].ravel()[idx]
            assert relative_error(analytic, fd) < 1e-4, name

        def loss_for_input(v):
            out = net.forward(v)
            loss, _ = bce_with_logits(out, targets)
            return loss

        idx = rng.choice(x.size, size=20, replace=False)
        fd = finite_difference_at(loss_for_input, x, idx)
        assert relative_error(grad_input.ravel()[idx], fd) < 1e-4


def _run(net, x, upstream_seed=0):
    """Logits, gradients and input gradient of one forward and backward."""
    logits, caches = net.forward_with_cache(x)
    upstream = np.random.default_rng(upstream_seed).standard_normal(logits.shape)
    grads, grad_x = net.backward(upstream, caches)
    return [logits, *(grads[n] for n in PARAM_NAMES), grad_x]


def _same_bytes(a, b):
    return len(a) == len(b) and all(u.tobytes() == v.tobytes() for u, v in zip(a, b))


class TestWorkspace:
    """The model reuses its layer buffers; no output may notice."""

    # conv1 output values with exact zeros of both signs, NaN and infinities
    _CONV1_VALUES = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, -1.5, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), width=st.integers(1, 24), seed=st.integers(0, 2**16))
    def test_forward_equals_forward_with_cache(self, data, width, seed):
        net = BoundaryNet(input_height=10, seed=seed)
        x = np.random.default_rng(seed).standard_normal((10, width))
        conv1_out = data.draw(arrays(np.float64, (1, 32, 10, width),
                                     elements=self._CONV1_VALUES))
        real = layers.conv2d_forward
        conv2_inputs = []

        def conv(h, w, *args, **kwargs):
            if w.shape[1] == CONV1["maps"]:  # conv2: the activated pool output
                conv2_inputs.append(h.tobytes())
            y, cache = real(h, w, *args, **kwargs)
            if w.shape[1] == 1:  # conv1 reads the single input channel
                y[...] = conv1_out
            return y, cache

        with mock.patch.object(layers, "conv2d_forward", conv):
            plain = net.forward(x)
            cached, _ = net.forward_with_cache(x)
        # Zeros' signs and NaNs' bits rarely reach the logits, so the pool
        # output is compared too.
        assert conv2_inputs[0] == conv2_inputs[1]
        assert plain.tobytes() == cached.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(x=arrays(np.float64, (10, 12), elements=st.sampled_from(
               [0.0, -0.0, 1.0, -2.0, np.nan, np.inf, -np.inf])),
           seed=st.integers(0, 2**16))
    def test_forward_equals_forward_with_cache_on_special_inputs(self, x, seed):
        net = BoundaryNet(input_height=10, seed=seed)
        assert net.forward(x).tobytes() == net.forward_with_cache(x)[0].tobytes()

    def test_zero_input_takes_the_pool_fallback(self):
        # every conv1 output is the zero bias, so every window maximum is 0
        net = BoundaryNet(input_height=80, seed=4)
        x = np.zeros((80, 30))
        assert net.forward(x).tobytes() == net.forward_with_cache(x)[0].tobytes()

    def test_widths_up_down_up_equal_fresh_models(self, rng):
        xs = [rng.standard_normal((80, w)) for w in (90, 41, 90)]
        net = BoundaryNet(input_height=80, seed=5)
        for i, x in enumerate(xs):
            fresh = BoundaryNet(input_height=80, seed=5)
            assert net.forward(x).tobytes() == fresh.forward(x).tobytes()
            assert _same_bytes(_run(net, x, i), _run(BoundaryNet(80, seed=5), x, i))

    def test_buffers_are_kept_per_role_not_per_width(self, rng):
        net = BoundaryNet(input_height=80, seed=5)
        wide, narrow = rng.standard_normal((80, 200)), rng.standard_normal((80, 90))
        _run(net, wide)
        tracemalloc.start()
        try:
            net.forward(narrow)
            net.forward(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.2 MB here; conv2's patch matrix alone is 32 * 15 * 16 * 200 * 8
        # bytes = 12.3 MB, and a forward with fresh arrays peaks at 24 MB
        assert peak < 6e6

    @settings(max_examples=30, deadline=None)
    @given(height=st.integers(3, 24), seed=st.integers(0, 2**16),
           steps=st.lists(st.tuples(st.integers(1, 40), st.booleans()),
                          min_size=2, max_size=6))
    def test_modes_and_widths_interleaved_equal_fresh_models(self, height, seed,
                                                             steps):
        # conv2's patch buffer holds other roles in both modes
        net = BoundaryNet(input_height=height, seed=seed)
        rng = np.random.default_rng(seed)
        for i, (width, cached) in enumerate(steps):
            x = rng.standard_normal((height, width))
            want = _run(BoundaryNet(input_height=height, seed=seed), x, i)
            if cached:
                assert _same_bytes(_run(net, x, i), want)
            else:
                assert net.forward(x).tobytes() == want[0].tobytes()

    def test_fresh_cache_free_forward_peak(self, rng):
        net = BoundaryNet(input_height=80, seed=5)
        x = rng.standard_normal((80, 746))  # a 90 s track and its padding
        tracemalloc.start()
        try:
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 58.1 MiB here, 56.1 of it the workspace in 5 buffers; with zero-
        # padded copies of conv1's and conv2's inputs it was 61.9 MiB, with a
        # padded copy of the pool's input and conv3's own patch matrix as well
        # 69.5 MiB, and with a buffer for each of conv1's patches and output
        # as well 114.4 MiB
        assert peak < 60 * 2**20
        buffers = net.workspace._flat.values()
        assert len(buffers) == 5 and sum(b.nbytes for b in buffers) <= 57 * 2**20

    def test_fresh_training_step_peak(self, rng):
        net = BoundaryNet(input_height=80, seed=5)
        x = rng.standard_normal((80, 373))  # the widest acceptance track
        tracemalloc.start()
        try:
            logits, caches = net.forward_with_cache(x)
            net.backward(np.tanh(logits), caches, input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 71.7 MiB here; with the pool's backward building its winners'
        # indices from taps it was 74.8 MiB, with zero-padded copies of
        # conv1's and conv2's inputs as well 78.4 MiB, with a padded copy of
        # the pool's input and conv3's own patch matrix as well 82.3 MiB, and
        # with a buffer of its own for conv1's output as well 96.2 MiB
        assert peak < 74 * 2**20

    def test_conv3_reads_its_input_in_place(self, rng):
        net = BoundaryNet(input_height=80, seed=5)
        _, caches = net.forward_with_cache(rng.standard_normal((80, 40)))
        ws = net.workspace
        # conv3's input is conv2's activated output, folded; conv4's one map
        # takes a column-major copy of conv3's output
        assert np.shares_memory(caches["conv3"][0], ws.flat("conv2.out", 0))
        assert not np.shares_memory(caches["conv4"][0], ws.flat("conv3.out", 0))

    def test_outputs_survive_later_forwards(self, rng):
        net = BoundaryNet(input_height=80, seed=6)
        x, other = rng.standard_normal((80, 50)), rng.standard_normal((80, 50))
        logits = net.forward(x)
        kept = _run(net, x)
        saved = [a.copy() for a in (logits, *kept)]
        net.forward(other)
        _run(net, other)
        assert _same_bytes([logits, *kept], saved)

    def test_backward_on_stale_caches_raises(self, rng):
        net = BoundaryNet(input_height=80, seed=7)
        x = rng.standard_normal((80, 20))
        logits, caches = net.forward_with_cache(x)
        net.forward(x)
        with pytest.raises(ValueError, match="stale"):
            net.backward(np.ones_like(logits), caches)
        logits, caches = net.forward_with_cache(x)
        net.forward_with_cache(x)
        with pytest.raises(ValueError, match="stale"):
            net.backward(np.ones_like(logits), caches)

    def test_cache_free_forward_keeps_no_cache(self, rng):
        net = BoundaryNet(input_height=80, seed=8)
        logits, caches = net.forward_with_cache(rng.standard_normal((80, 20)),
                                                keep_cache=False)
        assert caches is None and logits.shape == (20,)

    def test_weight_gradients_without_input_gradient(self, rng):
        net = BoundaryNet(input_height=80, seed=9)
        logits, caches = net.forward_with_cache(rng.standard_normal((80, 60)))
        upstream = np.tanh(logits)
        with_x, grad_x = net.backward(upstream, caches)
        without_x, none = net.backward(upstream, caches, input_grad=False)
        assert grad_x.shape == (1, 1, 80, 60) and none is None
        assert _same_bytes([with_x[n] for n in PARAM_NAMES],
                           [without_x[n] for n in PARAM_NAMES])
