import numpy as np
import pytest

from songseg.layers import bce_with_logits
from songseg.model import CONV1, CONV2, CONV3, CONV4, POOL, BoundaryNet, \
    pooled_height

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
        assert pooled_height(80) == 16
        p = net.params
        assert p["conv1.w"].shape == (32, 1, 5, 7)
        assert p["conv2.w"].shape == (64, 32, 3, 5)
        assert p["conv3.w"].shape == (128, 64 * 16, 1, 1)
        assert p["conv4.w"].shape == (1, 128, 1, 1)
        assert all(p[f"conv{i}.b"].shape == (p[f"conv{i}.w"].shape[0],)
                   for i in (1, 2, 3, 4))

    def test_params_stored_float32(self):
        net = BoundaryNet(input_height=80)
        assert all(v.dtype == np.float32 for v in net.params.values())


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
        with pytest.raises(ValueError):
            BoundaryNet(input_height=2)

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
