"""Activation definitions: closed-form values, gradients, and registry behavior.

Gradient tests use central finite differences as the oracle and keep the
probe points away from the kinks of the piecewise-linear functions, where
one-sided derivatives disagree and the subgradient-0 convention applies.
"""

import numpy as np
import pytest

from gibbsnn.activations import (
    ActivationParams,
    activation_grads,
    activation_value,
    default_params,
    melu_grid,
    mexican_hat,
    mmelu,
    mmelu_grads,
    mmelu_slope,
    registered_names,
    trainable_names,
)


class TestMexicanHat:
    def test_peak_value(self):
        """The bump peaks at its center with height b."""
        for b in (0.0, 0.5, 2.0, 7.25):
            assert mexican_hat(1.3, 1.3, b) == b

    def test_boundary_zero(self):
        assert mexican_hat(1.0 + 2.0, 1.0, 2.0) == 0.0
        assert mexican_hat(1.0 - 2.0, 1.0, 2.0) == 0.0

    def test_direct_evaluation(self):
        # max(2 - |2 - 1|, 0) = 1
        assert mexican_hat(2.0, 1.0, 2.0) == 1.0

    def test_zero_outside_support(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(3.0, 50.0, size=1000) * rng.choice([-1.0, 1.0], size=1000)
        np.testing.assert_array_equal(mexican_hat(x, 0.0, 2.5), 0.0)


class TestMmelu:
    def test_c_zero_is_relu(self):
        """With the hat weight at zero the blend is exactly max(x, 0)."""
        rng = np.random.default_rng(42)
        x = rng.uniform(-100.0, 100.0, size=100000)
        p = ActivationParams(c=0.0, gamma=0.7, b=3.0)
        out = mmelu(x, p)
        expect = np.maximum(x, 0.0)
        # bit-equal, not merely close
        assert np.array_equal(out, expect)

    def test_c_one_at_center(self):
        p = ActivationParams(c=1.0, gamma=-0.4, b=1.7)
        assert mmelu(-0.4, p) == 1.7

    def test_direct_evaluation(self):
        # 0.5 * hat + 0.5 * relu = 0.5 * 1 + 0.5 * 2
        p = ActivationParams(c=0.5, gamma=1.0, b=2.0)
        assert mmelu(2.0, p) == 1.5

    def test_lipschitz_1(self):
        """Both pieces have slope at most 1, so the blend does too."""
        rng = np.random.default_rng(7)
        p = ActivationParams(c=0.63, gamma=0.2, b=1.4)
        x = rng.uniform(-4.0, 4.0, size=5000)
        eps = rng.uniform(-1e-3, 1e-3, size=5000)
        delta = mmelu(x + eps, p) - mmelu(x, p)
        assert np.all(np.abs(delta) <= np.abs(eps) + 1e-12)

    def test_continuity_across_support_edges(self):
        p = ActivationParams(c=0.8, gamma=0.5, b=1.0)
        for edge in (p.gamma - p.b, p.gamma + p.b, 0.0):
            lo = mmelu(edge - 1e-9, p)
            hi = mmelu(edge + 1e-9, p)
            assert abs(hi - lo) < 1e-8


class TestMmeluGrads:
    def test_dead_region_all_zero(self):
        p = ActivationParams(c=0.5, gamma=1.0, b=2.0)
        x = np.array([-10.0, -7.5, -100.0])
        for g in mmelu_grads(x, p):
            np.testing.assert_array_equal(g, 0.0)

    def test_relu_slope_when_c_zero(self):
        p = ActivationParams(c=0.0, gamma=0.0, b=1.0)
        d_x, _, _, _ = mmelu_grads(np.array([1.0]), p)
        assert d_x[0] == 1.0

    def test_finite_difference_agreement(self):
        """All four partials match central differences away from kinks."""
        rng = np.random.default_rng(11)
        p = ActivationParams(c=0.47, gamma=0.3, b=1.2)
        kinks = np.array([0.0, p.gamma,
                          p.gamma - p.b, p.gamma + p.b])
        x = rng.uniform(-3.0, 3.0, size=400)
        x = x[np.min(np.abs(x[:, None] - kinks[None, :]), axis=1) > 1e-3]
        h = 1e-6
        d_x, d_c, d_g, d_b = mmelu_grads(x, p)
        fd_x = (mmelu(x + h, p) - mmelu(x - h, p)) / (2 * h)
        np.testing.assert_allclose(d_x, fd_x, atol=1e-6)

        def bump(**kw):
            q = {"c": p.c, "gamma": p.gamma, "b": p.b}
            q.update(kw)
            return ActivationParams(**q)

        fd_c = (mmelu(x, bump(c=p.c + h)) - mmelu(x, bump(c=p.c - h))) / (2 * h)
        fd_g = (mmelu(x, bump(gamma=p.gamma + h)) - mmelu(x, bump(gamma=p.gamma - h))) / (2 * h)
        fd_b = (mmelu(x, bump(b=p.b + h)) - mmelu(x, bump(b=p.b - h))) / (2 * h)
        np.testing.assert_allclose(d_c, fd_c, atol=1e-6)
        np.testing.assert_allclose(d_g, fd_g, atol=1e-6)
        np.testing.assert_allclose(d_b, fd_b, atol=1e-6)


class TestMmeluSlope:
    def test_bitwise_equal_to_full_grads(self):
        """The slope-only path reproduces d/dx of mmelu_grads bit for bit,
        kinks included: x = 0, x = gamma and the support edges gamma +- b."""
        rng = np.random.default_rng(4)
        for c, gamma, b in ((0.5, 0.0, 1.0), (0.3, -0.4, 0.7), (0.0, 0.2, 1.5),
                            (1.0, 0.25, 0.5), (0.77, 1.3, 0.0), (0.41, -2.0, 3.0)):
            p = ActivationParams(c=c, gamma=gamma, b=b)
            kinks = np.array([0.0, -0.0, gamma, gamma - b, gamma + b])
            grid = np.concatenate([kinks, np.linspace(-4.0, 4.0, 801),
                                   rng.normal(scale=2.0, size=(50,))])
            for x in (grid, grid.reshape(8, -1)[:, ::3], 0.0, gamma + b):
                got = mmelu_slope(x, p)
                want = mmelu_grads(x, p)[0]
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (c, gamma, b)


class TestZoo:
    def test_frelu_origin(self):
        assert activation_value("frelu", {"alpha": 0.0, "beta": 0.0}, 0.0) == 0.0

    def test_pelu_origin(self):
        assert activation_value("pelu", {"beta": 1.0, "gamma": 1.0}, 0.0) == 0.0

    def test_melu_basis_peak(self):
        # max(2 - |1 - 1|, 0) = 2
        assert mexican_hat(1.0, 1.0, 2.0) == 2.0

    def test_elish_at_one(self):
        got = activation_value("elish", {}, 1.0)
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-1.0)), rtol=1e-12)
        np.testing.assert_allclose(got, 0.7311, atol=5e-5)

    def test_selu_constants(self):
        # positive branch is a pure lambda scaling
        np.testing.assert_allclose(activation_value("selu", {}, 2.0), 1.0507 * 2.0, rtol=1e-12)

    def test_abu_of_identical_relus_is_relu(self):
        k = 4
        params = {"weights": np.full(k, 1.0 / k), "basis": ("relu",) * k}
        rng = np.random.default_rng(5)
        x = rng.uniform(-10.0, 10.0, size=3000)
        np.testing.assert_allclose(activation_value("abu", params, x), np.maximum(x, 0.0),
                                   rtol=0, atol=1e-15)

    def test_melu_all_cj_zero_is_prelu(self):
        centers, widths = melu_grid(5)
        assert len(centers) == 4 and len(widths) == 4
        params = {"alpha": 0.25, "c": np.zeros(4)}
        rng = np.random.default_rng(6)
        x = rng.uniform(-5.0, 5.0, size=2000)
        np.testing.assert_allclose(activation_value("melu", params, x),
                                   activation_value("prelu", {"alpha": 0.25}, x),
                                   rtol=0, atol=1e-15)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            activation_value("softsign", {}, 1.0)
        with pytest.raises(KeyError):
            default_params("hardelish")

    def test_registry_names(self):
        names = registered_names()
        for expected in ("mmelu", "relu", "lrelu", "elu", "prelu", "selu",
                         "swish", "frelu", "melu", "pelu", "abu", "elish"):
            assert expected in names
        assert len(names) == 12

    def test_trainable_names(self):
        assert trainable_names("mmelu") == ("c", "gamma", "b")
        assert trainable_names("relu") == ()
        assert trainable_names("prelu") == ("alpha",)


class TestZooGradients:
    # probe away from 0 where the piecewise definitions kink
    POINTS = np.array([-2.3, -1.1, -0.4, 0.35, 0.9, 1.7, 2.8])

    def _check(self, name, params):
        h = 1e-6
        d_x, d_p = activation_grads(name, params, self.POINTS)
        fd = (activation_value(name, params, self.POINTS + h)
              - activation_value(name, params, self.POINTS - h)) / (2 * h)
        np.testing.assert_allclose(d_x, fd, atol=2e-5,
                                   err_msg=f"d/dx mismatch for {name}")
        for pname, got in d_p.items():
            base = params[pname]
            if np.ndim(base) == 0:
                up = dict(params, **{pname: base + h})
                dn = dict(params, **{pname: base - h})
                fd_p = (activation_value(name, up, self.POINTS)
                        - activation_value(name, dn, self.POINTS)) / (2 * h)
                np.testing.assert_allclose(got, fd_p, atol=2e-5,
                                           err_msg=f"d/d{pname} mismatch for {name}")
            else:
                base = np.asarray(base, dtype=np.float64)
                for j in range(len(base)):
                    e = np.zeros_like(base)
                    e[j] = h
                    up = dict(params, **{pname: base + e})
                    dn = dict(params, **{pname: base - e})
                    fd_p = (activation_value(name, up, self.POINTS)
                            - activation_value(name, dn, self.POINTS)) / (2 * h)
                    np.testing.assert_allclose(
                        got[j], fd_p, atol=2e-5,
                        err_msg=f"d/d{pname}[{j}] mismatch for {name}")

    def test_all_registered_gradients(self):
        for name in registered_names():
            self._check(name, default_params(name))


class TestDispatch:
    def test_value_dispatch_mmelu(self):
        p = ActivationParams(c=0.5, gamma=1.0, b=2.0)
        assert activation_value("mmelu", p, 2.0) == 1.5
        assert activation_value("mmelu", {"c": 0.5, "gamma": 1.0, "b": 2.0}, 2.0) == 1.5

    def test_grads_dispatch_names(self):
        _, d_p = activation_grads("mmelu", ActivationParams(), np.array([0.3]))
        assert set(d_p) == {"c", "gamma", "b"}
        _, d_p = activation_grads("prelu", {"alpha": 0.25}, np.array([0.3]))
        assert set(d_p) == {"alpha"}
