"""Activation definitions: closed-form values, gradients, and registry behavior.

Gradient tests use central finite differences as the oracle and keep the
probe points away from the kinks of the piecewise-linear functions, where
one-sided derivatives disagree and the subgradient-0 convention applies.
"""

import numpy as np
import pytest

from gibbsnn.activations import (
    CHUNK,
    ActivationParams,
    activation_grads,
    activation_value,
    default_params,
    melu_grid,
    mexican_hat,
    mmelu,
    mmelu_grads,
    registered_names,
    relu,
    trainable_names,
    with_values,
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


class TestActivationGrads:
    """The fused vector-Jacobian product of the blend against the
    elementwise reference mmelu_grads."""

    TRIPLES = ((0.5, 0.0, 1.0), (0.3, -0.4, 0.7), (0.0, 0.2, 1.5),
               (1.0, 0.25, 0.5), (0.77, 1.3, 0.0), (0.41, -2.0, 3.0))

    def _grid(self, rng, gamma, b):
        # every kink: x = 0 (both signs), x = gamma and the support edges
        kinks = np.array([0.0, -0.0, gamma, gamma - b, gamma + b])
        x = np.concatenate([kinks, np.linspace(-4.0, 4.0, 801),
                            rng.normal(scale=2.0, size=(50,))])
        g = rng.normal(size=x.shape)
        g[:4] = (-0.0, 0.0, -0.0, 0.0)  # signed zeros upstream, at kinks
        return x, g

    def test_input_grad_bitwise_equal(self):
        """g * d/dx from both paths is byte-equal to g * mmelu_grads(x)[0],
        kinks and signed zeros included, for contiguous, strided and 0-d
        inputs."""
        rng = np.random.default_rng(4)
        for c, gamma, b in self.TRIPLES:
            p = ActivationParams(c=c, gamma=gamma, b=b)
            x, g = self._grid(rng, gamma, b)
            for xi, gi in ((x, g), (x.reshape(8, -1)[:, ::3], g.reshape(8, -1)[:, ::3]),
                           (np.asarray(gamma + b), np.asarray(-0.0)),
                           (np.asarray(0.0), np.asarray(1.5))):
                want = gi * mmelu_grads(xi, p)[0]
                for param_grads in (True, False):
                    got, _ = activation_grads("mmelu", p, xi, gi, param_grads)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), \
                        (c, gamma, b, param_grads)

    def test_parameter_sums_match_elementwise(self):
        """The dot-product sums for c, gamma and b are within 1e-12
        relative of np.sum(g * d) over the reference derivatives."""
        rng = np.random.default_rng(5)
        for c, gamma, b in self.TRIPLES:
            p = ActivationParams(c=c, gamma=gamma, b=b)
            x, g = self._grid(rng, gamma, b)
            x = np.concatenate([x, rng.normal(scale=2.0, size=(5000,))]).reshape(-1, 3)
            g = np.concatenate([g, rng.normal(size=(5000,))]).reshape(-1, 3)
            _, sums = activation_grads("mmelu", p, x, g)
            _, d_c, d_gamma, d_b = mmelu_grads(x, p)
            for name, d in (("c", d_c), ("gamma", d_gamma), ("b", d_b)):
                want = float(np.sum(g * d))
                assert abs(sums[name] - want) <= 1e-12 * abs(want), (c, gamma, b, name)
                assert isinstance(sums[name], float)

    def test_weights_only_returns_no_sums(self):
        x = np.linspace(-2.0, 2.0, 9)
        for name in registered_names():
            got, sums = activation_grads(name, default_params(name), x, np.ones(9), False)
            assert sums is None and got.shape == (9,), name

    def test_scalar_and_0d_inputs(self):
        """Python floats, numpy scalars and 0-d arrays work on both paths
        and give scalars back."""
        p = ActivationParams(c=0.3, gamma=0.2, b=1.0)
        for x in (0.7, np.float64(0.7), np.asarray(0.7)):
            assert mmelu(x, p) == 0.3 * 0.5 + 0.7 * 0.7
            for g in (2.0, np.asarray(2.0)):
                got, sums = activation_grads("mmelu", p, x, g)
                assert np.ndim(got) == 0 and got == 2.0 * (-0.3 + 0.7)
                assert sums == {"c": 2.0 * (0.5 - 0.7), "gamma": 2.0 * 0.3, "b": 2.0 * 0.3}
                got, sums = activation_grads("prelu", {"alpha": 0.25}, x, g)
                assert got == 2.0 and sums == {"alpha": 0.0}


def _single_einsum_sums(x, g, p):
    """The blend's parameter sums as one einsum per term over the whole
    flattened array: the kernel's result at CHUNK values or fewer."""
    xf, gf = x.reshape(-1), g.reshape(-1)
    d = xf - p.gamma
    inside = np.abs(d) < p.b
    slope = ((d < 0) & inside).astype(np.float64) - ((d > 0) & inside).astype(np.float64)

    def dot(v):
        return float(np.einsum("i,i->", gf, v))

    return {"c": dot(mexican_hat(xf, p.gamma, p.b)) - dot(np.maximum(xf, 0.0)),
            "b": p.c * dot(inside.astype(np.float64)), "gamma": -p.c * dot(slope)}


def _bits(sums):
    return {name: np.float64(v).tobytes() for name, v in sums.items()}


class TestChunkBoundaries:
    """The blend's kernels run CHUNK values at a time: the value and
    g * d/dx stay byte-equal to the elementwise reference on either side of
    every chunk boundary, and the sums gain one einsum per chunk."""

    SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)

    def _arrays(self, rng, n, gamma, b):
        # every kink and a signed-zero g on both sides of each boundary, and
        # at both ends
        kinks = np.array([0.0, -0.0, gamma, gamma - b, gamma + b])
        x = rng.normal(scale=2.0, size=n)
        g = rng.normal(size=n)
        for edge in (0, *range(CHUNK, n, CHUNK), n):
            for lo in (edge - len(kinks), edge):
                if 0 <= lo <= n - len(kinks):
                    x[lo:lo + len(kinks)] = kinks
                    g[lo:lo + 4] = (-0.0, 0.0, -0.0, 0.0)
        return x, g

    def _check_bytes(self, p, x, g):
        want_value = p.c * mexican_hat(x, p.gamma, p.b) + (1.0 - p.c) * relu(x)
        assert np.asarray(mmelu(x, p)).tobytes() == want_value.tobytes()
        want = g * mmelu_grads(x, p)[0]
        for param_grads in (True, False):
            got, _ = activation_grads("mmelu", p, x, g, param_grads)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), param_grads

    @pytest.mark.parametrize("n", SIZES)
    def test_bytes_and_sums(self, n):
        rng = np.random.default_rng(n)
        for c, gamma, b in TestActivationGrads.TRIPLES:
            p = ActivationParams(c=c, gamma=gamma, b=b)
            x, g = self._arrays(rng, n, gamma, b)
            self._check_bytes(p, x, g)
            _, sums = activation_grads("mmelu", p, x, g)
            _, d_c, d_gamma, d_b = mmelu_grads(x, p)
            for name, d in (("c", d_c), ("gamma", d_gamma), ("b", d_b)):
                want = float(np.sum(g * d))
                assert abs(sums[name] - want) <= 1e-12 * abs(want), (c, gamma, b, name)
            if n <= CHUNK:
                assert _bits(sums) == _bits(_single_einsum_sums(x, g, p)), (c, gamma, b)

    def test_strided_and_0d(self):
        """Strided and Fortran-order inputs whose C order holds the kinks at
        the chunk boundaries, and a 0-d input: one chunk of one value."""
        rng = np.random.default_rng(9)
        p = ActivationParams(c=0.3, gamma=-0.4, b=0.7)
        x, g = self._arrays(rng, 3 * CHUNK + 6, p.gamma, p.b)
        spread_x, spread_g = np.zeros(2 * len(x)), np.zeros(2 * len(x))
        spread_x[::2], spread_g[::2] = x, g
        for xi, gi in ((spread_x[::2], spread_g[::2]),
                       (np.asfortranarray(x.reshape(-1, 2)), np.asfortranarray(g.reshape(-1, 2))),
                       (np.asarray(p.gamma + p.b), np.asarray(-0.0))):
            self._check_bytes(p, xi, gi)
        head = (np.asfortranarray(x[:CHUNK].reshape(-1, 2)),
                np.asfortranarray(g[:CHUNK].reshape(-1, 2)))
        _, sums = activation_grads("mmelu", p, *head)
        assert _bits(sums) == _bits(_single_einsum_sums(x[:CHUNK], g[:CHUNK], p))


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
        """activation_grads at each probe point with g = 1 gives the
        point's derivatives, which must match central differences; on the
        whole probe vector with a random g it must give their g-weighted
        sums."""
        h = 1e-6
        g = np.random.default_rng(3).normal(size=self.POINTS.shape)
        g_in, sums = activation_grads(name, params, self.POINTS, g)
        per_point = [activation_grads(name, params, x, 1.0) for x in self.POINTS]
        fd = (activation_value(name, params, self.POINTS + h)
              - activation_value(name, params, self.POINTS - h)) / (2 * h)
        np.testing.assert_allclose([d for d, _ in per_point], fd, atol=2e-5,
                                   err_msg=f"d/dx mismatch for {name}")
        np.testing.assert_allclose(g_in, g * fd, atol=2e-5, err_msg=f"g * d/dx for {name}")
        assert set(sums) == set(trainable_names(name)), name
        for pname, got in sums.items():
            base = np.asarray(params[pname], dtype=np.float64)
            steps = [h] if base.ndim == 0 else list(np.eye(len(base)) * h)
            fd_p = []
            for e in steps:
                up = with_values(params, [pname], [base + e])
                dn = with_values(params, [pname], [base - e])
                fd_p.append((activation_value(name, up, self.POINTS)
                             - activation_value(name, dn, self.POINTS)) / (2 * h))
            fd_p = np.array(fd_p) if base.ndim else fd_p[0]
            point = np.array([s[pname] for _, s in per_point])
            np.testing.assert_allclose(point.T if base.ndim else point, fd_p, atol=2e-5,
                                       err_msg=f"d/d{pname} mismatch for {name}")
            np.testing.assert_allclose(got, fd_p @ g, atol=1e-4,
                                       err_msg=f"sum of g * d/d{pname} for {name}")

    def test_all_registered_gradients(self):
        """Every registry entry, the blend's fused kernel taking both its
        dict parameters and ActivationParams."""
        for name in registered_names():
            self._check(name, default_params(name))
        p = ActivationParams(c=0.47, gamma=0.3, b=1.2)
        self._check("mmelu", p)


class TestDispatch:
    def test_value_dispatch_mmelu(self):
        p = ActivationParams(c=0.5, gamma=1.0, b=2.0)
        assert activation_value("mmelu", p, 2.0) == 1.5
        assert activation_value("mmelu", {"c": 0.5, "gamma": 1.0, "b": 2.0}, 2.0) == 1.5

    def test_grads_dispatch_names(self):
        _, d_p = activation_grads("mmelu", ActivationParams(), np.array([0.3]), np.ones(1))
        assert set(d_p) == {"c", "gamma", "b"}
        _, d_p = activation_grads("prelu", {"alpha": 0.25}, np.array([0.3]), np.ones(1))
        assert set(d_p) == {"alpha"}
