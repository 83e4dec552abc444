"""Energy, prior, and conditional densities of the hierarchical model.

The conditional-consistency tests are the backbone: for each sampled block,
the block conditional and the full log joint must differ by a constant in
the block variable.  Any factor dropped or double-counted shows up there.
"""

from dataclasses import replace

import numpy as np
import pytest

import gibbsnn.samplers as samplers
from gibbsnn.activations import ACT_BOUNDS, ActivationParams, in_bounds, with_values
from gibbsnn.errors import NumericalError
from gibbsnn.model import (
    BayesModel,
    HyperState,
    ModelState,
    init_state,
    l1_norms,
)
from gibbsnn.network import Network, NetworkSpec, act, concat_weights, dense, softmax_layer
from gibbsnn.presets import cnn1, mlp
from gibbsnn.samplers import SamplerConfig, mh_step, reflect_into


def _toy_model(loss_kind="squared-error", n=12, seed=0):
    """3-weight toy: 1 input, 1 hidden unit, 1 output, no softmax."""
    layers = [dense(1, 1), act("mmelu"), dense(1, 1)]
    net = Network(NetworkSpec(layers, (1,), 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = rng.normal(size=(n, 1))
    model = BayesModel(net, x, y, loss_kind=loss_kind)
    return net, model, rng


def _random_state(net, rng):
    w = [rng.normal(size=k) for k in net.weight_lengths]
    actp = ActivationParams(c=float(rng.uniform(0.1, 0.9)),
                            gamma=float(rng.normal()),
                            b=float(rng.uniform(0.2, 2.0)))
    hyp = HyperState(rng.uniform(0.5, 2.0, size=net.n_layers),
                     lam_b=float(rng.uniform(0.5, 2.0)),
                     sigma2=float(rng.uniform(0.5, 2.0)))
    return ModelState(w, actp, hyp)


class TestDataEnergy:
    def test_perfect_prediction_zero(self):
        net, model, rng = _toy_model()
        w = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        p = ActivationParams(c=0.0)
        preds = model.net.forward(w, p, model.inputs)
        model2 = BayesModel(net, model.inputs, preds, loss_kind="squared-error")
        assert model2.data_energy(w, p) == 0.0

    def test_single_sample_value(self):
        """Squared error between (1,0) and (0,1) is 2."""
        layers = [dense(2, 2)]
        net = Network(NetworkSpec(layers, (2,), 2))
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 1.0]])
        model = BayesModel(net, x, y, loss_kind="squared-error")
        w = [np.concatenate([np.eye(2).ravel(), np.zeros(2)])]
        assert model.data_energy(w, None) == 2.0

    def test_additivity(self):
        net, model, rng = _toy_model(n=10)
        st = _random_state(net, rng)
        total = model.data_energy(st.w, st.act)
        parts = 0.0
        for i in range(model.n_data):
            single = BayesModel(net, model.inputs[i:i + 1], model.labels[i:i + 1],
                                loss_kind="squared-error")
            parts += single.data_energy(st.w, st.act)
        np.testing.assert_allclose(total, parts, atol=1e-10)

    def test_subset_rescaling(self):
        net, model, rng = _toy_model(n=10)
        st = _random_state(net, rng)
        full = model.data_energy(st.w, st.act)
        idx = np.arange(10)
        np.testing.assert_allclose(model.data_energy(st.w, st.act, subset=idx), full,
                                   rtol=1e-12)
        half = model.data_energy(st.w, st.act, subset=np.arange(5))
        assert half != full  # rescaled estimate, not the exact value


def _kernel_case(name):
    """(network, inputs, labels, loss kind) of toy-linear's dense(2, 1)
    model, criterion 7's 10-8-2 mmelu mlp and cnn1, on a few rows."""
    rng = np.random.default_rng(30)
    if name == "toy":
        net = Network(NetworkSpec((dense(2, 1),), (2,), 1))
        return net, rng.normal(size=(20, 2)), rng.normal(size=(20, 1)), "squared-error"
    if name == "mlp":
        return (Network(mlp(10, 2, (8,))[0]), rng.normal(size=(60, 10)),
                rng.integers(0, 2, 60), "squared-error")
    return Network(cnn1()[0]), rng.random((6, 28, 28, 1)), rng.integers(0, 10, 6), "cross-entropy"


class TestEnergyKernel:
    """BayesModel.energy_grad, the weight move's kernel, against the
    public Network.loss / backward path it shares its walk with."""

    @pytest.mark.parametrize("name", ["toy", "mlp", "cnn1"])
    def test_matches_public_path_bit_for_bit(self, name):
        """Repeated calls, the full batch then two subset sizes in a row and
        back: E equals the rescaled Network.loss and data_energy, g the
        rescaled Network.backward gradient concatenated, byte for byte."""
        net, x, y, loss_kind = _kernel_case(name)
        model = BayesModel(net, x, y, loss_kind=loss_kind)
        rng = np.random.default_rng(31)
        act_p = ActivationParams(c=0.4, gamma=-0.1, b=0.8)
        buffer = None
        for subset in (None, None, np.arange(0, len(x), 2), np.arange(1, len(x), 3), None):
            w = [rng.normal(scale=0.3, size=k) for k in net.weight_lengths]
            e, g = model.energy_grad(concat_weights(w), act_p, subset)
            xs, ys = (x, y) if subset is None else (x[subset], y[subset])
            scale = 1.0 if subset is None else len(x) / len(subset)
            gw, _, loss = net.backward(w, act_p, xs, ys, loss_kind, param_grads=False)
            assert e == scale * loss == scale * net.loss(w, act_p, xs, ys, loss_kind)
            assert e == model.data_energy(w, act_p, subset)
            assert g.tobytes() == concat_weights([scale * gi for gi in gw]).tobytes()
            # the gradient is the model's one buffer, overwritten by each call
            assert buffer is None or g is buffer
            buffer = g

    @pytest.mark.parametrize("name", ["toy", "mlp", "cnn1"])
    def test_non_finite_input_raises_the_public_error(self, name):
        net, x, y, loss_kind = _kernel_case(name)
        x = x.copy()
        x[1].flat[0] = np.inf
        model = BayesModel(net, x, y, loss_kind=loss_kind)
        w = net.init_weights(np.random.default_rng(32))
        act_p = ActivationParams()
        with pytest.raises(NumericalError) as want:
            net.backward(w, act_p, x, y, loss_kind, param_grads=False)
        with pytest.raises(NumericalError) as got:
            model.energy_grad(concat_weights(w), act_p)
        assert str(got.value) == str(want.value)
        assert "after layer 0" in str(want.value)
        with pytest.raises(NumericalError) as got:
            model.data_energy(w, act_p)
        assert str(got.value) == str(want.value)


class TestSupport:
    def test_c_outside_unit_interval(self):
        net, model, rng = _toy_model()
        st = _random_state(net, rng)
        st.act.c = 1.5
        assert model.log_posterior(st) == -np.inf
        st.act.c = -0.2
        assert model.log_posterior(st) == -np.inf

    def test_negative_b(self):
        net, model, rng = _toy_model()
        st = _random_state(net, rng)
        st.act.b = -0.1
        assert model.log_posterior(st) == -np.inf

    def test_nonpositive_scales(self):
        net, model, rng = _toy_model()
        for field, value in (("lam_b", 0.0), ("sigma2", -1.0)):
            st = _random_state(net, rng)
            setattr(st.hyper, field, value)
            assert model.log_posterior(st) == -np.inf
        st = _random_state(net, rng)
        st.hyper.lam[0] = 0.0
        assert model.log_posterior(st) == -np.inf

    def test_finite_on_support(self):
        net, model, rng = _toy_model()
        for _ in range(20):
            st = _random_state(net, rng)
            assert np.isfinite(model.log_posterior(st))


class TestBoundsHaveOneDefinition:
    """ACT_BOUNDS is the only statement of the support of (c, gamma, b):
    in_support, the log prior, the sweep's reflection bounds and the
    baseline's projection must all agree with it."""

    # boundary values, points just outside, far points, +-inf and nan
    VALUES = {
        "c": (0.0, 1.0, 0.5, -1e-12, 1.0 + 1e-12, 1.5, -3.0, np.inf, -np.inf, np.nan),
        "gamma": (0.0, -3.0, 1e100, -1e100, np.inf, -np.inf, np.nan),
        "b": (0.0, 2.0, -1e-12, -0.1, 1e300, np.inf, -np.inf, np.nan),
    }

    @staticmethod
    def _legal(name, v):
        # the support written out by hand, independently of ACT_BOUNDS
        if not np.isfinite(v):
            return False
        return {"c": 0.0 <= v <= 1.0, "gamma": True, "b": v >= 0.0}[name]

    def test_table(self):
        assert ACT_BOUNDS == {"c": (0.0, 1.0), "gamma": (None, None), "b": (0.0, None)}
        for name, values in self.VALUES.items():
            for v in values:
                assert in_bounds(name, v) == self._legal(name, v), (name, v)

    def test_support_and_log_prior(self):
        net, model, rng = _toy_model()
        st = _random_state(net, rng)
        for name, values in self.VALUES.items():
            for v in values:
                legal = self._legal(name, v)
                # b = inf is out of support: its log prior is -inf too
                assert replace(ActivationParams(), **{name: v}).in_support == legal, (name, v)
                lp = model.act_log_prior(name, v, st)
                assert np.isfinite(lp) == legal and (legal or lp == -np.inf), (name, v)
        assert not ActivationParams(c=1.5).in_support
        assert not ActivationParams(b=-0.1).in_support
        assert ActivationParams(c=1.0, gamma=-3.0, b=0.0).in_support

    def test_sweep_reflects_at_the_bounds(self, monkeypatch):
        net, model, rng = _toy_model()
        seen = []

        def spy(value, current, evaluate, rng, scale, lower=None, upper=None):
            seen.append((lower, upper))
            return mh_step(value, current, evaluate, rng, scale, lower, upper)

        monkeypatch.setattr(samplers, "mh_step", spy)
        cfg = SamplerConfig(scalar_subsweeps=2)
        chain = samplers.ChainState(model=init_state(net, rng), rng=rng,
                                    moves=samplers.default_moves(cfg))
        samplers.gibbs_sweep(model, chain, cfg, adapting=False)
        assert seen == [ACT_BOUNDS[k] for k in ("c", "gamma", "b")] * 2
        for name, values in self.VALUES.items():
            for v in values:
                if np.isfinite(v) and abs(v) < 1e6:
                    assert self._legal(name, reflect_into(v, *ACT_BOUNDS[name])), (name, v)

    def test_baseline_projection(self):
        for name, values in self.VALUES.items():
            lower, upper = ACT_BOUNDS[name]
            for v in values:
                got = with_values(ActivationParams(), (name,), [v])[name]
                if self._legal(name, v):
                    assert got == v, (name, v)
                elif lower is not None and v < lower:
                    assert got == lower, (name, v)
                elif upper is not None and v > upper:
                    assert got == upper, (name, v)
                else:  # nan, or an infinity on an open side, stays illegal
                    assert not self._legal(name, got), (name, v)


class TestConditionalConsistency:
    """cond_logdensity minus log_posterior must be constant in the block."""

    BLOCKS = [
        ("c", lambda rng: float(rng.uniform(0.0, 1.0))),
        ("gamma", lambda rng: float(rng.normal(scale=2.0))),
        ("b", lambda rng: float(rng.uniform(0.0, 3.0))),
        ("sigma2", lambda rng: float(rng.uniform(0.05, 5.0))),
        ("lambda_b", lambda rng: float(rng.uniform(0.05, 5.0))),
        ("lambda_l", lambda rng: float(rng.uniform(0.05, 5.0))),
    ]

    @pytest.mark.parametrize("block,draw", BLOCKS, ids=[b for b, _ in BLOCKS])
    def test_difference_constant(self, block, draw):
        net, model, rng = _toy_model(seed=1)
        st = _random_state(net, rng)
        layer = 0 if block == "lambda_l" else None
        diffs = []
        for _ in range(100):
            v = draw(rng)
            cond = model.cond_logdensity(block, v, st, layer=layer)
            st2 = st.copy()
            if block == "c":
                st2.act.c = v
            elif block == "gamma":
                st2.act.gamma = v
            elif block == "b":
                st2.act.b = v
            elif block == "sigma2":
                st2.hyper.sigma2 = v
            elif block == "lambda_b":
                st2.hyper.lam_b = v
            else:
                st2.hyper.lam[layer] = v
            diffs.append(cond - model.log_posterior(st2))
        spread = max(diffs) - min(diffs)
        assert spread < 1e-9, f"block {block}: spread {spread}"

    def test_c_conditional_support(self):
        net, model, rng = _toy_model()
        st = _random_state(net, rng)
        assert model.cond_logdensity("c", 1.2, st) == -np.inf
        assert model.cond_logdensity("b", -0.5, st) == -np.inf

    def test_failed_energy_reads_as_zero_density(self, monkeypatch):
        """A NumericalError or a non-finite data energy gives the c, gamma
        and b conditionals log density -inf, and act_conditional reports
        the energy as inf."""
        net, model, rng = _toy_model()
        st = _random_state(net, rng)
        outcomes = {"raise": None, "inf": np.inf, "nan": np.nan}
        for kind, value in outcomes.items():
            def energy(*args, value=value, **kwargs):
                if value is None:
                    raise NumericalError("non-finite value inf after layer 1 (dense)")
                return value
            monkeypatch.setattr(model, "data_energy", energy)
            for block, v in (("c", 0.3), ("gamma", -0.4), ("b", 1.2)):
                assert model.cond_logdensity(block, v, st) == -np.inf, (kind, block)
                assert model.act_conditional(block, v, st) == (-np.inf, np.inf), (kind, block)

    def test_flat_c_when_hat_matches_relu(self):
        """Where the hat equals ReLU on every input, c drops out of the
        likelihood and its conditional is flat on [0, 1]."""
        layers = [dense(1, 1), act("mmelu")]
        net = Network(NetworkSpec(layers, (1,), 1))
        # weight 1, bias 0: preactivation equals x; choose x=0.5 and a hat
        # with gamma=0, b=1: hat(0.5) = 0.5 = relu(0.5)
        x = np.full((8, 1), 0.5)
        y = np.full((8, 1), 0.3)
        model = BayesModel(net, x, y, loss_kind="squared-error")
        st = ModelState([np.array([1.0, 0.0])],
                        ActivationParams(c=0.5, gamma=0.0, b=1.0),
                        HyperState(np.ones(1)))
        vals = [model.cond_logdensity("c", v, st) for v in np.linspace(0, 1, 11)]
        np.testing.assert_allclose(vals, vals[0], atol=1e-12)

    def test_prior_only_gamma_is_gaussian(self):
        """With no data the gamma conditional is the N(0, sigma2) prior."""
        layers = [dense(1, 1), act("mmelu")]
        net = Network(NetworkSpec(layers, (1,), 1))
        model = BayesModel(net, np.zeros((0, 1)), np.zeros((0, 1)),
                           loss_kind="squared-error")
        st = ModelState([np.zeros(2)], ActivationParams(),
                        HyperState(np.ones(1), sigma2=1.7))
        for v in (-2.0, -0.5, 0.3, 1.1):
            got = model.cond_logdensity("gamma", v, st)
            np.testing.assert_allclose(got, -v**2 / (2 * 1.7), atol=1e-12)

    def test_prior_only_b_is_exponential(self):
        layers = [dense(1, 1), act("mmelu")]
        net = Network(NetworkSpec(layers, (1,), 1))
        model = BayesModel(net, np.zeros((0, 1)), np.zeros((0, 1)),
                           loss_kind="squared-error")
        st = ModelState([np.zeros(2)], ActivationParams(),
                        HyperState(np.ones(1), lam_b=0.8))
        for v in (0.0, 0.4, 1.3, 2.9):
            got = model.cond_logdensity("b", v, st)
            np.testing.assert_allclose(got, -v / 0.8, atol=1e-12)


class TestInverseGammaParams:
    MODEL = _toy_model()[1]  # FixedHypers() defaults: delta = mu = 1e-3

    def _ig(self, block, w=(0.0,), gamma=0.0, b=1.0):
        st = ModelState([np.asarray(w, dtype=np.float64)],
                        ActivationParams(gamma=gamma, b=b), HyperState(np.ones(1)))
        return self.MODEL.ig_params(block, st, 0 if block == "lambda_l" else None)

    def test_lambda_l_zero_layer(self):
        shape, scale = self._ig("lambda_l", w=np.zeros(10))
        np.testing.assert_allclose((shape, scale), (10.001, 1e-3), rtol=1e-12)

    def test_lambda_l_worked_example(self):
        """K_l=10, norm 2.5: IG(10.001, 2.501) with mean 2.501/9.001."""
        shape, scale = self._ig("lambda_l", w=np.full(10, 0.25))
        np.testing.assert_allclose((shape, scale), (10.001, 2.501), rtol=1e-12)
        np.testing.assert_allclose(scale / (shape - 1.0), 0.27786, atol=5e-6)

    def test_lambda_b_values(self):
        shape, scale = self._ig("lambda_b", b=0.0)
        np.testing.assert_allclose((shape, scale), (1.001, 1e-3), rtol=1e-12)
        shape, scale = self._ig("lambda_b", b=1.0)
        np.testing.assert_allclose((shape, scale), (1.001, 1.001), rtol=1e-12)
        with pytest.raises(ValueError):
            self._ig("lambda_b", b=-0.5)

    def test_sigma2_values(self):
        shape, scale = self._ig("sigma2", gamma=0.0)
        np.testing.assert_allclose((shape, scale), (0.501, 1e-3), rtol=1e-12)
        shape, scale = self._ig("sigma2", gamma=2.0)
        np.testing.assert_allclose((shape, scale), (0.501, 2.001), rtol=1e-12)

    def test_overflowing_gamma_square(self):
        """Where gamma^2 overflows a Python float, the sigma2 scale is
        infinite, gamma's log prior is -inf, and the scale draw stops the
        sweep with a NumericalError."""
        assert self._ig("sigma2", gamma=1e200)[1] == np.inf
        net, model, rng = _toy_model()
        st = _random_state(net, rng)
        for gamma in (1e200, -1e200):
            assert model.act_log_prior("gamma", gamma, st) == -np.inf
        st.act = replace(st.act, gamma=1e200)
        with pytest.raises(NumericalError, match="sigma2"):
            samplers._draw_ig(model, "sigma2", st, rng, 0)


class TestPriorShape:
    def test_laplace_scale_gradient_sign(self):
        """d/dlam of the log Laplace prior is (norm - K*lam) / lam^2."""
        net, model, rng = _toy_model(seed=3)
        st = _random_state(net, rng)
        k = st.w[0].size
        norm = float(np.sum(np.abs(st.w[0])))
        h = 1e-6
        for lam in (0.3, norm / k, 2.0):
            st_p, st_m = st.copy(), st.copy()
            st_p.hyper.lam[0] = lam + h
            st_m.hyper.lam[0] = lam - h
            # isolate the Laplace factor: fix the hyperprior part by
            # differencing the full prior and the IG-hyper contribution
            d = model.fixed.delta
            m = model.fixed.mu
            fd = (model.prior_logdensity(st_p) - model.prior_logdensity(st_m)) / (2 * h)
            ig_part = (-(1 + d) / lam + m / lam**2)
            laplace_part = fd - ig_part
            expect = (norm - k * lam) / lam**2
            np.testing.assert_allclose(laplace_part, expect, rtol=1e-4, atol=1e-6)

    def test_l1_norms(self):
        got = l1_norms([np.array([1.0, -2.0]), np.array([-0.5])])
        np.testing.assert_array_equal(got, [3.0, 0.5])

    def test_init_state_defaults(self):
        net, model, rng = _toy_model()
        st = init_state(net, rng)
        assert st.act.c == 0.5 and st.act.gamma == 0.0 and st.act.b == 1.0
        assert st.hyper.lam_b == 1.0 and st.hyper.sigma2 == 1.0
        np.testing.assert_array_equal(st.hyper.lam, 1.0)
