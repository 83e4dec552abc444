"""Sampler building blocks and the full Gibbs sweep.

Distributional checks compare empirical draws against closed-form CDFs
(see oracles.py).  Every randomized test runs on a fixed seed, so failures
are reproducible, and tolerances leave headroom over the Monte Carlo noise
floor at the chosen sample sizes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import inverse_gamma_cdf, ks_distance, laplace_cdf

import gibbsnn.samplers as samplers
from gibbsnn.activations import ActivationParams
from gibbsnn.diagnostics import load_trace
from gibbsnn.errors import ConfigError, NumericalError
from gibbsnn.model import BayesModel, HyperState, ModelState, init_state
from gibbsnn.network import Network, NetworkSpec, act, dense
from gibbsnn.samplers import (
    ChainState,
    SamplerConfig,
    default_moves,
    estimate,
    gibbs_sweep,
    mh_step,
    nshmc_step,
    reflect_into,
    run_chain,
    run_chains,
    sample_inverse_gamma,
    soft_threshold,
)


def _without(*names):
    """A moves factory: the default moves but those named."""
    return lambda cfg: [m for m in default_moves(cfg) if m.name not in names]


def _prior_only_model():
    """1-1-1 net with an empty dataset: the posterior is the prior."""
    layers = [dense(1, 1), act("mmelu"), dense(1, 1)]
    net = Network(NetworkSpec(layers, (1,), 1))
    model = BayesModel(net, np.zeros((0, 1)), np.zeros((0, 1)),
                       loss_kind="squared-error")
    return net, model


class TestInverseGammaSampler:
    def test_rejects_bad_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_inverse_gamma(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_inverse_gamma(1.0, -2.0, rng)

    def test_underflowing_shape_draws_infinity(self):
        """At shape 1e-3 the boosted gamma draw often underflows to 0.0;
        the inverse-gamma draw is then +inf, not a ZeroDivisionError."""
        rng = np.random.default_rng(0)
        draws = np.array([sample_inverse_gamma(1e-3, 1.0, rng) for _ in range(1000)])
        assert (draws > 0.0).all() and np.isinf(draws).any()

    def test_mean_shape3_scale2(self):
        """Mean of IG(3, 2) is scale/(shape-1) = 1."""
        rng = np.random.default_rng(1)
        draws = np.array([sample_inverse_gamma(3.0, 2.0, rng) for _ in range(200000)])
        np.testing.assert_allclose(draws.mean(), 1.0, rtol=0.01)

    def test_mode_shape3_scale2(self):
        """Mode of IG(3, 2) is scale/(shape+1) = 0.5: peak histogram bin."""
        rng = np.random.default_rng(2)
        draws = np.array([sample_inverse_gamma(3.0, 2.0, rng) for _ in range(50000)])
        hist, edges = np.histogram(draws[draws < 3.0], bins=40)
        peak = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        assert 0.35 < peak < 0.65

    @pytest.mark.parametrize("shape,scale", [(3.0, 2.0), (0.501, 0.001),
                                             (1.001, 1.001), (10.001, 2.501)])
    def test_ks_against_cdf(self, shape, scale):
        """KS distance to the exact CDF at 2e5 draws, incl. shapes < 1."""
        rng = np.random.default_rng(3)
        n = 200000
        draws = np.array([sample_inverse_gamma(shape, scale, rng) for _ in range(n)])
        d = ks_distance(draws, lambda x: inverse_gamma_cdf(x, shape, scale))
        assert d < 0.01, f"KS {d} for IG({shape}, {scale})"


class TestSoftThreshold:
    def test_closed_form_grid(self):
        x = np.linspace(-3.0, 3.0, 601)
        for tau in (0.0, 0.25, 1.0, 2.5):
            got = soft_threshold(x, tau)
            inside = np.abs(x) <= tau
            np.testing.assert_array_equal(got[inside], 0.0)
            np.testing.assert_allclose(got[~inside],
                                       x[~inside] - np.sign(x[~inside]) * tau,
                                       atol=1e-15)

    def test_vector_tau(self):
        x = np.array([-2.0, -0.1, 0.1, 2.0])
        tau = np.array([1.0, 1.0, 0.05, 0.05])
        np.testing.assert_allclose(soft_threshold(x, tau),
                                   [-1.0, 0.0, 0.05, 1.95], atol=1e-15)


class TestReflectInto:
    def test_interior_fixed_point(self):
        assert reflect_into(0.4, 0.0, 1.0) == 0.4
        assert reflect_into(-3.7) == -3.7

    def test_two_sided_fold(self):
        assert reflect_into(1.2, 0.0, 1.0) == pytest.approx(0.8)
        assert reflect_into(-0.3, 0.0, 1.0) == pytest.approx(0.3)
        # two full periods away still lands inside
        assert 0.0 <= reflect_into(7.13, 0.0, 1.0) <= 1.0
        assert 0.0 <= reflect_into(-123.456, 0.0, 1.0) <= 1.0

    def test_one_sided(self):
        assert reflect_into(-0.2, lower=0.0) == pytest.approx(0.2)
        assert reflect_into(1.5, upper=1.0) == pytest.approx(0.5)


class TestMhStep:
    def test_flat_target_accepts_everything(self):
        """Uniform conditional on [0,1]: every reflected proposal lands
        in-support and is accepted."""
        rng = np.random.default_rng(4)
        v, cur = 0.5, (0.0,)
        n_acc = 0
        for _ in range(2000):
            v, accepted, cur = mh_step(v, cur, lambda x: (0.0,), rng, 0.3,
                                       lower=0.0, upper=1.0)
            n_acc += accepted
            assert 0.0 <= v <= 1.0
        assert n_acc == 2000

    def test_tiny_proposal_acceptance_near_one(self):
        rng = np.random.default_rng(5)
        v = 0.3
        cur = (-v * v / 2.0,)
        n_acc = 0
        for _ in range(2000):
            v, accepted, cur = mh_step(v, cur, lambda x: (-x * x / 2.0,), rng, 1e-8)
            n_acc += accepted
        assert n_acc / 2000 > 0.999

    def test_gaussian_target_variance(self):
        """Prior-style N(0, sigma2) target: sample variance within 5%."""
        sigma2 = 1.7
        rng = np.random.default_rng(6)
        v, cur = 0.0, (0.0,)
        out = np.empty(100000)
        for i in range(len(out)):
            v, _, cur = mh_step(v, cur, lambda x: (-x * x / (2 * sigma2),), rng,
                                2.4 * math.sqrt(sigma2))
            out[i] = v
        assert abs(out.var() / sigma2 - 1.0) < 0.05

    def test_detailed_balance_bin_counts(self):
        """On a stationary reversible chain the i->j and j->i transition
        counts between value bins agree up to sampling noise (pairwise
        chi-square below the 0.99 quantile of chi2 with 6 dof)."""
        rng = np.random.default_rng(7)
        v, cur = 0.0, (0.0,)
        n = 120000
        xs = np.empty(n)
        for i in range(n):
            v, _, cur = mh_step(v, cur, lambda x: (-x * x / 2.0,), rng, 2.4)
            xs[i] = v
        bins = np.quantile(xs, [0.25, 0.5, 0.75])
        lab = np.digitize(xs, bins)
        counts = np.zeros((4, 4))
        np.add.at(counts, (lab[:-1], lab[1:]), 1.0)
        stat = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                tot = counts[i, j] + counts[j, i]
                if tot > 0:
                    stat += (counts[i, j] - counts[j, i]) ** 2 / tot
        # chi2(6) 0.99 quantile
        assert stat < 16.812, f"detailed-balance statistic {stat}"

    @pytest.mark.parametrize("logdens", [-1.0, -np.inf], ids=["finite", "zero_density"])
    def test_one_evaluation_one_normal_one_uniform(self, logdens):
        """Only the candidate is evaluated, and every step consumes one
        normal and one uniform, also when the candidate has zero density,
        so the RNG stream does not depend on the densities."""
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        calls = []

        def evaluate(x):
            calls.append(x)
            return (logdens, "extra")

        v, cur = 0.2, (-0.5, "current")
        for step in range(50):
            v, accepted, cur = mh_step(v, cur, evaluate, rng, 0.4, lower=0.0)
            twin.standard_normal()
            twin.random()
            assert len(calls) == step + 1
            assert rng.bit_generator.state == twin.bit_generator.state
            if logdens == -np.inf:
                assert not accepted and cur == (-0.5, "current")
            elif accepted:
                assert v == calls[-1] and cur == (logdens, "extra")


class TestNsHmc:
    def test_divergent_trajectory_rejected(self):
        rng = np.random.default_rng(8)
        q = np.array([0.1, -0.2, 0.3])
        q1, info = nshmc_step(
            q, rng,
            energy_grad=lambda x: (0.5 * float(x @ x), x),
            l1_scale=1e15, step=60.0, n_leapfrog=10)
        assert info["divergent"]
        assert not info["accepted"]
        np.testing.assert_array_equal(q1, q)

    def test_gaussian_target_covariance(self):
        """With the l1 term off the move is plain HMC; N(0, I) samples."""
        rng = np.random.default_rng(9)
        q = np.zeros(3)
        n = 20000
        out = np.empty((n, 3))
        for i in range(n):
            q, _ = nshmc_step(
                q, rng,
                energy_grad=lambda x: (0.5 * float(x @ x), x),
                l1_scale=1e15, step=0.5, n_leapfrog=8)
            out[i] = q
        cov = np.cov(out.T)
        np.testing.assert_allclose(cov, np.eye(3), atol=0.07)

    def test_laplace_target_ks(self):
        """Pure l1 potential: stationary law is Laplace(0, lam)."""
        lam = 0.7
        rng = np.random.default_rng(10)
        q = np.zeros(1)
        n = 20000
        out = np.empty(n)
        for i in range(n):
            q, _ = nshmc_step(
                q, rng,
                energy_grad=lambda x: (0.0, np.zeros_like(x)),
                l1_scale=lam, step=0.4, n_leapfrog=8)
            out[i] = q[0]
        d = ks_distance(out, lambda x: laplace_cdf(x, 0.0, lam))
        assert d < 0.03, f"KS {d}"

    def test_acceptance_prob_in_unit_interval(self):
        rng = np.random.default_rng(11)
        q = np.array([0.5])
        for _ in range(50):
            q, info = nshmc_step(
                q, rng,
                energy_grad=lambda x: (0.5 * float(x @ x), x),
                l1_scale=2.0, step=0.3, n_leapfrog=5)
            assert 0.0 <= info["accept_prob"] <= 1.0
            assert np.isfinite(info["energy"])

    def test_large_energy_drop_accepted(self):
        """A trajectory that lowers H by about 800, past exp's overflow at
        709 but inside the divergence threshold, is accepted."""
        rng = np.random.default_rng(12)
        # one leapfrog step of size sqrt(2) on E = x^2/2 takes q0 to about
        # sqrt(2) p0 and the momentum to -q0/sqrt(2): dh = p0^2/2 - q0^2/4
        q0 = np.array([40.0 * math.sqrt(2.0)])
        q1, info = nshmc_step(
            q0, rng, energy_grad=lambda x: (0.5 * float(x @ x), x),
            l1_scale=1e15, step=math.sqrt(2.0), n_leapfrog=1)
        assert -1000.0 < info["delta_h"] < -709.0
        assert info["accepted"] and not info["divergent"]
        assert info["accept_prob"] == 1.0
        assert info["energy"] == 0.5 * float(q1 @ q1)

    def test_reported_energy_is_energy_at_returned_point(self):
        """info["energy"] comes from the trajectory's own gradient calls and
        equals E at the returned point, accepted or not."""
        rng = np.random.default_rng(13)
        energy = lambda x: 0.5 * float(x @ x) + float(np.sum(np.cos(x)))
        grad = lambda x: x - np.sin(x)
        q = np.array([0.4, -1.2, 2.0])
        outcomes = set()
        for _ in range(200):
            q, info = nshmc_step(
                q, rng, energy_grad=lambda x: (energy(x), grad(x)),
                l1_scale=1.5, step=0.9, n_leapfrog=4)
            assert info["energy"] == energy(q)
            outcomes.add(info["accepted"])
        assert outcomes == {True, False}


class TestWeightMove:
    """The weight move inside gibbs_sweep, on the full batch."""

    def _chain(self, blob_data, tiny_net, moves=default_moves, **cfg_kw):
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg = SamplerConfig(n_sweeps=10, burn_in=5, n_chains=1, leapfrog_steps=4,
                            **cfg_kw)
        rng = np.random.default_rng(14)
        chain = ChainState(model=init_state(tiny_net, rng), rng=rng, moves=moves(cfg))
        return model, cfg, chain

    def test_sweep_data_term_calls(self, blob_data, tiny_net, monkeypatch):
        """Three energies for the three scalar moves, and n_leapfrog + 1
        gradients for the trajectory, whose end points take their energies
        from the first and last gradient calls."""
        model, cfg, chain = self._chain(blob_data, tiny_net)
        gibbs_sweep(model, chain, cfg, adapting=True)  # records chain.energy
        calls = {"data_energy": 0, "energy_grad": 0}
        for name in calls:
            def counted(*args, _orig=getattr(model, name), _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(model, name, counted)
        gibbs_sweep(model, chain, cfg, adapting=True)
        assert calls == {"data_energy": 3, "energy_grad": cfg.leapfrog_steps + 1}

    def test_scalar_moves_use_model_conditional(self, blob_data, tiny_net,
                                                monkeypatch):
        """Each of the 3 x scalar_subsweeps Metropolis moves is one
        mh_step on the model's act_conditional, which evaluates only the
        candidate."""
        model, cfg, chain = self._chain(blob_data, tiny_net, _without("w"),
                                        scalar_subsweeps=2)
        gibbs_sweep(model, chain, cfg, adapting=True)  # records chain.energy
        calls = {"act_conditional": [], "mh_step": 0}
        orig_cond, orig_mh = model.act_conditional, samplers.mh_step

        def conditional(block, value, state, subset=None):
            calls["act_conditional"].append(block)
            return orig_cond(block, value, state, subset)

        def step(*args, **kwargs):
            calls["mh_step"] += 1
            return orig_mh(*args, **kwargs)

        monkeypatch.setattr(model, "act_conditional", conditional)
        monkeypatch.setattr(samplers, "mh_step", step)
        gibbs_sweep(model, chain, cfg, adapting=True)
        assert calls == {"act_conditional": ["c", "gamma", "b"] * 2, "mh_step": 6}

    def test_failed_trajectory_keeps_recorded_energy(self, blob_data, tiny_net,
                                                     monkeypatch):
        """A divergent move, here one whose gradient fails at the current
        point, leaves the weights and the recorded energy as they were."""
        model, cfg, chain = self._chain(blob_data, tiny_net, _without("c", "gamma", "b"))
        gibbs_sweep(model, chain, cfg, adapting=False)
        e_before = chain.energy
        w_before = [wi.copy() for wi in chain.model.w]

        def failing(*args, **kwargs):
            raise NumericalError("non-finite gradient inf at layer 0 (dense)")

        monkeypatch.setattr(model, "energy_grad", failing)
        flags = gibbs_sweep(model, chain, cfg, adapting=False)
        assert flags["divergent"] and not flags["accept_w"]
        assert chain.energy == e_before
        for a, b in zip(chain.model.w, w_before):
            np.testing.assert_array_equal(a, b)


class TestMoves:
    """The default move list, as the sweep and bench/run.py read it."""

    @staticmethod
    def _model(blob_data, tiny_net):
        train, _ = blob_data
        return BayesModel(tiny_net, train.inputs, train.labels, loss_kind="squared-error")

    def test_scalar_subsweeps_share_their_moves(self, blob_data, tiny_net):
        """scalar_subsweeps=2 lists c, gamma and b twice as the same three
        moves: one sweep proposes each twice, on one adapted scale each."""
        model = self._model(blob_data, tiny_net)
        cfg = SamplerConfig(scalar_subsweeps=2, leapfrog_steps=2)
        rng = np.random.default_rng(16)
        chain = ChainState(model=init_state(tiny_net, rng), rng=rng, moves=default_moves(cfg))
        gibbs_sweep(model, chain, cfg, adapting=True)
        act = {id(m): m for m in chain.moves if m.name in ("c", "gamma", "b")}
        assert sorted(m.name for m in act.values()) == ["b", "c", "gamma"]
        for m in act.values():
            assert m.proposed == 2 and m.scale != samplers.MH_SCALE, m
        assert list(chain.accept_rates()) == ["c", "gamma", "b", "w"]

    def test_trace_contract_of_the_benchmark(self, blob_data, tiny_net):
        """bench/run.py reads each trace's accept rates of c, gamma, b and
        w, its divergence count, and the five flag columns of its rows."""
        cfg = SamplerConfig(n_sweeps=20, burn_in=5, leapfrog_steps=2)
        for t in run_chains(self._model(blob_data, tiny_net), cfg, seed=24):
            assert set(t.accept_rates) == {"c", "gamma", "b", "w"}
            assert all(0.0 <= r <= 1.0 for r in t.accept_rates.values()), t.accept_rates
            assert isinstance(t.divergences, int) and t.divergences >= 0
            assert t.header[-5:] == ["accept_c", "accept_gamma", "accept_b", "accept_w",
                                     "divergent"]


class TestSamplerConfig:
    def test_validate_rejects_bad_values(self):
        for kw in ({"burn_in": 10, "n_sweeps": 10}, {"thin": 0},
                   {"leapfrog_steps": 0}, {"step_size": 0.0},
                   {"n_chains": 0}, {"batch_size": 0},
                   {"scalar_subsweeps": 0}):
            with pytest.raises(ConfigError):
                SamplerConfig(**kw).validate()

    def test_defaults_valid(self):
        SamplerConfig().validate()


class TestGibbsSweepPrior:
    @staticmethod
    def _c_prior_draws(subsweeps):
        # c over 10,000 sweeps with no data, seed 12; c's prior is U[0, 1]
        net, model = _prior_only_model()
        cfg = SamplerConfig(n_sweeps=10000, burn_in=0, n_chains=1, adapt=False,
                            leapfrog_steps=3, scalar_subsweeps=subsweeps)
        c = run_chain(model, cfg, np.random.default_rng(12)).series("c")
        assert abs(c.mean() - 0.5) < 0.02
        assert c.min() >= 0.0 and c.max() <= 1.0
        return c

    def test_c_prior_mean_half(self):
        """With no data every block samples its prior; c is U[0, 1]."""
        self._c_prior_draws(1)

    def test_c_prior_with_three_scalar_subsweeps(self):
        """Repeating the scalar moves within a sweep keeps c's prior."""
        c = self._c_prior_draws(3)
        d = ks_distance(c, lambda x: np.clip(x, 0.0, 1.0))
        assert d < 0.05, f"KS {d}"

    def test_lambda_b_conditional_frozen_b(self):
        """b frozen at 1: lambda_b draws are iid IG(1.001, 1.001)."""
        net, model = _prior_only_model()
        cfg = SamplerConfig(n_sweeps=10000, burn_in=0, n_chains=1, adapt=False)
        rng = np.random.default_rng(13)
        trace = run_chain(model, cfg, rng, moves=_without("c", "gamma", "b", "w"))
        lam_b = trace.series("lambda_b")
        d = ks_distance(lam_b, lambda x: inverse_gamma_cdf(x, 1.001, 1.001))
        assert d < 0.02, f"KS {d}"

    def test_sigma2_conditional_frozen_gamma(self):
        """gamma frozen at 0: sigma2 draws are iid IG(0.501, 1e-3)."""
        net, model = _prior_only_model()
        cfg = SamplerConfig(n_sweeps=8000, burn_in=0, n_chains=1, adapt=False)
        rng = np.random.default_rng(14)
        trace = run_chain(model, cfg, rng, moves=_without("c", "gamma", "b", "w"))
        s2 = trace.series("sigma2")
        d = ks_distance(s2, lambda x: inverse_gamma_cdf(x, 0.501, 0.001))
        assert d < 0.02, f"KS {d}"

    def test_state_invariants_after_sweeps(self):
        net, model = _prior_only_model()
        cfg = SamplerConfig(n_sweeps=300, burn_in=100, n_chains=1)
        rng = np.random.default_rng(15)
        trace = run_chain(model, cfg, rng)
        st = trace.final_state
        assert st.act.in_support
        assert st.hyper.in_support
        assert all(np.all(np.isfinite(wl)) for wl in st.w)


class TestReproducibility:
    def test_identical_seeds_identical_traces(self, blob_data, tiny_net):
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg = SamplerConfig(n_sweeps=60, burn_in=20, n_chains=2, leapfrog_steps=3)
        a = run_chains(model, cfg, seed=99)
        b = run_chains(model, cfg, seed=99)
        for ta, tb in zip(a, b):
            for name in ta.parameter_names() + ["energy", "log_posterior"]:
                assert np.array_equal(ta.series(name), tb.series(name)), name
            assert np.array_equal(ta.w_mean, tb.w_mean)

    def test_different_chains_differ(self, blob_data, tiny_net):
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg = SamplerConfig(n_sweeps=40, burn_in=10, n_chains=2, leapfrog_steps=3)
        traces = run_chains(model, cfg, seed=7)
        assert not np.array_equal(traces[0].series("c"), traces[1].series("c"))


class TestTrace:
    def test_thin_keeps_every_kth_row(self, blob_data, tiny_net):
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg = SamplerConfig(n_sweeps=30, burn_in=10, n_chains=1, thin=3,
                            leapfrog_steps=2)
        trace = run_chains(model, cfg, seed=1)[0]
        np.testing.assert_array_equal(trace.iteration, np.arange(0, 30, 3))

    def test_csv_round_trip(self, tmp_path, blob_data, tiny_net):
        """Written rows parse back bit-identically (repr float round trip)."""
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg = SamplerConfig(n_sweeps=25, burn_in=5, n_chains=1, leapfrog_steps=2)
        trace = run_chains(model, cfg, seed=2)[0]
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = load_trace(path)
        assert back.header == trace.header
        for name in trace.header:
            np.testing.assert_array_equal(trace.series(name), back.series(name))


class TestMiniBatch:
    """batch_size draws one row subset per sweep, shared by every energy."""

    def _model(self, blob_data, tiny_net):
        train, _ = blob_data
        return BayesModel(tiny_net, train.inputs, train.labels,
                          loss_kind="squared-error")

    @staticmethod
    def _same(a, b):
        return all(ta.table.tobytes() == tb.table.tobytes()
                   and ta.w_mean.tobytes() == tb.w_mean.tobytes()
                   for ta, tb in zip(a, b, strict=True))

    def test_full_size_batch_is_full_batch(self, blob_data, tiny_net):
        model = self._model(blob_data, tiny_net)
        cfg = SamplerConfig(n_sweeps=20, burn_in=5, n_chains=2, leapfrog_steps=2)
        full = run_chains(model, cfg, seed=21)
        sized = run_chains(model, replace(cfg, batch_size=model.n_data), seed=21)
        assert self._same(full, sized)

    def test_one_subset_per_sweep(self, blob_data, tiny_net, monkeypatch):
        model = self._model(blob_data, tiny_net)
        k = 40
        cfg = SamplerConfig(n_sweeps=10, burn_in=5, n_chains=1, leapfrog_steps=3,
                            batch_size=k)
        rng = np.random.default_rng(22)
        chain = ChainState(model=init_state(tiny_net, rng), rng=rng, moves=default_moves(cfg))
        seen = []
        for name in ("act_conditional", "energy_grad"):
            def recorded(*args, _orig=getattr(model, name), **kwargs):
                seen.append(np.array(args[-1]))
                return _orig(*args, **kwargs)
            monkeypatch.setattr(model, name, recorded)
        subsets = []
        for _ in range(2):
            seen.clear()
            gibbs_sweep(model, chain, cfg, adapting=True)
            # the energy refresh, 3 scalar moves, n_leapfrog + 1 gradients
            assert len(seen) == 1 + 3 + cfg.leapfrog_steps + 1
            for rows in seen:
                np.testing.assert_array_equal(rows, seen[0])
            assert len(np.unique(seen[0])) == k
            assert 0 <= seen[0].min() and seen[0].max() < model.n_data
            # the energy carried to the next move is the rescaled subset loss
            st = chain.model
            assert chain.energy == model.data_energy(st.w, st.act, seen[0])
            assert chain.energy != model.data_energy(st.w, st.act)
            subsets.append(set(seen[0].tolist()))
        assert subsets[0] != subsets[1]

    def test_seed_reproduces_batched_chain(self, blob_data, tiny_net):
        model = self._model(blob_data, tiny_net)
        cfg = SamplerConfig(n_sweeps=20, burn_in=5, n_chains=2, leapfrog_steps=2,
                            batch_size=50)
        a = run_chains(model, cfg, seed=23)
        assert self._same(a, run_chains(model, cfg, seed=23))
        assert not self._same(a, run_chains(model, replace(cfg, batch_size=None), seed=23))


class TestEstimate:
    def _traces(self, blob_data, tiny_net, seed, moves=default_moves, **cfg_kw):
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg_kw = {"n_chains": 1, "leapfrog_steps": 2, **cfg_kw}
        return run_chains(model, SamplerConfig(**cfg_kw), seed=seed, moves=moves)

    def test_frozen_blocks_constant(self, blob_data, tiny_net):
        traces = self._traces(blob_data, tiny_net, 3, _without("c", "gamma", "b", "w"),
                              n_sweeps=50, burn_in=0)
        st = estimate(traces)
        assert (st.act.c, st.act.gamma, st.act.b) == (0.5, 0.0, 1.0)
        for got, start in zip(st.w, traces[0].final_state.w):
            np.testing.assert_array_equal(got, start)

    def test_burn_in_boundary_keeps_last_sample(self, blob_data, tiny_net):
        """With burn_in = n_sweeps - 1 the one post-burn-in draw is the
        chain's final state, blocks and scales alike."""
        traces = self._traces(blob_data, tiny_net, 4, n_sweeps=40, burn_in=39)
        st, final = estimate(traces), traces[0].final_state
        assert st.act == final.act
        assert (st.hyper.lam_b, st.hyper.sigma2) == (final.hyper.lam_b, final.hyper.sigma2)
        np.testing.assert_array_equal(st.hyper.lam, final.hyper.lam)
        for got, want in zip(st.w, final.w):
            np.testing.assert_array_equal(got, want)

    def test_pooling_matches_concatenation(self, blob_data, tiny_net):
        traces = self._traces(blob_data, tiny_net, 5, n_sweeps=60, burn_in=30,
                              n_chains=2)
        st = estimate(traces)
        pooled = np.concatenate([t.table[t.iteration >= 30] for t in traces])
        header = traces[0].header
        np.testing.assert_allclose(
            [st.act.c, st.act.gamma, st.act.b, st.hyper.sigma2, st.hyper.lam_b, *st.hyper.lam],
            [pooled[:, header.index(name)].mean() for name in traces[0].parameter_names()],
            rtol=1e-12)
        # weight means recover the same pooling through running means
        draws = np.concatenate([t.w_history for t in traces])
        got = np.concatenate([w.ravel() for w in st.w])
        np.testing.assert_allclose(got, draws.mean(axis=0), rtol=1e-10, atol=1e-12)
        assert [len(w) for w in st.w] == list(tiny_net.weight_lengths)

    def test_state_round_trip(self, blob_data, tiny_net):
        st = estimate(self._traces(blob_data, tiny_net, 6, n_sweeps=30, burn_in=10))
        assert isinstance(st, ModelState)
        assert isinstance(st.act, ActivationParams)
        assert isinstance(st.hyper, HyperState)
        assert len(st.w) == tiny_net.n_layers == len(st.hyper.lam)

    def test_all_burned_rejected(self, blob_data, tiny_net):
        """thin 5 records sweeps 0 and 5 only, both before burn-in 6."""
        traces = self._traces(blob_data, tiny_net, 7, n_sweeps=8, burn_in=6, thin=5)
        assert traces[0].w_count == 0
        with pytest.raises(ValueError, match="no post-burn-in"):
            estimate(traces)

    def test_no_traces_rejected(self):
        with pytest.raises(ValueError):
            estimate([])


class TestCallbacks:
    def test_callback_sees_every_sweep(self, blob_data, tiny_net):
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg = SamplerConfig(n_sweeps=15, burn_in=5, n_chains=2, leapfrog_steps=2)
        seen = []
        run_chains(model, cfg, seed=8,
                   callback=lambda k, sweep, chain: seen.append((k, sweep)))
        assert seen == [(k, s) for k in range(2) for s in range(15)]
