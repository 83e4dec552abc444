"""ESS, split-Rhat, and summary statistics on series with known answers."""

import numpy as np
import pytest

from gibbsnn.diagnostics import (
    autocovariance,
    ess,
    load_trace,
    split_rhat,
    summarize,
    write_report,
)


class TestAutocovariance:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        acov = autocovariance(x)
        xc = x - x.mean()
        for lag in (0, 1, 5, 50):
            direct = float(np.dot(xc[:len(x) - lag], xc[lag:])) / len(x)
            np.testing.assert_allclose(acov[lag], direct, atol=1e-10)


class TestEss:
    def test_iid_normal(self):
        """Independent draws: ess within 10% of n."""
        rng = np.random.default_rng(1)
        n = 10000
        x = rng.standard_normal(n)
        assert 0.9 * n <= ess(x) <= 1.1 * n

    def test_ar1_closed_form(self):
        """AR(1) with coefficient 0.9: ess ~= n (1-phi)/(1+phi)."""
        rng = np.random.default_rng(2)
        phi = 0.9
        n = 200000
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        expect = n * (1 - phi) / (1 + phi)
        got = ess(x)
        assert abs(got / expect - 1.0) < 0.2, f"ess {got}, expected ~{expect}"

    def test_alternating_capped(self):
        """Perfectly antithetic series exceeds n and hits the 10n cap."""
        x = np.tile([1.0, -1.0], 500)
        assert ess(x) == 10.0 * len(x)

    def test_constant_series_is_n(self):
        x = np.full(100, 3.7)
        assert ess(x) == 100.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            ess(np.arange(5))

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000)
        for _ in range(3):
            x = 0.7 * np.roll(x, 1) + 0.3 * rng.standard_normal(5000)
        np.testing.assert_allclose(ess(x), ess(5.0 * x - 11.0), rtol=1e-9)


class TestSplitRhat:
    def test_identical_chains_one(self):
        """Duplicated chains agree between and within, so the statistic
        sits at 1 up to the estimator's O(1/n) small-sample bias."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1000)
        r = split_rhat([x, x.copy()])
        np.testing.assert_allclose(r, 1.0, atol=2e-3)

    def test_separated_chains_large(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 1.0, size=1000)
        b = rng.normal(10.0, 1.0, size=1000)
        assert split_rhat([a, b]) > 1.5

    def test_well_mixed_chains_below_threshold(self):
        rng = np.random.default_rng(6)
        chains = [rng.standard_normal(2000) for _ in range(4)]
        assert split_rhat(chains) < 1.01

    def test_stuck_half_detected(self):
        """A chain that moves between halves inflates split-Rhat even when
        both whole-chain means agree."""
        rng = np.random.default_rng(7)
        a = np.concatenate([np.full(500, -2.0), np.full(500, 2.0)])
        a = a + 0.01 * rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        assert split_rhat([a, b]) > 1.5

    def test_constant_chains_one(self):
        assert split_rhat([np.full(100, 2.0), np.full(100, 2.0)]) == 1.0

    def test_constant_chains_with_rounding_dust(self):
        """Repeated 0.1 is constant even though mean subtraction leaves
        variance at the 1e-34 rounding floor."""
        assert split_rhat([np.full(40, 0.1), np.full(40, 0.1)]) == 1.0
        # genuine microscopic variation is still not constant
        wiggle = 0.1 + 1e-9 * np.sin(np.arange(40.0))
        assert split_rhat([wiggle, np.full(40, 0.1)]) != 1.0

    def test_too_few_chains_rejected(self):
        with pytest.raises(ValueError):
            split_rhat([np.arange(100.0)])
        with pytest.raises(ValueError):
            split_rhat([np.arange(3.0), np.arange(3.0)])

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        chains = [rng.standard_normal(500) + i * 0.1 for i in range(3)]
        r1 = split_rhat(chains)
        r2 = split_rhat([3.0 * c - 7.0 for c in chains])
        np.testing.assert_allclose(r1, r2, rtol=1e-9)


class TestSummarize:
    def _traces(self, tiny_net, blob_data, n_sweeps=60, burn_in=20, chains=2,
                seed=1):
        from gibbsnn.model import BayesModel
        from gibbsnn.samplers import SamplerConfig, run_chains
        train, _ = blob_data
        model = BayesModel(tiny_net, train.inputs, train.labels,
                           loss_kind="squared-error")
        cfg = SamplerConfig(n_sweeps=n_sweeps, burn_in=burn_in, n_chains=chains,
                            leapfrog_steps=2)
        return run_chains(model, cfg, seed=seed)

    def test_mean_matches_window(self, tiny_net, blob_data):
        traces = self._traces(tiny_net, blob_data)
        rows = {r["parameter"]: r for r in summarize(traces, burn_in=20)}
        pooled = np.concatenate([t.series("c")[t.iteration >= 20] for t in traces])
        np.testing.assert_allclose(rows["c"]["mean"], pooled.mean(), atol=1e-12)
        assert rows["c"]["n"] == pooled.size

    def test_burn_in_rows_excluded(self, tiny_net, blob_data):
        traces = self._traces(tiny_net, blob_data)
        all_rows = {r["parameter"]: r for r in summarize(traces, burn_in=0)}
        post_rows = {r["parameter"]: r for r in summarize(traces, burn_in=20)}
        assert all_rows["c"]["n"] == 2 * 60
        assert post_rows["c"]["n"] == 2 * 40

    def test_quantile_order(self, tiny_net, blob_data):
        traces = self._traces(tiny_net, blob_data)
        for row in summarize(traces, burn_in=20):
            assert row["q5"] <= row["mean"] + 1e-12 or row["std"] == 0.0
            assert row["q5"] <= row["q95"]

    def test_parameter_rows_complete(self, tiny_net, blob_data):
        traces = self._traces(tiny_net, blob_data)
        names = [r["parameter"] for r in summarize(traces, burn_in=20)]
        assert names == ["c", "gamma", "b", "sigma2", "lambda_b",
                         "lambda_1", "lambda_2"]

    def test_empty_window_rejected(self, tiny_net, blob_data):
        traces = self._traces(tiny_net, blob_data)
        with pytest.raises(ValueError):
            summarize(traces, burn_in=60)

    def test_single_chain_rhat_nan(self, tiny_net, blob_data):
        traces = self._traces(tiny_net, blob_data, chains=1)
        rows = summarize(traces, burn_in=20)
        assert all(np.isnan(r["rhat"]) for r in rows)

    def test_report_round_trip(self, tmp_path, tiny_net, blob_data):
        traces = self._traces(tiny_net, blob_data)
        rows = summarize(traces, burn_in=20)
        path = tmp_path / "report.csv"
        write_report(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "parameter,mean,std,q5,q95,ess,rhat,n"
        assert len(text) == 1 + len(rows)

    def test_load_trace_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.csv")
