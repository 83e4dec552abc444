"""Tests for the gradient-descent comparison arm: training loop,
regularization, divergence handling, and the metrics reductions."""

import csv

import numpy as np
import pytest

from gibbsnn.activations import default_params
from gibbsnn.baseline import (
    BaselineConfig,
    Metrics,
    evaluate,
    train_baseline,
    write_history,
)
from gibbsnn.data import Dataset, split, synth_blobs
from gibbsnn.errors import ConfigError
from gibbsnn.network import Network, NetworkSpec, act, dense, softmax_layer
from gibbsnn.presets import mlp


def _linear_net(n_in, n_out):
    """Dense + softmax classifier with hand-set weights."""
    spec = NetworkSpec((dense(n_in, n_out), softmax_layer()), (n_in,), n_out)
    return Network(spec)


def _weights(kernel, bias):
    return [np.concatenate([np.asarray(kernel, dtype=np.float64).ravel(),
                            np.asarray(bias, dtype=np.float64)])]


def _blobs(n=160, d=2, seed=5, frac=0.0, sep=8.0):
    ds = synth_blobs(n, d, classes=2, seed=seed,
                     irrelevant_fraction=frac, separation=sep)
    return split(ds, (0.75, 0.25), seed=1)


class TestMetricsExamples:
    def test_perfect_predictor(self):
        """All-correct predictions give accuracy, sensitivity, specificity 1."""
        net = _linear_net(2, 2)
        w = _weights(8.0 * np.eye(2), [0.0, 0.0])
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        ds = Dataset(x, np.array([0, 1, 0, 1]), class_count=2)
        m = evaluate(net, w, {}, ds)
        assert m.accuracy == 1.0
        assert m.sensitivity == 1.0
        assert m.specificity == 1.0

    def test_constant_class_one_predictor(self):
        """Always predicting the positive class on balanced binary data
        gives accuracy 0.5, sensitivity 1, specificity 0."""
        net = _linear_net(2, 2)
        w = _weights(np.zeros((2, 2)), [0.0, 8.0])
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8]])
        ds = Dataset(x, np.array([0, 1, 0, 1]), class_count=2)
        m = evaluate(net, w, {}, ds)
        assert m.accuracy == 0.5
        assert m.sensitivity == 1.0
        assert m.specificity == 0.0

    def test_hand_confusion_matrix(self):
        """TP=FP=TN=FN=1 gives sensitivity 0.5 and specificity 0.5."""
        net = _linear_net(2, 2)
        w = _weights(8.0 * np.eye(2), [0.0, 0.0])
        # one-hot inputs force predictions [1, 0, 1, 0]
        x = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ds = Dataset(x, np.array([1, 1, 0, 0]), class_count=2)
        m = evaluate(net, w, {}, ds)
        assert m.accuracy == 0.5
        assert m.sensitivity == 0.5
        assert m.specificity == 0.5

    def test_macro_one_vs_rest_three_classes(self):
        """With more than two classes both rates are macro one-vs-rest
        averages over the per-class binary reductions."""
        net = _linear_net(3, 3)
        kernel = 8.0 * np.array([[1.0, 0.0, 0.0],
                                 [0.0, 1.0, 0.0],
                                 [0.0, 1.0, 0.0]])
        w = _weights(kernel, [0.0, 0.0, 0.0])
        x = np.eye(3)  # predictions [0, 1, 1] against labels [0, 1, 2]
        ds = Dataset(x, np.array([0, 1, 2]), class_count=3)
        m = evaluate(net, w, {}, ds)
        np.testing.assert_allclose(m.accuracy, 2.0 / 3.0)
        np.testing.assert_allclose(m.sensitivity, 2.0 / 3.0)
        np.testing.assert_allclose(m.specificity, 5.0 / 6.0)

    def test_permutation_invariance(self):
        """Shuffling the dataset rows leaves every metric unchanged."""
        rng = np.random.default_rng(3)
        net = _linear_net(4, 3)
        w = [rng.normal(size=net.weight_lengths[0])]
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        perm = rng.permutation(40)
        a = evaluate(net, w, {}, Dataset(x, y, class_count=3))
        b = evaluate(net, w, {}, Dataset(x[perm], y[perm], class_count=3))
        np.testing.assert_allclose(
            [a.accuracy, a.loss, a.sensitivity, a.specificity],
            [b.accuracy, b.loss, b.sensitivity, b.specificity], rtol=1e-12)

    def test_loss_matches_network_loss(self):
        """Reported loss is the dataset-averaged network loss."""
        rng = np.random.default_rng(4)
        net = _linear_net(3, 2)
        w = [rng.normal(size=net.weight_lengths[0])]
        x = rng.normal(size=(15, 3))
        y = rng.integers(0, 2, size=15)
        ds = Dataset(x, y, class_count=2)
        m = evaluate(net, w, {}, ds, loss_kind="squared-error")
        want = net.loss(w, {}, x, y, "squared-error", average=True)
        np.testing.assert_allclose(m.loss, want, rtol=1e-12)

    def test_empty_dataset_rejected(self):
        net = _linear_net(2, 2)
        w = _weights(np.eye(2), [0.0, 0.0])
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), class_count=2)
        with pytest.raises(ValueError):
            evaluate(net, w, {}, ds)

    def test_as_dict_keys(self):
        m = Metrics(1.0, 0.5, 0.9, 0.8)
        assert m.as_dict() == {"accuracy": 1.0, "loss": 0.5,
                               "sensitivity": 0.9, "specificity": 0.8}


class TestTrainBaseline:
    def test_separable_blobs_high_accuracy(self):
        """Well-separated blobs with a small dense net reach train
        accuracy at least 0.99 within 200 epochs."""
        tr, te = _blobs()
        spec, _ = mlp(2, 2, hidden=(4,), activation="relu")
        net = Network(spec)
        cfg = BaselineConfig(activation="relu", epochs=200,
                             learning_rate=1e-3, batch_size=32)
        w, act, history = train_baseline(net, cfg, tr, te, seed=0)
        final = [r for r in history if r["split"] == "train"][-1]
        assert final["accuracy"] >= 0.99

    def test_zero_learning_rate_freezes(self):
        """Learning rate 0 leaves weights bit-identical across epochs."""
        tr, te = _blobs(n=80)
        spec, _ = mlp(2, 2, hidden=(3,), activation="relu")
        net = Network(spec)
        runs = []
        for epochs in (1, 4):
            cfg = BaselineConfig(activation="relu", epochs=epochs,
                                 learning_rate=0.0, batch_size=16)
            runs.append(train_baseline(net, cfg, tr, te, seed=2))
        w1, _, h1 = runs[0]
        w4, _, h4 = runs[1]
        for a, b in zip(w1, w4):
            assert np.array_equal(a, b)
        # every epoch evaluates the same frozen network
        accs = {r["accuracy"] for r in h4 if r["split"] == "train"}
        assert len(accs) == 1

    def test_prelu_alpha_receives_gradient(self):
        """The slope parameter moves when negative pre-activations exist
        and activation training is enabled."""
        tr, te = _blobs(n=120, seed=9)
        spec, _ = mlp(2, 2, hidden=(4,), activation="prelu")
        net = Network(spec)
        cfg = BaselineConfig(activation="prelu", epochs=5,
                             learning_rate=1e-2, batch_size=16)
        _, act, _ = train_baseline(net, cfg, tr, te, seed=1)
        assert act["alpha"] != default_params("prelu")["alpha"]

    def test_activation_frozen_when_disabled(self):
        """train_activation=False keeps the initial parameter values."""
        tr, te = _blobs(n=80, seed=9)
        spec, _ = mlp(2, 2, hidden=(4,), activation="prelu")
        net = Network(spec)
        cfg = BaselineConfig(activation="prelu", act_params={"alpha": 0.1},
                             epochs=3, learning_rate=1e-2, batch_size=16,
                             train_activation=False)
        _, act, _ = train_baseline(net, cfg, tr, te, seed=1)
        assert act["alpha"] == 0.1

    def test_l1_penalty_shrinks_weight_norm(self):
        """A positive l1 coefficient yields a smaller summed absolute
        weight than no penalty after equal epochs, averaged over seeds."""
        tr, te = _blobs(n=160, d=4, seed=7, frac=0.5)
        spec, _ = mlp(4, 2, hidden=(6,), activation="relu")
        net = Network(spec)
        norms = {0.0: [], 1e-2: []}
        for coeff in norms:
            for seed in range(5):
                cfg = BaselineConfig(activation="relu", epochs=30,
                                     learning_rate=1e-3, batch_size=32,
                                     l1=coeff)
                w, _, _ = train_baseline(net, cfg, tr, te, seed=seed)
                norms[coeff].append(sum(float(np.sum(np.abs(wi))) for wi in w))
        assert np.mean(norms[1e-2]) < np.mean(norms[0.0])

    def test_divergence_aborts_with_record(self):
        """A non-finite loss stops training, records the event, and
        returns the last finite end-of-epoch state."""
        tr, te = _blobs(n=64)
        # raw squared-error output, so big steps compound multiplicatively
        spec = NetworkSpec((dense(2, 4), act("relu"), dense(4, 2)), (2,), 2)
        net = Network(spec)
        cfg = BaselineConfig(activation="relu", optimizer="sgd",
                             learning_rate=1e8, epochs=4, batch_size=16,
                             loss_kind="squared-error")
        with np.errstate(all="ignore"):
            w, act_p, history = train_baseline(net, cfg, tr, te, seed=0)
        last = history[-1]
        assert last.get("diverged") is True
        assert np.isnan(last["accuracy"])
        assert len(history) < 2 * cfg.epochs  # later epochs never ran
        for wi in w:
            assert np.all(np.isfinite(wi))

    def test_divergence_restores_activation_parameters(self):
        """A divergence returns the activation parameters of the last
        finite end-of-epoch state, not the diverged ones.  Here the first
        epoch diverges, so that state is the initial one, which a
        zero-rate epoch with the same seed leaves unchanged."""
        tr, te = _blobs(n=200)
        spec = NetworkSpec((dense(2, 4), act("prelu"), dense(4, 2)), (2,), 2)
        net = Network(spec)
        kw = dict(activation="prelu", optimizer="sgd", batch_size=8,
                  loss_kind="squared-error")
        cfg = BaselineConfig(learning_rate=1.0, epochs=4, **kw)
        with np.errstate(all="ignore"):
            w, act_p, history = train_baseline(net, cfg, tr, te, seed=0)
        assert history[-1].get("diverged") is True
        w0, act0, _ = train_baseline(
            net, BaselineConfig(learning_rate=0.0, epochs=1, **kw), tr, te, seed=0)
        for a, b in zip(w, w0):
            assert np.array_equal(a, b)
        assert act_p == act0 == default_params("prelu")

    def test_divergence_in_evaluation_recorded(self):
        """A non-finite epoch-end evaluation counts as divergence: it is
        recorded, not raised, the epoch adds no metrics rows, and the
        last finite state is returned."""
        tr, te = _blobs(n=64)
        spec = NetworkSpec((dense(2, 4), act("prelu"), dense(4, 2)), (2,), 2)
        net = Network(spec)
        kw = dict(activation="prelu", optimizer="sgd", batch_size=16,
                  loss_kind="squared-error")
        # every batch step stays finite; only the epoch-end forward overflows
        cfg = BaselineConfig(learning_rate=300.0, epochs=6, **kw)
        with np.errstate(all="ignore"):
            w, act_p, history = train_baseline(net, cfg, tr, te, seed=0)
        assert len(history) == 1
        assert history[0]["epoch"] == 0 and history[0].get("diverged") is True
        assert np.isnan(history[0]["accuracy"]) and np.isnan(history[0]["loss"])
        w0, act0, _ = train_baseline(
            net, BaselineConfig(learning_rate=0.0, epochs=1, **kw), tr, te, seed=0)
        for a, b in zip(w, w0):
            assert np.array_equal(a, b)
        assert act_p == act0

    def test_mmelu_parameters_stay_in_box(self):
        """Chain-rule updates keep the mixing weight in [0,1] and the
        width non-negative, and the parameters actually move."""
        tr, te = _blobs(n=120, seed=13)
        spec, _ = mlp(2, 2, hidden=(4,), activation="mmelu")
        net = Network(spec)
        cfg = BaselineConfig(activation="mmelu", epochs=8,
                             learning_rate=5e-3, batch_size=16)
        _, act, _ = train_baseline(net, cfg, tr, te, seed=3)
        assert 0.0 <= act.c <= 1.0
        assert act.b >= 0.0
        base = default_params("mmelu")
        moved = (act.c != base["c"] or act.gamma != base["gamma"]
                 or act.b != base["b"])
        assert moved

    def test_activation_mismatch_rejected(self, tiny_net, blob_data):
        """The config activation must match the network's."""
        tr, te = blob_data
        cfg = BaselineConfig(activation="relu", epochs=1)
        with pytest.raises(ConfigError):
            train_baseline(tiny_net, cfg, tr, te, seed=0)

    def test_bad_l1_vector_rejected(self):
        tr, te = _blobs(n=40)
        spec, _ = mlp(2, 2, hidden=(3,), activation="relu")
        net = Network(spec)
        for l1 in ([0.1, 0.1, 0.1], -1e-3):  # wrong length, negative
            cfg = BaselineConfig(activation="relu", epochs=1, l1=l1)
            with pytest.raises(ConfigError):
                train_baseline(net, cfg, tr, te, seed=0)

    def test_same_seed_reproducible(self):
        """Identical seeds give bit-identical weights and history."""
        tr, te = _blobs(n=80)
        spec, _ = mlp(2, 2, hidden=(3,), activation="relu")
        net = Network(spec)
        cfg = BaselineConfig(activation="relu", epochs=3, batch_size=16)
        w_a, _, h_a = train_baseline(net, cfg, tr, te, seed=6)
        w_b, _, h_b = train_baseline(net, cfg, tr, te, seed=6)
        for a, b in zip(w_a, w_b):
            assert np.array_equal(a, b)
        assert h_a == h_b
        w_c, _, _ = train_baseline(net, cfg, tr, te, seed=7)
        assert any(not np.array_equal(a, c) for a, c in zip(w_a, w_c))

    def test_history_schema(self):
        """Each epoch records one train row then one test row."""
        tr, te = _blobs(n=40)
        spec, _ = mlp(2, 2, hidden=(3,), activation="relu")
        net = Network(spec)
        cfg = BaselineConfig(activation="relu", epochs=2, batch_size=16)
        _, _, history = train_baseline(net, cfg, tr, te, seed=0)
        assert [r["epoch"] for r in history] == [0, 0, 1, 1]
        assert [r["split"] for r in history] == ["train", "test"] * 2
        for r in history:
            assert np.isfinite(r["accuracy"]) and np.isfinite(r["loss"])

    def test_dropout_smoke(self):
        """Per-layer dropout trains without error and stays deterministic
        for a fixed seed."""
        tr, te = _blobs(n=80)
        spec, _ = mlp(2, 2, hidden=(4,), activation="relu")
        net = Network(spec)
        cfg = BaselineConfig(activation="relu", epochs=3, batch_size=16,
                             dropout={1: 0.4})
        w_a, _, h_a = train_baseline(net, cfg, tr, te, seed=4)
        w_b, _, h_b = train_baseline(net, cfg, tr, te, seed=4)
        assert len(h_a) == 6
        for a, b in zip(w_a, w_b):
            assert np.array_equal(a, b)
        assert h_a == h_b

    def test_sgd_optimizer_trains(self):
        tr, te = _blobs()
        spec, _ = mlp(2, 2, hidden=(4,), activation="relu")
        net = Network(spec)
        cfg = BaselineConfig(activation="relu", optimizer="sgd",
                             learning_rate=0.05, epochs=60, batch_size=32)
        _, _, history = train_baseline(net, cfg, tr, te, seed=0)
        final = [r for r in history if r["split"] == "train"][-1]
        assert final["accuracy"] >= 0.9


class TestConfigValidation:
    def test_bad_fields_rejected(self):
        bad = [
            dict(activation="nope"),
            dict(optimizer="lbfgs"),
            dict(learning_rate=-1e-3),
            dict(epochs=0),
            dict(batch_size=0),
            dict(dropout={0: 1.0}),
            dict(dropout={0: -0.1}),
        ]
        for kw in bad:
            with pytest.raises(ConfigError):
                BaselineConfig(**kw).validate()

    def test_zero_learning_rate_allowed(self):
        BaselineConfig(learning_rate=0.0).validate()

    def test_act_params_checked_against_the_registry(self):
        """Overrides must name the activation's own parameters."""
        for kw in (dict(activation="prelu", act_params={"beta": 1.0}),
                   dict(activation="mmelu", act_params={"alpha": 0.1}),
                   dict(activation="prelu", act_params={"alpha": "x"})):
            with pytest.raises(ConfigError):
                BaselineConfig(**kw).validate()
        BaselineConfig(activation="melu", act_params={"c": [0, 1, 0, 0]}).validate()


class TestWriteHistory:
    def test_csv_round_trip(self, tmp_path):
        """Rows survive the CSV emitter with full float precision."""
        history = [
            {"epoch": 0, "split": "train", "accuracy": 0.75, "loss": 1.25},
            {"epoch": 0, "split": "test", "accuracy": 1 / 3, "loss": 0.1},
            {"epoch": 1, "split": "train", "accuracy": float("nan"),
             "loss": float("nan"), "diverged": True},
        ]
        path = tmp_path / "history.csv"
        write_history(history, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "split", "accuracy", "loss"]
        assert len(rows) == 4
        assert rows[1][:2] == ["0", "train"]
        assert float(rows[2][2]) == 1 / 3  # repr keeps every bit
        assert np.isnan(float(rows[3][2]))
