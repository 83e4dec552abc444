"""The benchmark's three workloads.

Each workload makes its inputs from the seed alone (``make_inputs``),
runs one round of the program on them (``run_round``: set-up, a fixed
number of ops, results returned or artifacts written), reduces the
round's outputs to the few numbers its checks need (``digest``, against
the reference computations in ``reference``), and checks the digests of
all rounds (``check``).  Rounds are whole: a run attempts only complete
rounds.
"""

import contextlib
import io
import itertools
import json
import os
import shutil

import numpy as np

import gibbsnn.baseline as baseline
import gibbsnn.cli as cli
import gibbsnn.network as network
import gibbsnn.samplers as samplers
from gibbsnn.activations import ActivationParams
from gibbsnn.data import Dataset
from gibbsnn.model import BayesModel, FixedHypers
from gibbsnn.presets import cnn1, mlp

import reference as ref


def round_seed(seed, r):
    """Program seed of round r: a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def spec_layers(spec):
    """A NetworkSpec as the plain layer dicts the reference pass reads."""
    return [{"kind": l.kind, "dims": list(l.dims)} for l in spec.layers]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name = ""
    kind = "sampler"  # which op the clock times: "sampler" or "baseline"
    ops_per_round = 0
    # (label, NetworkSpec, batch shape) for the one-layer timings
    layer_nets = ()

    def make_inputs(self, seed, workdir):
        raise NotImplementedError

    def run_round(self, inputs, r):
        raise NotImplementedError

    def round_failed(self, out):
        """True when the round ended without finishing its ops; all the
        round's ops then count as failed."""
        return False

    def digest(self, inputs, out):
        """The numbers of one finished round that check and info read."""
        raise NotImplementedError

    def check(self, inputs, digests, last):
        """Failure messages for the rounds' digests (empty when all pass);
        `last` is the output of the last finished round."""
        raise NotImplementedError

    def info(self, inputs, digests, phase_s):
        """Extra reference figures for the run record."""
        return {}


# --- toy-linear --------------------------------------------------------------


class ToyLinear(Workload):
    """Criterion 3's model: y = 0.7 x1 - 0.4 x2 + 0.3 + noise, 20 points,
    one dense(2, 1) layer, delta = mu = 1, every block on."""

    name = "toy-linear"
    n_sweeps, burn_in = 1000, 250
    ops_per_round = n_sweeps

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 2))
        y = 0.7 * X[:, :1] - 0.4 * X[:, 1:] + 0.3 + 0.3 * rng.normal(size=(20, 1))
        return {"seed": seed, "X": X, "y": y}

    def run_round(self, inputs, r):
        net = network.Network(network.NetworkSpec((network.dense(2, 1),), (2,), 1))
        model = BayesModel(net, inputs["X"], inputs["y"],
                           fixed=FixedHypers(delta=1.0, mu=1.0),
                           loss_kind="squared-error")
        cfg = samplers.SamplerConfig(n_sweeps=self.n_sweeps, burn_in=self.burn_in,
                                     n_chains=1, step_size=0.1, leapfrog_steps=6)
        traces = samplers.run_chains(model, cfg, seed=round_seed(inputs["seed"], r))
        return {"draws": traces[0].w_history}

    def digest(self, inputs, out):
        draws = out["draws"]
        return {"shape": draws.shape, "mean": draws.mean(axis=0),
                "mcse": np.array([ref.mcse(draws[:, j]) for j in range(draws.shape[1])]),
                "ess_w1": ref.ess(draws[:, 0])}

    def _pooled(self, digests):
        means = np.array([d["mean"] for d in digests])
        errs = np.array([d["mcse"] for d in digests])
        return means.mean(axis=0), np.sqrt((errs**2).sum(axis=0)) / len(digests)

    def check(self, inputs, digests, last):
        fails = []
        for i, d in enumerate(digests):
            if d["shape"] != (self.n_sweeps - self.burn_in, 3):
                fails.append(f"round {i}: {d['shape']} weight draws")
        if fails:
            return fails
        oracle = ref.toy_posterior_means(inputs["X"], inputs["y"])
        mean, err = self._pooled(digests)
        for name, m, e, t in zip(("w1", "w2", "bias"), mean, err, oracle):
            if not abs(m - t) <= 4.0 * e:
                fails.append(f"posterior mean of {name} {m:.5f} is {abs(m - t) / e:.2f} "
                             f"Monte Carlo errors from the grid's {t:.5f}")
        return fails

    def info(self, inputs, digests, phase_s):
        oracle = ref.toy_posterior_means(inputs["X"], inputs["y"])
        mean, err = self._pooled(digests)
        return {"mcse_distance": [round(float(abs(m - t) / e), 3)
                                  for m, t, e in zip(mean, oracle, err)],
                "ess_w1_per_s": sum(d["ess_w1"] for d in digests) / phase_s}


# --- mlp-blobs ---------------------------------------------------------------


def blobs(rng, centers, n):
    """n rows: class k is N(centers[k], I) on the signal dims, noise
    dims are N(0, 1) for every class; classes alternate."""
    labels = np.arange(n) % len(centers)
    rng.shuffle(labels)
    d_sig = centers.shape[1]
    x = rng.normal(size=(n, 2 * d_sig))
    x[:, :d_sig] += centers[labels]
    return x, labels


class MlpBlobs(Workload):
    """Criterion 7's 10-8-2 mmelu net through the ``train`` command: 2000
    CSV rows (5 signal + 5 noise features, class separation 10), split
    0.75/0.25 by the command, 2 chains, 10 leapfrog steps.

    The initial step is 0.005, not criterion 7's 0.05: from the cold
    start a 0.05 trajectory can lower the Hamiltonian by more than 709,
    and nshmc_step's exp(-dh) then raises OverflowError (about one chain
    in 60).  At 0.005 the lowest dh seen in 120 chains was -16; burn-in
    adapts the step from there."""

    name = "mlp-blobs"
    n_sweeps, burn_in, chains = 60, 30, 2
    ops_per_round = n_sweeps * chains
    layer_nets = (("mlp", mlp(10, 2, (8,))[0], (1500,)),)

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=5)
        centers = np.stack([u, -u]) / np.linalg.norm(u) * 5.0  # distance 10
        x, y = blobs(rng, centers, 2000)
        hx, hy = blobs(rng, centers, 1000)
        path = os.path.join(workdir, "blobs.csv")
        with open(path, "w") as fh:
            fh.write(",".join([f"f{i}" for i in range(10)] + ["label"]) + "\n")
            for row, lab in zip(x, y):
                fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")
        doc = {"dataset": {"kind": "csv", "path": path, "label_column": "label",
                           "split": [0.75, 0.25], "split_seed": seed},
               "network": {"preset": "mlp", "hidden": [8]},
               "activation": "mmelu", "loss": "squared-error",
               "sampler": {"n_sweeps": self.n_sweeps, "burn_in": self.burn_in,
                           "n_chains": self.chains, "step_size": 0.005,
                           "leapfrog_steps": 10}}
        config = os.path.join(workdir, "train.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        return {"seed": seed, "config": config, "workdir": workdir,
                "held_x": hx, "held_y": hy, "dirs": itertools.count()}

    def run_round(self, inputs, r):
        out = os.path.join(inputs["workdir"], f"round{next(inputs['dirs'])}")
        argv = ["train", "--config", inputs["config"], "--out", out,
                "--seed", str(round_seed(inputs["seed"], r))]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return {"out": out, "code": code}

    def round_failed(self, out):
        return out["code"] != 0

    def _accuracy(self, inputs, doc, state):
        pred = ref.predict(doc["network"]["layers"], state["weights"],
                           state["activation"], inputs["held_x"])
        return float(np.mean(pred == inputs["held_y"]))

    def digest(self, inputs, out):
        """Trace rows per chain, each chain's final state's held-out
        accuracy under the reference pass, the largest relative gap
        between the checkpoint's posterior-mean (c, gamma, b) and the mean
        of both chains' post-burn-in trace rows, and the posterior-mean
        model's accuracy.  The round's directory is removed."""
        rows = []
        for k in range(self.chains):
            with open(os.path.join(out["out"], f"trace_chain{k}.csv")) as fh:
                lines = fh.read().splitlines()[1:]
            rows.append(np.array([[float(v) for v in line.split(",")[:4]] for line in lines]))
        with open(os.path.join(out["out"], "checkpoint.json")) as fh:
            doc = json.load(fh)
        shutil.rmtree(out["out"])
        kept = np.concatenate([r[r[:, 0] >= self.burn_in] for r in rows])
        return {
            "one_row_per_sweep": [list(r[:, 0]) == list(range(self.n_sweeps)) for r in rows],
            "chain_accuracy": [self._accuracy(inputs, doc, ch["state"]) for ch in doc["chains"]],
            "activation_gap": max(_rel(doc["state"]["activation"][name], float(np.mean(kept[:, j])))
                                  for j, name in enumerate(("c", "gamma", "b"), start=1)),
            "mean_accuracy": self._accuracy(inputs, doc, doc["state"]),
        }

    def check(self, inputs, digests, last):
        """Per round: one trace row per sweep; every chain's final state
        classifies the held-out rows with accuracy >= 0.95 under the
        reference pass; the checkpoint's posterior-mean (c, gamma, b) is
        the mean of the post-burn-in trace rows of both chains."""
        fails = []
        for i, d in enumerate(digests):
            for k, ok in enumerate(d["one_row_per_sweep"]):
                if not ok:
                    fails.append(f"round {i}: trace_chain{k}.csv does not hold one row "
                                 f"per sweep")
            for k, acc in enumerate(d["chain_accuracy"]):
                if acc < 0.95:
                    fails.append(f"round {i}: chain {k} held-out accuracy {acc:.3f} < 0.95")
            if not d["activation_gap"] <= 1e-9:
                fails.append(f"round {i}: checkpoint (c, gamma, b) is {d['activation_gap']!r} "
                             f"relative from the trace means")
        return fails

    def info(self, inputs, digests, phase_s):
        # not gated: averaging both chains' weights and activation triples
        # can give a poor model although each chain classifies well
        accs = [d["mean_accuracy"] for d in digests]
        return {"posterior_mean_accuracy_min": min(accs),
                "posterior_mean_accuracy_below_0.95": sum(a < 0.95 for a in accs)}


# --- cnn1 workloads ----------------------------------------------------------


def image_source(rng, classes=10):
    """A function drawing n labelled 28x28x1 images in [0, 1]: a smooth
    per-class template (a random 7x7 pattern upsampled 4x) plus pixel
    noise."""
    templates = np.kron(rng.random((classes, 7, 7)), np.ones((4, 4)))
    return lambda n: _draw_images(rng, templates, n)


def _draw_images(rng, templates, n):
    labels = np.arange(n) % len(templates)
    rng.shuffle(labels)
    x = templates[labels] + 0.15 * rng.normal(size=(n, 28, 28))
    return np.clip(x, 0.0, 1.0)[..., None], labels


class BaselineCnn1(Workload):
    """The gradient baseline on cnn1: Adam, batch 32, trainable mmelu, the
    preset's dropout table, 64 training and 32 seeded class-structured
    test images, 2 epochs a round with both splits evaluated at each
    epoch end."""

    name = "baseline-cnn1"
    kind = "baseline"
    n_train, n_test, batch, epochs = 64, 32, 32, 2
    ops_per_round = epochs * (n_train // batch)
    layer_nets = (("cnn1", cnn1()[0], (batch,)),)

    def make_inputs(self, seed, workdir):
        draw = image_source(np.random.default_rng(seed))
        xtr, ytr = draw(self.n_train)
        xte, yte = draw(self.n_test)
        return {"seed": seed, "train": (xtr, ytr), "test": (xte, yte)}

    def run_round(self, inputs, r):
        train = Dataset(*inputs["train"], class_count=10)
        test = Dataset(*inputs["test"], class_count=10)
        spec, dropout = cnn1()
        net = network.Network(spec)
        cfg = baseline.BaselineConfig(
            activation="mmelu", optimizer="adam", learning_rate=1e-3,
            epochs=self.epochs, batch_size=self.batch, dropout=dict(dropout),
            loss_kind="cross-entropy", train_activation=True)
        w, act, history = baseline.train_baseline(
            net, cfg, train, test, seed=round_seed(inputs["seed"], r))
        return {"w": w, "act": act, "history": history, "net": net}

    def round_failed(self, out):
        return any(row.get("diverged") for row in out["history"])

    def digest(self, inputs, out):
        """Whether the history holds a row per split and epoch, and the
        relative gap between its last training-split loss and the
        reference loss at the returned weights and activation."""
        hist = out["history"]
        if len(hist) != 2 * self.epochs:
            return {"history_ok": False, "loss_gap": None}
        xtr, ytr = inputs["train"]
        last = [row for row in hist if row["split"] == "train"][-1]["loss"]
        want = ref.loss(spec_layers(out["net"].spec), out["w"], out["act"].as_dict(),
                        xtr, ytr, average=True)
        return {"history_ok": True, "loss_gap": _rel(last, want)}

    def check(self, inputs, digests, last):
        fails = []
        for i, d in enumerate(digests):
            if not d["history_ok"]:
                fails.append(f"round {i}: history lacks rows")
            elif not d["loss_gap"] <= 1e-9:
                fails.append(f"round {i}: returned state's loss is {d['loss_gap']!r} "
                             f"relative from the reference")
        if not fails:
            xtr, ytr = inputs["train"]
            fails += self._gradient_check(last, xtr[:8], ytr[:8])
        return fails

    def _gradient_check(self, out, x, y, eps=1e-7, tries=4):
        """Network.backward against central differences of the reference
        loss, at the returned weights and a fixed activation triple.

        Every weighted layer is checked on its own: one random unit
        direction over its kernel and bias, and one over its bias alone;
        the triple (c, gamma, b) gets three random unit directions.  The
        directions come from a fixed seed, never from the gradient under
        test.  A direction whose forward and backward one-sided
        differences disagree by more than 1e-4 of the central one is
        redrawn: the step then crossed a kink (a ReLU or max-pool switch)
        or the derivative along it is so small that roundoff dominates.
        Half that disagreement bounds the central difference's own error.

        Training leaves c within 0.01 of its start 0.5, where the blend's
        slope 1 - 2c on (gamma, gamma + b) nearly vanishes: max-pool
        windows then hold near-ties, and at c = 0.5 the loss is not
        differentiable in c.  The fixed triple keeps the check away from
        that point."""
        net, w = out["net"], out["w"]
        act = ActivationParams(c=0.3, gamma=0.1, b=0.8)
        names = ("c", "gamma", "b")
        layers = spec_layers(net.spec)
        gw, gact, _ = net.backward(w, act, x, y, "cross-entropy", average=True)
        g = np.concatenate([gi.ravel() for gi in gw] + [[gact[n] for n in names]])
        v0 = np.concatenate([wi.ravel() for wi in w] + [[act.c, act.gamma, act.b]])
        ends = np.cumsum([wi.size for wi in w])
        n_w = int(ends[-1])

        def f(v):
            ws = np.split(v[:n_w], ends[:-1])
            return ref.loss(layers, ws, dict(zip(names, v[n_w:])), x, y, average=True)

        directions, start = [], 0
        weighted = [l for l in net.spec.layers if l.kind in ("dense", "conv2d")]
        for i, (layer, end) in enumerate(zip(weighted, ends)):
            n_bias = layer.dims[0] if layer.kind == "conv2d" else layer.dims[1]
            directions += [(f"layer {i} ({layer.kind}) weights", slice(start, end)),
                           (f"layer {i} ({layer.kind}) bias", slice(end - n_bias, end))]
            start = end
        directions += [(f"activation direction {k}", slice(n_w, None)) for k in range(3)]

        rng = np.random.default_rng(12345)
        f0 = f(v0)
        fails = []
        for label, sl in directions:
            for _ in range(tries):
                d = np.zeros_like(v0)
                u = rng.normal(size=v0[sl].size)
                d[sl] = u / np.linalg.norm(u)
                up, down = f(v0 + eps * d), f(v0 - eps * d)
                fd = (up - down) / (2 * eps)
                if abs((up - f0) - (f0 - down)) / eps <= 1e-4 * abs(fd):
                    break
            else:
                fails.append(f"{label}: no direction of {tries} gave a usable central "
                             f"difference")
                continue
            an = float(g @ d)
            if not _rel(an, fd) <= 1e-4:
                fails.append(f"{label}: backward {an!r} vs central difference {fd!r}")
        return fails


WORKLOADS = {w.name: w for w in (ToyLinear(), MlpBlobs(), BaselineCnn1())}


def one_layer_nets(spec, batch):
    """(label, Network, input batch shape, flops of one forward) for every
    layer of spec, each as a one-layer Network at that layer's input."""
    out = []
    shape = tuple(spec.input_shape)
    for i, layer in enumerate(spec.layers):
        classes = shape[0] if layer.kind == "softmax" else spec.class_count
        net = network.Network(network.NetworkSpec((layer,), shape, classes))
        n = batch[0]
        if layer.kind == "dense":
            flops = 2.0 * n * layer.dims[0] * layer.dims[1]
        elif layer.kind == "conv2d":
            out_c, in_c = layer.dims[:2]
            flops = 2.0 * n * shape[0] * shape[1] * out_c * in_c * 9
        else:
            flops = None
        out.append((f"{i}-{layer.kind}", net, (n,) + shape, flops))
        shape = net.layer_shapes[-1]
    return out

