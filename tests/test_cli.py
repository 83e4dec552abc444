"""End-to-end tests of the command-line interface: subcommands, exit
codes, run-directory contents, and checkpoint round-trips."""

import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gibbsnn import __version__
from gibbsnn import checkpoint as ckpt
from gibbsnn import config as cfgmod
from gibbsnn.baseline import BaselineConfig
from gibbsnn.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from gibbsnn.data import Dataset, load_csv, write_csv, write_idx
from gibbsnn.model import ModelState
from gibbsnn.network import NetworkSpec, act, dense, softmax_layer
from gibbsnn.presets import cnn1
from gibbsnn.samplers import SamplerConfig


def _train_doc(**sampler):
    samp = {"n_sweeps": 30, "burn_in": 10, "n_chains": 2,
            "step_size": 0.05, "leapfrog_steps": 4}
    samp.update(sampler)
    return {
        "dataset": {"kind": "synth-blobs", "n": 60, "d": 4, "classes": 2,
                    "irrelevant_fraction": 0.5, "separation": 6.0, "seed": 3,
                    "split": [0.75, 0.25], "split_seed": 1},
        "network": {"preset": "mlp", "hidden": [4]},
        "activation": "mmelu",
        "loss": "squared-error",
        "sampler": samp,
        "seed": 5,
    }


def _run(argv):
    """Invoke the CLI in-process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    """One full train run at a thousand sweeps, shared by several tests."""
    root = tmp_path_factory.mktemp("train-run")
    doc = _train_doc(n_sweeps=1000, burn_in=100)
    doc["eval_interval"] = 200
    cfg = _write(root / "train.json", doc)
    out = root / "out"
    code, text = _run(["train", "--config", cfg, "--out", str(out)])
    return code, out, text


class TestTrainCommand:
    def test_exit_ok_and_summary_printed(self, train_run):
        code, out, text = train_run
        assert code == EXIT_OK
        assert "posterior mean on test: accuracy=" in text
        for name in ("c", "gamma", "b", "sigma2", "lambda_b"):
            assert f"{name}: mean=" in text

    def test_trace_rows_match_sweep_count(self, train_run):
        """A thousand sweeps leave a thousand rows per chain."""
        _, out, _ = train_run
        for k in (0, 1):
            lines = (out / f"trace_chain{k}.csv").read_text().splitlines()
            assert len(lines) == 1001
            assert lines[0].startswith("iteration,c,gamma,b,sigma2,lambda_b")

    def test_run_directory_contents(self, train_run):
        """Config echo, seed, version, report, and plots are all present."""
        _, out, _ = train_run
        for name in ("checkpoint.json", "report.csv", "run.json",
                     "config.json", "metrics.csv"):
            assert (out / name).exists()
        meta = json.loads((out / "run.json").read_text())
        assert meta["seed"] == 5
        assert len(meta["config_sha256"]) == 64
        assert meta["command"] == "train"
        plots = {p.name for p in (out / "plots").iterdir()}
        want = {"c.svg", "gamma.svg", "b.svg", "sigma2.svg", "lambda_b.svg",
                "lambda_1.svg", "lambda_2.svg", "accuracy.svg", "loss.svg"}
        assert want <= plots

    def test_metrics_written_at_interval(self, train_run):
        _, out, _ = train_run
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # five intervals, two splits, two chains
        assert len(rows) == 20
        assert {int(r["iteration"]) for r in rows} == {0, 200, 400, 600, 800}
        assert {r["split"] for r in rows} == {"train", "test"}

    def test_checkpoint_round_trip_is_byte_identical(self, train_run, tmp_path):
        """save -> load -> save reproduces the file exactly, through the
        parsed point estimate and chain states."""
        _, out, _ = train_run
        original = (out / "checkpoint.json").read_bytes()
        loaded = ckpt.load_checkpoint(out / "checkpoint.json")
        assert len(loaded["chains"]) == 2
        again = tmp_path / "again.json"
        ckpt.save_checkpoint(again, loaded["network"], loaded["state"],
                             iteration=loaded["iteration"], provenance=loaded["provenance"],
                             chains=loaded["chains"],
                             activation_name=loaded["activation_name"])
        assert again.read_bytes() == original

    def test_chains_override(self, tmp_path):
        cfg = _write(tmp_path / "t.json", _train_doc(n_sweeps=10, burn_in=2))
        out = tmp_path / "out"
        code, _ = _run(["train", "--config", cfg, "--out", str(out),
                        "--chains", "1"])
        assert code == EXIT_OK
        assert (out / "trace_chain0.csv").exists()
        assert not (out / "trace_chain1.csv").exists()

    def test_chains_zero_is_config_error(self, tmp_path, capsys):
        """A given --chains overrides the config and is range-checked."""
        cfg = _write(tmp_path / "t.json", _train_doc(n_sweeps=10, burn_in=2))
        out = tmp_path / "out"
        code, _ = _run(["train", "--config", cfg, "--out", str(out), "--chains", "0"])
        assert code == EXIT_CONFIG
        assert "config.sampler.n_chains: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_mmelu_activation_rejected(self, tmp_path, capsys):
        doc = _train_doc(n_sweeps=5)
        doc["activation"] = "relu"
        cfg = _write(tmp_path / "t.json", doc)
        code, _ = _run(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "activation" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code, _ = _run(["train", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_IO

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = _run(["train", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_key_names_field(self, tmp_path, capsys):
        doc = _train_doc()
        doc["sampler"]["swooshes"] = 3
        cfg = _write(tmp_path / "t.json", doc)
        code, _ = _run(["train", "--config", cfg])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config.sampler" in err and "swooshes" in err

    def test_unknown_preset_lists_presets_and_layers(self, tmp_path, capsys):
        doc = _train_doc()
        doc["network"] = {"preset": "custom"}
        cfg = _write(tmp_path / "t.json", doc)
        code, _ = _run(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "['cnn1', 'cnn2', 'deep', 'mlp']" in err and "'layers'" in err

    def test_window_too_short_for_split_rhat_is_config_error(self, tmp_path, capsys):
        """3 chains keeping 2 post-burn-in rows each are rejected before
        any sampling, not after it by the report's split R-hat."""
        cfg = _write(tmp_path / "t.json", _train_doc(n_sweeps=10, burn_in=8, n_chains=3))
        out = tmp_path / "o"
        code, _ = _run(["train", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "n_sweeps 10" in err and "burn_in 8" in err
        assert not list(out.glob("trace_chain*.csv"))

    def test_window_of_four_rows_runs(self, tmp_path):
        cfg = _write(tmp_path / "t.json",
                     _train_doc(n_sweeps=12, burn_in=4, n_chains=2, thin=2))
        out = tmp_path / "o"
        code, _ = _run(["train", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "report.csv").exists() and (out / "checkpoint.json").exists()

    def test_image_preset_on_flat_inputs_is_config_error(self, tmp_path, capsys):
        doc = _train_doc()
        doc["network"] = {"preset": "cnn1"}
        cfg = _write(tmp_path / "t.json", doc)
        code, _ = _run(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'cnn1'" in err and "(4,)" in err


def _baseline_doc(**section):
    base = {"activation": "relu", "epochs": 5, "batch_size": 16,
            "learning_rate": 1e-2, "dropout": False}
    base.update(section)
    return {
        "dataset": {"kind": "synth-blobs", "n": 80, "d": 2, "classes": 2,
                    "irrelevant_fraction": 0.0, "separation": 8.0,
                    "seed": 5, "split": [0.75, 0.25], "split_seed": 1},
        "network": {"preset": "mlp", "hidden": [4]},
        "baseline": base,
        "seed": 2,
    }


class TestConfigSections:
    """The sampler and baseline sections are the fields of SamplerConfig
    and BaselineConfig: each value error names its key and stops the run
    before anything is written."""

    @pytest.mark.parametrize("command, section, key, value", [
        ("train", "sampler", "burn_in", 2000),
        ("baseline", "baseline", "optimizer", "rmsprop"),
        ("baseline", "baseline", "dropout", {"0": 1.5}),
        ("baseline", "baseline", "act_params", {"beta": 1.0}),
        ("train", "sampler", "step_size", 0.0),
        ("baseline", "baseline", "learning_rate", -1e-3),
        ("baseline", "baseline", "l1", [0.1, 0.1, 0.1]),
        ("baseline", "baseline", "dropout", {"9": 0.5}),
    ], ids=["burn_in", "optimizer", "dropout-rate", "act_params", "step_size",
            "learning_rate", "l1-length", "dropout-layer"])
    def test_value_error_names_key_and_writes_nothing(self, tmp_path, capsys,
                                                      command, section, key, value):
        doc = _train_doc() if command == "train" else _baseline_doc()
        doc[section][key] = value
        cfg = _write(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        code, _ = _run([command, "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config.{section}.{key}: "), err
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("command", ["train", "baseline"])
    @pytest.mark.parametrize("key, value", [("input_shape", [5]), ("class_count", 2)])
    def test_network_not_matching_dataset_writes_nothing(self, tmp_path, capsys,
                                                         command, key, value):
        """The input shape and class count come from the dataset alone: a
        network section that sets either is refused before run.json exists."""
        doc = _train_doc() if command == "train" else _baseline_doc()
        doc["dataset"].update(classes=3, d=4)
        doc["network"][key] = value
        cfg = _write(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        code, _ = _run([command, "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config.network: unknown keys ['{key}']"), err
        assert not (out / "run.json").exists()

    def test_test_only_switches_are_not_keys(self, tmp_path, capsys):
        cfg = _write(tmp_path / "t.json", _train_doc(update_weights=False))
        code, _ = _run(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown keys ['update_weights']" in err and "'scalar_subsweeps'" in err

    def test_omitted_sections_are_the_dataclass_defaults(self):
        assert cfgmod.sampler_config(None) == SamplerConfig()
        images = Dataset(np.zeros((1, 28, 28, 1)), np.array([0]), class_count=10)
        _, cfg = cfgmod.baseline_config(None, {"preset": "cnn1"}, images)
        assert cfg == BaselineConfig(dropout=cnn1(activation="relu")[1])

    def test_keys_map_to_fields(self):
        section = {"activation": "prelu", "loss": "squared-error", "learning_rate": 1,
                   "l1": [0, 0.5], "dropout": {"1": 0.25}, "train_activation": False}
        rows = Dataset(np.zeros((1, 3)), np.array([0]), class_count=2)
        _, cfg = cfgmod.baseline_config(section, {"preset": "mlp"}, rows)
        assert cfg == BaselineConfig(activation="prelu", loss_kind="squared-error",
                                     learning_rate=1.0, l1=[0, 0.5], dropout={1: 0.25},
                                     train_activation=False)
        assert isinstance(cfg.learning_rate, float)
        assert cfgmod.sampler_config({"step_size": 1, "n_chains": 3}, chains=1) == \
            SamplerConfig(step_size=1.0, n_chains=1)


def _stack(n_in, width, activation="mmelu"):
    """A `layers` list: dense(n_in, width), activation, dense(width, 2), softmax."""
    return [{"kind": "dense", "dims": [n_in, width]},
            {"kind": "activation", "activation": activation},
            {"kind": "dense", "dims": [width, 2]}, {"kind": "softmax"}]


class TestNetworkSection:
    """The network section names a preset or a layer list; the dataset
    gives the input shape and class count.  Every refusal is a
    configuration error raised before run.json exists."""

    @staticmethod
    def _refused(tmp_path, capsys, command, doc):
        cfg = _write(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        code, _ = _run([command, "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "run.json").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("command, network, message", [
        ("train", {"layers": _stack(4, 0)}, "config.network.layers: layer 0 (dense): "
         "dims must be (in, out) in positive integers, got [4, 0]"),
        ("train", {"layers": _stack(4, -3)}, "config.network.layers: layer 0 (dense): "
         "dims must be (in, out) in positive integers, got [4, -3]"),
        ("train", {"layers": _stack(4, 2.5)}, "config.network.layers: layer 0 (dense): "
         "dims must be (in, out) in positive integers, got [4, 2.5]"),
        ("baseline", {"preset": "mlp", "hidden": [0]}, "config.network: preset 'mlp': "
         "layer 0 (dense): dims must be (in, out) in positive integers, got [2, 0]"),
        ("baseline", {"preset": "mlp", "hidden": [-3]}, "config.network: preset 'mlp': "
         "layer 0 (dense): dims must be (in, out) in positive integers, got [2, -3]"),
        ("baseline", {"preset": "mlp", "hidden": [2.5]}, "config.network: preset 'mlp': "
         "layer 0 (dense): dims must be (in, out) in positive integers, got [2, 2.5]"),
        ("baseline", {"preset": "mlp", "hidden": ["x"]}, "config.network: preset 'mlp': "
         "layer 0 (dense): dims must be (in, out) in positive integers, got [2, 'x']"),
        ("train", {"preset": "cnn1", "hidden": [99, 99]},
         "config.network.hidden: only preset 'mlp' takes hidden widths"),
        ("train", {"layers": _stack(4, 3), "hidden": [99, 99]},
         "config.network.hidden: only preset 'mlp' takes hidden widths"),
        ("train", {"layers": _stack(4, 3, "relu")},
         "config.network.layers: the activation layers are 'relu', but this run trains 'mmelu'"),
        ("train", {"layers": _stack(4, 3, "rleu")},
         "config.network.layers: the activation layers are 'rleu', but this run trains 'mmelu'"),
        ("baseline", {"layers": _stack(2, 3, "prelu")},
         "config.network.layers: the activation layers are 'prelu', but this run trains 'relu'"),
    ], ids=["layers-zero-width", "layers-negative-width", "layers-fractional-width",
            "hidden-zero", "hidden-negative", "hidden-fractional", "hidden-string",
            "hidden-with-cnn1", "hidden-with-layers", "layers-relu", "layers-typo",
            "layers-not-baseline-activation"])
    def test_refused_before_run_json(self, tmp_path, capsys, command, network, message):
        doc = _train_doc() if command == "train" else _baseline_doc()
        doc["network"] = network
        err = self._refused(tmp_path, capsys, command, doc)
        assert err == f"configuration error: {message}\n"

    def test_conv_kernel_other_than_3x3_refused(self, tmp_path, capsys):
        """A conv layer is 3x3; dims asking for 5x5 are refused, not built
        as 3x3 and recorded as 5x5."""
        rng = np.random.default_rng(0)
        images = Dataset(rng.random((8, 4, 4, 1)), np.arange(8) % 2, class_count=2)
        write_idx(images, tmp_path / "img.idx", tmp_path / "lab.idx")
        doc = _train_doc(n_sweeps=4, burn_in=0, n_chains=1)
        doc["dataset"] = {"kind": "idx", "images": str(tmp_path / "img.idx"),
                          "labels": str(tmp_path / "lab.idx")}
        doc["network"] = {"layers": [
            {"kind": "conv2d", "dims": [2, 1, 5, 5]},
            {"kind": "activation", "activation": "mmelu"},
            {"kind": "flatten"}, {"kind": "dense", "dims": [32, 2]}, {"kind": "softmax"}]}
        err = self._refused(tmp_path, capsys, "train", doc)
        assert err == ("configuration error: config.network.layers: layer 0 (conv2d): dims "
                       "must be (out, in, 3, 3) in positive integers, got [2, 1, 5, 5]\n")

    def test_dataset_without_class_count_refused(self, tmp_path, capsys):
        """Real-valued CSV labels give no class count for the output layer."""
        path = tmp_path / "points.csv"
        path.write_text("f0,f1,label\n" + "".join(f"{i},{-i},{i + 0.5}\n" for i in range(8)))
        doc = _baseline_doc()
        doc["dataset"] = {"kind": "csv", "path": str(path)}
        err = self._refused(tmp_path, capsys, "baseline", doc)
        assert err.startswith("configuration error: config.network: the dataset has no "
                              "class count"), err

    def test_empty_hidden_builds_no_hidden_layer(self, tmp_path):
        doc = _baseline_doc(epochs=1)
        doc["network"] = {"preset": "mlp", "hidden": []}
        out = tmp_path / "out"
        code, _ = _run(["baseline", "--config", _write(tmp_path / "b.json", doc),
                        "--out", str(out)])
        assert code == EXIT_OK
        layers = json.loads((out / "checkpoint.json").read_text())["network"]["layers"]
        assert layers == [{"kind": "dense", "dims": [2, 2]}, {"kind": "softmax"}]


class TestVersion:
    """__version__ is the one source of the version: the entry point and
    the packaging metadata both read it."""

    def test_module_entry_point_prints_version(self):
        src = str(pathlib.Path(cfgmod.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "gibbsnn", "--version"],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, f"gibbsnn {__version__}\n")

    def test_pyproject_reads_the_package_version(self):
        pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
        path = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reader flags itself as beta
            meta = pyproject.read_configuration(str(path), expand=True)
        assert meta["project"]["version"] == __version__


class TestDeterministicRepeat:
    def test_same_seed_same_bytes(self, tmp_path):
        """Identical seed and flags give byte-identical traces and
        checkpoints across runs."""
        cfg = _write(tmp_path / "t.json", _train_doc())
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code, _ = _run(["train", "--config", cfg, "--out", str(out),
                            "--seed", "9"])
            assert code == EXIT_OK
        for name in ("trace_chain0.csv", "trace_chain1.csv", "checkpoint.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        cfg = _write(tmp_path / "t.json", _train_doc())
        texts = []
        for seed, out in ((9, "a"), (10, "b")):
            _run(["train", "--config", cfg, "--out", str(tmp_path / out),
                  "--seed", str(seed)])
            texts.append((tmp_path / out / "trace_chain0.csv").read_text())
        assert texts[0] != texts[1]


class TestEvalCommand:
    def _perfect_fixture(self, root):
        """Checkpoint + CSV dataset on which the model is always right."""
        spec = NetworkSpec((dense(2, 2), softmax_layer()), (2,), 2)
        w = [np.concatenate([8.0 * np.eye(2).ravel(), np.zeros(2)])]
        path = root / "perfect.json"
        ckpt.save_checkpoint(path, spec, ModelState(w, {}, None), iteration=0,
                             provenance={"seed": 0}, activation_name="relu")
        x = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        ds = Dataset(x, np.array([0, 1] * 3), class_count=2)
        data_path = root / "points.csv"
        write_csv(ds, data_path, "label")
        return path, data_path

    def test_perfect_classifier_prints_accuracy_one(self, tmp_path):
        ckpt_path, data_path = self._perfect_fixture(tmp_path)
        doc = {"checkpoint": str(ckpt_path),
               "dataset": {"kind": "csv", "path": str(data_path)},
               "loss": "squared-error", "out": str(tmp_path / "o")}
        cfg = _write(tmp_path / "eval.json", doc)
        code, text = _run(["eval", "--config", cfg])
        assert code == EXIT_OK
        assert "accuracy=1.0000" in text
        written = json.loads((tmp_path / "o" / "eval.json").read_text())
        assert written["accuracy"] == 1.0

    def test_eval_uses_held_out_split(self, train_run, tmp_path):
        """With a split dataset the held-out side is evaluated, and the
        sampler checkpoint loads back into a usable model."""
        _, out, text = train_run
        doc = {"checkpoint": str(out / "checkpoint.json"),
               "dataset": _train_doc()["dataset"],
               "loss": "squared-error"}
        cfg = _write(tmp_path / "eval.json", doc)
        code, etext = _run(["eval", "--config", cfg])
        assert code == EXIT_OK
        # same model and test split as the training run's final line
        train_line = [l for l in text.splitlines() if "posterior mean" in l][0]
        assert etext.strip() == train_line.split(": ", 1)[1]

    def test_missing_checkpoint(self, tmp_path):
        doc = {"checkpoint": str(tmp_path / "none.json"),
               "dataset": {"kind": "synth-blobs", "n": 10, "d": 2}}
        cfg = _write(tmp_path / "eval.json", doc)
        code, _ = _run(["eval", "--config", cfg])
        assert code == EXIT_IO

    def test_malformed_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        doc = {"checkpoint": str(bad),
               "dataset": {"kind": "synth-blobs", "n": 10, "d": 2}}
        cfg = _write(tmp_path / "eval.json", doc)
        code, _ = _run(["eval", "--config", cfg])
        assert code == EXIT_IO

    @staticmethod
    def _name_activations(doc, name):
        for layer in doc["network"]["layers"]:
            if layer["kind"] == "activation":
                layer["activation"] = name

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["state"]["weights"].pop(),
        lambda doc: doc["state"]["weights"][-1].pop(),
        lambda doc: doc["network"].update(layers=[]),
        lambda doc: doc["state"]["hyper"]["lam"].pop(),
        lambda doc: doc["chains"][1]["state"]["hyper"]["lam"].append(1.0),
        lambda doc: TestEvalCommand._name_activations(doc, "foo"),
        lambda doc: TestEvalCommand._name_activations(doc, "relu"),
        lambda doc: (TestEvalCommand._name_activations(doc, "foo"),
                     doc.update(activation_name="foo")),
    ], ids=["one-vector-fewer", "last-vector-short", "no-layers", "one-scale-fewer",
            "chain-scale-extra", "unknown-activation", "activation-not-its-name",
            "unknown-activation-name"])
    def test_checkpoint_not_fitting_its_network(self, train_run, tmp_path, capsys, edit):
        """A trained mlp's checkpoint with one weight vector fewer, its last
        vector one value short, no layers, a layer scale (lam) too few or too
        many, or activation layers naming an unknown activation or one other
        than its activation_name is a malformed file, not a traceback or an
        evaluation of another model."""
        _, out, _ = train_run
        doc = json.loads((out / "checkpoint.json").read_text())
        edit(doc)
        bad = _write(tmp_path / "edited.json", doc)
        cfg = _write(tmp_path / "eval.json", {"checkpoint": bad,
                                              "dataset": _train_doc()["dataset"],
                                              "loss": "squared-error"})
        code, _ = _run(["eval", "--config", cfg])
        assert code == EXIT_IO
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc["state"].update(activation=None), "state.activation"),
        (lambda doc: doc["chains"][1]["state"].update(activation=None),
         "chains[1].state.activation"),
        (lambda doc: doc["state"]["activation"].pop("b"), "'b'"),
        (lambda doc: doc["state"]["activation"].update(c=-0.5), "state.activation.c"),
        (lambda doc: doc["chains"][0]["state"]["activation"].update(b=-1.0),
         "chains[0].state.activation.b"),
    ], ids=["activation-null", "chain-activation-null", "b-missing", "c-negative",
            "chain-b-negative"])
    def test_activation_parameters_incomplete_or_off_support(self, train_run, tmp_path,
                                                              capsys, edit, key):
        """A trained mmelu checkpoint whose activation parameters are null,
        lack a key, or put c or b off ACT_BOUNDS exits 3, naming the file
        and the key, where the registry defaults used to fill in silently
        and another model was evaluated."""
        _, out, _ = train_run
        doc = json.loads((out / "checkpoint.json").read_text())
        edit(doc)
        bad = _write(tmp_path / "edited.json", doc)
        cfg = _write(tmp_path / "eval.json", {"checkpoint": bad,
                                              "dataset": _train_doc()["dataset"],
                                              "loss": "squared-error"})
        code, _ = _run(["eval", "--config", cfg])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert bad in err and key in err

    def test_negated_unbounded_parameters_stay_legitimate(self, train_run, tmp_path):
        """gamma and prelu's alpha have no bounds: negated, each is another
        valid model, which eval evaluates."""
        _, out, _ = train_run
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["state"]["activation"]["gamma"] = -doc["state"]["activation"]["gamma"] - 0.5
        cfg = _write(tmp_path / "eval.json", {"checkpoint": _write(tmp_path / "g.json", doc),
                                              "dataset": _train_doc()["dataset"],
                                              "loss": "squared-error"})
        assert _run(["eval", "--config", cfg])[0] == EXIT_OK

        spec = NetworkSpec((dense(4, 2), act("prelu"), dense(2, 2), softmax_layer()), (4,), 2)
        w = [np.linspace(-1.0, 1.0, 10), np.linspace(-1.0, 1.0, 6)]
        path = tmp_path / "prelu.json"
        ckpt.save_checkpoint(path, spec, ModelState(w, {"alpha": -0.25}, None), iteration=0,
                             provenance={"seed": 0}, activation_name="prelu")
        cfg = _write(tmp_path / "eval.json", {"checkpoint": str(path),
                                              "dataset": _train_doc()["dataset"]})
        assert _run(["eval", "--config", cfg])[0] == EXIT_OK


class TestDiagCommand:
    def _constant_trace(self, path, n=40, n_layers=1):
        lam = "".join(f"lambda_{k + 1}," for k in range(n_layers))
        header = f"iteration,c,gamma,b,sigma2,lambda_b,{lam}energy,log_posterior"
        rows = [f"{i},0.5,0.1,1.0,1.0,1.0,{'1.0,' * n_layers}2.0,-2.0" for i in range(n)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_identical_constant_chains_report_rhat_one(self, tmp_path):
        """Two identical constant chains give a split statistic of
        exactly 1.0 for every parameter."""
        a = self._constant_trace(tmp_path / "a.csv")
        b = self._constant_trace(tmp_path / "b.csv")
        out = tmp_path / "diag-out"
        code, text = _run(["diag", a, b, "--out", str(out)])
        assert code == EXIT_OK
        for line in text.splitlines()[1:]:
            assert line.split()[-1] == "1.0000"
        assert (out / "report.csv").exists()
        assert (out / "plots" / "c.svg").exists()

    def test_no_traces_is_config_error(self):
        code, _ = _run(["diag"])
        assert code == EXIT_CONFIG

    def test_missing_trace_file(self, tmp_path):
        code, _ = _run(["diag", str(tmp_path / "ghost.csv")])
        assert code == EXIT_IO

    @pytest.mark.parametrize("text", [
        "iteration,c,gamma,sigma2,lambda_b,lambda_1,energy,log_posterior\n"
        "0,0.5,0.1,1.0,1.0,1.0,2.0,-2.0\n",
        "iteration,c,gamma,b,sigma2,lambda_b,lambda_1,energy,log_posterior\n"
        "0,0.5,0.1,wide,1.0,1.0,1.0,2.0,-2.0\n",
        "",
    ], ids=["missing-column", "non-numeric-cell", "empty-file"])
    def test_malformed_trace_is_io_error(self, tmp_path, capsys, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        code, _ = _run(["diag", str(path)])
        assert code == EXIT_IO
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("burn_in", [39, 40])
    def test_burn_in_at_or_past_last_row_is_config_error(self, tmp_path, burn_in):
        a = self._constant_trace(tmp_path / "a.csv")
        b = self._constant_trace(tmp_path / "b.csv")
        code, _ = _run(["diag", a, b, "--burn-in", str(burn_in)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("layers", [(1, 2), (2, 1)])
    def test_traces_of_different_nets_are_config_error(self, tmp_path, capsys, layers):
        paths = [self._constant_trace(tmp_path / f"{k}-{n}.csv", n_layers=n)
                 for k, n in enumerate(layers)]
        code, _ = _run(["diag", *paths])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert paths[0] in err and paths[1] in err


class TestBaselineCommand:
    def _doc(self, **section):
        return _baseline_doc(**section)

    def test_smoke_and_eval_round_trip(self, tmp_path):
        cfg = _write(tmp_path / "b.json", self._doc())
        out = tmp_path / "out"
        code, text = _run(["baseline", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert "relu baseline on test: accuracy=" in text
        with open(out / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "split", "accuracy", "loss"]
        assert len(rows) == 11
        assert (out / "plots" / "accuracy.svg").exists()
        assert (out / "plots" / "loss.svg").exists()

        # the gradient-descent checkpoint feeds straight into eval
        doc = {"checkpoint": str(out / "checkpoint.json"),
               "dataset": self._doc()["dataset"]}
        evcfg = _write(tmp_path / "e.json", doc)
        code, etext = _run(["eval", "--config", evcfg])
        assert code == EXIT_OK
        assert "accuracy=" in etext

    def test_divergence_exit_code(self, tmp_path):
        """A numerical abort is reported with its own exit code."""
        doc = self._doc(optimizer="sgd", learning_rate=1e8, epochs=4,
                        loss="squared-error")
        doc["network"] = {"layers": [
            {"kind": "dense", "dims": [2, 4]},
            {"kind": "activation", "activation": "relu"},
            {"kind": "dense", "dims": [4, 2]},
        ]}
        cfg = _write(tmp_path / "b.json", doc)
        with np.errstate(all="ignore"):
            code, text = _run(["baseline", "--config", cfg,
                               "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert "diverged" in text

    def test_evaluation_divergence_leaves_artifacts(self, tmp_path):
        """A non-finite epoch-end evaluation exits with the numerical code
        and still leaves the last finite checkpoint and the history."""
        doc = self._doc(activation="prelu", optimizer="sgd",
                        learning_rate=300.0, epochs=6, loss="squared-error")
        doc["dataset"]["n"] = 64
        doc["network"] = {"layers": [
            {"kind": "dense", "dims": [2, 4]},
            {"kind": "activation", "activation": "prelu"},
            {"kind": "dense", "dims": [4, 2]},
        ]}
        doc["seed"] = 0
        cfg = _write(tmp_path / "b.json", doc)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code, text = _run(["baseline", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "training diverged; checkpoint holds the last finite state" in text
        assert (out / "checkpoint.json").exists()
        with open(out / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["epoch", "split", "accuracy", "loss"],
                        ["0", "train", "nan", "nan"]]
        # no epoch completed: the checkpoint says so, and the curves are empty
        assert json.loads((out / "checkpoint.json").read_text())["iteration"] == 0
        assert self._curve_lengths(out) == {"accuracy": [0, 0], "loss": [0, 0]}

    def test_later_divergence_plots_completed_epochs(self, tmp_path):
        """A run that completes epoch 0 and diverges in epoch 1 records one
        completed epoch in the checkpoint and plots one point per split."""
        doc = self._doc(activation="prelu", optimizer="sgd",
                        learning_rate=1.0, epochs=6, loss="squared-error")
        doc["dataset"]["n"] = 64
        doc["network"] = {"layers": [
            {"kind": "dense", "dims": [2, 4]},
            {"kind": "activation", "activation": "prelu"},
            {"kind": "dense", "dims": [4, 2]},
        ]}
        doc["seed"] = 0
        cfg = _write(tmp_path / "b.json", doc)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code, _ = _run(["baseline", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NUMERIC
        with open(out / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[:2] for r in rows[1:]] == [["0", "train"], ["0", "test"], ["1", "train"]]
        assert rows[-1][2:] == ["nan", "nan"]
        assert json.loads((out / "checkpoint.json").read_text())["iteration"] == 1
        assert self._curve_lengths(out) == {"accuracy": [1, 1], "loss": [1, 1]}

    @staticmethod
    def _curve_lengths(out):
        """Points per series (train, test) in each baseline plot; a plot
        with a nan coordinate or axis label fails instead."""
        lengths = {}
        for key in ("accuracy", "loss"):
            svg = (out / "plots" / f"{key}.svg").read_text()
            assert "nan" not in svg, key
            lengths[key] = [len(m.split()) for m in
                            re.findall(r'<polyline points="([^"]*)"', svg)]
        return lengths

    def _csv_doc(self, tmp_path, labels):
        """A baseline config on a 2-feature CSV whose label column cycles
        through `labels`, split 3:1."""
        rng = np.random.default_rng(0)
        rows = [f"{rng.normal() + 4 * y!r},{rng.normal()!r},{y}"
                for y in labels * 12]
        path = tmp_path / "points.csv"
        path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        doc = self._doc()
        doc["dataset"] = {"kind": "csv", "path": str(path),
                          "split": [0.75, 0.25], "split_seed": 1}
        return _write(tmp_path / "b.json", doc)

    def test_csv_labels_from_one_count_to_the_largest(self, tmp_path):
        """Integer labels are class ids: a 1/2-labelled CSV has 3 classes
        (0 unused), and the baseline trains on it."""
        cfg = self._csv_doc(tmp_path, [1, 2])
        assert load_csv(tmp_path / "points.csv").class_count == 3
        code, text = _run(["baseline", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "relu baseline on test: accuracy=" in text

    def test_negative_csv_label_is_io_error(self, tmp_path, capsys):
        cfg = self._csv_doc(tmp_path, [-1, 1])
        out = tmp_path / "out"
        code, _ = _run(["baseline", "--config", cfg, "--out", str(out)])
        assert code == EXIT_IO
        assert "negative class label -1" in capsys.readouterr().err
        assert not (out / "run.json").exists()

    def test_mmelu_baseline_allowed(self, tmp_path):
        """The comparison arm may also train the hat/ReLU mixture."""
        cfg = _write(tmp_path / "b.json", self._doc(activation="mmelu"))
        doc = json.loads((tmp_path / "b.json").read_text())
        doc["network"] = {"preset": "mlp", "hidden": [4]}
        cfg = _write(tmp_path / "b.json", doc)
        code, text = _run(["baseline", "--config", cfg,
                           "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "mmelu baseline" in text


class TestDataConvert:
    def test_idx_to_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.random((6, 4, 4, 1))
        ds = Dataset(images, np.array([0, 1, 2, 0, 1, 2]), class_count=3)
        write_idx(ds, tmp_path / "img.idx", tmp_path / "lab.idx")
        doc = {"input": {"kind": "idx", "images": str(tmp_path / "img.idx"),
                         "labels": str(tmp_path / "lab.idx")},
               "output": {"format": "csv", "path": str(tmp_path / "out.csv")}}
        cfg = _write(tmp_path / "c.json", doc)
        code, text = _run(["data-convert", "--config", cfg])
        assert code == EXIT_OK
        assert "wrote 6 rows" in text
        back = load_csv(tmp_path / "out.csv")
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_blobs_to_csv(self, tmp_path):
        doc = {"input": {"kind": "synth-blobs", "n": 12, "d": 3},
               "output": {"format": "csv", "path": str(tmp_path / "out.csv")}}
        cfg = _write(tmp_path / "c.json", doc)
        code, _ = _run(["data-convert", "--config", cfg])
        assert code == EXIT_OK
        assert len((tmp_path / "out.csv").read_text().splitlines()) == 13

    def test_split_input_rejected(self, tmp_path, capsys):
        doc = {"input": {"kind": "synth-blobs", "n": 12, "d": 3,
                         "split": [0.5, 0.5]},
               "output": {"format": "csv", "path": str(tmp_path / "out.csv")}}
        cfg = _write(tmp_path / "c.json", doc)
        code, _ = _run(["data-convert", "--config", cfg])
        assert code == EXIT_CONFIG

    def test_unknown_format_rejected(self, tmp_path):
        doc = {"input": {"kind": "synth-blobs", "n": 12, "d": 3},
               "output": {"format": "parquet", "path": "x"}}
        cfg = _write(tmp_path / "c.json", doc)
        code, _ = _run(["data-convert", "--config", cfg])
        assert code == EXIT_CONFIG
