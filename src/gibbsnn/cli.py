"""Command-line entry point.

Subcommands: train (Gibbs sampling), baseline (gradient descent), eval
(metrics of a checkpointed model), diag (trace diagnostics), data-convert.

Exit codes: 0 success, 2 configuration error, 3 I/O error (missing or
malformed files), 4 numerical abort.
"""

import argparse
import csv
import json
import os
import sys

from . import __version__
from . import checkpoint as ckpt
from . import config as cfgmod
from . import data as dataio
from . import diagnostics as diag
from . import svgplot
from .baseline import evaluate, train_baseline, write_history
from .errors import ConfigError, FormatError, GibbsnnError, NumericalError
from .model import BayesModel, ModelState
from .network import Network
from .samplers import estimate, run_chains

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _ensure_out(path) -> str:
    os.makedirs(path, exist_ok=True)
    os.makedirs(os.path.join(path, "plots"), exist_ok=True)
    return path


def _provenance(doc, seed) -> dict:
    """What run.json and a checkpoint's provenance record of a run."""
    return {"config_sha256": ckpt.config_hash(doc), "seed": seed, "version": __version__}


def _write_run_meta(out, command, doc, seed):
    with open(os.path.join(out, "run.json"), "w") as fh:
        json.dump({"command": command, **_provenance(doc, seed)}, fh, indent=2, sort_keys=True)
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _load_doc(args):
    if not args.config:
        raise ConfigError("--config PATH is required for this command")
    return cfgmod.load_json(args.config)


def _dataset_pair(doc_dataset):
    train, test = cfgmod.build_dataset(doc_dataset)
    if test is None:
        test = train
    return train, test


def _parameter_plots(traces, out):
    for name in traces[0].parameter_names():
        series = [t.series(name) for t in traces]
        svgplot.trace_histogram_svg(
            series, name, os.path.join(out, "plots", f"{name}.svg"))


def _metric_curves(xs, rows, over, out):
    """plots/accuracy.svg and plots/loss.svg: the train and test rows'
    values over xs."""
    for key in ("accuracy", "loss"):
        series = [[r[key] for r in rows if r["split"] == s] for s in ("train", "test")]
        svgplot.curves_svg(xs, series, ["train", "test"], f"{key} {over}",
                           os.path.join(out, "plots", f"{key}.svg"))


def cmd_train(args) -> int:
    doc = _load_doc(args)
    cfg = cfgmod.validate_train(doc)
    scfg = cfgmod.sampler_config(cfg["sampler"], args.chains)
    train, test = _dataset_pair(cfg["dataset"])
    net, _ = cfgmod.build_network(cfg["network"], cfg["activation"], train)
    model = BayesModel(net, train.inputs, train.labels, loss_kind=cfg["loss"])
    seed = args.seed if args.seed is not None else cfg["seed"]
    out = _ensure_out(args.out or cfg["out"] or "run-train")
    _write_run_meta(out, "train", doc, seed)

    interval = cfg["eval_interval"]
    metrics_rows = []

    def on_sweep(chain_id, sweep, chain):
        if interval is None or sweep % interval != 0:
            return
        for split_name, ds in (("train", train), ("test", test)):
            m = evaluate(net, chain.model.w, chain.model.act, ds, cfg["loss"])
            metrics_rows.append({"chain": chain_id, "iteration": sweep,
                                 "split": split_name, "accuracy": m.accuracy,
                                 "loss": m.loss})

    traces = run_chains(model, scfg, seed, callback=on_sweep if interval else None)

    for t in traces:
        t.to_csv(os.path.join(out, f"trace_chain{t.chain_id}.csv"))
    summary_rows = diag.summarize(traces, scfg.burn_in)
    diag.write_report(summary_rows, os.path.join(out, "report.csv"))
    _parameter_plots(traces, out)

    if metrics_rows:
        with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=["chain", "iteration", "split",
                                                "accuracy", "loss"])
            wr.writeheader()
            wr.writerows(metrics_rows)
        xs = sorted({r["iteration"] for r in metrics_rows})
        _metric_curves(xs, [r for r in metrics_rows if r["chain"] == 0], "over sweeps", out)

    mean_state = estimate(traces)
    ckpt.save_checkpoint(
        os.path.join(out, "checkpoint.json"), net.spec, mean_state,
        iteration=scfg.n_sweeps, provenance=_provenance(doc, seed),
        chains=[t.final_state for t in traces], activation_name="mmelu")

    m = evaluate(net, mean_state.w, mean_state.act, test, cfg["loss"])
    print(f"posterior mean on test: accuracy={m.accuracy:.4f} loss={m.loss:.4f} "
          f"sensitivity={m.sensitivity:.4f} specificity={m.specificity:.4f}")
    for row in summary_rows:
        print(f"{row['parameter']}: mean={row['mean']:.4g} std={row['std']:.4g} "
              f"ess={row['ess']:.1f} rhat={row['rhat']:.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    doc = _load_doc(args)
    cfg = cfgmod.validate_baseline(doc)
    train, test = _dataset_pair(cfg["dataset"])
    net, bcfg = cfgmod.baseline_config(cfg["baseline"], cfg["network"], train)
    seed = args.seed if args.seed is not None else cfg["seed"]
    out = _ensure_out(args.out or cfg["out"] or "run-baseline")
    _write_run_meta(out, "baseline", doc, seed)

    w, act, history = train_baseline(net, bcfg, train, test, seed)
    write_history(history, os.path.join(out, "history.csv"))

    # a diverged row carries no metrics; the curves and the checkpoint's
    # iteration count cover the completed epochs only
    completed = [r for r in history if not r.get("diverged")]
    epochs = sorted({r["epoch"] for r in completed})
    _metric_curves(epochs, completed, "per epoch", out)

    ckpt.save_checkpoint(
        os.path.join(out, "checkpoint.json"), net.spec, ModelState(w, act, None),
        iteration=len(epochs), provenance=_provenance(doc, seed),
        activation_name=bcfg.activation)

    diverged = len(completed) < len(history)
    if diverged:
        print("training diverged; checkpoint holds the last finite state")
        return EXIT_NUMERIC
    m = evaluate(net, w, act, test, bcfg.loss_kind)
    print(f"{bcfg.activation} baseline on test: accuracy={m.accuracy:.4f} "
          f"loss={m.loss:.4f} sensitivity={m.sensitivity:.4f} "
          f"specificity={m.specificity:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    doc = _load_doc(args)
    cfg = cfgmod.validate_eval(doc)
    loaded = ckpt.load_checkpoint(cfg["checkpoint"])
    dataset, rest = cfgmod.build_dataset(cfg["dataset"])
    if rest is not None:
        dataset = rest  # evaluation targets the held-out side of a split

    state = loaded["state"]
    m = evaluate(Network(loaded["network"]), state.w, state.act, dataset, cfg["loss"])
    line = (f"accuracy={m.accuracy:.4f} loss={m.loss:.4f} "
            f"sensitivity={m.sensitivity:.4f} specificity={m.specificity:.4f}")
    print(line)
    if args.out or cfg["out"]:
        out = _ensure_out(args.out or cfg["out"])
        with open(os.path.join(out, "eval.json"), "w") as fh:
            json.dump(m.as_dict(), fh, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_diag(args) -> int:
    if not args.traces:
        raise ConfigError("diag needs at least one trace CSV path")
    traces = [diag.load_trace(p) for p in args.traces]
    for path, t in zip(args.traces[1:], traces[1:]):
        if t.header != traces[0].header:
            raise ConfigError(f"{args.traces[0]} and {path} have different trace "
                              f"columns; traces of one net are needed")
    try:
        rows = diag.summarize(traces, args.burn_in)
    except ValueError as exc:
        raise ConfigError(f"--burn-in {args.burn_in}: {exc}") from None
    out = args.out
    if out:
        _ensure_out(out)
        diag.write_report(rows, os.path.join(out, "report.csv"))
        _parameter_plots(traces, out)
    header = f"{'parameter':<12} {'mean':>12} {'std':>12} {'ess':>10} {'rhat':>8}"
    print(header)
    for row in rows:
        print(f"{row['parameter']:<12} {row['mean']:>12.5g} {row['std']:>12.5g} "
              f"{row['ess']:>10.1f} {row['rhat']:>8.4f}")
    return EXIT_OK


def cmd_data_convert(args) -> int:
    doc = _load_doc(args)
    cfg = cfgmod.validate_convert(doc)
    dataset, rest = cfgmod.build_dataset(cfg["input"])
    if rest is not None:
        raise ConfigError("config.input: drop 'split' for conversion")
    fmt = cfg["output"]["format"]
    if fmt == "csv":
        dataio.write_csv(dataset, cfg["output"]["path"],
                         cfg["output"]["label_column"])
        print(f"wrote {dataset.n} rows to {cfg['output']['path']}")
    else:
        dataio.write_idx(dataset, cfg["output"]["images"], cfg["output"]["labels"])
        print(f"wrote {dataset.n} samples to {cfg['output']['images']} / "
              f"{cfg['output']['labels']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gibbsnn",
        description="Sparse Bayesian neural networks with a trainable "
                    "hat/ReLU activation; Gibbs sampling and gradient baselines.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="JSON config path")
        p.set_defaults(fn=fn)
        return p

    def run_flags(p):
        p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
        p.add_argument("--out", default=None, help="run directory; overrides the config's out")

    p = command("train", cmd_train, "run the Gibbs sampler")
    run_flags(p)
    p.add_argument("--chains", type=int, default=None, help="overrides the chain count")

    run_flags(command("baseline", cmd_baseline, "gradient-descent comparison arm"))

    p = command("eval", cmd_eval, "metrics of a checkpointed model")
    p.add_argument("--out", default=None,
                   help="directory for eval.json; overrides the config's out")

    p = sub.add_parser("diag", help="diagnostics over trace CSVs")
    p.add_argument("traces", nargs="*", help="trace CSV paths")
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_diag)

    command("data-convert", cmd_data_convert, "convert between dataset formats")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, FileNotFoundError, IsADirectoryError, PermissionError,
            OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GibbsnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
