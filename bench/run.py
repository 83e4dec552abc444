"""Benchmark of the gibbsnn sampler and its gradient baseline.

    python3 bench/run.py --workload toy-linear --seed 1 --seconds 20 --trace 0

Runs one workload in this process, closed loop (each op starts when the
previous one ends), in whole rounds until --seconds have passed, checks
every round's outputs against the reference computations, and prints a
machine record, a run record and, as the last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs every round
twice in a row, first with the op clock alone and then with the
per-layer hooks installed, then times every layer of the workload's
network alone, and reports the per-layer metrics; a metric of a layer
the workload never reaches reads 0.  The program is imported from
../src.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# one BLAS thread: the process then runs on one core whatever the host's
# core count, which keeps it within nproc and its timings comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p1", "ms"),
    ("ops_per_s_best", "1/s"),
    ("run_wall_s_best", "s"),
    ("peak_rss_mb", "MB"),
)


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        ("samplers.mh_block_ms", "ms"), ("samplers.ig_block_ms", "ms"),
        ("samplers.hmc_ms", "ms"), ("samplers.record_ms", "ms"),
        ("samplers.accept_rate.c", "ratio"), ("samplers.accept_rate.gamma", "ratio"),
        ("samplers.accept_rate.b", "ratio"), ("samplers.accept_rate.w", "ratio"),
        ("samplers.divergences", "count"),
        ("model.data_energy.calls_per_sweep", "count"), ("model.data_energy.ms", "ms"),
        ("model.energy_grad.calls_per_sweep", "count"), ("model.energy_grad.ms", "ms"),
        ("activations.value_ms_per_op", "ms"), ("activations.grads_ms_per_op", "ms"),
        ("baseline.backward_ms", "ms"), ("optim.step_ms", "ms"),
        ("baseline.evaluate_ms", "ms"), ("baseline.forward_calls_per_epoch", "count"),
        ("data.load_csv_ms", "ms"), ("cli.post_sampling_ms", "ms"),
        ("diagnostics.summarize_ms", "ms"), ("svgplot.plots_ms", "ms"),
        ("checkpoint.save_ms", "ms"), ("samplers.trace_csv_ms", "ms"),
        ("tracing.overhead_pct", "%"),
    ]
    from gibbsnn.presets import cnn1, mlp
    from workloads import one_layer_nets
    for label, spec in (("cnn1", cnn1()[0]), ("mlp", mlp(10, 2, (8,))[0])):
        for name, _, _, flops in one_layer_nets(spec, (1,)):
            names += [(f"network.{label}.{name}.fwd_ms", "ms"),
                      (f"network.{label}.{name}.bwd_ms", "ms")]
            if flops is not None:
                names.append((f"network.{label}.{name}.fwd_gflop_s", "GFLOP/s"))
    return names


# --- process facts -----------------------------------------------------------


def thread_count():
    return len(os.listdir("/proc/self/task"))


def child_count():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children") as fh:
            total += len(fh.read().split())
    return total


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import numpy as np
    cpu = platform.processor() or ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpus": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads()}


# --- rounds -------------------------------------------------------------------


def median(xs):
    return float(statistics.median(xs)) if xs else 0.0


class Round:
    """Timings of one round, and what its chains did."""

    def __init__(self, t0, t1, clock, failed):
        import numpy as np
        self.t0, self.t1 = t0, t1
        self.starts, self.ends = np.array(clock.starts), np.array(clock.ends)
        self.phase_end = clock.phase_end
        self.failed = failed
        # mean accept rates over the round's chains, and their divergences
        chains = clock.traces or []
        self.outcomes = {k: float(sum(t.accept_rates[k] for t in chains) / max(len(chains), 1))
                         for k in ("c", "gamma", "b", "w")}
        self.outcomes["divergences"] = float(sum(t.divergences for t in chains))

    def op_ms(self):
        return list((self.ends - self.starts[:len(self.ends)]) * 1e3)

    def op_s(self):
        return float((self.ends - self.starts[:len(self.ends)]).sum())

    def cycles(self):
        """Per op, from its start to the next op's start, or to the end of
        the op phase for the last op: the op and the work that follows it."""
        import numpy as np
        return np.diff(np.append(self.starts, self.phase_end))


def run_phase(workload, inputs, seconds, clocks, state):
    """Whole rounds until `seconds` have passed (at least one).  Round r
    runs once under each clock in turn, installed for that round only,
    with the same program seed, so that the rounds of one r do the same
    work in nearly the same machine state.  After each finished round its
    outputs are reduced to their digest; only the last finished round's
    outputs are kept whole.  Returns the rounds and the digests, one list
    of each per clock, the last finished output and the failures met
    while digesting."""
    now = time.perf_counter
    rounds = [[] for _ in clocks]
    digests = [[] for _ in clocks]
    last, fails = None, []
    deadline = now() + seconds
    r = 0
    while r == 0 or now() < deadline:
        for clock, done, digested in zip(clocks, rounds, digests):
            clock.install()
            try:
                clock.begin_round()
                clock.starts.clear()
                clock.ends.clear()
                clock.phase_end = clock.traces = None
                t0 = now()
                try:
                    out = workload.run_round(inputs, r)
                    failed = workload.round_failed(out)
                except Exception as exc:
                    out, failed = None, True
                    print(f"round {r} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                t1 = now()
            finally:
                clock.remove()
            done.append(Round(t0, t1, clock, failed))
            if not failed:
                try:
                    digested.append(workload.digest(inputs, out))
                except Exception as exc:
                    fails.append(f"round {r}: its outputs could not be read: "
                                 f"{type(exc).__name__}: {exc}")
                last = out
            del out
            state["threads"] = max(state["threads"], thread_count())
            state["children"] = max(state["children"], child_count())
        r += 1
    return rounds, digests, last, fails


def quantile(xs, q):
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def end_to_end(rounds):
    """The gated metrics.  The machine's speed swings by up to 1.6x, for
    seconds to minutes at a time, so a median or a mean over a run mixes
    fast and slow stretches in a share that changes from run to run.  The
    timing metrics are therefore read at the fast end, at the finest
    grain each allows: the 1st percentile of op times; and a best round
    built from the fastest instance of each of its parts (the set-up's
    median, each op slot's fastest cycle, the fastest post-op part), whose
    op rate and wall time are reported."""
    import numpy as np
    ok = [r for r in rounds if not r.failed]
    if not ok:
        return {}
    # whole rounds: every finished round has the same number of op slots
    fastest = np.array([r.cycles() for r in ok]).min(axis=0).sum()
    setup = median([r.starts[0] - r.t0 for r in ok])
    return {
        "setup_s": setup,
        "op_ms_p1": quantile([ms for r in ok for ms in r.op_ms()], 0.01),
        "ops_per_s_best": len(ok[0].starts) / fastest,
        "run_wall_s_best": setup + fastest + min(r.t1 - r.phase_end for r in ok),
        # read before the checks, so it is the workload's own peak
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def whole_run(rounds):
    """Median and whole-run figures for the run record (not gated)."""
    ok = [r for r in rounds if not r.failed]
    if not ok:
        return {}
    ops = sorted(ms for r in ok for ms in r.op_ms())
    phase = sum(r.phase_end - r.starts[0] for r in ok)
    out = {"n_ops": len(ops), "op_ms_p50": median(ops),
           "ops_per_s": len(ops) / phase if phase > 0 else 0.0,
           "run_wall_s_p50": median([r.t1 - r.t0 for r in ok])}
    for q in (0.9, 0.99):
        # a percentile is reported only with at least ten samples beyond it
        if len(ops) * (1.0 - q) >= 10:
            out[f"op_ms_p{int(q * 100)}"] = ops[int(q * len(ops))]
    return out


# --- per-layer metrics --------------------------------------------------------


def layer_metrics(workload, tracer, traced, untraced):
    m = {name: 0.0 for name, _ in layer_metric_names()}
    sw = tracer.sweeps
    if sw:
        m["samplers.mh_block_ms"] = median([(s["first_ig"] - s["t0"]) * 1e3 for s in sw])
        m["samplers.ig_block_ms"] = median(
            [((s["hmc0"] or s["t1"]) - s["first_ig"]) * 1e3 for s in sw])
        m["samplers.hmc_ms"] = median([s["hmc"] * 1e3 for s in sw])
        m["samplers.record_ms"] = median([s["record"] * 1e3 for s in sw])
        m["model.data_energy.calls_per_sweep"] = median([s["de_n"] for s in sw])
        m["model.data_energy.ms"] = median([s["de_s"] * 1e3 for s in sw])
        m["model.energy_grad.calls_per_sweep"] = median([s["eg_n"] for s in sw])
        m["model.energy_grad.ms"] = median([s["eg_s"] * 1e3 for s in sw])
        # outcomes of the first round: the same seed gives the same chain
        for k in ("c", "gamma", "b", "w"):
            m[f"samplers.accept_rate.{k}"] = traced[0].outcomes[k]
        m["samplers.divergences"] = traced[0].outcomes["divergences"]
    n_ops = sum(len(r.ends) for r in traced if not r.failed)
    if n_ops:
        m["activations.value_ms_per_op"] = tracer.act_value_s * 1e3 / n_ops
        m["activations.grads_ms_per_op"] = tracer.act_grads_s * 1e3 / n_ops
    if tracer.steps:
        m["baseline.backward_ms"] = median([s["backward"] * 1e3 for s in tracer.steps])
        m["optim.step_ms"] = median([s["optim"] * 1e3 for s in tracer.steps])
        m["baseline.evaluate_ms"] = median([e["evaluate"] * 1e3 for e in tracer.epochs])
        m["baseline.forward_calls_per_epoch"] = median([e["forwards"] for e in tracer.epochs])
    cli_rounds = [(rd, r) for rd, r in zip(tracer.rounds, traced)
                  if rd["main_end"] is not None and not r.failed]
    if cli_rounds:
        def per_round(key):
            return median([rd[key] * 1e3 for rd, _ in cli_rounds])
        m["data.load_csv_ms"] = per_round("load_csv")
        m["diagnostics.summarize_ms"] = per_round("summarize")
        m["svgplot.plots_ms"] = per_round("plots")
        m["checkpoint.save_ms"] = per_round("save")
        m["samplers.trace_csv_ms"] = per_round("trace_csv")
        m["cli.post_sampling_ms"] = median(
            [(rd["main_end"] - r.phase_end) * 1e3 for rd, r in cli_rounds])
    # each traced round repeats the untraced round before it, op for op
    ratios = [t.op_s() / u.op_s() for u, t in zip(untraced, traced)
              if not (u.failed or t.failed)]
    if ratios:
        m["tracing.overhead_pct"] = (median(ratios) - 1.0) * 100.0
    for label, spec, batch in workload.layer_nets:
        m.update(layer_timings(label, spec, batch))
    return m


def layer_timings(label, spec, batch, reps=5):
    """Forward and backward (squared-error against zeros, forward pass
    included) of every layer as a one-layer Network at the workload's
    batch shape; medians of `reps` calls.  GFLOP/s use the computed
    multiply-add count of the dense or conv forward."""
    import numpy as np
    from gibbsnn.activations import ActivationParams
    from workloads import one_layer_nets
    now = time.perf_counter
    rng = np.random.default_rng(0)
    act = ActivationParams(c=0.5, gamma=0.0, b=1.0)
    out = {}
    for name, net, xshape, flops in one_layer_nets(spec, batch):
        x = rng.normal(size=xshape)
        w = net.init_weights(rng)
        y = np.zeros((xshape[0],) + tuple(net.layer_shapes[-1]))
        fwd, bwd = [], []
        for _ in range(reps):
            t = now()
            net.forward(w, act, x)
            fwd.append(now() - t)
            t = now()
            net.backward(w, act, x, y, "squared-error")
            bwd.append(now() - t)
        key = f"network.{label}.{name}"
        out[f"{key}.fwd_ms"] = median(fwd) * 1e3
        out[f"{key}.bwd_ms"] = median(bwd) * 1e3
        if flops is not None:
            out[f"{key}.fwd_gflop_s"] = flops / median(fwd) / 1e9
    return out


# --- entry point --------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gibbsnn", "__init__.py")):
        # an installed copy elsewhere must not stand in for the checkout's code
        print(f"no program to benchmark: {src}/gibbsnn is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import probes
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    workdir = os.path.join(ROOT, ".bench_out", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        state = {"threads": thread_count(), "children": 0}
        inputs = workload.make_inputs(args.seed, workdir)
        clocks = [probes.OpClock(workload.kind)]
        if args.trace:
            clocks.append(probes.Tracer(workload.kind))
        rounds, digests, last, fails = run_phase(workload, inputs, args.seconds, clocks,
                                                 state)
        # a traced round repeats its untraced twin's chain, so only the
        # untraced rounds count as independent draws in the checks
        digests = digests[0]
        untraced = rounds[0]
        traced = rounds[1] if args.trace else []
        if not args.trace:
            # read before the gradient check, so it is the workload's own peak
            metrics, units = end_to_end(untraced), dict(END_TO_END)
        every = untraced + traced
        ok = [r for r in every if not r.failed]
        fails += (workload.check(inputs, digests, last) if digests
                  else ["no round finished with outputs to check"])
        nproc = len(os.sched_getaffinity(0))
        if state["threads"] > nproc or state["children"]:
            fails.append(f"load left one process on at most {nproc} threads: "
                         f"{state['threads']} threads, {state['children']} children")
        if args.trace:
            metrics = layer_metrics(workload, clocks[1], traced, untraced) if ok else {}
            units = dict(layer_metric_names())
        attempted = workload.ops_per_round * len(every)
        failed = workload.ops_per_round * sum(r.failed for r in every)
        phase_s = sum(r.phase_end - r.starts[0] for r in ok)
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "rounds": len(every), "attempted": attempted, "failed": failed,
                  "max_threads": state["threads"], **whole_run(untraced),
                  **(workload.info(inputs, digests, phase_s) if digests else {}),
                  "check_failures": fails}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not fails, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
