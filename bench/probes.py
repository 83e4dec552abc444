"""Timing hooks installed around the program's public functions.

The benchmark never edits the program: it replaces module attributes and
class methods with thin wrappers for the length of a measurement and puts
the originals back afterwards.  ``OpClock`` records only op boundaries
and is what the end-to-end metrics are measured with.  ``Tracer`` adds a
span or a counter at every layer boundary the per-layer metrics need.
"""

import time

import gibbsnn.baseline as baseline
import gibbsnn.checkpoint as checkpoint
import gibbsnn.cli as cli
import gibbsnn.data as data
import gibbsnn.diagnostics as diagnostics
import gibbsnn.network as network
import gibbsnn.optim as optim
import gibbsnn.samplers as samplers
import gibbsnn.svgplot as svgplot
from gibbsnn.model import BayesModel

now = time.perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make):
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def restore(self):
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


class OpClock:
    """Op boundaries of one round.

    An op is one chain's sweep (``gibbs_sweep``), or one baseline
    mini-batch step: from the start of its ``Network.backward`` call to
    the start of the next step's, or of the epoch-end ``evaluate``.  The
    op phase ends when the op driver (``run_chains`` or
    ``train_baseline``) returns; it therefore includes trace recording and
    epoch-end evaluation.
    """

    def __init__(self, kind):
        if kind not in ("sampler", "baseline"):
            raise ValueError(f"unknown op kind {kind!r}")
        self.kind = kind
        self.patches = Patches()
        self.reset()

    def reset(self):
        self.starts, self.ends = [], []
        self.phase_end = None
        self.traces = None  # what the last run_chains call returned

    # -- hooks ---------------------------------------------------------------

    def _sweep(self, orig):
        def gibbs_sweep(*args, **kwargs):
            self.starts.append(now())
            self.on_sweep_start()
            try:
                return orig(*args, **kwargs)
            finally:
                self.ends.append(now())
                self.on_sweep_end()
        return gibbs_sweep

    def _chains(self, orig):
        def run_chains(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.phase_end = now()
            self.traces = out
            return out
        return run_chains

    def _step(self, orig):
        def backward(net, *args, **kwargs):
            t = now()
            self._close_step(t)
            self.starts.append(t)
            self.on_step_start()
            return orig(net, *args, **kwargs)
        return backward

    def _evaluate(self, orig):
        def evaluate(*args, **kwargs):
            self._close_step(now())
            self.on_evaluate_start()
            return orig(*args, **kwargs)
        return evaluate

    def _train(self, orig):
        def train_baseline(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.phase_end = now()
            self._close_step(self.phase_end)
            return out
        return train_baseline

    def _close_step(self, t):
        if len(self.ends) < len(self.starts):
            self.ends.append(t)

    # subclasses hang their spans on these
    def begin_round(self):
        pass

    def on_sweep_start(self):
        pass

    def on_sweep_end(self):
        pass

    def on_step_start(self):
        pass

    def on_evaluate_start(self):
        pass

    def install(self):
        p = self.patches
        if self.kind == "sampler":
            p.wrap(samplers, "gibbs_sweep", self._sweep)
            p.wrap(samplers, "run_chains", self._chains)
            p.wrap(cli, "run_chains", self._chains)
        else:
            p.wrap(network.Network, "backward", self._step)
            p.wrap(baseline, "evaluate", self._evaluate)
            p.wrap(baseline, "train_baseline", self._train)
        return self

    def remove(self):
        self.patches.restore()


class Tracer(OpClock):
    """OpClock plus per-layer spans and counters.

    Per sweep: the time to the first inverse-gamma draw (the Metropolis
    blocks), from there to the start of ``nshmc_step`` (the inverse-gamma
    blocks), the ``nshmc_step`` span, the data-term calls and their time,
    and the trace bookkeeping that follows the sweep.  Per baseline step:
    the ``Network.backward`` span and the ``Adam.step`` time; per epoch the
    ``evaluate`` time and the forward passes.  Per round: the CSV load and
    the post-sampling work of the ``train`` command.
    """

    def reset(self):
        super().reset()
        self.sweeps = []  # per-sweep dicts
        self.steps = []  # per-step dicts
        self.epochs = []  # per-epoch dicts
        self.rounds = []  # per-round dicts
        self.act_value_s = 0.0
        self.act_grads_s = 0.0
        self._in_op = False

    def begin_round(self):
        self.rounds.append({"load_csv": 0.0, "summarize": 0.0, "plots": 0.0,
                            "save": 0.0, "trace_csv": 0.0, "main_end": None})

    def on_sweep_start(self):
        self.sweeps.append({"t0": self.starts[-1], "first_ig": None, "hmc0": None,
                            "hmc": 0.0, "de_n": 0, "de_s": 0.0, "eg_n": 0,
                            "eg_s": 0.0, "record": 0.0})
        self._in_op = True

    def on_sweep_end(self):
        self.sweeps[-1]["t1"] = self.ends[-1]
        self._in_op = False

    def on_step_start(self):
        self.steps.append({"backward": 0.0, "optim": 0.0})
        self._in_op = True

    def on_evaluate_start(self):
        self._in_op = False
        if not self.epochs or self.epochs[-1]["evals"] == 2:
            self.epochs.append({"evaluate": 0.0, "evals": 0, "forwards": 0})

    # -- wrappers ------------------------------------------------------------

    def _timed(self, add):
        """Wrapper factory: run the original, pass its duration to add()."""
        def make(orig):
            def timed(*args, **kwargs):
                t = now()
                try:
                    return orig(*args, **kwargs)
                finally:
                    add(now() - t)
            return timed
        return make

    def _add_sweep(self, key, count_key=None):
        def add(dt):
            if self.sweeps and self._in_op:
                self.sweeps[-1][key] += dt
                if count_key:
                    self.sweeps[-1][count_key] += 1
        return add

    def _add_record(self, dt):
        # bookkeeping runs after the sweep returns; charge it to that sweep
        if self.sweeps:
            self.sweeps[-1]["record"] += dt

    def _first_ig(self, orig):
        def sample_inverse_gamma(*args, **kwargs):
            sw = self.sweeps[-1] if self.sweeps else None
            if sw is not None and sw["first_ig"] is None:
                sw["first_ig"] = now()
            return orig(*args, **kwargs)
        return sample_inverse_gamma

    def _hmc(self, orig):
        def nshmc_step(*args, **kwargs):
            t = now()
            try:
                return orig(*args, **kwargs)
            finally:
                if self.sweeps:
                    self.sweeps[-1]["hmc0"] = t
                    self.sweeps[-1]["hmc"] += now() - t
        return nshmc_step

    def _add_step(self, key):
        def add(dt):
            if self.steps and self._in_op:
                self.steps[-1][key] += dt
        return add

    def _evaluate_timed(self, orig):
        def add(dt):
            self.epochs[-1]["evaluate"] += dt
            self.epochs[-1]["evals"] += 1
        return self._timed(add)(orig)

    def _count_forward(self, orig):
        def counted(*args, **kwargs):
            if self.epochs and not self._in_op:
                self.epochs[-1]["forwards"] += 1
            return orig(*args, **kwargs)
        return counted

    def _add_act(self, attr):
        def add(dt):
            if self._in_op:
                setattr(self, attr, getattr(self, attr) + dt)
        return add

    def _add_round(self, key):
        def add(dt):
            if self.rounds:
                self.rounds[-1][key] += dt
        return add

    def _main(self, orig):
        def main(*args, **kwargs):
            try:
                return orig(*args, **kwargs)
            finally:
                self.rounds[-1]["main_end"] = now()
        return main

    def install(self):
        p = self.patches
        if self.kind == "baseline":
            # the backward span sits inside the op clock's step hook
            p.wrap(network.Network, "backward", self._timed(self._add_step("backward")))
            p.wrap(baseline, "evaluate", self._evaluate_timed)
            p.wrap(optim.Adam, "step", self._timed(self._add_step("optim")))
            p.wrap(network.Network, "forward", self._count_forward)
            p.wrap(network.Network, "loss", self._count_forward)
        super().install()
        if self.kind == "sampler":
            p.wrap(samplers, "sample_inverse_gamma", self._first_ig)
            p.wrap(samplers, "nshmc_step", self._hmc)
            p.wrap(BayesModel, "data_energy", self._timed(self._add_sweep("de_s", "de_n")))
            p.wrap(BayesModel, "energy_grad", self._timed(self._add_sweep("eg_s", "eg_n")))
            for owner, name in ((BayesModel, "prior_logdensity"),
                                (samplers.ChainTrace, "record"),
                                (samplers.ChainTrace, "accumulate_weights")):
                p.wrap(owner, name, self._timed(self._add_record))
            p.wrap(samplers.ChainTrace, "to_csv", self._timed(self._add_round("trace_csv")))
            p.wrap(data, "load_csv", self._timed(self._add_round("load_csv")))
            p.wrap(diagnostics, "summarize", self._timed(self._add_round("summarize")))
            p.wrap(svgplot, "trace_histogram_svg", self._timed(self._add_round("plots")))
            p.wrap(svgplot, "curves_svg", self._timed(self._add_round("plots")))
            p.wrap(checkpoint, "save_checkpoint", self._timed(self._add_round("save")))
            p.wrap(cli, "main", self._main)
        p.wrap(network, "activation_value", self._timed(self._add_act("act_value_s")))
        p.wrap(network, "activation_grads", self._timed(self._add_act("act_grads_s")))
        return self
