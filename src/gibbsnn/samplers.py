"""Gibbs sampler over (c, gamma, b, sigma2, lambda_b, lambda_l, W).

A sweep walks a list of moves, each a kernel stationary for the joint
(Metropolis-within-Gibbs); by default, in order: Metropolis moves for the
three activation parameters (Gaussian random walk, reflected at the
support boundaries), exact inverse-gamma draws for the three scale
blocks, and a proximal non-smooth HMC move for the weight vector.

Each move's proposal scale or HMC step size adapts by Robbins-Monro on
log scale during burn-in only (targets TARGET_ACCEPT_MH for the scalar
moves, TARGET_ACCEPT_HMC for HMC), then stays frozen so the post-burn-in
chain is a valid MCMC kernel.

Mini-batch energies (SamplerConfig.batch_size) are supported but make the
target approximate; full batch is the default and the exact mode.
"""

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .activations import ACT_BOUNDS, ActivationParams
from .errors import ConfigError, NumericalError
from .model import BayesModel, HyperState, ModelState, init_state
from .network import concat_weights, split_weights

MH_SCALE = 0.25  # initial proposal scale of the scalar moves
TARGET_ACCEPT_MH = 0.40  # burn-in adaptation targets of the scalar moves
TARGET_ACCEPT_HMC = 0.65  # and of the weight move
DIVERGENCE_THRESHOLD = 1000.0  # |delta H| beyond which a trajectory is divergent
W_HISTORY_LIMIT = 64  # above this many weights only running moments are kept


# --- low-level draws -------------------------------------------------------


def sample_gamma_shape(rng: np.random.Generator, shape: float) -> float:
    """Gamma(shape, 1) draw by the squeeze/rejection method.

    For shape >= 1: d = shape - 1/3, c = 1/sqrt(9d); propose v = (1+cx)^3
    from x ~ N(0,1), accept by the squeeze test or the exact log test.
    For shape < 1 a boosted draw is scaled by U^(1/shape).
    """
    if shape <= 0.0:
        raise ValueError(f"shape must be positive, got {shape}")
    if shape < 1.0:
        # boost: Gamma(a) = Gamma(a+1) * U^(1/a)
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return sample_gamma_shape(rng, shape + 1.0) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = rng.random()
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_inverse_gamma(shape: float, scale: float, rng: np.random.Generator) -> float:
    """Draw X with density proportional to x^(-1-shape) exp(-scale/x)."""
    if shape <= 0.0 or scale <= 0.0:
        raise ValueError(f"shape and scale must be positive, got {shape}, {scale}")
    g = sample_gamma_shape(rng, shape)
    # a boosted draw for a tiny shape can underflow to 0.0
    return scale / g if g > 0.0 else math.inf


def soft_threshold(x, tau):
    """Proximity operator of tau*|.|: sign(x) * max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def reflect_into(x: float, lower=None, upper=None) -> float:
    """Fold a real into [lower, upper] by successive boundary reflections."""
    if lower is not None and upper is not None:
        width = upper - lower
        # reflection is periodic with period 2*width
        y = (x - lower) % (2.0 * width)
        return lower + (y if y <= width else 2.0 * width - y)
    if lower is not None and x < lower:
        return 2.0 * lower - x
    if upper is not None and x > upper:
        return 2.0 * upper - x
    return x


def mh_step(value: float, current, evaluate, rng: np.random.Generator,
            scale: float, lower=None, upper=None):
    """One Gaussian random-walk Metropolis update of a scalar.

    evaluate(v) returns a tuple whose first item is the log density at v;
    `current` is that tuple at `value`, cached by the caller, so only the
    candidate is evaluated.  Reflecting the proposal at the support bounds
    keeps it symmetric, so the accept ratio is the density ratio.  Every
    step draws one normal and one uniform.  Returns (value, accepted,
    evaluation), the last being the tuple at the returned value.
    """
    cand = reflect_into(value + scale * rng.standard_normal(), lower, upper)
    proposed = evaluate(cand)
    if math.log(max(rng.random(), 1e-300)) < proposed[0] - current[0]:
        return cand, True, proposed
    return value, False, current


# --- non-smooth HMC --------------------------------------------------------


def nshmc_step(q, rng, energy_grad, l1_scale, step, n_leapfrog):
    """One proximal-leapfrog HMC trajectory on potential
    U(q) = E(q) + sum_i |q_i| / l1_scale_i, where energy_grad(q) returns
    the pair (E(q), grad E(q)).

    The l1 term enters through its Moreau envelope with smoothing mu =
    step^2/2, whose gradient is evaluated via the proximity operator:
    (q - soft_threshold(q, tau)) / mu with per-coordinate threshold tau =
    (step^2/2) / l1_scale.  Written out, each position update applies the
    soft-threshold to the current point and adds the momentum drift.  The
    resulting map is an ordinary leapfrog on a differentiable surrogate,
    hence reversible and volume-preserving, so the terminal Metropolis
    test against the exact U keeps the stationary law correct whatever
    the discretization does; the surrogate only affects acceptance.

    energy_grad is called n_leapfrog + 1 times, once per position: the
    first call gives the initial Hamiltonian's energy and the last the
    final one's, so no separate energy evaluation is made.

    Returns (q_new, info) with info keys: accepted, divergent, delta_h,
    accept_prob, energy (E at the returned point).  A trajectory whose
    |delta H| exceeds DIVERGENCE_THRESHOLD, or is not finite, is divergent.
    """
    q = np.asarray(q, dtype=np.float64)
    l1_scale = np.broadcast_to(np.asarray(l1_scale, dtype=np.float64), q.shape)
    p = rng.standard_normal(q.shape)
    mu = 0.5 * step * step
    tau = mu / l1_scale

    def envelope_grad(qv):
        # d/dq of the Moreau envelope: sign(q)/lam clipped to q/mu near 0
        return (qv - soft_threshold(qv, tau)) / mu

    e0, g = energy_grad(q)
    h0 = e0 + float(np.sum(np.abs(q) / l1_scale)) + 0.5 * float(p @ p)
    qn, e1 = q, e0
    g = g + envelope_grad(qn)
    for _ in range(n_leapfrog):
        p = p - 0.5 * step * g
        qn = qn + step * p
        e1, g = energy_grad(qn)
        g = g + envelope_grad(qn)
        p = p - 0.5 * step * g
        if not np.isfinite(p).all():
            break

    h1 = e1 + float(np.sum(np.abs(qn) / l1_scale)) + 0.5 * float(p @ p)
    dh = h1 - h0

    if not np.isfinite(dh) or abs(dh) > DIVERGENCE_THRESHOLD:
        return q, {"accepted": False, "divergent": True, "delta_h": dh,
                   "accept_prob": 0.0, "energy": e0}
    # exp(min(0, -dh)) never overflows, however far H falls
    a = math.exp(min(0.0, -dh))
    if rng.random() < a:
        return qn, {"accepted": True, "divergent": False, "delta_h": dh,
                    "accept_prob": a, "energy": e1}
    return q, {"accepted": False, "divergent": False, "delta_h": dh,
               "accept_prob": a, "energy": e0}


# --- configuration and chain containers -------------------------------------


@dataclass
class SamplerConfig:
    """Knobs of the Gibbs run; its fields are a run config's sampler keys.

    n_sweeps counts total sweeps including burn_in; burn_in draws are kept
    in the trace (for plots) but excluded from estimators.  batch_size
    turns on approximate mini-batch energies.
    """

    n_sweeps: int = 1000
    burn_in: int = 350
    n_chains: int = 2
    leapfrog_steps: int = 5
    step_size: float = 0.02
    thin: int = 1
    adapt: bool = True
    batch_size: int | None = None
    # passes of the c/gamma/b moves per sweep; 1 reproduces the printed
    # single-proposal block order, larger values speed up the heavy-tailed
    # scalar walks without touching the stationary law
    scalar_subsweeps: int = 1

    def validate(self):
        """Range checks; each message starts with the offending field."""
        if self.n_sweeps < 1:
            raise ConfigError(f"n_sweeps: must be >= 1, got {self.n_sweeps}")
        if not 0 <= self.burn_in < self.n_sweeps:
            raise ConfigError(
                f"burn_in: must lie in [0, n_sweeps), got {self.burn_in} of {self.n_sweeps}")
        if self.thin < 1:
            raise ConfigError(f"thin: must be >= 1, got {self.thin}")
        if self.leapfrog_steps < 1:
            raise ConfigError(f"leapfrog_steps: must be >= 1, got {self.leapfrog_steps}")
        if self.step_size <= 0:
            raise ConfigError(f"step_size: must be positive, got {self.step_size}")
        if self.n_chains < 1:
            raise ConfigError(f"n_chains: must be >= 1, got {self.n_chains}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1 when set, got {self.batch_size}")
        if self.scalar_subsweeps < 1:
            raise ConfigError(f"scalar_subsweeps: must be >= 1, got {self.scalar_subsweeps}")
        return self


@dataclass
class Move:
    """One component kernel of the sweep: step(move, model, chain, subset,
    eta) updates chain and returns its trace flags, adapting `scale` (its
    proposal scale or HMC step) at rate eta > 0 during burn-in."""

    name: str
    step: Callable
    scale: float | None = None  # None: an exact draw, which never rejects
    accepted: int = 0
    proposed: int = 0


@dataclass
class ChainState:
    """Everything a chain owns: the model point, its RNG and its moves, with
    their scales and counters.  (seed, config, moves) fix the trajectory."""

    model: ModelState
    rng: np.random.Generator
    moves: list
    iteration: int = 0
    divergences: int = 0
    energy: float = np.nan  # smooth data energy at the current point

    def accept_rates(self) -> dict:
        return {m.name: (m.accepted / m.proposed if m.proposed else np.nan)
                for m in self.moves if m.scale is not None}


FLAG_FIELDS = ("accept_c", "accept_gamma", "accept_b", "accept_w", "divergent")


class ChainTrace:
    """One chain's record: a row per recorded sweep under `header`, the
    trace CSV's columns, plus post-burn-in weight accumulators."""

    def __init__(self, chain_id: int, n_layers: int, n_weights: int):
        self.chain_id = chain_id
        self.header = (["iteration", *ACT_BOUNDS, "sigma2", "lambda_b"]
                       + [f"lambda_{i + 1}" for i in range(n_layers)]
                       + ["energy", "log_posterior", *FLAG_FIELDS])
        self.table = []  # rows until finalize() makes one float64 array
        # post-burn-in weight accumulators (running mean over the flat vector)
        self.w_count = 0
        self.w_mean = np.zeros(n_weights)
        self.w_history = [] if n_weights <= W_HISTORY_LIMIT else None
        self.final_state = None

    def record(self, it, state: ModelState, energy, log_post, flags: dict):
        act, hyper = state.act, state.hyper
        self.table.append([it, *[getattr(act, name) for name in ACT_BOUNDS],
                           hyper.sigma2, hyper.lam_b, *hyper.lam.tolist(), energy,
                           log_post, *[flags.get(f, 0) for f in FLAG_FIELDS]])

    def accumulate_weights(self, w: list):
        flat = concat_weights(w)
        self.w_count += 1
        self.w_mean += (flat - self.w_mean) / self.w_count
        if self.w_history is not None:
            self.w_history.append(flat)

    def finalize(self):
        self.table = np.array(self.table, dtype=np.float64).reshape(-1, len(self.header))
        if self.w_history is not None:
            self.w_history = (np.asarray(self.w_history) if self.w_history
                              else np.zeros((0, self.w_mean.size)))
        return self

    def series(self, name: str) -> np.ndarray:
        """The column `name` of `header`."""
        if name not in self.header:
            raise KeyError(f"no trace column {name!r}")
        return self.table[:, self.header.index(name)]

    @property
    def iteration(self) -> np.ndarray:
        """The iteration column, float64 like every column of `table`."""
        return self.series("iteration")

    def parameter_names(self) -> list:
        """c, gamma, b, sigma2, lambda_b, lambda_1..L."""
        return self.header[1:self.header.index("energy")]

    def to_csv(self, path):
        """The table under its header; iteration and flags as integers,
        every other cell as repr(float), which parses back exactly."""
        ints = {0, *range(len(self.header) - len(FLAG_FIELDS), len(self.header))}
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(self.header)
            for row in self.table.tolist():
                wr.writerow([int(v) if j in ints else repr(v) for j, v in enumerate(row)])


# --- the sweep --------------------------------------------------------------


def _draw_ig(model, block, state, rng, it, layer=None):
    shape, scale = model.ig_params(block, state, layer)
    x = sample_inverse_gamma(shape, scale, rng) if 0.0 < scale < math.inf else scale
    if not 0.0 < x < math.inf:
        raise NumericalError(
            f"sweep {it}: {block} draw {x!r} from IG(shape {shape!r}, scale {scale!r}); "
            f"state dump: act={state.act.as_dict()}, hyper=(lam={state.hyper.lam!r}, "
            f"lam_b={state.hyper.lam_b!r}, sigma2={state.hyper.sigma2!r})")
    return x


def _activation_move(move, model, chain, subset, eta):
    """mh_step of activation parameter move.name on model.act_conditional."""
    st, block = chain.model, move.name
    value = getattr(st.act, block)
    current = (-chain.energy + model.act_log_prior(block, value, st), chain.energy)
    value, acc, (_, chain.energy) = mh_step(
        value, current, lambda v: model.act_conditional(block, v, st, subset),
        chain.rng, move.scale, *ACT_BOUNDS[block])
    if acc:
        st.act = replace(st.act, **{block: value})
    move.proposed += 1
    move.accepted += acc
    if eta:
        move.scale *= math.exp(eta * (float(acc) - TARGET_ACCEPT_MH))
    return {f"accept_{block}": acc}


def _scale_draws(move, model, chain, subset, eta):
    """Exact inverse-gamma draws of sigma2, lambda_b and each lambda_l."""
    st, rng, it = chain.model, chain.rng, chain.iteration
    st.hyper.sigma2 = _draw_ig(model, "sigma2", st, rng, it)
    st.hyper.lam_b = _draw_ig(model, "lambda_b", st, rng, it)
    for l in range(model.net.n_layers):
        st.hyper.lam[l] = _draw_ig(model, "lambda_l", st, rng, it, layer=l)
    return {}


def _weight_move(move, model, chain, subset, eta, n_leapfrog):
    """nshmc_step of the flat weight vector; a burn-in divergence halves the step."""
    if model.net.n_weights == 0:
        return {}
    st, lengths = chain.model, model.net.weight_lengths

    def energy_grad(qv):
        # a failed or non-finite evaluation reads as an infinite energy
        # and a NaN gradient, which the trajectory reports as divergent
        try:
            e, gw = model.energy_grad(split_weights(qv, lengths), st.act, subset)
        except NumericalError:
            return np.inf, np.full(qv.shape, np.nan)
        return (e if np.isfinite(e) else np.inf), concat_weights(gw)

    q1, info = nshmc_step(concat_weights(st.w), chain.rng, energy_grad,
                          np.repeat(st.hyper.lam, lengths), move.scale, n_leapfrog)
    if info["accepted"]:
        st.w = split_weights(q1, lengths)
        chain.energy = info["energy"]
    move.proposed += 1
    move.accepted += info["accepted"]
    chain.divergences += info["divergent"]
    if eta:
        move.scale *= (0.5 if info["divergent"]
                       else math.exp(eta * (info["accept_prob"] - TARGET_ACCEPT_HMC)))
    return {"accept_w": info["accepted"], "divergent": info["divergent"]}


def default_moves(cfg: SamplerConfig) -> list:
    """The sweep's moves in order: c, gamma and b (the same three moves
    scalar_subsweeps times over), the exact scale draws, the weight HMC."""
    act = [Move(block, _activation_move, MH_SCALE) for block in ACT_BOUNDS]
    return [*act * cfg.scalar_subsweeps, Move("scales", _scale_draws),
            Move("w", partial(_weight_move, n_leapfrog=cfg.leapfrog_steps), cfg.step_size)]


def gibbs_sweep(model: BayesModel, chain: ChainState, cfg: SamplerConfig,
                adapting: bool) -> dict:
    """One sweep: each of chain.moves in turn, on one row subset when
    cfg.batch_size is set; mutates chain.  chain.energy carries the current
    point's data energy between moves, so each evaluates its candidate
    only.  Returns the trace flags; raises NumericalError with a state dump
    if a conditional degenerates."""
    subset = None
    if cfg.batch_size is not None and cfg.batch_size < model.n_data:
        subset = chain.rng.choice(model.n_data, size=cfg.batch_size, replace=False)
    if subset is not None or not np.isfinite(chain.energy):
        # any block's conditional at its current value carries the energy
        # of the current point, guarded, on this sweep's rows
        _, chain.energy = model.act_conditional("c", chain.model.act.c, chain.model, subset)

    eta = (chain.iteration + 1) ** -0.6 if adapting else 0.0
    flags = {}
    for move in chain.moves:
        flags.update(move.step(move, model, chain, subset, eta))
    chain.iteration += 1
    return flags


# --- chain drivers -----------------------------------------------------------


def run_chain(model: BayesModel, cfg: SamplerConfig, rng: np.random.Generator,
              chain_id: int = 0, callback=None, moves=default_moves) -> ChainTrace:
    """Drive one chain for cfg.n_sweeps sweeps and return its trace.

    moves(cfg) gives the chain's own list of moves, the sweep in order.
    callback(sweep, chain) runs after every sweep (metrics hooks); it must
    not touch chain.rng or the trajectory changes.
    """
    cfg.validate()
    st = init_state(model.net, rng)
    chain = ChainState(model=st, rng=rng, moves=moves(cfg))
    trace = ChainTrace(chain_id, model.net.n_layers, model.net.n_weights)

    for sweep in range(cfg.n_sweeps):
        adapting = cfg.adapt and sweep < cfg.burn_in
        flags = gibbs_sweep(model, chain, cfg, adapting)
        if sweep % cfg.thin == 0:
            lp = model.prior_logdensity(st)
            lp = lp - chain.energy if lp != -np.inf else lp
            trace.record(sweep, st, chain.energy, lp, flags)
            if sweep >= cfg.burn_in:
                trace.accumulate_weights(st.w)
        if callback is not None:
            callback(sweep, chain)

    trace.final_state = st.copy()
    trace.accept_rates = chain.accept_rates()
    trace.divergences = chain.divergences
    return trace.finalize()


def run_chains(model: BayesModel, cfg: SamplerConfig, seed: int, callback=None,
               moves=default_moves) -> list:
    """Independent chains from one seed: per-chain RNG streams are spawned
    from a root SeedSequence so chain k is reproducible in isolation, and
    each chain builds its own moves(cfg), so no adapted scale is shared."""
    cfg.validate()
    root = np.random.SeedSequence(seed)
    traces = []
    for k, child in enumerate(root.spawn(cfg.n_chains)):
        rng = np.random.Generator(np.random.PCG64(child))
        cb = (lambda sweep, chain, k=k: callback(k, sweep, chain)) if callback else None
        traces.append(run_chain(model, cfg, rng, chain_id=k, callback=cb, moves=moves))
    return traces


# --- estimators --------------------------------------------------------------


def estimate(traces) -> ModelState:
    """Pool the chains' post-burn-in draws into the MMSE point estimate.

    A chain accumulates its weights from the run's burn-in onward, so its
    last w_count rows are its post-burn-in window: each parameter column
    is averaged over those rows of every chain, and the per-chain running
    weight means are pooled by their counts.  The flat mean is split by
    the layer sizes of the chains' final weights.
    """
    if not traces:
        raise ValueError("need at least one trace")
    rows = np.concatenate([t.table[len(t.table) - t.w_count:] for t in traces])
    if not len(rows):
        raise ValueError("no post-burn-in samples: no chain recorded a sweep "
                         "at or after its burn-in")
    header = traces[0].header

    def mean_of(name):
        return float(np.mean(rows[:, header.index(name)]))

    n = 0
    mean = np.zeros_like(traces[0].w_mean)
    for t in traces:
        if t.w_count:
            n += t.w_count
            mean = mean + (t.w_mean - mean) * (t.w_count / n)
    sizes = [w.size for w in traces[0].final_state.w]
    lam = [mean_of(f"lambda_{l + 1}") for l in range(len(sizes))]
    return ModelState(split_weights(mean, sizes),
                      ActivationParams(**{name: mean_of(name) for name in ACT_BOUNDS}),
                      HyperState(lam=lam, lam_b=mean_of("lambda_b"), sigma2=mean_of("sigma2")))
