"""Convergence and mixing diagnostics: ESS, split-Rhat, summaries.

ESS uses the FFT autocovariance with Geyer's initial-positive-sequence
truncation; split-Rhat is the Gelman-Rubin statistic over half-chains.
Summaries report mean, std, 5%/95% quantiles (linear interpolation), ESS,
and Rhat per parameter, over the post-burn-in window.
"""

import csv

import numpy as np

from .errors import FormatError
from .samplers import FLAG_FIELDS, ChainTrace

# a perfectly antithetic series has unbounded nominal ESS; reports cap here
ESS_CAP_FACTOR = 10.0


def autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased-normalization autocovariance at all lags, via FFT."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n]
    return acov / n


def ess(series) -> float:
    """Effective sample size of one scalar series.

    n / (-1 + 2 * sum of leading positive autocorrelation pair sums
    rho[2m] + rho[2m+1]), truncated at the first non-positive pair.  A
    constant series reports ess = n (zero-autocorrelation convention); an
    antithetic series can exceed n and is capped at 10 n.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 10:
        raise ValueError(f"series too short for ess: {n} < 10")
    acov = autocovariance(x)
    if acov[0] <= 0.0 or not np.isfinite(acov[0]):
        return float(n)
    rho = acov / acov[0]
    tau = -1.0
    m = 0
    while m + 1 < n:
        pair = rho[m] + rho[m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 2
    cap = ESS_CAP_FACTOR * n
    if tau <= 0.0:
        return float(cap)
    return float(min(n / tau, cap))


SPLIT_RHAT_MIN_ROWS = 4  # two draws per half-chain for a within variance


def split_rhat(chains) -> float:
    """Gelman-Rubin potential scale reduction over split half-chains.

    Needs >= 2 chains of equal length >= SPLIT_RHAT_MIN_ROWS.  Every chain
    is split in half, so stuck-then-moved single chains are penalized too.
    All-constant input returns exactly 1.0 (the zero-variance convention).
    """
    seqs = [np.asarray(c, dtype=np.float64) for c in chains]
    if len(seqs) < 2:
        raise ValueError(f"split_rhat needs >= 2 chains, got {len(seqs)}")
    n = min(s.size for s in seqs)
    if n < SPLIT_RHAT_MIN_ROWS:
        raise ValueError(f"chains too short for split_rhat: {n} < {SPLIT_RHAT_MIN_ROWS}")
    half = n // 2
    parts = []
    for s in seqs:
        parts.append(s[:half])
        parts.append(s[half:2 * half])
    psi = np.stack(parts)  # (m, half)
    m = psi.shape[0]
    chain_means = psi.mean(axis=1)
    w = float(np.mean(np.var(psi, axis=1, ddof=1)))
    b = half * float(np.var(chain_means, ddof=1))
    # variance at accumulated-rounding scale counts as constant too
    dust = 1e-28 * float(np.mean(psi * psi))
    if w <= dust and b <= dust:
        return 1.0
    if w <= 0.0:
        return 1.0
    var_plus = (half - 1) / half * w + b / half
    return float(np.sqrt(var_plus / w))


def summarize(traces, burn_in: int = 0) -> list:
    """Per-parameter summary rows over the post-burn-in window.

    traces: a ChainTrace or list of them.  Returns a list of dicts with
    keys: parameter, mean, std, q5, q95, ess, rhat, n.  Rhat is NaN with a
    single chain.  Raises if the post-burn-in window is empty.
    """
    if isinstance(traces, ChainTrace):
        traces = [traces]
    if not traces:
        raise ValueError("no traces given")
    keep = [t.iteration >= burn_in for t in traces]
    if any(int(k.sum()) == 0 for k in keep):
        raise ValueError(f"empty post-burn-in window at burn_in={burn_in}")

    rows = []
    for name in traces[0].parameter_names():
        per_chain = [t.series(name)[k] for t, k in zip(traces, keep)]
        pooled = np.concatenate(per_chain)
        row = {
            "parameter": name,
            "mean": float(np.mean(pooled)),
            "std": float(np.std(pooled)),
            "q5": float(np.quantile(pooled, 0.05)),
            "q95": float(np.quantile(pooled, 0.95)),
            "ess": float(sum(ess(c) for c in per_chain)) if all(
                c.size >= 10 for c in per_chain) else float("nan"),
            "rhat": split_rhat(per_chain) if len(per_chain) >= 2 else float("nan"),
            "n": int(pooled.size),
        }
        rows.append(row)
    return rows


REPORT_FIELDS = ("parameter", "mean", "std", "q5", "q95", "ess", "rhat", "n")


def write_report(rows, path):
    """Diagnostic report CSV, one row per parameter."""
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        wr.writeheader()
        for row in rows:
            wr.writerow({k: row[k] for k in REPORT_FIELDS})


def load_trace(path) -> ChainTrace:
    """Read a trace CSV written by ChainTrace.to_csv back into a trace.

    A missing flag column reads as 0.  A missing column of any other
    kind, a non-numeric or missing cell, or a file without rows raises
    FormatError.  Weight accumulators are not part of the CSV and come
    back empty.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) < 2:
        raise FormatError(f"{path}: no trace rows")
    header = rows[0]
    n_layers = sum(1 for h in header if h.startswith("lambda_") and h != "lambda_b")
    trace = ChainTrace(0, n_layers, 0)
    missing = [h for h in trace.header if h not in header and h not in FLAG_FIELDS]
    if missing:
        raise FormatError(f"{path}: missing trace columns {missing}")
    cols = [header.index(h) if h in header else None for h in trace.header]
    try:
        trace.table = [[0.0 if j is None else float(row[j]) for j in cols]
                       for row in rows[1:]]
    except (IndexError, ValueError) as exc:
        raise FormatError(f"{path}: bad trace row: {exc}") from None
    return trace.finalize()
