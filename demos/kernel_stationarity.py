"""The weight move on targets with known answers.

The weight sampler splits the potential into a smooth part (handled by
leapfrog on its gradient) and an l1 part (handled by soft-thresholding
inside each position update), then applies a Metropolis correction. Two
sanity targets show it leaves the right laws invariant:

  1. pure l1, no smooth part: draws should follow a double exponential;
  2. pure Gaussian with the l1 part switched off (huge scale): draws
     should reproduce a correlated covariance.

Run: python3 demos/kernel_stationarity.py   (about 20 seconds)
"""

import numpy as np

from gibbsnn.samplers import nshmc_step


def double_exponential():
    scale = 0.7
    rng = np.random.default_rng(0)
    q = np.array([0.3])
    n = 50000
    draws = np.empty(n)
    accepted = 0
    for i in range(n):
        q, info = nshmc_step(q, rng, lambda v: (0.0, np.zeros_like(v)),
                             scale, 0.4, 8)
        accepted += info["accepted"]
        draws[i] = q[0]
    print("double exponential, scale 0.7:")
    print(f"  mean {draws.mean():+.4f} (want 0), "
          f"mean |x| {np.abs(draws).mean():.4f} (want {scale})")
    print(f"  acceptance rate {accepted / n:.2f}")


def correlated_gaussian():
    A = np.array([[1.0, 0.0, 0.0], [0.4, 0.8, 0.0], [-0.3, 0.2, 0.6]])
    S = A @ A.T
    P = np.linalg.inv(S)
    rng = np.random.default_rng(1)
    q = np.zeros(3)
    n = 50000
    xs = np.empty((n, 3))
    for i in range(n):
        # l1 scale 1e15 turns the soft-threshold into the identity
        q, _ = nshmc_step(q, rng, lambda v: (0.5 * float(v @ P @ v), P @ v),
                          1e15, 0.6, 8)
        xs[i] = q
    C = np.cov(xs.T)
    err = np.max(np.abs(C - S)) / np.max(np.abs(S))
    print("\ncorrelated 3-d gaussian:")
    print("  target covariance diag:", np.round(np.diag(S), 3))
    print("  sampled covariance diag:", np.round(np.diag(C), 3))
    print(f"  max entry error {err:.4f} relative to max |S|")


if __name__ == "__main__":
    double_exponential()
    correlated_gaussian()
