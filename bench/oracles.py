"""Computations made apart from malalab, against which the benchmark checks it.

Nothing here imports malalab. Each function restates its formula from the
mathematics, in its own code, so that a fault in the program cannot hide in
the reference:

* ``gaussian_mean_acceptance`` -- E_x E_y min(1, a) for MALA on the standard
  Gaussian, exactly, from noncentral chi-square CDFs and a 1-D quadrature.
* ``adversarial_mean_acceptance`` -- a Monte-Carlo estimate of the same
  quantity on the cosine-perturbed target, from exact marginal draws by
  rejection from N(0, 1) and a hand-written MALA log ratio.
* ``marginal_second_moment`` -- E x^2 under the 1-D marginal, by quadrature.
* ``mix_steps`` -- the sliced-TV mixing step count of a hand-written Gaussian
  MALA, with the KS distance taken against ``scipy.stats.norm.cdf``.

The Monte-Carlo references are expensive, so they are stored in
``reference.json``; ``python3 bench/oracles.py`` recomputes that file.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy import integrate, stats

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Inputs of the stored references; the workloads use the same values.
ETA = 0.2
COLLAPSE_DIMS = (2**12, 2**14)
MIX_D = 64
MIX_EPS = 0.05
MIX_REPLICAS = 4096
MIX_MAX_STEPS = 2000


def gaussian_mean_acceptance(d: int, h: float) -> float:
    """Exact E_x E_y min(1, a) for MALA on N(0, I_d), x ~ N(0, I_d).

    On this target log a = (h/4)(|x|^2 - |y|^2) with y ~ N((1-h)x, 2h I).
    Given r = |x|^2, S = |y|^2/(2h) is noncentral chi-square with d degrees
    of freedom and noncentrality lam = (1-h)^2 r/(2h); a >= 1 iff S <= c =
    r/(2h), and on S > c, a = e^{hr/4} e^{-tS} with t = h^2/2. Tilting by
    e^{-tS} maps S to a (1+2t)^{-1}-scaled noncentral chi-square with
    noncentrality lam/(1+2t)^2 and weight (1+2t)^{-d/2} e^{-lam t/(1+2t)}.
    The outer expectation over r ~ chi-square(d) is a 1-D quadrature.
    """
    t = 0.5 * h * h

    def inner(r):
        c = r / (2.0 * h)
        lam = (1.0 - h) ** 2 * r / (2.0 * h)
        log_weight = h * r / 4.0 - 0.5 * d * math.log1p(2.0 * t) - lam * t / (1.0 + 2.0 * t)
        tail = stats.ncx2.sf(c * (1.0 + 2.0 * t), d, lam / (1.0 + 2.0 * t))
        return stats.ncx2.cdf(c, d, lam) + math.exp(log_weight) * tail

    spread = math.sqrt(2.0 * d)
    value, _ = integrate.quad(lambda r: inner(r) * stats.chi2.pdf(r, d),
                              d - 12.0 * spread, d + 14.0 * spread,
                              epsabs=1e-10, epsrel=1e-10, limit=200)
    return value


def _marginal_draws(n: int, d: int, eta: float, rng) -> np.ndarray:
    """n x d exact draws from pi_1 ∝ exp(-t^2/2 + amp cos(w t)) by rejection.

    Proposal N(0, 1); acceptance probability exp(amp (cos(w t) - 1)) <= 1.
    """
    amp = 0.5 * d ** (-2.0 * eta)
    w = d**eta
    out = np.empty(n * d)
    filled = 0
    while filled < out.size:
        t = rng.standard_normal(2 * (out.size - filled) + 64)
        keep = t[rng.random(t.size) < np.exp(amp * (np.cos(w * t) - 1.0))]
        take = min(keep.size, out.size - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out.reshape(n, d)


def adversarial_mean_acceptance(d: int, h: float, n_states: int, n_mc: int, seed: int):
    """(estimate, standard error) of E_x E_y min(1, a) on the perturbed target.

    V(x) = sum_i x_i^2/2 - amp cos(w x_i) with amp = d^{-2 eta}/2, w = d^eta.
    The log ratio is log pi(y) q(y -> x) - log pi(x) q(x -> y) with the
    Langevin proposal density q(x -> y) ∝ exp(-|y - x + h grad V(x)|^2/(4h)).
    The standard error is that of the per-state means.
    """
    amp = 0.5 * d ** (-2.0 * ETA)
    w = d**ETA
    rng = np.random.default_rng(seed)

    def potential(z):
        return 0.5 * np.sum(z * z, axis=-1) - amp * np.sum(np.cos(w * z), axis=-1)

    def drift(z):
        return z - h * (z + amp * w * np.sin(w * z))

    per_state = np.empty(n_states)
    for i, x in enumerate(_marginal_draws(n_states, d, ETA, rng)):
        y = drift(x) + math.sqrt(2.0 * h) * rng.standard_normal((n_mc, d))
        log_q_forward = -np.sum((y - drift(x)) ** 2, axis=-1) / (4.0 * h)
        log_q_backward = -np.sum((x - drift(y)) ** 2, axis=-1) / (4.0 * h)
        log_a = (potential(x) - potential(y)) + log_q_backward - log_q_forward
        per_state[i] = np.mean(np.exp(np.minimum(log_a, 0.0)))
    return float(per_state.mean()), float(per_state.std(ddof=1) / math.sqrt(n_states))


def marginal_second_moment(amp: float, w: float) -> float:
    """E x^2 under the 1-D density ∝ exp(-x^2/2 + amp cos(w x)), by quadrature."""
    def density(x):
        return math.exp(-0.5 * x * x + amp * math.cos(w * x))

    z, _ = integrate.quad(density, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
    m2, _ = integrate.quad(lambda x: x * x * density(x), -np.inf, np.inf,
                           epsabs=1e-13, epsrel=1e-12)
    return m2 / z


def theorem1_step(d: int, eps: float, c: float = 0.1) -> float:
    """h = c / (sqrt(d) log(d / eps)): the theorem1 rule on N(0, I), where
    alpha = beta = kappa = 1 and the warmness constant M0 is 1."""
    return c / (math.sqrt(d) * math.log(d / eps))


def mix_steps(seed: int, d: int = MIX_D, eps: float = MIX_EPS,
              n: int = MIX_REPLICAS, max_steps: int = MIX_MAX_STEPS) -> int:
    """First step at which n Gaussian MALA chains from N(0, I/2) get their
    largest per-coordinate KS distance to N(0, 1) to eps or below."""
    h = theorem1_step(d, eps)
    rng = np.random.default_rng(seed)
    ecdf_hi = np.arange(1, n + 1)[:, None] / n
    ecdf_lo = np.arange(0, n)[:, None] / n

    def ks(X):
        F = stats.norm.cdf(np.sort(X, axis=0))
        return max(float(np.max(ecdf_hi - F)), float(np.max(F - ecdf_lo)))

    X = math.sqrt(0.5) * rng.standard_normal((n, d))
    if ks(X) <= eps:
        return 0
    for step in range(1, max_steps + 1):
        Y = (1.0 - h) * X + math.sqrt(2.0 * h) * rng.standard_normal((n, d))
        # On N(0, I) the MALA log ratio reduces to (h/4)(|x|^2 - |y|^2).
        log_a = 0.25 * h * (np.sum(X * X, axis=1) - np.sum(Y * Y, axis=1))
        accept = np.log(rng.random(n)) < log_a
        X[accept] = Y[accept]
        if ks(X) <= eps:
            return step
    return max_steps


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compute_reference(n_states: int = 4000, n_mc: int = 48, mix_seeds: int = 80) -> dict:
    """Recompute the stored Monte-Carlo references (about 15 minutes on 1 core)."""
    collapse = {}
    for k, d in enumerate(COLLAPSE_DIMS):
        value, se = adversarial_mean_acceptance(d, d**-0.4, n_states, n_mc, seed=90_000 + k)
        collapse[str(d)] = {"value": value, "std_error": se}
        print(f"adversarial d={d}: {value:.5f} ± {se:.5f}", file=sys.stderr)
    steps = []
    for s in range(mix_seeds):
        steps.append(mix_steps(seed=80_000 + s))
        print(f"mix seed {80_000 + s}: {steps[-1]} steps", file=sys.stderr)
    return {
        "collapse_adversarial": {
            "eta": ETA, "h": "d^-0.4", "n_states": n_states, "n_mc": n_mc,
            "seeds": [90_000 + k for k in range(len(COLLAPSE_DIMS))],
            "by_d": collapse,
        },
        "mix_steps": {
            "d": MIX_D, "eps": MIX_EPS, "n_replicas": MIX_REPLICAS, "start": "N(0, I/2)",
            "h": theorem1_step(MIX_D, MIX_EPS),
            "seeds": [80_000 + s for s in range(mix_seeds)], "steps": steps,
        },
    }


if __name__ == "__main__":
    ref = compute_reference()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
