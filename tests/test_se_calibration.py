"""Standard errors checked against exact answers.

Every statistical gate of the lab is a few reported standard errors wide, so
an SE that reads too small makes a gate too tight and one that reads too
large hides a fault. Each case runs an estimator over K fresh seeds at a small
configuration and forms z = (estimate − exact) / SE. If the SE is right, z
has mean 0 and variance 1: mean z must lie within 4/√K of 0, and the sample
variance of z inside two-sided chi-square(K − 1) bounds at level 1e-4.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
from scipy import stats

import pytest

from malalab.diagnostics import acceptance_at, mean_acceptance
from malalab.potentials import gaussian
from malalab.rng import substream

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_oracles():
    # Read-only use of the benchmark's exact references; oracles.py imports
    # no malalab, so its formula is written apart from the program.
    spec = importlib.util.spec_from_file_location("bench_oracles", BENCH / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_calibrated(z):
    k = len(z)
    assert abs(np.mean(z)) <= 4.0 / math.sqrt(k), np.mean(z)
    low, high = stats.chi2.ppf([0.5e-4, 1.0 - 0.5e-4], k - 1) / (k - 1)
    assert low <= np.var(z, ddof=1) <= high, np.var(z, ddof=1)


def test_mean_acceptance_se_against_the_exact_gaussian_value():
    # N(0, I_512) at h = d^-0.4, 64 states × 16 proposals, K = 200 seeds.
    # The exact value is the noncentral chi-square integral (valid for d >= 288);
    # the typical-set filter drops a state with probability below 1/(4d).
    d, k = 512, 200
    h = d**-0.4
    exact = _bench_oracles().gaussian_mean_acceptance(d, h)
    z = []
    for seed in range(120_000, 120_000 + k):
        est = mean_acceptance(gaussian(d), h, 64, 16, seed=seed).estimate
        z.append((est.value - exact) / est.std_error)
    _assert_calibrated(np.array(z))


def _gaussian_acceptance_at(x, h):
    """Exact A(x) on N(0, I_d). With r = ||x||², S = ||y||²/2h is noncentral
    chi-square(d, λ), λ = (1−h)²r/2h, and log a = hr/4 − tS with t = h²/2. So
    a >= 1 exactly when S <= c = r/2h, and e^{−tS} tilts S into (1+2t)^{−1}
    times a noncentral chi-square(d, λ/(1+2t)), with weight
    w = exp(hr/4 − λt/(1+2t))·(1+2t)^{−d/2}."""
    d, r = len(x), float(x @ x)
    c, lam, t = r / (2 * h), (1 - h) ** 2 * r / (2 * h), h * h / 2
    w = math.exp(h * r / 4 - lam * t / (1 + 2 * t)) * (1 + 2 * t) ** (-d / 2)
    return stats.ncx2.cdf(c, d, lam) + w * stats.ncx2.sf(c * (1 + 2 * t), d, lam / (1 + 2 * t))


@pytest.mark.parametrize("d", [64, 512])
def test_acceptance_at_se_against_the_exact_gaussian_value(d):
    # One fixed state, h = d^-0.4, 256 proposals, K = 200 seeds.
    k, h = 200, d**-0.4
    x = substream(121_000, "state", d).standard_normal(d)
    exact = _gaussian_acceptance_at(x, h)
    z = []
    for seed in range(121_000, 121_000 + k):
        est = acceptance_at(gaussian(d), h, x, 256, seed=seed)
        z.append((est.value - exact) / est.std_error)
    _assert_calibrated(np.array(z))
