"""Oracle and exact-testbed verification suite behind ``malalab verify``.

Each check produces a :class:`CheckResult` row (name, measured value, bound,
slack, passed); the suite passes iff every slack is nonnegative. Checks fall
into three groups:

* closed forms against independent quadrature and rate bounds for the 1-D
  oracle layer;
* kernel identities (Gaussian closed-form acceptance, antisymmetry, direct
  density-ratio oracle) plus quick distributional sanity checks;
* the exact finite-chain suite (metropolization, projection inequalities,
  Cheeger sandwich, warmness and mixing bounds) on seeded random instances.

Exact identities are gated at tight absolute tolerances. Distributional
z-score checks are gated at 4 standard errors rather than 3 so that the
suite exits 0 across arbitrary seeds (the statistical acceptance criteria
proper live in the test suite with their specified 3-SE margins and pinned
seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, finite_chain, kernels, oracle1d
from .potentials import adversarial_cosine, gaussian
from .rng import substream

Z_GATE = 4.0


@dataclass(frozen=True)
class CheckResult:
    """One verification row; passes iff slack >= 0."""

    name: str
    value: float
    bound: float
    slack: float

    @property
    def passed(self) -> bool:
        """slack >= 0; a NaN slack fails."""
        return self.slack >= 0.0


def _leq(name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(name, float(value), float(bound), float(bound - value))


def _geq(name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(name, float(value), float(bound), float(value - bound))


# ---------------------------------------------------------------------------
# oracle layer


def oracle_checks(seed: int) -> list[CheckResult]:
    rows: list[CheckResult] = []
    gauss = gaussian(1)

    rows.append(_leq(
        "oracle_quad_normalization_gaussian",
        abs(oracle1d.quad_expectation(gauss, lambda x: 1.0) - 1.0), 1e-10,
    ))
    rows.append(_leq(
        "oracle_quad_second_moment_gaussian",
        abs(oracle1d.quad_expectation(gauss, lambda x: x * x) - 1.0), 1e-10,
    ))
    rows.append(_leq(
        "oracle_quad_cos_characteristic",
        abs(oracle1d.quad_expectation(gauss, lambda x: math.cos(2.0 * x))
            - math.exp(-2.0)),
        1e-9,
    ))
    rows.append(_leq(
        "oracle_norm_const_gaussian",
        abs(oracle1d.normalizing_constant(gauss) - oracle1d.SQRT_2PI), 1e-10,
    ))
    rows.append(_geq(
        "oracle_norm_const_adversarial_exceeds_gaussian",
        oracle1d.normalizing_constant(adversarial_cosine(256, 0.2))
        - oracle1d.SQRT_2PI,
        0.0,
    ))

    # Closed-form trig moments against quadrature over the Gaussian profile.
    worst = 0.0
    params = [(a, b, g, d)
              for a, b in ((0.3, 0.5), (1.1, 0.8))
              for g, d in ((0.2, 64), (0.25, 256))]
    for ell in range(5):
        for a, b, g, d in params:
            w = b * d**g
            closed = oracle1d.trig_sin_moment(ell, a, b, g, d)
            quad = oracle1d.quad_expectation(
                gauss, lambda x, ell=ell, a=a, w=w: x**ell * math.sin(a + w * x)
            )
            worst = max(worst, abs(closed - quad))
    rows.append(_leq("oracle_trig_moment_vs_quadrature", worst, 1e-8))

    # Decay once the phase coefficient is large: fit C on the smallest d,
    # require |moment| <= C/d for all larger d.
    ell, a, b, g = 2, 0.4, 1.0, 0.3
    ds = [2**k for k in range(8, 15, 2)]
    ds = [d for d in ds if b * d**g >= 5.0]
    c_fit = abs(oracle1d.trig_sin_moment(ell, a, b, g, ds[0])) * ds[0]
    worst = max(
        abs(oracle1d.trig_sin_moment(ell, a, b, g, d)) - c_fit / d for d in ds[1:]
    )
    rows.append(_leq("oracle_trig_moment_decay", worst, 0.0))

    # Rates for the perturbed marginal at eta = 0.2.
    eta = 0.2
    worst_z, worst_m2, worst_kl, min_kl = 0.0, 0.0, 0.0, math.inf
    for k in range(8, 17, 2):
        d = 2**k
        p = adversarial_cosine(d, eta)
        rate = d ** (-4.0 * eta)
        z = oracle1d.normalizing_constant(p)
        worst_z = max(worst_z, abs(z / oracle1d.SQRT_2PI - 1.0) / rate)
        m2 = oracle1d.quad_expectation(p, lambda x: x * x)
        worst_m2 = max(worst_m2, abs(m2 - 1.0) / rate)
        kl = oracle1d.kl_gaussian_vs_adversarial(eta, d)
        worst_kl = max(worst_kl, kl / d ** (1.0 - 4.0 * eta))
        min_kl = min(min_kl, kl)
    rows.append(_leq("oracle_norm_const_rate", worst_z, 2.0))
    rows.append(_leq("oracle_second_moment_sandwich", worst_m2, 2.0))
    rows.append(_leq("oracle_kl_rate", worst_kl, 2.0))
    rows.append(_geq("oracle_kl_nonnegative", min_kl, -1e-8))

    p = adversarial_cosine(2**14, eta)
    ratio = oracle1d.quad_expectation(p, lambda x: math.cos(p.w * x)) / (0.5 * p.amp)
    rows.append(_leq("oracle_expected_cos_ratio_high", ratio, 1.2))
    rows.append(_geq("oracle_expected_cos_ratio_low", ratio, 0.8))

    # Per-coordinate acceptance factor (the y-dependent part of the MALA log
    # ratio): quadrature vs a Monte-Carlo average of the same integrand, which
    # checks the quadrature rather than the formula. Criterion 7 of the
    # acceptance suite caps F's second-order remainder at the same amplitude.
    d = 4096
    h = d**-0.4
    x1 = -2.0 * math.sqrt(math.log(8.0 * d))
    quad_val = oracle1d.coordinate_factor(x1, h, eta, d)
    target = adversarial_cosine(d, eta)
    amp, w = target.amp, target.w
    rng_cf = substream(seed, "verify", "coordinate-factor")
    n_cf = 200_000
    y = ((1.0 - h) * x1 / (1.0 + h * h)
         + math.sqrt(2.0 * h / (1.0 + h * h)) * rng_cf.standard_normal(n_cf))
    mc_vals = np.exp(oracle1d._coordinate_exponent(
        y, x1, h, amp, w, np.sin(w * y), np.cos(w * y)))
    z = abs(quad_val - float(mc_vals.mean())) / (
        float(mc_vals.std(ddof=1)) / math.sqrt(n_cf)
    )
    rows.append(_leq("oracle_coordinate_factor_mc_zscore", z, Z_GATE))

    rows.append(_leq(
        "oracle_gaussian_tv_closed_form",
        abs(oracle1d.gaussian_tv_equal_cov(2.0, 1.0)
            - (2.0 * 0.8413447460685429 - 1.0)),
        1e-12,
    ))

    table = oracle1d.inverse_cdf_table(adversarial_cosine(256, eta))
    us = np.linspace(0.01, 0.99, 99)
    rows.append(_leq(
        "oracle_inverse_cdf_roundtrip",
        float(np.max(np.abs(table.cdf_at(table.inverse(us)) - us))), 1e-6,
    ))
    gauss_table = oracle1d.inverse_cdf_table(gauss)
    rows.append(_leq(
        "oracle_inverse_cdf_median", abs(gauss_table.inverse(0.5)), 1e-8,
    ))

    p = adversarial_cosine(1024, eta)
    rows.append(_leq(
        "oracle_quad_self_consistency",
        abs(oracle1d.quad_expectation(p, lambda x: x * x, tol=1e-8)
            - oracle1d.quad_expectation(p, lambda x: x * x, tol=5e-9)),
        1e-8,
    ))
    return rows


# ---------------------------------------------------------------------------
# kernel identities


def _direct_density_log_ratio(p, h, x, y):
    """log a from explicit Gaussian proposal log densities (oracle path)."""
    fwd = diagnostics.isotropic_gaussian_logpdf(y, x - h * p.grad(x), 2.0 * h)
    bwd = diagnostics.isotropic_gaussian_logpdf(x, y - h * p.grad(y), 2.0 * h)
    return (-p.value(y) + bwd) - (-p.value(x) + fwd)


def kernel_checks(seed: int, corrupt_accept: bool = False) -> list[CheckResult]:
    """Kernel identity rows; ``corrupt_accept`` adds 0.05 to each log ratio read."""
    def corrupted(p, h, x, y):
        return kernels.log_accept_ratio(p, h, x, y) + 0.05

    ratio = corrupted if corrupt_accept else kernels.log_accept_ratio
    rows: list[CheckResult] = []

    d, h = 16, 0.3
    rng = substream(seed, "verify", "pairs")
    X = rng.standard_normal((10_000, d))
    Y = rng.standard_normal((10_000, d))
    p_gauss = gaussian(d)
    vals = np.array([ratio(p_gauss, h, x, y) for x, y in zip(X[:200], Y[:200])])
    closed = (h / 4.0) * (np.sum(X[:200] ** 2, axis=1) - np.sum(Y[:200] ** 2, axis=1))
    batched = ratio(p_gauss, h, X, Y)
    closed_all = (h / 4.0) * (np.sum(X**2, axis=1) - np.sum(Y**2, axis=1))
    rows.append(_leq(
        "log_accept_gaussian_closed_form",
        max(float(np.max(np.abs(vals - closed))),
            float(np.max(np.abs(batched - closed_all)))),
        1e-9,
    ))

    p_adv = adversarial_cosine(d, 0.2)
    worst = 0.0
    for p in (p_gauss, p_adv):
        fwd = np.asarray(ratio(p, h, X, Y))
        bwd = np.asarray(ratio(p, h, Y, X))
        worst = max(worst, float(np.max(np.abs(fwd + bwd))))
    rows.append(_leq("log_accept_antisymmetry", worst, 1e-13))

    d8 = 8
    p8 = adversarial_cosine(d8, 0.2)
    rng8 = substream(seed, "verify", "density-oracle")
    worst = 0.0
    for _ in range(200):
        x = rng8.standard_normal(d8)
        y = rng8.standard_normal(d8)
        worst = max(worst, abs(ratio(p8, 0.17, x, y)
                               - _direct_density_log_ratio(p8, 0.17, x, y)))
    rows.append(_leq("log_accept_density_oracle", worst, 1e-9))

    rng_a, X, mismatches = substream(seed, "verify", "atom"), np.full((30, d8), 2.0), 0
    for _ in range(10):
        X_new, accepted, _ = kernels.batch_mala_update(p8, 1.2, X, rng_a)
        moved = (X_new.view(np.int64) != X.view(np.int64)).any(axis=1)
        mismatches += int(np.sum(moved & ~accepted))
        X = X_new
    rows.append(_leq("mala_rejection_atom", float(mismatches), 0.0))

    # One-step stationarity on exact draws (z-gate at 4 SE).
    n = 20_000
    rng_s = substream(seed, "verify", "stationarity")
    Xs = rng_s.standard_normal((n, 8))
    p_g8 = gaussian(8)
    for _ in range(5):
        Xs, _, _ = kernels.batch_mala_update(p_g8, 0.3, Xs, rng_s)
    sq = Xs[:, 0] ** 2
    z = abs(float(sq.mean()) - 1.0) / (float(sq.std(ddof=1)) / math.sqrt(n))
    rows.append(_leq("mala_stationarity_zscore", z, Z_GATE))

    rng_ou = substream(seed, "verify", "ou")
    h_ou = 0.7
    y = kernels.ou_exact_step(h_ou, np.zeros((n, 1)), rng_ou)
    sq = y[:, 0] ** 2
    target = -math.expm1(-2.0 * h_ou)
    z = abs(float(sq.mean()) - target) / (float(sq.std(ddof=1)) / math.sqrt(n))
    rows.append(_leq("ou_exact_variance_zscore", z, Z_GATE))
    return rows


# ---------------------------------------------------------------------------
# finite-chain exact suite


def _draw_chain(rng) -> tuple:
    """pi and Q of a chain on 3–10 states, drawn as random_reversible_chain
    draws them."""
    return finite_chain._draw(int(rng.integers(3, 11)), rng, 1)


def _draw_triple(rng) -> tuple:
    """pi, Q and Qbar's proposal on 2–8 states, drawn as
    random_projection_triple draws them."""
    return finite_chain._draw(int(rng.integers(2, 9)), rng, 2)


def _by_size(draws: list, measure) -> list:
    """measure(pi, *matrices) on the stacked draws of each state count, one
    call per count; its per-chain outputs come back in draw order."""
    sizes = np.array([len(draw[0]) for draw in draws])
    out = []
    for n in np.unique(sizes):
        where = np.flatnonzero(sizes == n)
        values = measure(*map(np.stack, zip(*(draws[i] for i in where))))
        out = out or [np.empty((len(draws), *np.shape(v)[1:])) for v in values]
        for column, v in zip(out, values):
            column[where] = v
    return out


def _chain_measures(c: finite_chain.FiniteChain):
    """Per chain of a stack: detailed-balance and stationarity errors, the
    slacks gap − Φ²/8 and 2Φ − gap of both Cheeger inequalities, and the
    spectral quantities."""
    sp = finite_chain.spectral_quantities(c)
    return (finite_chain.detailed_balance_error(c.T, c.pi),
            np.max(np.abs((c.pi[:, None] @ c.T)[:, 0] - c.pi), axis=1),
            sp.gap - sp.conductance**2 / 8.0, 2.0 * sp.conductance - sp.gap, sp)


def _warm_start_violations(c: finite_chain.FiniteChain, **spectral) -> tuple:
    """Warmness, chi-squared and Lovász violations over 50 steps from each
    chain's lightest state; ``spectral=`` is passed on to evolve_and_check."""
    mu0 = np.zeros_like(c.pi)
    mu0[np.arange(len(mu0)), np.argmin(c.pi, axis=1)] = 1.0
    rep = finite_chain.evolve_and_check(c, mu0, 50, **spectral)
    return rep.max_warm_violation, rep.max_chi2_violation, rep.max_lovasz_violation


def _projection_excess(pi, Q, other):
    """lhs − rhs of the global and worst pointwise projection inequality per
    triple (pi, Q, Qbar = metropolize(other, pi).T); all infinite when a
    faulty metropolize left a Qbar of the stack irreversible."""
    Qbar = finite_chain.metropolize(other, pi).T
    try:
        rep = finite_chain.projection_check(Q, Qbar, pi)
    except ValueError:
        return np.full(len(pi), math.inf), np.full(len(pi), math.inf)
    return rep.global_lhs - rep.global_rhs, np.max(rep.state_lhs - rep.state_rhs, axis=1)


def finite_chain_checks(seed: int) -> list[CheckResult]:
    rows: list[CheckResult] = []

    pi = np.array([2.0 / 3.0, 1.0 / 3.0])
    Q = np.full((2, 2), 0.5)
    chain = finite_chain.metropolize(Q, pi)
    expected_T = np.array([[0.75, 0.25], [0.5, 0.5]])
    rows.append(_leq("finite_two_state_kernel",
                     float(np.max(np.abs(chain.T - expected_T))), 1e-15))
    rows.append(_leq("finite_two_state_offdiag_l1",
                     abs(finite_chain.offdiag_l1(chain.T, Q, pi) - 1.0 / 6.0), 1e-15))
    spec = finite_chain.spectral_quantities(chain)
    rows.append(_leq("finite_two_state_spectral",
                     max(abs(spec.gap - 0.75), abs(spec.conductance - 0.5)), 1e-12))

    # Each phase draws all its instances in order, then measures them in one
    # stacked call per state count; a NaN measure fails its row.
    rng = substream(seed, "verify", "finite")
    s_grid = np.linspace(0.01, 0.45, 9)

    def cheeger(pi, Q):
        *measures, sp = _chain_measures(finite_chain.metropolize(Q, pi))
        return (*measures, np.transpose([sp.s_conductance(s) for s in s_grid]))

    db, stat, lower, upper, cs = _by_size([_draw_chain(rng) for _ in range(200)], cheeger)
    # A chain's infinite values of s_conductance form a suffix of the grid;
    # each finite value is compared with the next.
    rise = np.subtract(cs[:, :-1], cs[:, 1:], out=np.zeros((len(cs), len(s_grid) - 1)),
                       where=~np.isposinf(cs[:, :-1]))
    rows.append(_leq("finite_detailed_balance", np.max(db, initial=0.0), finite_chain.EXACT_TOL))
    rows.append(_leq("finite_stationarity", np.max(stat, initial=0.0), finite_chain.EXACT_TOL))
    rows.append(_geq("finite_cheeger_sandwich_slack",
                     np.min((lower, upper), initial=math.inf), -1e-12))
    rows.append(_leq("finite_s_conductance_monotone", np.max(rise, initial=0.0), 1e-12))

    worst_global, worst_state = (np.max(e, initial=0.0) for e in _by_size(
        [_draw_triple(rng) for _ in range(500)], _projection_excess))
    rows.append(_leq("finite_projection_global", worst_global, finite_chain.EXACT_TOL))
    rows.append(_leq("finite_projection_pointwise", worst_state, finite_chain.EXACT_TOL))

    warm, chi2, lov = (np.max(v, initial=0.0) for v in _by_size(
        [_draw_chain(rng) for _ in range(100)],
        lambda pi, Q: _warm_start_violations(finite_chain.metropolize(Q, pi))))
    rows.append(_leq("finite_warmness_monotone", warm, finite_chain.EXACT_TOL))
    rows.append(_leq("finite_chi2_warmness", chi2, finite_chain.EXACT_TOL))
    rows.append(_leq("finite_lovasz_bound", lov, finite_chain.EXACT_TOL))
    return rows


def run_all_checks(seed: int, corrupt_accept: bool = False) -> list[CheckResult]:
    """Full verification suite; ``corrupt_accept`` is a test fixture that
    biases the acceptance-ratio path and must make the log_accept checks fail.
    """
    rows = oracle_checks(seed)
    rows.extend(kernel_checks(seed, corrupt_accept))
    rows.extend(finite_chain_checks(seed))
    return rows


def finite_selftest_rows(n_instances: int, seed: int):
    """Per-instance finite-chain report rows: (instance i, check id, slack);
    instance i draws its chain, then its projection triple, from
    ``substream(seed, "finite-selftest", i)``."""
    chains, triples = [], []
    for i in range(n_instances):
        rng = substream(seed, "finite-selftest", i)
        chains.append(_draw_chain(rng))
        triples.append(_draw_triple(rng))

    def chain_columns(pi, Q):
        c = finite_chain.metropolize(Q, pi)
        *measures, sp = _chain_measures(c)
        return (*measures, *_warm_start_violations(c, spectral=sp))

    chain = _by_size(chains, chain_columns)
    columns = (*chain[:4], *_by_size(triples, _projection_excess), *chain[4:])
    tol = finite_chain.EXACT_TOL
    checks = (("detailed_balance", _leq, tol), ("stationarity", _leq, tol),
              ("cheeger_lower", _geq, -1e-12), ("cheeger_upper", _geq, -1e-12),
              ("projection_global", _leq, tol), ("projection_pointwise", _leq, tol),
              ("warmness_monotone", _leq, tol), ("chi2_warmness", _leq, tol),
              ("lovasz_bound", _leq, tol))
    rows = [(i, name, check(name, value, bound).slack)
            for i, values in enumerate(zip(*columns))
            for (name, check, bound), value in zip(checks, values)]
    return rows, all(slack >= 0.0 for _, _, slack in rows)
