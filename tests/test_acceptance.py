"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Every criterion is asserted at its stated tolerance. Two of them check the
collapse mechanism of the cosine-perturbed target in the form that the
mechanism bounds at desk scale (d <= 2^16):

* criterion 3: mean acceptance at eta=0.2, h=d^{-0.4} declines
  significantly from d=2^8 to 2^16, rises significantly across no octave,
  and stays below the Gaussian's at matched (d, h). The collapse is
  asymptotic; the true curve is flat within Monte-Carlo error over
  2^8..2^12, so no per-octave decrease is claimed;
* criterion 7: the cap exp((1/16 + 5)·d^{-4eta}) applies to the
  per-coordinate factor F after its first-order part L1 is taken out.
  L1 is known in closed form and carries the damping factor
  exp(−d^{2eta}·h/(1+h²)), which is e^{-1} at h=d^{-0.4} for every d, so
  at this h it is not small against d^{-4eta}; ln F − L1 is the
  second-order remainder that the cap bounds. The repo holds only the
  abstract of the paper (arXiv 2012.12810), so no lemma or equation
  number is cited for the cap. That it is meant for the remainder and
  not for F rests on the derivation in ``oracle1d.coordinate_factor``'s
  docstring and is unverified against the paper's text. That the check
  still fails on a wrong integrand is shown by
  ``test_oracle1d.py::TestCoordinateFactor::test_remainder_cap_rejects_wrong_cross_term``.
"""

import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from malalab import diagnostics as dg
from malalab import finite_chain, kernels, oracle1d, verify
from malalab.kernels import log_accept_ratio, run_chain, sample_separable_target
from malalab.potentials import adversarial_cosine, gaussian
from malalab.rng import seed_path, substream


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{criterion}: {detail}"


def batch_means_se(series, n_batches=100):
    series = np.asarray(series, dtype=float)
    usable = (len(series) // n_batches) * n_batches
    batches = series[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


def test_criterion_01_gaussian_acceptance_identity():
    d, h, n = 16, 0.3, 10_000
    p = gaussian(d)
    rng = substream(1001, "pairs")
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d))
    vals = log_accept_ratio(p, h, X, Y)
    closed = (h / 4.0) * (np.sum(X**2, axis=1) - np.sum(Y**2, axis=1))
    worst = float(np.max(np.abs(vals - closed)))
    report("criterion-01", worst <= 1e-9,
           f"max |log a − closed form| = {worst:.3e} (tol 1e-9, {n} pairs)")


def test_criterion_02_gaussian_acceptance_floor():
    rows = []
    ok = True
    for k in range(6, 13):
        d = 2**k
        h = 0.5 * d ** (-1.0 / 3.0)
        res = dg.mean_acceptance(gaussian(d), h, n_states=200, n_mc=200, seed=1002)
        lo = res.estimate.value - 3.0 * res.estimate.std_error
        ok = ok and lo >= 0.5
        rows.append(f"d=2^{k}:{res.estimate.value:.3f}")
    report("criterion-02", ok, "mean acceptance (h=0.5 d^-1/3) " + " ".join(rows))


def test_criterion_03_adversarial_acceptance_collapse():
    eta = 0.2
    n_states, n_mc = 192, 48
    adv, gau = {}, {}
    for k in range(8, 17):
        d = 2**k
        h = d**-0.4
        adv[k] = dg.mean_acceptance(adversarial_cosine(d, eta), h,
                                    n_states, n_mc, seed=1003).estimate
        if k >= 10:
            gau[k] = dg.mean_acceptance(gaussian(d), h,
                                        n_states, n_mc, seed=1004).estimate

    ordering_ok = True
    for k, g in gau.items():
        margin = 3.0 * math.sqrt(adv[k].std_error**2 + g.std_error**2)
        ordering_ok = ordering_ok and (adv[k].value + margin <= g.value)

    def se_pair(a, b):
        return math.sqrt(adv[a].std_error**2 + adv[b].std_error**2)

    ks = sorted(adv)
    total = adv[ks[0]].value - adv[ks[-1]].value
    total_need = 3.0 * se_pair(ks[0], ks[-1])
    decline_ok = total > total_need

    rise_ok = True
    pair_notes = []
    for a, b in zip(ks, ks[1:]):
        diff = adv[a].value - adv[b].value
        floor = -3.0 * se_pair(a, b)
        pair_notes.append(f"2^{a}->2^{b}:{diff:+.4f}(>{floor:.4f})")
        rise_ok = rise_ok and diff > floor

    curve = " ".join(f"2^{k}:{adv[k].value:.4f}" for k in ks)
    report(
        "criterion-03",
        decline_ok and rise_ok and ordering_ok,
        f"ordering(d>=2^10) {'ok' if ordering_ok else 'VIOLATED'}; "
        f"total decline 2^{ks[0]}->2^{ks[-1]} {total:.4f} vs 3SE {total_need:.4f} "
        f"{'ok' if decline_ok else 'VIOLATED'}; no significant rise "
        f"{'ok' if rise_ok else 'VIOLATED'} [{'; '.join(pair_notes)}]; "
        f"curve {curve}",
    )


def test_collapse_mechanism_qualitative():
    # Criterion 3's checks repeated on a coarser grid with fresh seeds:
    # significant total decay, no significant increase anywhere, and
    # Gaussian-vs-adversarial ordering at matched (d, h).
    eta = 0.2
    n_states, n_mc = 192, 48
    ks = [8, 10, 12, 14, 16]
    adv = {}
    for k in ks:
        d = 2**k
        adv[k] = dg.mean_acceptance(adversarial_cosine(d, eta), d**-0.4,
                                    n_states, n_mc, seed=1005).estimate
    total = adv[8].value - adv[16].value
    se_total = math.sqrt(adv[8].std_error**2 + adv[16].std_error**2)
    assert total > 3.0 * se_total, f"total collapse {total:.4f} vs 3SE {3*se_total:.4f}"
    for a, b in zip(ks, ks[1:]):
        diff = adv[a].value - adv[b].value
        need = -3.0 * math.sqrt(adv[a].std_error**2 + adv[b].std_error**2)
        assert diff > need, f"significant increase across 2^{a}->2^{b}"
    d = 2**12
    g = dg.mean_acceptance(gaussian(d), d**-0.4, n_states, n_mc, seed=1006).estimate
    assert adv[12].value + 3 * math.sqrt(
        adv[12].std_error**2 + g.std_error**2
    ) <= g.value


def test_criterion_04_conductance_integrand_bound():
    d = 256
    h = d**-0.2
    p = gaussian(d)
    X = sample_separable_target(p, 80, substream(1007, "separable-sampling"))
    X = X[np.linalg.norm(X, axis=1) <= math.sqrt(d)][:20]
    assert len(X) == 20
    worst_slack = math.inf
    ok = True
    for i, x in enumerate(X):
        est = dg.acceptance_at(p, h, x, 4000, seed=seed_path(1008, "mc", i))
        bound = dg.gaussian_conductance_bound(float(x @ x), h, d)
        slack = bound + 3.0 * est.std_error - est.value
        worst_slack = min(worst_slack, slack)
        ok = ok and slack >= 0.0
    report("criterion-04", ok,
           f"20 stationary states, worst slack {worst_slack:.4f} (>= 0 required)")


def test_criterion_05_spectral_gap_ceiling():
    ok = True
    notes = []
    for p, label in ((adversarial_cosine(64, 0.2), "adversarial"),
                     (gaussian(64), "gaussian")):
        for h in (1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5):
            est = dg.dirichlet_gap_upper(p, h, 100_000, seed=1009)
            bound_ok = est.value - 3.0 * est.std_error <= 5.0 * h
            ok = ok and bound_ok
            notes.append(f"{label[0]}@h={h:g}:{est.value:.4f}")
    report("criterion-05", ok, "gap estimate <= 5h at " + " ".join(notes))


def test_criterion_06_oracle_lemma_suite():
    # verify.oracle_checks owns the trig-moment grid, the cos ratio and the
    # Z and KL rates at the even octaves 2^8 ... 2^16; the odd octaves are
    # checked here at the same bounds.
    eta = 0.2
    rows = {r.name: r for r in verify.oracle_checks(1006)}
    names = ("oracle_trig_moment_vs_quadrature", "oracle_norm_const_rate",
             "oracle_kl_rate", "oracle_kl_nonnegative",
             "oracle_expected_cos_ratio_high", "oracle_expected_cos_ratio_low")
    failing = [name for name in names if not rows[name].passed]

    z_ok, kl_ok = True, True
    for k in range(9, 17, 2):
        d = 2**k
        z = oracle1d.normalizing_constant(adversarial_cosine(d, eta))
        z_ok = z_ok and abs(z / oracle1d.SQRT_2PI - 1.0) <= 2.0 * d**-0.8
        kl = oracle1d.kl_gaussian_vs_adversarial(eta, d)
        kl_ok = kl_ok and -1e-8 <= kl <= 2.0 * d**0.2

    ok = not failing and z_ok and kl_ok
    report("criterion-06", ok,
           f"verify rows failing: {failing or 'none'}; odd-octave Z rate "
           f"{'ok' if z_ok else 'BAD'}; KL rate {'ok' if kl_ok else 'BAD'}; "
           f"trig err {rows[names[0]].value:.2e} (tol 1e-8); "
           f"cos ratio {rows[names[4]].value:.3f}")


def test_criterion_07_coordinate_factor_bound():
    eta, d = 0.2, 4096
    h = d**-0.4
    rate = d ** (-4 * eta)
    cap = math.exp((1.0 / 16.0 + 5.0) * rate)
    grid = np.linspace(-4 * math.sqrt(math.log(8 * d)),
                       4 * math.sqrt(math.log(8 * d)), 81)
    log_f = np.array([math.log(oracle1d.coordinate_factor(x1, h, eta, d))
                      for x1 in grid])
    first_order = np.array([oracle1d.coordinate_factor_first_order(x1, h, eta, d)
                            for x1 in grid])
    worst = float(np.exp(log_f - first_order).max())
    damping = math.exp(-d ** (2 * eta) * h / (1 + h * h))
    report(
        "criterion-07",
        worst <= cap,
        f"max exp(ln F − L1) {worst:.6f} vs cap {cap:.6f}: remainder "
        f"ln/d^-4eta = {math.log(worst)/rate:.2f} vs allowed {1/16 + 5:.2f}; "
        f"raw ln(max F)/d^-4eta = {float(log_f.max())/rate:.2f}, first-order "
        f"damping exp(−d^2eta·h/(1+h²)) = {damping:.3f}",
    )


def test_criterion_08_projection_property():
    rep = dg.projection_check_gaussian(0.05, 32, n_states=200, n_mc=10_000,
                                       seed=1010)
    report("criterion-08", rep.passed,
           f"E||T-Q||_TV = {rep.lhs.value:.4f} <= 2·E||Qbar-Q||_TV + 3SE = "
           f"{rep.threshold:.4f}")


def test_criterion_09_discretization_tv_bound():
    d, h = 32, 0.05
    rng = substream(1011, "states")
    ok = True
    worst = -math.inf
    count = 0
    while count < 50:
        x = rng.standard_normal(d)
        if np.linalg.norm(x) > 2 * math.sqrt(d):
            continue
        ou_var = -math.expm1(-2 * h)
        mean_ou = math.exp(-h) * x
        mean_q = (1 - h) * x
        est = dg.tv_mc_estimate(
            lambda Y: dg.isotropic_gaussian_logpdf(Y, mean_ou, ou_var),
            lambda Y: dg.isotropic_gaussian_logpdf(Y, mean_q, 2 * h),
            lambda m, r, mu=mean_ou, v=ou_var: mu + math.sqrt(v) * r.standard_normal((m, d)),
            20_000,
            substream(1012, "tv", count),
        )
        bound = 0.5 * h * math.sqrt(d + float(x @ x)) * 1.1
        excess = est.value - bound - 3.0 * est.std_error
        worst = max(worst, excess)
        ok = ok and excess <= 0.0
        count += 1
    report("criterion-09", ok,
           f"50 states, worst (TV − bound − 3SE) = {worst:.4f} (<= 0 required)")


def test_criterion_10_finite_chain_exact_suite():
    rng = substream(1013, "instances")
    worst = {"db": 0.0, "stat": 0.0, "proj": 0.0, "warm": 0.0, "chi2": 0.0,
             "lovasz": 0.0}
    cheeger_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 11))
        chain = finite_chain.random_reversible_chain(n, rng)
        worst["db"] = max(worst["db"],
                          finite_chain.detailed_balance_error(chain.T, chain.pi))
        worst["stat"] = max(worst["stat"],
                            float(np.max(np.abs(chain.pi @ chain.T - chain.pi))))
        spec = finite_chain.spectral_quantities(chain)
        cheeger_ok = cheeger_ok and (
            spec.conductance**2 / 8.0 <= spec.gap + 1e-12
            and spec.gap <= 2.0 * spec.conductance + 1e-12
        )
        pi, Q, Qbar = finite_chain.random_projection_triple(
            max(2, n - 2), rng)
        rep = finite_chain.projection_check(Q, Qbar, pi)
        worst["proj"] = max(worst["proj"], rep.global_lhs - rep.global_rhs,
                            float(np.max(rep.state_lhs - rep.state_rhs)))
        mu0 = np.zeros(n)
        mu0[int(np.argmin(chain.pi))] = 1.0
        ev = finite_chain.evolve_and_check(chain, mu0, 50)
        worst["warm"] = max(worst["warm"], ev.max_warm_violation)
        worst["chi2"] = max(worst["chi2"], ev.max_chi2_violation)
        worst["lovasz"] = max(worst["lovasz"], ev.max_lovasz_violation)
    ok = (worst["db"] <= 1e-12 and worst["stat"] <= 1e-12 and cheeger_ok
          and worst["proj"] <= 1e-12 and worst["warm"] <= 1e-12
          and worst["chi2"] <= 1e-12 and worst["lovasz"] <= 1e-12)
    report("criterion-10", ok,
           "500 instances: " + " ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + f" cheeger={'ok' if cheeger_ok else 'BAD'}")


def test_criterion_11_ula_vs_mala_bias():
    h, n = 0.2, 1_000_000
    burn = 50_000
    ula = run_chain(gaussian(1), kernels.KernelParams(h=h, variant=kernels.ULA),
                    np.zeros(1), n, seed=1014, thin=1)
    xs = ula.trajectory[burn:, 0]
    ula_var = float(np.mean(xs**2))
    ula_se = batch_means_se(xs**2)
    ula_target = 1.0 / (1.0 - h / 2.0)
    ula_ok = abs(ula_var - ula_target) <= 3.0 * ula_se

    mala = run_chain(gaussian(1), kernels.KernelParams(h=h), np.zeros(1), n,
                     seed=1015, thin=1)
    ys = mala.trajectory[burn:, 0]
    mala_var = float(np.mean(ys**2))
    mala_se = batch_means_se(ys**2)
    mala_ok = abs(mala_var - 1.0) <= 3.0 * mala_se

    report("criterion-11", ula_ok and mala_ok,
           f"ULA var {ula_var:.4f} (target {ula_target:.4f} ± {3*ula_se:.4f}); "
           f"MALA var {mala_var:.4f} (target 1 ± {3*mala_se:.4f})")


def test_criterion_12_determinism(tmp_path):
    def run(args):
        proc = subprocess.run([sys.executable, "-m", "malalab", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"verify_{tag}.csv"
        run(["verify", "--seed", "42", "--out", str(out)])
        pairs.append(out.read_bytes())
    verify_ok = pairs[0] == pairs[1]

    sweeps = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        run(["sweep-accept", "--seed", "42", "--out", str(out),
             "--set", "n_states=50", "--set", "n_mc=40", "--threads", "2"])
        sweeps.append(out.read_bytes())
    sweep_ok = sweeps[0] == sweeps[1]

    report("criterion-12", verify_ok and sweep_ok,
           f"verify CSV byte-identical: {verify_ok}; "
           f"sweep CSV byte-identical (threads=2): {sweep_ok}")
