import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from scipy import integrate, stats

from malalab import diagnostics as dg
from malalab import finite_chain, kernels
from malalab.diagnostics import (
    EstimateWithSE,
    ProjectionReport,
    acceptance_at,
    dirichlet_gap_upper,
    gaussian_conductance_bound,
    isotropic_gaussian_logpdf,
    mean_acceptance,
    mixing_time_measure,
    projection_check_gaussian,
    sliced_tv_to_target,
    tv_mc_estimate,
)
from malalab.oracle1d import gaussian_tv_equal_cov
from malalab.potentials import Potential, adversarial_cosine, gaussian
from malalab.rng import substream


def rejection_quadrature_1d(h, x):
    """1-D oracle: 1 − ∫ q(y|x)·min(1, a(x, y)) dy for the Gaussian target."""
    mean = (1 - h) * x

    def integrand(y):
        q = math.exp(-((y - mean) ** 2) / (4 * h)) / math.sqrt(4 * math.pi * h)
        a = math.exp((h / 4) * (x * x - y * y))
        return q * min(1.0, a)

    val, err = integrate.quad(integrand, mean - 40 * math.sqrt(h),
                              mean + 40 * math.sqrt(h), limit=400)
    assert err < 1e-7
    return 1.0 - val


class TestRejectionProbability:
    """The rejection probability ||T_x − Q_x||_TV = 1 − A(x), from acceptance_at."""

    def test_tiny_step_rarely_rejects(self):
        est = acceptance_at(gaussian(4), 1e-10, np.ones(4), 1000, seed=1)
        assert 1.0 - est.value <= 0.01

    def test_matches_1d_quadrature(self):
        h, x = 0.2, 1.0
        est = acceptance_at(gaussian(1), h, np.array([x]), 40_000, seed=2)
        assert 1.0 - est.value == pytest.approx(
            rejection_quadrature_1d(h, x), abs=3 * est.std_error
        )

    def test_lemma_style_rejection_ceiling(self):
        # Stationary Gaussian states at h = 0.5 d^{-1/3} keep rejection <= 1/6.
        d = 64
        h = 0.5 * d ** (-1.0 / 3.0)
        p = gaussian(d)
        X = kernels.sample_separable_target(p, 50, seed=5)
        vals = [1.0 - acceptance_at(p, h, x, 400, seed=substream(6, "ceiling", i)).value
                for i, x in enumerate(X)]
        assert float(np.mean(vals)) <= 1.0 / 6.0


class TestMeanAcceptance:
    def test_small_step_near_one(self):
        res = mean_acceptance(gaussian(16), 1e-6, 32, 32, seed=8)
        assert res.estimate.value >= 0.999

    def test_gaussian_floor_single_dimension(self):
        d = 64
        res = mean_acceptance(gaussian(d), 0.5 * d ** (-1 / 3), 100, 100, seed=9)
        assert res.estimate.value - 3 * res.estimate.std_error >= 0.5

    def test_filter_reporting(self, monkeypatch):
        # N(0, 1) coordinates at d = 4 almost never reach past the bound
        # 4·sqrt(ln 32) ≈ 7.45; with the bound at 1 about 1 − 0.683⁴ ≈ 0.78
        # of the states do.
        loose = mean_acceptance(gaussian(4), 0.1, 400, 16, seed=10)
        assert loose.filter_rejected_fraction <= 0.01
        monkeypatch.setattr(dg, "_sup_bound", lambda d: 1.0)
        res = mean_acceptance(gaussian(4), 0.1, 400, 16, seed=10)
        assert 0.5 < res.filter_rejected_fraction < 1.0

    def test_default_filter_dimension_rule(self):
        assert dg._sup_bound(4096) == pytest.approx(4 * math.sqrt(math.log(8 * 4096)))


def _composed_acceptance_values(p, h, x, n_mc, rng):
    """min(1, a(x, y)) composed from the public proposal and ratio.

    Each chunk broadcasts x to its rows, so ∇V is taken at every row, and
    the ratio takes V and ∇V at x once more. Chunks hold 2^22/d rows.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    chunk = max(1, 2**22 // d)
    out = np.empty(n_mc)
    for start in range(0, n_mc, chunk):
        m = min(chunk, n_mc - start)
        y = kernels.propose_mala(p, h, np.broadcast_to(x, (m, d)), rng)
        log_ratios = kernels.log_accept_ratio(p, h, x, y)
        out[start : start + m] = np.exp(np.minimum(log_ratios, 0.0))
    return out


def _mean_and_se(values):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _twin_seeds(kind):
    """Two equal seeds: ints, or two Generators on the same stream (as the CLI passes)."""
    if kind == "int":
        return 31, 31
    return substream(31, "sweep", "collapse", 0), substream(31, "sweep", "collapse", 0)


# (d, n_mc): at d = 4096, n_mc = 1030 fills 32 blocks of 2^17/4096 = 32 rows
# and part of a 33rd, and spans two of the reference's 1024-row chunks; at
# d = 2^14, the collapse benchmark's shape, n_mc = 48 spans six 8-row blocks.
ACCEPTANCE_SHAPES = [(5, 64), (4096, 1030), (2**14, 48)]


class TestAcceptancePathBits:
    """The acceptance estimators give the same bits as the composed public path."""

    @pytest.mark.parametrize("seed_kind", ["int", "generator"])
    @pytest.mark.parametrize("d, n_mc", ACCEPTANCE_SHAPES)
    @pytest.mark.parametrize("kind", ["gaussian", "adversarial"])
    def test_acceptance_at_equals_composed_path(self, kind, d, n_mc, seed_kind):
        p = gaussian(d) if kind == "gaussian" else adversarial_cosine(d, 0.2)
        h = d**-0.4
        x = substream(32, "state", d).standard_normal(d)
        seed, twin = _twin_seeds(seed_kind)
        est = acceptance_at(p, h, x, n_mc, seed)
        values = _composed_acceptance_values(
            p, h, x, n_mc, substream(twin, "acceptance-at")
        )
        assert (est.value, est.std_error) == _mean_and_se(values)

    @pytest.mark.parametrize("seed_kind", ["int", "generator"])
    @pytest.mark.parametrize("d, n_states, n_mc", [(64, 40, 48), (4096, 3, 1030)])
    @pytest.mark.parametrize("kind", ["gaussian", "adversarial"])
    def test_mean_acceptance_equals_composed_path(self, kind, d, n_states, n_mc,
                                                  seed_kind):
        p = gaussian(d) if kind == "gaussian" else adversarial_cosine(d, 0.2)
        h = d**-0.4
        seed, twin = _twin_seeds(seed_kind)
        res = mean_acceptance(p, h, n_states, n_mc, seed=seed)
        X = kernels.sample_separable_target(p, n_states, substream(twin, "states"))
        X = X[np.max(np.abs(X), axis=1) < dg._sup_bound(d)]
        per_state = [
            _composed_acceptance_values(
                p, h, x, n_mc, substream(twin, "proposals", i)
            ).mean()
            for i, x in enumerate(X)
        ]
        assert res.n_states == len(X)
        assert (res.estimate.value, res.estimate.std_error) == _mean_and_se(per_state)


class TestAcceptancePathBudget:
    @pytest.mark.parametrize("d, n_states, n_mc", [(64, 30, 48), (4096, 2, 1030)])
    def test_one_evaluation_at_each_state_and_proposal(self, monkeypatch, d, n_states,
                                                       n_mc):
        # Rows of V and of ∇V seen by mean_acceptance: one per kept state and
        # one per proposal, so ∇V(x) is never broadcast to the proposals. The
        # proposals are evaluated on worker threads, so the count takes a lock.
        rows, lock = {"value": 0, "grad": 0}, threading.Lock()
        for name in rows:
            original = getattr(Potential, name)

            def counted(self, x, _name=name, _original=original):
                with lock:
                    rows[_name] += np.size(x) // self.d
                return _original(self, x)

            monkeypatch.setattr(Potential, name, counted)
        res = mean_acceptance(adversarial_cosine(d, 0.2), d**-0.4, n_states, n_mc, seed=33)
        expected = res.n_states * (res.n_mc + 1)
        assert rows == {"value": expected, "grad": expected}


def _serial_acceptance_values(p, h, x, n_mc, rng):
    """The composed path on one thread in the acceptance path's blocks of
    kernels._block_rows(d) rows, each drawn, then checked: a raise leaves the
    generator just after the failing block's normals."""
    chunk = kernels._block_rows(len(x))
    return np.concatenate([_composed_acceptance_values(p, h, x, min(chunk, n_mc - done), rng)
                           for done in range(0, n_mc, chunk)])


def _serial_mean_acceptance(p, h, n_states, n_mc, seed):
    """Per-state means of mean_acceptance, state by state on one thread."""
    X = kernels.sample_separable_target(p, n_states, substream(seed, "states"))
    X = X[np.max(np.abs(X), axis=1) < dg._sup_bound(p.d)]
    return [_serial_acceptance_values(p, h, x, n_mc, substream(seed, "proposals", i)).mean()
            for i, x in enumerate(X)]


class TestAcceptanceWorkers:
    """The acceptance path computes its blocks on worker threads. The threads
    end with the call, and a raise leaves a Generator seed where the serial
    loop leaves it, though blocks after the failing one were already drawn."""

    # At d = 4096 a block holds 8 rows, so 64 proposals are 8 blocks a state,
    # and a block's error is seen only once the next three are drawn.
    D, N_MC = 4096, 64

    def _raise_both(self, estimator, h, seed):
        # The estimator and its serial reference, on equal Generator seeds.
        p, x, n_mc = gaussian(self.D), np.ones(self.D), self.N_MC
        runs = {"acceptance_at": (lambda rng: acceptance_at(p, h, x, n_mc, rng),
                                  lambda rng: _serial_acceptance_values(p, h, x, n_mc, rng)),
                "mean_acceptance": (lambda rng: mean_acceptance(p, h, 12, n_mc, rng),
                                    lambda rng: _serial_mean_acceptance(p, h, 12, n_mc, rng))}
        ours, theirs = substream(seed, "cell"), substream(seed, "cell")
        with np.errstate(over="ignore", invalid="ignore"):
            for run, rng in zip(runs[estimator], (ours, theirs)):
                with pytest.raises(FloatingPointError, match="non-finite"):
                    run(rng)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("estimator", ["acceptance_at", "mean_acceptance"])
    def test_a_raise_leaves_a_generator_where_the_serial_loop_does(self, estimator):
        # h = 1e300 makes the first block's log ratios non-finite.
        self._raise_both(estimator, 1e300, 50)

    def test_a_later_block_raising_leaves_the_generator_after_its_normals(
            self, monkeypatch):
        # A ratio fault keyed on a block's first proposal row, so that the
        # failing block is the same in both loops and is not the first.
        ratio, blocks = kernels._log_ratio_parts, []

        def faulty(h, x, value_x, grad_x, y, value_y, grad_y):
            blocks.append(threading.current_thread())
            out = ratio(h, x, value_x, grad_x, y, value_y, grad_y)
            return out + np.nan if np.ndim(y) == 2 and y[0, 0] - x[0] > 0.55 else out

        monkeypatch.setattr(kernels, "_log_ratio_parts", faulty)
        self._raise_both("mean_acceptance", self.D**-0.4, 51)
        serial = [t for t in blocks if t is threading.main_thread()]
        assert 8 < len(serial) < 12 * 8 - 3  # not state 0's, three blocks drawn after it
        assert len(blocks) > len(serial)  # the threaded loop's blocks ran elsewhere

    def test_no_thread_outlives_a_return_or_a_raise(self):
        before = threading.active_count()
        mean_acceptance(gaussian(self.D), self.D**-0.4, 3, self.N_MC, seed=52)
        acceptance_at(gaussian(self.D), self.D**-0.4, np.ones(self.D), self.N_MC, seed=52)
        assert threading.active_count() == before
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                mean_acceptance(gaussian(self.D), 1e300, 3, self.N_MC, seed=52)
        assert threading.active_count() == before

    def test_a_callers_errstate_reaches_the_workers(self):
        # Under over="raise" the overflow of V(y) at h = 1e300 raises numpy's
        # own FloatingPointError in the worker, before the ratio is checked.
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                acceptance_at(gaussian(self.D), 1e300, np.ones(self.D), self.N_MC, seed=53)

    def test_concurrent_calls_under_a_short_switch_interval(self):
        # More calls than cores, as sweep cells run under --threads, each with
        # its own pool, with the interpreter switching threads as often as it can.
        p, h = adversarial_cosine(self.D, 0.2), self.D**-0.4
        results = {}

        def estimate(seed):
            res = mean_acceptance(p, h, 3, self.N_MC, seed=seed)
            results[seed] = (res.estimate.value, res.estimate.std_error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=estimate, args=(54 + k,)) for k in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=120)
                assert not c.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in range(54, 58):
            assert results[seed] == _mean_and_se(
                _serial_mean_acceptance(p, h, 3, self.N_MC, seed))


EXTREME_INPUTS = pytest.mark.parametrize("p, h, x", [
    (gaussian(4), 1e300, np.ones(4)),
    (gaussian(4), 0.1, np.full(4, 1e160)),
    (adversarial_cosine(4, 0.2), 0.1, np.full(4, 1e160)),
    (adversarial_cosine(4, 0.2), 1e155, np.ones(4)),
], ids=["gaussian-h1e300", "gaussian-x1e160", "adversarial-x1e160",
        "adversarial-h1e155"])


class TestAcceptancePathExtremes:
    """A non-finite log ratio raises on every MALA path; it never becomes an
    estimate or a silent rejection."""

    @EXTREME_INPUTS
    def test_non_finite_ratio_raises(self, p, h, x):
        for seed in range(3):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FloatingPointError, match="non-finite"):
                    acceptance_at(p, h, x, 64, seed=seed)

    @pytest.mark.parametrize("d", [1, 4])
    @EXTREME_INPUTS
    def test_chain_raises(self, p, h, x, d):
        # d = 1 runs run_chain's float loop, d = 4 its array step.
        p, x = dataclasses.replace(p, d=d), x[:d]
        for seed in range(3):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FloatingPointError, match="non-finite"):
                    kernels.run_chain(p, kernels.KernelParams(h=h), x, 20, seed=seed)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("p, h", [
        (gaussian(4), 1e300), (adversarial_cosine(4, 0.2), 1e155),
    ], ids=["gaussian-h1e300", "adversarial-h1e155"])
    def test_ula_chain_leaving_the_reals_raises_value_error(self, p, h, d):
        # ULA has no ratio to check. A step to a non-finite state is stopped
        # by ∇V's input check, with the ValueError of Potential.grad.
        p, params = dataclasses.replace(p, d=d), kernels.KernelParams(h=h, variant=kernels.ULA)
        for seed in range(3):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="input contains non-finite entries"):
                    kernels.run_chain(p, params, np.ones(d), 20, seed=seed)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("p", [gaussian(4), adversarial_cosine(4, 0.2)],
                             ids=["gaussian", "adversarial"])
    def test_ula_chain_from_far_start_contracts(self, p, d):
        # From x = 1e160 ULA contracts by about 1 − h per step and finishes
        # without error near 0.9^20·1e160 ≈ 1.2e159. Its squared displacement
        # overflows to inf, as numpy's power does, on both run_chain paths.
        p, params = dataclasses.replace(p, d=d), kernels.KernelParams(h=0.1, variant=kernels.ULA)
        with np.errstate(over="ignore", invalid="ignore"):
            res = kernels.run_chain(p, params, np.full(d, 1e160), 20, seed=0)
        np.testing.assert_allclose(res.final_x, 0.9**20 * 1e160, rtol=1e-12)
        assert res.n_accepted == 20
        assert res.mean_sq_displacement_coord1 == math.inf

    @EXTREME_INPUTS
    def test_batched_update_raises(self, p, h, x):
        X = np.tile(x, (16, 1))
        for seed in range(3):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FloatingPointError, match="non-finite"):
                    kernels.batch_mala_update(p, h, X, substream(seed, "extremes"))

    def test_non_positive_step_rejected(self):
        with pytest.raises(ValueError, match="step size"):
            acceptance_at(gaussian(4), 0.0, np.ones(4), 64, seed=0)


class TestGaussianConductanceBound:
    def test_small_step_limit_is_one(self):
        assert gaussian_conductance_bound(256.0, 1e-9, 256) == pytest.approx(1.0)

    def test_log_value_decay_on_sphere(self):
        d = 256
        h = d**-0.2
        val = gaussian_conductance_bound(float(d), h, d)
        assert math.log(val) <= -(h**3) * d / 32.0

    def test_dominates_mc_acceptance_integrand(self):
        d = 256
        h = d**-0.2
        p = gaussian(d)
        X = kernels.sample_separable_target(p, 40, seed=12)
        X = X[np.linalg.norm(X, axis=1) <= math.sqrt(d)][:5]
        assert len(X) >= 3
        for i, x in enumerate(X):
            est = acceptance_at(p, h, x, 2000, seed=substream(13, "domination", i))
            bound = gaussian_conductance_bound(float(x @ x), h, d)
            assert est.value <= bound + 3 * est.std_error

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gaussian_conductance_bound(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            gaussian_conductance_bound(-1.0, 0.1, 4)


class TestDirichletGapUpper:
    def test_vanishes_with_step(self):
        est = dirichlet_gap_upper(gaussian(8), 1e-6, 20_000, seed=14)
        assert est.value <= 1e-5

    @pytest.mark.parametrize("p", [gaussian(64), adversarial_cosine(64, 0.2)])
    @pytest.mark.parametrize("h", [0.01, 0.3])
    def test_gap_ceiling_smoke(self, p, h):
        est = dirichlet_gap_upper(p, h, 20_000, seed=15)
        assert est.value - 3 * est.std_error <= 5 * h

    def test_upper_bounds_exact_gap_on_discretized_chain(self):
        # Discrete 1-D target on a grid with a +-1 random-walk proposal; the
        # estimator with f = position must sit above the exact eigen gap.
        m = 15
        sites = np.linspace(-3.0, 3.0, m)
        pi = np.exp(-0.5 * sites**2)
        pi /= pi.sum()
        Q = np.zeros((m, m))
        for i in range(m):
            if i > 0:
                Q[i, i - 1] = 0.5
            else:
                Q[i, i] += 0.5
            if i < m - 1:
                Q[i, i + 1] = 0.5
            else:
                Q[i, i] += 0.5
        chain = finite_chain.metropolize(Q, pi)
        exact_gap = finite_chain.spectral_quantities(chain).gap

        rng = substream(16, "discrete-gap")
        n = 40_000
        idx = rng.choice(m, size=n, p=pi)
        nxt = np.array([rng.choice(m, p=chain.T[i]) for i in idx])
        increments = 0.5 * (sites[idx] - sites[nxt]) ** 2
        var_pos = sites[idx].var(ddof=1)
        est = increments.mean() / var_pos
        se = increments.std(ddof=1) / math.sqrt(n) / var_pos
        assert est >= exact_gap - 3 * se


class TestTVEstimator:
    def test_identical_distributions(self):
        def log_density(X):
            return isotropic_gaussian_logpdf(X, 0.0, 1.0)

        def sampler(n, rng):
            return rng.standard_normal((n, 3))

        est = tv_mc_estimate(log_density, log_density, sampler, 10_000, seed=18)
        assert est.value == 0.0

    def test_matches_equal_covariance_closed_form(self):
        d, sigma2 = 8, 0.7
        delta = 2 * math.sqrt(sigma2)
        mean_p = np.zeros(d)
        mean_q = np.zeros(d)
        mean_q[0] = delta

        est = tv_mc_estimate(
            lambda X: isotropic_gaussian_logpdf(X, mean_p, sigma2),
            lambda X: isotropic_gaussian_logpdf(X, mean_q, sigma2),
            lambda n, rng: math.sqrt(sigma2) * rng.standard_normal((n, d)),
            100_000,
            seed=19,
        )
        closed = gaussian_tv_equal_cov(delta, sigma2)
        assert est.value == pytest.approx(closed, abs=3 * est.std_error)

    def test_discretization_tv_bound_smoke(self):
        # TV(OU kernel, proposal) <= (h/2)·sqrt(d + ||x||²)·1.1 at beta = 1.
        d, h = 32, 0.05
        rng = substream(20, "lemma-tv")
        for _ in range(5):
            x = rng.standard_normal(d) * 1.4
            est = _ou_vs_proposal_tv(x, h, 20_000, seed=substream(21, "lemma-tv", _))
            bound = 0.5 * h * math.sqrt(d + float(x @ x)) * 1.1
            assert est.value <= bound + 3 * est.std_error

    def test_non_finite_densities_raise(self):
        def bad_log_q(X):
            out = isotropic_gaussian_logpdf(X, 0.0, 1.0)
            return np.where(X[:, 0] > 0, np.nan, out)

        with pytest.raises(FloatingPointError):
            tv_mc_estimate(
                lambda X: isotropic_gaussian_logpdf(X, 0.0, 1.0),
                bad_log_q,
                lambda n, rng: rng.standard_normal((n, 2)),
                1000,
                seed=22,
            )


def _ou_vs_proposal_tv(x, h, n, seed):
    d = len(x)
    ou_var = -math.expm1(-2 * h)
    mean_ou = math.exp(-h) * x
    mean_q = (1 - h) * x
    return tv_mc_estimate(
        lambda Y: isotropic_gaussian_logpdf(Y, mean_ou, ou_var),
        lambda Y: isotropic_gaussian_logpdf(Y, mean_q, 2 * h),
        lambda m, rng: mean_ou + math.sqrt(ou_var) * rng.standard_normal((m, d)),
        n,
        seed,
    )


class TestProjectionCheck:
    def test_projection_inequality_holds(self):
        report = projection_check_gaussian(0.05, 32, n_states=60, n_mc=4000, seed=23)
        assert report.passed
        assert report.lhs.value <= report.threshold

    def test_both_sides_vanish_with_step(self):
        report = projection_check_gaussian(1e-4, 8, n_states=20, n_mc=1000, seed=24)
        assert report.lhs.value <= 0.01
        assert report.rhs.value <= 0.01

    def test_lhs_matches_1d_quadrature(self):
        h = 0.1
        report = projection_check_gaussian(h, 1, n_states=40, n_mc=4000, seed=25)
        states = substream(25, "projection-states").standard_normal((40, 1))
        oracle = float(np.mean([rejection_quadrature_1d(h, x.item()) for x in states]))
        assert report.lhs.value == pytest.approx(
            oracle, abs=3 * max(report.lhs.std_error, 1e-4)
        )

    def test_step_size_validated(self):
        with pytest.raises(ValueError):
            projection_check_gaussian(0.5, 8, 10, 100, seed=26)

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="n_mc must be >= 100"):
            projection_check_gaussian(0.1, 2, 10, 50, seed=7)

    def test_report_fails_on_a_nan_or_a_violation(self):
        def report(lhs, threshold):
            return ProjectionReport(EstimateWithSE(lhs, 0.01, 10),
                                    EstimateWithSE(0.1, 0.01, 10), threshold, 10, 10)

        assert report(0.2, 0.2).passed
        for lhs, threshold in ((math.nan, 0.2), (0.2, math.nan), (0.3, 0.2)):
            assert not report(lhs, threshold).passed


def _sliced_tv_full_scan(X, table):
    """The sliced TV with F at every sample, on the sample-major layout: sort
    down the columns and evaluate the CDF on the row-major ravel."""
    n = len(X)
    Xs = np.sort(X, axis=0)
    F = np.asarray(table.cdf_at(Xs.ravel())).reshape(Xs.shape)
    i = np.arange(1, n + 1)[:, None] / n
    return float(max(np.max(i - F), np.max(F - (i - 1.0 / n)), 0.0))


class TestSlicedTV:
    def test_exact_samples_score_near_zero(self):
        p = gaussian(4)
        X = kernels.sample_separable_target(p, 100_000, seed=27)
        val = sliced_tv_to_target(X, kernels.cdf_table_for(p))
        assert 0.0 <= val <= 0.01

    def test_shifted_gaussian_matches_closed_form(self):
        p = gaussian(2)
        rng = substream(28, "shifted")
        X = rng.standard_normal((200_000, 2)) + 0.5
        val = sliced_tv_to_target(X, kernels.cdf_table_for(p))
        closed = 2 * stats.norm.cdf(0.25) - 1
        assert abs(val - closed) <= 0.1 * closed

    def test_nan_sample_gives_nan(self):
        table = kernels.cdf_table_for(gaussian(3))
        # 2001 rows end in a short block of the pruned scan; a NaN sorts into it.
        X = substream(31, "sliced-nan").standard_normal((2001, 3))
        for row, col in ((0, 0), (2000, 2), (700, 1)):
            Y = X.copy()
            Y[row, col] = math.nan
            assert math.isnan(sliced_tv_to_target(Y, table))
        Y = X[:, :1].copy()
        Y[5, 0] = math.nan
        assert math.isnan(sliced_tv_to_target(Y, table))

    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_infinite_sample_matches_full_scan(self, inf):
        table = kernels.cdf_table_for(gaussian(3))
        X = substream(32, "sliced-inf").standard_normal((1001, 3))
        for rows in ((0,), (1000,), (0, 17, 500, 1000)):
            Y = X.copy()
            Y[list(rows), 1] = inf
            assert sliced_tv_to_target(Y, table) == _sliced_tv_full_scan(Y, table)

    # 1 evaluates F everywhere; 1001 and 5000 put all of n = 1001 in one block.
    @pytest.mark.parametrize("block", [1, 2, 7, 16, 33, 1001, 5000])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, block):
        monkeypatch.setattr(dg, "_TV_BLOCK", block)
        table = kernels.cdf_table_for(gaussian(4))
        X = 1.5 * substream(33, "sliced-block").standard_normal((1001, 4)) + 0.1
        tied = np.round(X, 1)
        one_off = X.copy()
        one_off[:, 2] = 0.5 * X[:, 2] - 0.8
        for sample in (X, tied, X + 6.5, X - 6.5, one_off):
            assert sliced_tv_to_target(sample, table) == _sliced_tv_full_scan(sample, table)

    def test_requires_enough_samples(self):
        p = gaussian(2)
        with pytest.raises(ValueError):
            sliced_tv_to_target(np.zeros((100, 2)), kernels.cdf_table_for(p))

    def test_column_layout_matches_row_layout_bit_for_bit(self):
        row_layout = _sliced_tv_full_scan
        table = kernels.cdf_table_for(gaussian(8))
        rng = substream(29, "sliced-layout")
        # n = 1001 and 1500 end in a short block of the pruned scan.
        for n, d in ((1000, 1), (1001, 5), (1500, 3), (4096, 64)):
            X = 1.5 * rng.standard_normal((n, d)) + 0.1
            tied = np.round(X, 1)
            outside = X.copy()
            outside[: n // 10] = 1e3 * np.sign(outside[: n // 10])
            constant = X.copy()
            constant[:, 0] = 0.3
            # Shifted by about four standard deviations, the largest gap sits
            # inside the first block (+, sorted index 2 to 11 here) or near
            # the end (−, in the short last block at n = 1000, 1001 and 1500).
            # X alone peaks in F − (i−1)/n.
            shifted = [X + 6.5, X - 6.5]
            # The last coordinate alone carries the largest gap, of either kind.
            one_off = [X.copy(), X.copy()]
            one_off[0][:, -1] = 0.5 * X[:, -1] + 0.8
            one_off[1][:, -1] = 0.5 * X[:, -1] - 0.8
            # At d = 1 or in column-major order X.T is already C-contiguous;
            # sorting it without a copy would reorder the caller's samples.
            for sample in (X, tied, outside, np.asfortranarray(X), constant,
                           *shifted, *one_off):
                before = sample.copy()
                assert sliced_tv_to_target(sample, table) == row_layout(before, table)
                assert np.array_equal(sample, before)


class TestMixingTime:
    def test_exact_start_is_already_mixed(self):
        p = gaussian(8)

        def sampler(n, rng):
            return kernels.sample_separable_target(p, n, rng)

        steps = mixing_time_measure(p, 0.1, sampler, eps=0.05, max_steps=50,
                                    n_replicas=4096, seed=29)
        assert steps == 0

    def test_warm_start_mixes_in_finite_time(self):
        d = 16
        p = gaussian(d)

        def sampler(n, rng):
            return math.sqrt(0.5) * rng.standard_normal((n, d))

        steps = mixing_time_measure(p, 0.15, sampler, eps=0.05, max_steps=400,
                                    n_replicas=4096, seed=30)
        assert 0 < steps < 400

    def test_ula_plateau_sits_above_mala_plateau(self):
        # ULA's stationary law at h = 0.2 is N(0, 1/(1−h/2)); its sliced-TV
        # plateau must exceed MALA's pure-noise floor.
        p = gaussian(1)
        h, n = 0.2, 65_536
        table = kernels.cdf_table_for(p)

        def plateau(variant, seed):
            rng = substream(seed, "plateau")
            X = kernels.sample_separable_target(p, n, rng)
            levels = []
            for step in range(60):
                if variant == "mala":
                    X, _, _ = kernels.batch_mala_update(p, h, X, rng)
                else:
                    X = kernels.propose_mala(p, h, X, rng)  # one ULA step per row
                if step >= 40:
                    levels.append(sliced_tv_to_target(X, table))
            return float(np.mean(levels))

        ula_level = plateau("ula", 31)
        mala_level = plateau("mala", 32)
        closed = 2 * stats.norm.cdf(
            math.sqrt(2 * math.log(1.0526) * 1.0526 / 0.0526) / 2 / 1.026
        ) - 1  # rough scale of the N(0,1.0526)-vs-N(0,1) Kolmogorov gap
        assert ula_level > mala_level + 0.003
        assert ula_level > 0.008  # plateau reflects the bias, not noise

    def test_sentinel_when_never_mixing(self):
        p = gaussian(4)

        def sampler(n, rng):
            return np.full((n, 4), 20.0)

        steps = mixing_time_measure(p, 1e-6, sampler, eps=0.01, max_steps=5,
                                    n_replicas=2048, seed=33)
        assert steps == 5

    def test_eps_validated(self):
        p = gaussian(2)
        with pytest.raises(ValueError):
            mixing_time_measure(p, 0.1, lambda n, rng: np.zeros((n, 2)), 1.5, 10,
                                2048, seed=34)

    def test_negative_max_steps_rejected(self):
        # A negative budget used to return itself as a step count.
        with pytest.raises(ValueError, match="max_steps"):
            mixing_time_measure(gaussian(2), 0.1, lambda n, rng: np.ones((n, 2)), 0.05,
                                -1, 2048, seed=34)

    @pytest.mark.parametrize("reads, steps", [(0.0, 0), (1.0, 400)])
    def test_a_patched_sliced_tv_decides_the_count(self, monkeypatch, reads, steps):
        # Reading 0 mixes at the start check. Reading 1 never mixes, because
        # the fast path can only rule mixing out; unpatched, this run mixes
        # at step 3.
        monkeypatch.setattr(dg, "sliced_tv_to_target", lambda samples, table: reads)
        d = 8

        def sampler(n, rng):
            return math.sqrt(0.5) * rng.standard_normal((n, d))

        assert mixing_time_measure(gaussian(d), 0.15, sampler, eps=0.05, max_steps=400,
                                   n_replicas=2048, seed=35) == steps


def _mixing_steps_reference(p, h, sampler, eps, max_steps, n_replicas, seed):
    """mixing_time_measure with the full sliced TV computed at every step."""
    table = kernels.cdf_table_for(p)
    X = np.asarray(sampler(n_replicas, substream(seed, "mix-init")), dtype=float)
    rng = substream(seed, "mix-steps")
    for step in range(max_steps + 1):
        if step:
            X, _, _ = kernels.batch_mala_update(p, h, X, rng)
        if sliced_tv_to_target(X, table) <= eps:
            return step
    return max_steps


class TestMixedDecision:
    @pytest.mark.parametrize("n, d", [(1000, 1), (1000, 5), (1001, 3), (1500, 8),
                                      (4096, 64)])
    def test_matches_the_full_sliced_tv(self, n, d):
        table = kernels.cdf_table_for(gaussian(d))
        rng = substream(36, "mixed-decision", n, d)
        for scale in (0.95, 1.0, 1.05, 1.5):
            X = scale * rng.standard_normal((n, d))
            # One coordinate alone, then the last, carries the largest gap.
            one_off = [X.copy(), X.copy()]
            one_off[0][:, d // 2] += 0.2
            one_off[1][:, -1] *= 1.3
            for sample in (X, *one_off):
                before = sample.copy()
                full = sliced_tv_to_target(sample, table)
                *_, upper, lower = dg._block_end_gaps(sample, slice(None), table)
                gaps = np.concatenate((upper.ravel(), lower.ravel()))
                # eps exactly at the full value, at block-end gaps (the largest,
                # the first column's largest, a middle one) and around them.
                first = max(upper[0].max(), lower[0].max())
                for eps in (full, np.nextafter(full, 0.0), np.nextafter(full, 1.0),
                            gaps.max(), first, np.median(gaps), 0.01, 0.05, 0.3):
                    if 0.0 < eps < 1.0:
                        assert dg._mixed(sample, table, eps) == (full <= eps)
                assert np.array_equal(sample, before)

    def test_a_nan_row_is_never_mixed(self):
        table = kernels.cdf_table_for(gaussian(4))
        X = substream(37, "mixed-nan").standard_normal((1001, 4))
        for row in (0, 500, 1000):
            Y = X.copy()
            Y[row] = math.nan
            for eps in (0.01, 0.5, 0.999):
                assert not dg._mixed(Y, table, eps)
                assert not sliced_tv_to_target(Y, table) <= eps

    @pytest.mark.parametrize("start, h, eps, max_steps", [
        ("warm-half", 0.15, 0.05, 400), ("origin", 0.15, 0.05, 400),
        ("exact", 0.1, 0.05, 50), ("far", 1e-6, 0.01, 5),
    ])
    def test_count_matches_the_reference_loop(self, start, h, eps, max_steps):
        d = 8
        p = gaussian(d)
        starts = {
            "warm-half": lambda n, rng: math.sqrt(0.5) * rng.standard_normal((n, d)),
            "origin": lambda n, rng: np.zeros((n, d)),
            "exact": lambda n, rng: kernels.sample_separable_target(p, n, rng),
            "far": lambda n, rng: np.full((n, d), 20.0),
        }
        drawn = []

        def sampler(n, rng):
            X0 = starts[start](n, rng)
            drawn.append((X0, X0.copy()))
            return X0

        steps = mixing_time_measure(p, h, sampler, eps, max_steps, 2048, seed=38)
        X0, kept = drawn[0]
        assert np.array_equal(X0, kept)
        assert steps == _mixing_steps_reference(p, h, sampler, eps, max_steps, 2048, 38)
        assert steps == {"exact": 0, "far": max_steps}.get(start, steps)
        if start in ("warm-half", "origin"):
            assert 0 < steps < max_steps


class TestDrawAhead:
    """mixing_time_measure draws each step's normals one step ahead on a
    helper thread; counts, the generator's final state and the thread count
    are those of the step-by-step loop."""

    # (d, h, start scale or far start, eps, max_steps, count): mixed at step 1,
    # or censored. d = 16 is one row block of 2048 replicas, d = 64 four.
    CASES = pytest.mark.parametrize("d, h, start, eps, max_steps, count", [
        (16, 0.5, 0.95, 0.03, 50, 1), (64, 0.5, 0.9, 0.047, 50, 1),
        (16, 1e-6, None, 0.01, 3, 3), (64, 1e-6, None, 0.01, 3, 3),
    ], ids=["d16-mixed", "d64-mixed", "d16-censored", "d64-censored"])

    @staticmethod
    def _sampler(d, start):
        if start is None:
            return lambda n, rng: np.full((n, d), 20.0)
        return lambda n, rng: start * rng.standard_normal((n, d))

    @CASES
    def test_count_matches_the_reference_loop(self, d, h, start, eps, max_steps, count):
        sampler = self._sampler(d, start)
        steps = mixing_time_measure(gaussian(d), h, sampler, eps, max_steps, 2048, seed=39)
        assert steps == count
        assert steps == _mixing_steps_reference(gaussian(d), h, sampler, eps, max_steps,
                                                2048, 39)

    @CASES
    def test_a_generator_seed_ends_where_the_reference_leaves_it(
            self, d, h, start, eps, max_steps, count):
        sampler = self._sampler(d, start)
        ours, theirs = substream(40, "mix-cell"), substream(40, "mix-cell")
        assert (mixing_time_measure(gaussian(d), h, sampler, eps, max_steps, 2048, ours)
                == _mixing_steps_reference(gaussian(d), h, sampler, eps, max_steps,
                                           2048, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("d", [16, 64])
    def test_no_thread_outlives_a_return_or_a_raise(self, d):
        sampler = self._sampler(d, math.sqrt(0.5))
        before = threading.active_count()
        mixing_time_measure(gaussian(d), 0.15, sampler, 0.05, 3, 2048, seed=41)
        assert threading.active_count() == before
        # h = 1e300 makes the first step's log ratios non-finite after its
        # normals are drawn; the generator still ends where the loop's does.
        ours, theirs = substream(42, "mix-cell"), substream(42, "mix-cell")
        for rng, measure in ((ours, mixing_time_measure), (theirs, _mixing_steps_reference)):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(FloatingPointError, match="non-finite"):
                    measure(gaussian(d), 1e300, sampler, 0.05, 3, 2048, rng)
        assert threading.active_count() == before
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_a_request_off_the_schedule_raises(self):
        n, d = 8, 3
        requests = [
            [("random", n)],  # uniforms before the normals
            [("standard_normal", (n, d + 1))],  # a row of the wrong length
            [("standard_normal", (n * d,))],  # not rows
            [("standard_normal", (5, d)), ("standard_normal", (4, d))],  # past n rows
            [("standard_normal", (5, d)), ("random", n)],  # uniforms before the last rows
            [("standard_normal", (n, d)), ("random", n - 1)],  # too few uniforms
            [("standard_normal", (n, d)), ("random", n), ("random", n)],  # twice
        ]
        for schedule in requests:
            rng, reference = substream(43, "off"), substream(43, "off")
            with pytest.raises(ValueError, match="schedule"):
                with kernels._DrawAhead(rng, n, d) as ahead:
                    for method, arg in schedule:
                        served = getattr(ahead, method)(arg)
                        assert np.array_equal(served, getattr(reference, method)(arg))
            assert rng.bit_generator.state == reference.bit_generator.state
        rng, reference = substream(44, "on"), substream(44, "on")
        with kernels._DrawAhead(rng, n, d) as ahead:
            for _ in range(3):
                for rows in (3, 5):
                    assert np.array_equal(ahead.standard_normal((rows, d)),
                                          reference.standard_normal((rows, d)))
                assert np.array_equal(ahead.random(n), reference.random(n))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_concurrent_adapters_under_a_short_switch_interval(self):
        # More adapters than cores, as mix --threads runs its cells, with the
        # interpreter switching threads as often as it can.
        n, d, steps = 64, 5, 40

        def serve(seed, out):
            rng = substream(seed, "stress")
            with kernels._DrawAhead(rng, n, d) as ahead:
                for _ in range(steps):
                    out.append(np.concatenate([ahead.standard_normal((rows, d)).ravel()
                                               for rows in (40, 24)]))
                    out.append(ahead.random(n).copy())
            out.append(rng.random())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            served = [[] for _ in range(4)]
            workers = [threading.Thread(target=serve, args=(45 + k, served[k]))
                       for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for k, out in enumerate(served):
            reference = substream(45 + k, "stress")
            expected = [x for _ in range(steps) for x in (
                reference.standard_normal(n * d), reference.random(n))]
            assert len(out) == 2 * steps + 1
            assert all(np.array_equal(a, b) for a, b in zip(out, expected))
            assert out[-1] == reference.random()

