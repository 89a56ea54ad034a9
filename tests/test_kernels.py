import copy
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from malalab import diagnostics, kernels
from malalab.kernels import (
    KernelParams,
    batch_mala_update,
    init_chain,
    log_accept_ratio,
    ou_exact_step,
    propose_mala,
    run_chain,
    sample_separable_target,
)
from malalab.oracle1d import quad_expectation
from malalab.potentials import Potential, adversarial_cosine, gaussian
from malalab.rng import substream
from test_diagnostics import EXTREME_INPUTS


def batch_means_se(series, n_batches=50):
    """Standard error of the mean of a correlated series via batch means."""
    series = np.asarray(series, dtype=float)
    usable = (len(series) // n_batches) * n_batches
    batches = series[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


class TestProposal:
    def test_variance_at_origin(self):
        p, h, n = gaussian(2), 0.37, 100_000
        rng = substream(123, "prop-var")
        y = propose_mala(p, h, np.zeros((n, 2)), rng)
        se = y[:, 0].__pow__(2).std(ddof=1) / math.sqrt(n)
        for j in range(2):
            assert np.mean(y[:, j] ** 2) == pytest.approx(2 * h, abs=3 * se)

    def test_mean_shrinks_gaussian_state(self):
        p, h, n = gaussian(3), 0.2, 100_000
        x = np.array([1.5, -0.5, 2.0])
        rng = substream(124, "prop-mean")
        y = propose_mala(p, h, np.broadcast_to(x, (n, 3)), rng)
        se = math.sqrt(2 * h / n)
        np.testing.assert_allclose(y.mean(axis=0), (1 - h) * x, atol=3 * se)

    def test_mean_follows_gradient_adversarial(self):
        p, h, n = adversarial_cosine(3, 0.2), 0.15, 100_000
        x = np.array([0.7, -1.1, 0.3])
        rng = substream(125, "prop-adv")
        y = propose_mala(p, h, np.broadcast_to(x, (n, 3)), rng)
        se = math.sqrt(2 * h / n)
        np.testing.assert_allclose(y.mean(axis=0), x - h * p.grad(x), atol=3 * se)

    @pytest.mark.parametrize("shape", [(5,), (7, 5)])
    @pytest.mark.parametrize("p", [gaussian(5), adversarial_cosine(5, 0.2)],
                             ids=["gaussian", "adversarial"])
    def test_bits_follow_the_formula(self, p, shape):
        # The bitwise equality of every MALA path rests on this one
        # association: (x − h·∇V(x)) + sqrt(2h)·xi.
        h = 0.3
        x = substream(126, "prop-bits").standard_normal(shape)
        y = propose_mala(p, h, x, substream(127, "prop-bits"))
        xi = substream(127, "prop-bits").standard_normal(shape)
        np.testing.assert_array_equal(y, (x - h * p.grad(x)) + math.sqrt(2 * h) * xi)


class TestLogAcceptRatio:
    def test_zero_at_equal_points(self):
        for p in (gaussian(4), adversarial_cosine(4, 0.2)):
            x = substream(1, "eq").standard_normal(4)
            assert log_accept_ratio(p, 0.3, x, x) == 0.0

    def test_gaussian_hand_value(self):
        val = log_accept_ratio(gaussian(2), 0.5, np.array([1.0, 0.0]), np.zeros(2))
        assert val == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("p", [gaussian(16), adversarial_cosine(16, 0.2)])
    def test_antisymmetry_is_bitwise(self, p):
        rng = substream(2, "antisym")
        X = rng.standard_normal((10_000, 16))
        Y = rng.standard_normal((10_000, 16))
        fwd = log_accept_ratio(p, 0.3, X, Y)
        bwd = log_accept_ratio(p, 0.3, Y, X)
        np.testing.assert_array_equal(fwd, -bwd)

    def test_gaussian_closed_form(self):
        p, h = gaussian(16), 0.3
        rng = substream(3, "closed")
        X = rng.standard_normal((10_000, 16))
        Y = rng.standard_normal((10_000, 16))
        vals = log_accept_ratio(p, h, X, Y)
        closed = (h / 4) * (np.sum(X**2, axis=1) - np.sum(Y**2, axis=1))
        assert np.max(np.abs(vals - closed)) <= 1e-9

    def test_direct_density_oracle(self):
        # Independent route: explicit Gaussian proposal log densities.
        p, h, d = adversarial_cosine(8, 0.2), 0.23, 8
        rng = substream(4, "oracle")
        for _ in range(200):
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            fwd = stats.norm.logpdf(y, loc=x - h * p.grad(x),
                                    scale=math.sqrt(2 * h)).sum()
            bwd = stats.norm.logpdf(x, loc=y - h * p.grad(y),
                                    scale=math.sqrt(2 * h)).sum()
            direct = (-p.value(y) + bwd) - (-p.value(x) + fwd)
            assert log_accept_ratio(p, h, x, y) == pytest.approx(direct, abs=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            log_accept_ratio(gaussian(2), 0.0, np.zeros(2), np.ones(2))


class TestMalaStep:
    def test_tiny_step_accepts(self):
        summary = run_chain(gaussian(4), KernelParams(h=1e-12), np.ones(4), 10_000, seed=5)
        assert summary.acceptance_rate >= 0.999

    def test_rejection_leaves_state_bitwise_unchanged(self):
        p, h = gaussian(8), 1.9  # large step to force rejections
        X, rng = np.full((50, 8), 2.5), substream(6, "atom")
        saw_rejection = False
        for _ in range(10):
            # One block, so the update proposes exactly as propose_mala.
            Y = propose_mala(p, h, X, copy.deepcopy(rng))
            X_new, accepted, _ = batch_mala_update(p, h, X, rng)
            saw_rejection |= not accepted.all()
            assert X_new[~accepted].tobytes() == X[~accepted].tobytes()
            assert X_new[accepted].tobytes() == Y[accepted].tobytes()
            X = X_new
        assert saw_rejection

    def test_record_invariant(self):
        # Rejected steps add 0.0 exactly, so the sum over the trajectory is
        # the record's sum over accepted steps.
        n = 100
        summary = run_chain(gaussian(3), KernelParams(h=0.8), np.ones(3), n, seed=9, thin=1)
        coord1 = summary.trajectory[:, 0]
        assert 0 < summary.n_accepted < n
        assert summary.mean_sq_displacement_coord1 == sum(
            float((a - b) ** 2) for a, b in zip(coord1[:-1], coord1[1:])) / n


@pytest.mark.parametrize("p", [gaussian(16), adversarial_cosine(64, 0.2)])
@pytest.mark.parametrize("k", [1, 10, 100])
def test_stationarity_preserved(p, k):
    n = 4096
    X = sample_separable_target(p, n, substream(10, "separable-sampling"))
    before = X[:, 0] ** 2
    rng = substream(11, "stationarity", k)
    for _ in range(k):
        X, _, _ = batch_mala_update(p, 0.12, X, rng)
    after = X[:, 0] ** 2
    se = math.sqrt(before.var(ddof=1) / n + after.var(ddof=1) / n)
    assert after.mean() == pytest.approx(before.mean(), abs=3 * se)


def one_block_mala_update(p, h, X, rng):
    """batch_mala_update with the whole ensemble as one block: the reference."""
    value_x, grad_x = p.value_and_grad(X)
    Y = (X - h * grad_x) + math.sqrt(2.0 * h) * rng.standard_normal(X.shape)
    value_y, grad_y = p.value_and_grad(Y)
    log_ratios = kernels._log_ratio_parts(h, X, value_x, grad_x, Y, value_y, grad_y)
    if not np.isfinite(log_ratios).all():
        raise FloatingPointError("non-finite acceptance ratio")
    accepted = np.log(1.0 - rng.random(len(X))) <= log_ratios
    return np.where(accepted[:, None], Y, X), accepted, log_ratios


class TestBlockedBatchUpdate:
    """batch_mala_update moves its rows in blocks, with the bits, draws and
    errors of one block."""

    @pytest.mark.parametrize("make", [gaussian, lambda d: adversarial_cosine(d, 0.2)],
                             ids=["gaussian", "adversarial"])
    @pytest.mark.parametrize("n, d", [(1, 3), (1001, 3), (10_923, 3), (4096, 64),
                                      (3, 2**15 + 1)])
    def test_blocks_match_one_block_bit_for_bit(self, make, n, d):
        # 10 923 rows at d = 3 leave one row for a second block; at
        # d = 2^15 + 1 every block is one row.
        p, h = make(d), d ** (-1 / 3)
        X = sample_separable_target(p, n, substream(40, "separable-sampling"))
        rng, ref_rng = substream(41, "blocks"), substream(41, "blocks")
        got = batch_mala_update(p, h, X, rng)
        want = one_block_mala_update(p, h, X, ref_rng)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.random() == ref_rng.random()

    @staticmethod
    def _assert_raises_as_one_block(p, h, x, row, error, message):
        # x sits in the first or the last of three blocks of ones.
        X = np.ones((2 * kernels._block_rows(p.d) + 5, p.d))
        X[row] = x
        raised = []
        for update in (batch_mala_update, one_block_mala_update):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises((ValueError, FloatingPointError)) as info:
                    update(p, h, X, substream(42, "block-errors"))
            raised.append((type(info.value), str(info.value)))
        assert raised == [(error, message)] * 2

    @EXTREME_INPUTS
    @pytest.mark.parametrize("row", [0, -1], ids=["first-block", "last-block"])
    def test_a_non_finite_ratio_raises_as_in_one_block(self, p, h, x, row):
        self._assert_raises_as_one_block(
            p, h, x, row, FloatingPointError, "non-finite acceptance ratio")

    @pytest.mark.parametrize("row", [0, -1], ids=["first-block", "last-block"])
    def test_a_proposal_leaving_the_reals_raises_as_in_one_block(self, row):
        # At h = 1e300 every row of ones has a ratio of −inf, so a ratio check
        # made block by block would raise FloatingPointError in the first
        # block, before the last block's proposal from 1e160 leaves the reals.
        self._assert_raises_as_one_block(
            gaussian(4), 1e300, np.full(4, 1e160), row,
            ValueError, "input contains non-finite entries")


class TestUlaStep:
    def test_always_accepts(self):
        params = KernelParams(h=0.9, variant=kernels.ULA)
        summary = run_chain(gaussian(2), params, np.ones(2), 50, seed=12, thin=1)
        assert summary.n_accepted == 50
        assert (summary.trajectory[1:] != summary.trajectory[:-1]).all()

    def test_stationary_variance_bias(self):
        # ULA's stationary variance solves s² = (1−h)²·s² + 2h.
        h = 0.1
        summary = run_chain(gaussian(1), KernelParams(h=h, variant=kernels.ULA),
                            np.zeros(1), 200_000, seed=13, thin=1)
        xs = summary.trajectory[20_000:, 0]
        target = 1.0 / (1.0 - h / 2.0)
        se = batch_means_se(xs**2)
        assert np.mean(xs**2) == pytest.approx(target, abs=3 * se)

    def test_small_step_limit_unbiased(self):
        h = 0.002
        summary = run_chain(gaussian(1), KernelParams(h=h, variant=kernels.ULA),
                            np.zeros(1), 400_000, seed=14, thin=1)
        xs = summary.trajectory[50_000:, 0]
        se = batch_means_se(xs**2)
        assert np.mean(xs**2) == pytest.approx(1.0 / (1.0 - h / 2.0), abs=3 * se)


class TestOUExact:
    def test_large_time_forgets_start(self):
        rng = substream(15, "ou-large")
        x = np.full((50_000, 1), 7.3)
        y = ou_exact_step(50.0, x, rng)
        se = 1.0 / math.sqrt(len(y))
        assert y.mean() == pytest.approx(0.0, abs=3 * se)
        se2 = float((y[:, 0] ** 2).std(ddof=1)) / math.sqrt(len(y))
        assert np.mean(y**2) == pytest.approx(1.0, abs=3 * se2)

    def test_variance_from_origin(self):
        h = 0.35
        rng = substream(16, "ou-var")
        y = ou_exact_step(h, np.zeros((100_000, 1)), rng)
        target = -math.expm1(-2 * h)
        se = float((y[:, 0] ** 2).std(ddof=1)) / math.sqrt(len(y))
        assert np.mean(y**2) == pytest.approx(target, abs=3 * se)

    def test_semigroup_composition(self):
        h, n = 0.8, 100_000
        x0 = np.full((n, 1), 1.7)
        one = ou_exact_step(h, x0, substream(17, "one"))
        two = ou_exact_step(h / 2, ou_exact_step(h / 2, x0, substream(18, "a")),
                            substream(18, "b"))
        se_m = math.sqrt(one.var() / n + two.var() / n)
        assert one.mean() == pytest.approx(two.mean(), abs=3 * se_m)
        se_v = math.sqrt(np.var(one**2) / n + np.var(two**2) / n)
        assert np.mean(one**2) == pytest.approx(np.mean(two**2), abs=3 * se_v)


def diffusion_reference_step(p, h, x, substeps, rng):
    """Endpoint of an Euler path with ``substeps`` inner steps of size h/substeps.

    Approximates the time-h law of dX = −∇V(X) dt + sqrt(2) dB started at x;
    each inner step is the Langevin proposal's arithmetic and draw, so
    substeps=1 gives propose_mala's bits. Accepts batches (..., d).
    """
    x = np.asarray(x, dtype=float)
    dt = h / substeps
    for _ in range(substeps):
        x = (x - dt * p.grad(x)) + math.sqrt(2.0 * dt) * rng.standard_normal(x.shape)
    return x


class TestDiffusionReference:
    def test_single_substep_is_the_proposal(self):
        p, h = adversarial_cosine(4, 0.2), 0.3
        x = np.array([0.5, -1.0, 2.0, 0.0])
        a = diffusion_reference_step(p, h, x, 1, substream(19, "same"))
        b = propose_mala(p, h, x, substream(19, "same"))
        np.testing.assert_array_equal(a, b)

    def test_matches_ou_closed_form(self):
        p, h, n = gaussian(2), 0.1, 60_000
        x = np.broadcast_to(np.array([2.0, -1.0]), (n, 2))
        y = diffusion_reference_step(p, h, x, 256, substream(20, "ou-ref"))
        mean_target = math.exp(-h) * np.array([2.0, -1.0])
        var_target = -math.expm1(-2 * h)
        se_m = float(np.max(y.std(axis=0, ddof=1))) / math.sqrt(n)
        np.testing.assert_allclose(y.mean(axis=0), mean_target, atol=3 * se_m)
        centered = (y - mean_target) ** 2
        se_v = float(np.max(centered.std(axis=0, ddof=1))) / math.sqrt(n)
        np.testing.assert_allclose(centered.mean(axis=0), var_target, atol=3 * se_v)

    def test_self_convergence_in_substeps(self):
        # Cauchy differences of the endpoint mean shrink like 1/substeps.
        p, h, d, n = adversarial_cosine(4, 0.2), 1.5, 4, 200_000
        x = np.broadcast_to(np.full(d, 3.0), (n, d))
        means = {}
        for m in (32, 64, 128):
            y = diffusion_reference_step(p, h, x, m, substream(21, "cauchy", m))
            means[m] = float(y.mean())
        se = math.sqrt(2 * h / (n * d))  # per-coordinate-mean noise scale
        d1 = abs(means[32] - means[64])
        d2 = abs(means[64] - means[128])
        assert d1 > 4 * se  # the coarse level is resolvably biased
        assert d2 <= 0.75 * d1 + 3 * math.sqrt(2) * se

    def test_mean_squared_displacement_bound(self):
        # Continuous-time displacement bound E||X_t − x||² <= 3t(d + beta^{2/3}||x||²).
        n = 20_000
        for p, t in ((gaussian(8), 0.3), (adversarial_cosine(8, 0.2), 0.15)):
            assert t <= 1.0 / (3.0 * p.beta ** (4.0 / 3.0))
            x = np.broadcast_to(np.linspace(-1.5, 1.5, 8), (n, 8))
            y = diffusion_reference_step(p, t, x, 64, substream(22, "msd", p.kind))
            sq = np.sum((y - x) ** 2, axis=1)
            bound = 3 * t * (8 + p.beta ** (2.0 / 3.0) * float(np.sum(x[0] ** 2)))
            se = sq.std(ddof=1) / math.sqrt(n)
            assert sq.mean() <= bound + 3 * se

        # Exact OU cross-check for the Gaussian target.
        t, x = 0.3, np.linspace(-1.5, 1.5, 8)
        exact = (1 - math.exp(-t)) ** 2 * np.sum(x**2) + 8 * (-math.expm1(-2 * t))
        assert exact <= 3 * t * (8 + np.sum(x**2))


class TestRunChain:
    def test_zero_steps(self):
        summary = run_chain(gaussian(3), KernelParams(h=0.1), np.ones(3), 0, seed=23)
        np.testing.assert_array_equal(summary.final_x, np.ones(3))
        assert summary.acceptance_rate is None
        assert summary.mean_sq_displacement_coord1 is None

    def test_stationary_second_moment(self):
        p = gaussian(4)
        x0 = sample_separable_target(p, 1, substream(24, "separable-sampling"))[0]
        summary = run_chain(p, KernelParams(h=0.1), x0, 200_000, seed=25, thin=1)
        xs = summary.trajectory[10_000:, 0]
        se = batch_means_se(xs**2)
        assert np.mean(xs**2) == pytest.approx(1.0, abs=3 * se)

    def test_identical_seeds_identical_summaries(self):
        p = adversarial_cosine(3, 0.2)
        a, b = (run_chain(p, KernelParams(h=0.5), np.zeros(3), 2000, seed=26, thin=1)
                for _ in range(2))
        assert a.trajectory.tobytes() == b.trajectory.tobytes()
        np.testing.assert_array_equal(a.final_x, b.final_x)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.mean_sq_displacement_coord1 == b.mean_sq_displacement_coord1

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n_steps, thin", [(-1, 0), (5, -2)])
    def test_negative_step_count_or_thin_rejected(self, d, n_steps, thin):
        with pytest.raises(ValueError, match=f"got {n_steps} and {thin}"):
            run_chain(gaussian(d), KernelParams(h=0.1), np.zeros(d), n_steps, seed=0, thin=thin)

    @staticmethod
    def _public_step_loop(p, params, x0, n_steps, seed, thin):
        # Reference: one step at a time from the public proposal and ratio,
        # with V and ∇V evaluated afresh at every step, recording like
        # run_chain on the stream init_chain derives from the seed.
        x, rng = np.array(x0, dtype=float), substream(seed, "chain")
        snapshots, n_accepted, sq_disp_total = [x], 0, 0.0
        for i in range(1, n_steps + 1):
            y = propose_mala(p, params.h, x, rng)
            if (params.variant == kernels.ULA
                    or math.log(1.0 - rng.random()) <= log_accept_ratio(p, params.h, x, y)):
                n_accepted += 1
                sq_disp_total += float((x[0] - y[0]) ** 2)
                x = y
            if thin > 0 and i % thin == 0:
                snapshots.append(x)
        return np.array(snapshots) if thin > 0 else None, x, n_accepted, sq_disp_total

    def _assert_bits_equal_public_step_loop(self, p, params, x0, n_steps, seed, thin):
        summary = run_chain(p, params, x0, n_steps, seed=seed, thin=thin)
        trajectory, final_x, n_accepted, sq_disp_total = self._public_step_loop(
            p, params, x0, n_steps, seed, thin)
        if thin > 0:
            assert summary.trajectory.shape == trajectory.shape
            assert summary.trajectory.tobytes() == trajectory.tobytes()
        else:
            assert summary.trajectory is None
        assert summary.final_x.tobytes() == final_x.tobytes()
        assert summary.n_accepted == n_accepted
        assert summary.acceptance_rate == n_accepted / n_steps
        assert summary.mean_sq_displacement_coord1 == sq_disp_total / n_steps
        if params.variant == kernels.MALA:
            assert 0 < n_accepted < n_steps

    @pytest.mark.parametrize("thin", [0, 1, 3])
    @pytest.mark.parametrize("seed", [61, 62])
    @pytest.mark.parametrize("d", [1, 7])
    @pytest.mark.parametrize("kind", ["gaussian", "adversarial"])
    @pytest.mark.parametrize("variant", [kernels.MALA, kernels.ULA])
    def test_bits_equal_public_step_loop(self, variant, kind, d, seed, thin):
        # d = 1 runs the float loop, d = 7 the array step; both must give
        # the reference's bits.
        p = gaussian(d) if kind == "gaussian" else adversarial_cosine(d, 0.2)
        params = KernelParams(h=0.5, variant=variant)
        x0 = substream(seed, "x0").standard_normal(d)
        self._assert_bits_equal_public_step_loop(p, params, x0, 300, seed, thin)

    @pytest.mark.parametrize("p, variant", [
        (gaussian(1), kernels.MALA), (adversarial_cosine(1, 0.2), kernels.MALA),
        (gaussian(1), kernels.ULA),
    ], ids=["mala-gaussian", "mala-adversarial", "ula-gaussian"])
    def test_float_chain_bits_equal_public_step_loop_long(self, p, variant):
        # The chain benchmark's three chains at its h, bit for bit over
        # 20 000 steps.
        x0 = substream(63, "x0").standard_normal(1)
        params = KernelParams(h=0.2, variant=variant)
        self._assert_bits_equal_public_step_loop(p, params, x0, 20_000, 63, 1)

    def test_float_chain_squares_the_displacement_like_numpy(self):
        # Seed 466's first ULA step from 0 moves by a t whose t ** 2 (libm's
        # pow, which numpy's scalar power calls) and t * t differ in the last
        # bit; the float loop must take the power, as the array step does.
        p, params = gaussian(1), KernelParams(h=0.5, variant=kernels.ULA)
        t = -run_chain(p, params, np.zeros(1), 1, seed=466).final_x[0]
        if float(t) ** 2 == float(t) * float(t):
            pytest.skip("this platform's pow rounds t ** 2 like t * t")
        self._assert_bits_equal_public_step_loop(p, params, np.zeros(1), 1, 466, 1)

    @staticmethod
    def _count_potential_calls(monkeypatch):
        calls = {"value": 0, "grad": 0}
        for name in calls:
            original = getattr(Potential, name)

            def counted(self, x, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(Potential, name, counted)
        return calls

    @pytest.mark.parametrize("d", [1, 7])
    @pytest.mark.parametrize("variant, value_calls", [
        (kernels.MALA, 1 + 100), (kernels.ULA, 1),
    ])
    def test_float_chain_evaluates_through_potential_methods(
        self, monkeypatch, d, variant, value_calls
    ):
        # Every V and ∇V goes through Potential.value and Potential.grad, on
        # the float loop (d = 1) too, so a wrapper of either sees each step. The chain carries
        # V and ∇V, so a step evaluates them at the proposal only; ULA reads
        # no V after init_chain.
        calls = self._count_potential_calls(monkeypatch)
        run_chain(adversarial_cosine(d, 0.2), KernelParams(h=0.5, variant=variant),
                  np.zeros(d), 100, seed=28)
        assert calls == {"value": value_calls, "grad": 1 + 100}


class TestSampleSeparableTarget:
    def test_gaussian_kolmogorov_smirnov(self):
        n = 100_000
        X = sample_separable_target(gaussian(2), n, substream(28, "separable-sampling"))
        stat = stats.kstest(X[:, 0], "norm").statistic
        assert stat < 1.63 / math.sqrt(n)  # 1% critical value

    def test_adversarial_second_moment_matches_quadrature(self):
        p = adversarial_cosine(1, 0.2)
        n = 100_000
        X = sample_separable_target(p, n, substream(29, "separable-sampling"))
        target = quad_expectation(p, lambda x: x * x)
        se = (X[:, 0] ** 2).std(ddof=1) / math.sqrt(n)
        assert np.mean(X[:, 0] ** 2) == pytest.approx(target, abs=3 * se)
        assert target <= 1.0 + 2.0 * 1.0  # sanity: moment is O(1)

    def test_symmetric_target_has_zero_mean(self):
        p = adversarial_cosine(4, 0.22)
        n = 50_000
        X = sample_separable_target(p, n, substream(30, "separable-sampling"))
        se = X.std(ddof=1) / math.sqrt(n * 4)
        assert float(X.mean()) == pytest.approx(0.0, abs=3 * se)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(h=-1.0)
    with pytest.raises(ValueError):
        KernelParams(h=0.1, variant="rwm")
    with pytest.raises(ValueError):
        KernelParams(h=0.1, variant="ou_exact")  # a one-step kernel, not a chain variant


# One call per place that takes a step size; each must reject h outside (0, inf).
STEP_SITES = {
    "KernelParams": lambda h: KernelParams(h=h),
    "propose_mala": lambda h: propose_mala(gaussian(2), h, np.zeros(2), substream(0, "h")),
    "log_accept_ratio": lambda h: log_accept_ratio(gaussian(2), h, np.zeros(2), np.ones(2)),
    "ou_exact_step": lambda h: ou_exact_step(h, np.zeros(2), substream(0, "h")),
    "batch_mala_update":
        lambda h: batch_mala_update(gaussian(2), h, np.zeros((3, 2)), substream(0, "h")),
    "acceptance_values": lambda h: diagnostics.acceptance_at(gaussian(2), h, np.zeros(2), 8, 0),
    "gaussian_conductance_bound": lambda h: diagnostics.gaussian_conductance_bound(3.0, h, 3),
}


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", sorted(STEP_SITES))
def test_step_size_outside_positive_reals_rejected(site, h):
    with pytest.raises(ValueError, match="step size"):
        STEP_SITES[site](h)


@pytest.mark.parametrize("d", [1, 2])
def test_start_must_be_a_single_point(d):
    p, params = gaussian(d), KernelParams(h=0.2)
    for x0 in (np.zeros((1, d)), np.zeros((3, d))):
        with pytest.raises(ValueError, match=r"shape \(d,\)"):
            init_chain(p, x0, 0)
        with pytest.raises(ValueError, match=r"shape \(d,\)"):
            run_chain(p, params, x0, 5, seed=0)


class TestTableCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(kernels, "_TABLE_CACHE", {})

    def test_equal_builtin_targets_share_one_table(self):
        for make in (lambda: gaussian(3), lambda: adversarial_cosine(64, 0.2)):
            assert kernels.cdf_table_for(make()) is kernels.cdf_table_for(make())
        assert len(kernels._TABLE_CACHE) == 2

    def test_one_table_per_marginal(self):
        # The Gaussian marginal is t²/2 at every d; the perturbed one moves with d.
        assert kernels.cdf_table_for(gaussian(64)) is kernels.cdf_table_for(gaussian(4096))
        assert (kernels.cdf_table_for(adversarial_cosine(64, 0.2))
                is not kernels.cdf_table_for(adversarial_cosine(4096, 0.2)))
        assert len(kernels._TABLE_CACHE) == 3

    def test_concurrent_builders_share_one_table(self):
        p, n_threads = gaussian(5), 4
        barrier = threading.Barrier(n_threads)

        def build():
            barrier.wait(timeout=30)
            return kernels.cdf_table_for(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(n_threads) as pool:
                futures = [pool.submit(build) for _ in range(n_threads)]
                tables = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(kernels._TABLE_CACHE) == 1
        assert all(t is kernels.cdf_table_for(p) for t in tables)
