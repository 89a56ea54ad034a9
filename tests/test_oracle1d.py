import math

import numpy as np
import pytest
from scipy import integrate

from malalab import oracle1d as o1
from malalab.potentials import adversarial_cosine, gaussian
from malalab.oracle1d import (
    AccuracyError,
    CDFTable,
    ConsistencyError,
    coordinate_factor,
    coordinate_factor_first_order,
    gaussian_tv_equal_cov,
    inverse_cdf_table,
    kl_gaussian_vs_adversarial,
    normalizing_constant,
    quad_expectation,
    trig_sin_moment,
)

PHI_1 = 0.8413447460685429  # standard normal CDF at 1


class TestQuadExpectation:
    def test_normalization(self):
        assert quad_expectation(gaussian(1), lambda x: 1.0) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_second_moment(self):
        assert quad_expectation(gaussian(1), lambda x: x * x) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_cosine_characteristic_function(self):
        val = quad_expectation(gaussian(1), lambda x: math.cos(2.0 * x))
        assert val == pytest.approx(math.exp(-2.0), abs=1e-9)

    def test_self_consistency_under_tolerance_halving(self):
        p = adversarial_cosine(512, 0.2)
        a = quad_expectation(p, lambda x: x * x, tol=2e-8)
        b = quad_expectation(p, lambda x: x * x, tol=1e-8)
        assert abs(a - b) < 2e-8


class TestNormalizingConstant:
    def test_gaussian(self):
        assert normalizing_constant(gaussian(1)) == pytest.approx(
            o1.SQRT_2PI, abs=1e-10
        )

    def test_adversarial_exceeds_gaussian(self):
        z = normalizing_constant(adversarial_cosine(256, 0.2))
        assert z > o1.SQRT_2PI

    def test_rate_with_single_fitted_constant(self):
        eta = 0.2
        ds = [2**k for k in range(6, 15, 2)]
        excess = [
            abs(normalizing_constant(adversarial_cosine(d, eta)) / o1.SQRT_2PI - 1.0)
            for d in ds
        ]
        c_fit = excess[0] / ds[0] ** (-4 * eta)
        assert c_fit <= 2.0
        for d, e in zip(ds[1:], excess[1:]):
            assert e <= c_fit * d ** (-4 * eta)


class TestExpectedCos:
    def test_pure_gaussian_profile_closed_form(self):
        eta, d = 0.2, 16
        w = d**eta
        val = quad_expectation(gaussian(1), lambda x: math.cos(w * x))
        assert val == pytest.approx(math.exp(-0.5 * d ** (2 * eta)), abs=1e-9)

    def test_leading_term_at_large_dimension(self):
        eta, d = 0.2, 2**14
        p = adversarial_cosine(d, eta)
        ratio = quad_expectation(p, lambda x: math.cos(p.w * x)) / (
            0.25 * d ** (-2 * eta)
        )
        assert 0.8 <= ratio <= 1.2

    def test_bounded_at_d_one(self):
        p = adversarial_cosine(1, 0.2)
        val = quad_expectation(p, lambda x: math.cos(p.w * x))
        assert -1.0 < val < 1.0


class TestTrigSinMoment:
    def test_quarter_power_example(self):
        val = trig_sin_moment(0, math.pi / 2, 1.0, 0.25, 16)
        assert val == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_zero_phase_is_zero_at_ell_zero(self):
        for b, gamma, d in [(0.5, 0.2, 64), (1.0, 0.25, 16), (2.0, 0.1, 9)]:
            assert trig_sin_moment(0, 0.0, b, gamma, d) == 0.0

    @pytest.mark.parametrize("ell", [0, 1, 2, 3, 4])
    def test_matches_quadrature(self, ell):
        a, b, gamma, d = 0.3, 0.5, 0.2, 64
        w = b * d**gamma
        quad = quad_expectation(
            gaussian(1), lambda x: x**ell * math.sin(a + w * x)
        )
        assert trig_sin_moment(ell, a, b, gamma, d) == pytest.approx(quad, abs=1e-8)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            trig_sin_moment(5, 0.0, 1.0, 0.2, 64)

    def test_decay_with_fitted_constant(self):
        # Once the phase coefficient exceeds 5 the moment decays faster
        # than C/d with C fitted on the smallest admissible dimension.
        ell, a, b, gamma = 1, 0.7, 1.0, 0.3
        ds = [d for d in (2**k for k in range(8, 17, 2)) if b * d**gamma >= 5.0]
        c_fit = abs(trig_sin_moment(ell, a, b, gamma, ds[0])) * ds[0]
        for d in ds[1:]:
            assert abs(trig_sin_moment(ell, a, b, gamma, d)) <= c_fit / d


class TestKL:
    def test_rate_bound(self):
        eta = 0.2
        for k in range(8, 17, 2):
            d = 2**k
            kl = kl_gaussian_vs_adversarial(eta, d)
            assert -1e-8 <= kl <= 2.0 * d ** (1 - 4 * eta)


class TestCoordinateFactor:
    def test_monte_carlo_agreement(self):
        d, eta = 4096, 0.2
        h = d**-0.4
        amp = 0.5 * d ** (-2 * eta)
        w = d**eta
        x1 = -3.7
        rng = np.random.default_rng(12)
        n = 1_000_000
        y = (1 - h) * x1 / (1 + h * h) + math.sqrt(2 * h / (1 + h * h)) * (
            rng.standard_normal(n)
        )
        s = np.sin(w * y)
        vals = np.exp(
            amp * np.cos(w * y)
            + ((1 - h) * y - x1) * (0.5 * amp * w) * s
            - 0.25 * h * (amp * w * s) ** 2
        )
        se = vals.std(ddof=1) / math.sqrt(n)
        assert coordinate_factor(x1, h, eta, d) == pytest.approx(
            float(vals.mean()), abs=3 * se
        )

    @pytest.mark.parametrize("d,h", [(4096, 4096**-0.4), (256, 0.05)],
                             ids=["d4096-h_d^-0.4", "d256-h0.05"])
    def test_first_order_closed_form_matches_quadrature(self, d, h):
        # L1 must be the expectation of exactly the first-order terms of
        # coordinate_factor's exponent, over the Gaussian it integrates
        # against; criterion 7 bounds ln F − L1.
        eta = 0.2
        amp = 0.5 * d ** (-2 * eta)
        w = d**eta
        s = math.sqrt(2 * h / (1 + h * h))
        edge = 4 * math.sqrt(math.log(8 * d))
        for x1 in (-edge, -1.3, 0.0, 0.7, 2.2, edge):
            m = (1 - h) * x1 / (1 + h * h)

            def first_order(xi):
                y = m + s * xi
                return (amp * math.cos(w * y)
                        + ((1 - h) * y - x1) * (0.5 * amp * w) * math.sin(w * y)
                        ) * math.exp(-0.5 * xi * xi) / math.sqrt(2 * math.pi)

            quad, _ = integrate.quad(first_order, -12, 12, epsabs=1e-13,
                                     epsrel=1e-13, limit=400)
            closed = coordinate_factor_first_order(x1, h, eta, d)
            assert closed == pytest.approx(quad, abs=1e-10)

    @pytest.mark.parametrize("cross_sign", [-1.0, 0.0],
                             ids=["cross-term-flipped", "cross-term-dropped"])
    def test_remainder_cap_rejects_wrong_cross_term(self, cross_sign):
        # Criterion 7 caps ln F − L1 at (1/16 + 5)·d^-4eta. A factor built
        # from a wrong integrand must break that cap, or the corrected
        # check could not fail: with the cross term's sign flipped the
        # remainder reaches about 22.4·d^-4eta, with it dropped about 11.1.
        eta, d = 0.2, 4096
        h = d**-0.4
        rate = d ** (-4 * eta)
        amp = 0.5 * d ** (-2 * eta)
        w = d**eta
        s = math.sqrt(2 * h / (1 + h * h))
        edge = 4 * math.sqrt(math.log(8 * d))
        worst = -math.inf
        for x1 in np.linspace(-edge, edge, 81):
            m = (1 - h) * x1 / (1 + h * h)

            def wrong(xi):
                y = m + s * xi
                sin_wy = math.sin(w * y)
                expo = (amp * math.cos(w * y)
                        + cross_sign * ((1 - h) * y - x1) * (0.5 * amp * w) * sin_wy
                        - 0.25 * h * (amp * w * sin_wy) ** 2)
                return math.exp(expo - 0.5 * xi * xi) / math.sqrt(2 * math.pi)

            f_wrong, _ = integrate.quad(wrong, -12, 12, epsabs=1e-12,
                                        epsrel=1e-12, limit=400)
            remainder = math.log(f_wrong) - coordinate_factor_first_order(
                x1, h, eta, d)
            worst = max(worst, remainder / rate)
        assert worst > 1.0 / 16.0 + 5.0, f"remainder {worst:.2f}·d^-4eta"

    def test_h_range_validated(self):
        with pytest.raises(ValueError):
            coordinate_factor(0.0, 0.0, 0.2, 64)
        with pytest.raises(ValueError):
            coordinate_factor(0.0, 1.0, 0.2, 64)
        with pytest.raises(ValueError):
            coordinate_factor_first_order(0.0, 1.0, 0.2, 64)


class TestGaussianTV:
    def test_zero_distance(self):
        assert gaussian_tv_equal_cov(0.0, 1.3) == 0.0

    def test_two_sigma_separation(self):
        assert gaussian_tv_equal_cov(2.0, 1.0) == pytest.approx(
            2 * PHI_1 - 1, abs=1e-12
        )

    def test_dominated_by_lipschitz_bound(self):
        # TV between proposals at x and y is at most ||x−y||/sqrt(2h).
        h = 0.15
        for delta in np.linspace(0.0, 4.0, 17):
            assert gaussian_tv_equal_cov(delta, 2 * h) <= delta / math.sqrt(2 * h) + 1e-12

    def test_requires_positive_variance(self):
        with pytest.raises(ValueError):
            gaussian_tv_equal_cov(1.0, 0.0)


class TestInverseCDFTable:
    def test_gaussian_median(self):
        table = inverse_cdf_table(gaussian(1))
        assert abs(table.inverse(0.5)) <= 1e-8

    def test_gaussian_quantile_at_one_sigma(self):
        table = inverse_cdf_table(gaussian(1))
        assert table.inverse(PHI_1) == pytest.approx(1.0, abs=1e-6)

    def test_roundtrip_adversarial(self):
        table = inverse_cdf_table(adversarial_cosine(256, 0.2))
        us = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(table.cdf_at(table.inverse(us)), us, atol=1e-6)

    def test_non_monotone_cdf_rejected(self):
        grid = np.linspace(-1, 1, 65)
        cdf = np.linspace(0, 1, 65)
        cdf[10] = 0.5  # break monotonicity
        with pytest.raises(ConsistencyError):
            CDFTable(grid, cdf, tol=1e-8)

    def test_endpoint_mass_checked(self):
        grid = np.linspace(-1, 1, 65)
        cdf = np.linspace(0.2, 0.9, 65)
        with pytest.raises(ConsistencyError):
            CDFTable(grid, cdf, tol=1e-8)


@pytest.mark.parametrize("d, eta", [(1, 0.2), (64, 0.2), (4096, 0.195)])
def test_profiles_are_the_closed_form_bitwise(d, eta):
    # The oracles integrate the target's own v: t²/2 − amp·cos(w·t).
    ts = np.linspace(-9.0, 9.0, 1001)
    w, amp = d**eta, 0.5 * d ** (-2.0 * eta)
    closed = 0.5 * ts * ts - amp * np.cos(w * ts)
    assert adversarial_cosine(d, eta).profile_value(ts).tobytes() == closed.tobytes()
    half_square = 0.5 * ts**2
    for p in (gaussian(1), gaussian(d)):
        assert p.profile_value(ts).tobytes() == half_square.tobytes()


def test_tail_certificate_rejects_small_radius():
    with pytest.raises(ValueError):
        quad_expectation(gaussian(1), lambda x: x * x, tol=1e-30)


def test_second_moment_sandwich():
    eta = 0.2
    for k in (8, 10, 12, 14):
        d = 2**k
        m2 = quad_expectation(adversarial_cosine(d, eta), lambda x: x * x)
        bound = 2.0 * d ** (-4 * eta)
        assert 1.0 - bound <= m2 <= 1.0 + bound


def test_quad_accuracy_error_raised():
    # A needle too thin for the subdivision budget triggers the error path.
    with pytest.raises(AccuracyError):
        o1.quad_expectation(gaussian(1), lambda x: math.sin(3e5 * x) ** 2, tol=1e-13)
