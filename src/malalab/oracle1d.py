"""High-accuracy 1-D quadrature and closed forms for the marginal target.

This module is the independent oracle layer behind the statistical tests:
expectations under the 1-D marginal pi_1 ∝ exp(−v) of a target's profile v
(:meth:`Potential.profile_value`) and its normalizing constant, both taking
the target's Potential; exact trigonometric Gaussian moments, the KL
divergence of the standard Gaussian from the perturbed product target, the
per-coordinate acceptance factor of the collapse mechanism and its
first-order part in closed form, the equal-covariance Gaussian TV closed
form, and an inverse-CDF table of a target's marginal for exact sampling.

The quadrature contract is absolute tolerance (TOL unless a caller of
:func:`quad_expectation` asks for another) with refinement until the error
estimate passes; integration is delegated to adaptive Gauss-Kronrod
(scipy.integrate.quad) and re-run with a larger subdivision limit before
giving up with :class:`AccuracyError`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import erfc

from .potentials import Potential, adversarial_cosine

SQRT_2PI = math.sqrt(2.0 * math.pi)


class AccuracyError(RuntimeError):
    """Adaptive refinement could not certify the requested tolerance."""


class ConsistencyError(RuntimeError):
    """A numerically constructed object violated its own invariants."""


#: Absolute tolerance of every oracle integral, and of the tables' tail mass.
TOL = 1e-10
#: Nodes of every inverse-CDF table.
N_GRID = 8193


def _radius(p: Potential, tol: float) -> float:
    """Radius R = max(10, 10/sqrt(alpha)) of the integration domain [−R, R].

    Both kinds of target have a symmetric profile with its minimum at 0, so
    v(t) >= v(0) + alpha·t²/2 bounds the mass beyond ±R by
    e^offset·sqrt(2π/alpha)·erfc(R·sqrt(alpha/2)), offset = max(0, −v(0));
    that bound must be at most ``tol``.
    """
    radius = max(10.0, 10.0 / math.sqrt(p.alpha))
    offset = max(0.0, -float(p.profile_value(0.0)))
    tail = math.exp(offset) * math.sqrt(2.0 * math.pi / p.alpha) * float(
        erfc(radius * math.sqrt(p.alpha / 2.0))
    )
    if tail > tol:
        raise ValueError(f"tail mass beyond ±{radius} not certified below tol={tol}")
    return radius


def _integrate(f, lo: float, hi: float, tol: float) -> float:
    """Adaptive quadrature with refinement until the error estimate <= tol."""
    for limit in (400, 4000):
        out = integrate.quad(
            f, lo, hi, epsabs=tol / 2.0, epsrel=1e-12, limit=limit, full_output=1
        )
        val, abserr = out[0], out[1]
        if abserr <= tol:
            return float(val)
    raise AccuracyError(
        f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:.3e}"
    )


def _density(p: Potential) -> Callable[[float], float]:
    return lambda t: math.exp(-float(p.profile_value(t)))


def normalizing_constant(p: Potential) -> float:
    """Z = ∫ exp(−v) over [−R, R] for the target's 1-D profile v, to TOL."""
    radius = _radius(p, TOL)
    return _integrate(_density(p), -radius, radius, TOL)


def quad_expectation(p: Potential, g: Callable, tol: float = TOL) -> float:
    """E_{pi_1}[g] = ∫ g·exp(−v) / Z under the target's marginal, to about tol.

    ``g`` must be scalar-evaluable and dominated by a polynomial so the
    truncated domain carries the full integral up to the certified tail.
    """
    radius = _radius(p, tol)
    density = _density(p)
    inner = tol / 4.0
    z = _integrate(density, -radius, radius, inner)
    num = _integrate(lambda t: float(g(t)) * density(t), -radius, radius, inner)
    return num / z


def trig_sin_moment(ell: int, a: float, b: float, gamma: float, d: int) -> float:
    """Exact E[xi^ell · sin(a + b·d^gamma·xi)] for standard Gaussian xi.

    Closed form via derivatives of the Gaussian characteristic function at
    t = b·d^gamma; supported for ell in 0..4.
    """
    if not isinstance(ell, (int, np.integer)) or not 0 <= ell <= 4:
        raise ValueError(f"ell must be an integer in 0..4, got {ell}")
    t = b * d**gamma
    damp = math.exp(-0.5 * t * t)
    if ell == 0:
        return math.sin(a) * damp
    if ell == 1:
        return math.cos(a) * t * damp
    if ell == 2:
        return -math.sin(a) * (t * t - 1.0) * damp
    if ell == 3:
        return -math.cos(a) * (t**3 - 3.0 * t) * damp
    return math.sin(a) * (t**4 - 6.0 * t * t + 3.0) * damp


def kl_gaussian_vs_adversarial(eta: float, d: int) -> float:
    """KL(N(0, I_d) || perturbed product target) from quadrature + closed form.

    Equals d·[ln(Z/sqrt(2π)) − amp·E_gamma cos(d^eta·xi)] with
    amp = 1/(2 d^{2·eta}) and the Gaussian cosine moment available exactly
    as exp(−d^{2·eta}/2).
    """
    p = adversarial_cosine(d, eta)
    z = normalizing_constant(p)
    # One power, not p.w * p.w, whose last bit can differ: verify prints this.
    gaussian_cos = math.exp(-0.5 * d ** (2.0 * eta))
    return d * (math.log(z / SQRT_2PI) - p.amp * gaussian_cos)


def _coordinate_gaussian(
    x1: float, h: float, eta: float, d: int,
) -> tuple[float, float, float, float]:
    """(amp, w, m, s) shared by the coordinate-factor oracles: y ~ N(m, s²)."""
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must lie in (0, 1), got {h}")
    target = adversarial_cosine(d, eta)
    m = (1.0 - h) * x1 / (1.0 + h * h)
    s = math.sqrt(2.0 * h / (1.0 + h * h))
    return target.amp, target.w, m, s


def _coordinate_exponent(y, x1, h, amp, w, sin_wy, cos_wy):
    """Exponent of :func:`coordinate_factor`'s integrand at y (floats or arrays),
    given sin(w·y) and cos(w·y)."""
    return (amp * cos_wy + ((1.0 - h) * y - x1) * (0.5 * amp * w) * sin_wy
            - 0.25 * h * (amp * w * sin_wy) ** 2)


def coordinate_factor(
    x1: float, h: float, eta: float, d: int,
) -> float:
    """Per-coordinate acceptance factor of the collapse mechanism.

    For y drawn from N((1−h)·x1/(1+h²), 2h/(1+h²)), returns

        E exp[ amp·cos(w·y) + ((1−h)·y − x1)·(amp·w/2)·sin(w·y)
               − (h/4)·(amp·w)²·sin²(w·y) ]

    with w = d^eta and amp = 1/(2 d^{2·eta}), integrated to 1e-10
    (absolute) in the standardized variable y = m + s·xi, xi ~ N(0, 1).

    This is the y-dependent part of the per-coordinate MALA log ratio.
    Averaging the ratio pi(y)·Q_y(x)/(pi(x)·Q_x(y)) over the proposal y ~ Q_x
    cancels the forward density Q_x(y), and with it every term in
    s(x1) = amp·w·sin(w·x1): the proposal's −h·s(x1) mean shift and the
    s(x1)·(y − (1−h)·x1)/2 term of the ratio. The Gaussian part of
    pi(y)·Q_y(x) is, in y, the density of N(m, s²) above; the exponent is
    what remains.

    The exponent's terms first-order in amp have exact Gaussian expectations
    (:func:`coordinate_factor_first_order`), each carrying the damping factor
    exp(−d^{2·eta}·h/(1+h²)) = exp(−w²s²/2). At h = d^{−2·eta} that factor
    is about e^{−1} for every d, so these terms are O(d^{−2·eta}); the
    second-order remainder ln F − L1 is the part of order d^{−4·eta}.
    """
    amp, w, m, s = _coordinate_gaussian(x1, h, eta, d)

    def integrand(xi: float) -> float:
        y = m + s * xi
        expo = _coordinate_exponent(y, x1, h, amp, w, math.sin(w * y), math.cos(w * y))
        return math.exp(expo - 0.5 * xi * xi) / SQRT_2PI

    return _integrate(integrand, -12.0, 12.0, TOL)


def coordinate_factor_first_order(x1: float, h: float, eta: float, d: int) -> float:
    """Exact expectation L1 of the first-order-in-amp part of the exponent
    of :func:`coordinate_factor`, under the same y = m + s·xi:

        L1 = amp·E cos(w·y)
             + (amp·w/2)·[((1−h)·m − x1)·E sin(w·y) + (1−h)·s·E xi·sin(w·y)]

    Each expectation is a :func:`trig_sin_moment`, so L1 is independent of
    the quadrature and carries the factor exp(−w²s²/2).
    """
    amp, w, m, s = _coordinate_gaussian(x1, h, eta, d)
    # E[xi^ell·sin(a + w·s·xi)] with the phase a = w·m; cos(θ) = sin(θ + π/2).
    e_cos = trig_sin_moment(0, w * m + 0.5 * math.pi, w * s, 0.0, 1)
    e_sin = trig_sin_moment(0, w * m, w * s, 0.0, 1)
    e_xi_sin = trig_sin_moment(1, w * m, w * s, 0.0, 1)
    return amp * e_cos + 0.5 * amp * w * (
        ((1.0 - h) * m - x1) * e_sin + (1.0 - h) * s * e_xi_sin
    )


def gaussian_tv_equal_cov(mean_dist: float, sigma2: float) -> float:
    """TV distance between N(m1, sigma2·I) and N(m2, sigma2·I).

    Depends only on Δ = ||m1 − m2|| and equals 2·Phi(Δ/(2σ)) − 1.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    z = abs(mean_dist) / (2.0 * math.sqrt(sigma2))
    return math.erf(z / math.sqrt(2.0))


class CDFTable:
    """Monotone CDF table of a 1-D marginal with interpolated inverse.

    Immutable after construction. ``inverse`` maps uniforms to samples,
    ``cdf_at`` evaluates the CDF; both accept scalars or arrays.
    """

    def __init__(self, grid: np.ndarray, cdf: np.ndarray, tol: float):
        grid = np.asarray(grid, dtype=float)
        cdf = np.asarray(cdf, dtype=float)
        if grid.ndim != 1 or grid.shape != cdf.shape:
            raise ValueError("grid and cdf must be matching 1-D arrays")
        if np.any(np.diff(cdf) < 0) or not np.all(np.isfinite(cdf)):
            raise ConsistencyError("numeric CDF is not nondecreasing")
        if cdf[0] > tol or cdf[-1] < 1.0 - tol:
            raise ConsistencyError("CDF endpoints violate the tail tolerance")
        self.grid = grid
        self.cdf = cdf
        # Strictly increasing subsequence for the inverse; ties can only
        # occur where the density underflows in the far tails.
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        self._forward = PchipInterpolator(grid, cdf, extrapolate=False)
        self._inverse = PchipInterpolator(cdf[keep], grid[keep], extrapolate=False)
        self._u_lo = float(cdf[keep][0])
        self._u_hi = float(cdf[keep][-1])

    def inverse(self, u):
        """Quantile function evaluated by monotone interpolation."""
        u = np.clip(np.asarray(u, dtype=float), self._u_lo, self._u_hi)
        out = self._inverse(u)
        return float(out) if out.ndim == 0 else out

    def cdf_at(self, x):
        """CDF evaluated by monotone interpolation; clamped outside the grid."""
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x, self.grid[0], self.grid[-1])
        out = self._forward(clipped)
        return float(out) if out.ndim == 0 else out


def inverse_cdf_table(p: Potential) -> CDFTable:
    """Tabulate the CDF of the target's 1-D marginal on N_GRID uniform nodes
    over [−R, R] with a per-cell Simpson rule.

    The tail mass beyond the grid is certified below TOL, so the table is
    normalized to [0, 1] exactly.
    """
    radius = _radius(p, TOL)
    grid = np.linspace(-radius, radius, N_GRID)
    mids = 0.5 * (grid[:-1] + grid[1:])
    f_nodes = np.exp(-p.profile_value(grid))
    f_mids = np.exp(-p.profile_value(mids))
    dx = grid[1] - grid[0]
    increments = (dx / 6.0) * (f_nodes[:-1] + 4.0 * f_mids + f_nodes[1:])
    cdf = np.concatenate(([0.0], np.cumsum(increments)))
    cdf /= cdf[-1]
    return CDFTable(grid, cdf, tol=TOL)
