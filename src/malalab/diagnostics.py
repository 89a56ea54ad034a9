"""Monte-Carlo and closed-form estimators for the chain's core observables.

Implemented observables:

* acceptance at a state, A(x) = E_{y~Q_x} min(1, a(x, y)), whose complement
  1 − A(x) is the adjusted kernel's total variation ||T_x − Q_x||_TV from Q_x;
* mean acceptance over exact stationary draws, restricted to the
  typical-set event ||x||_inf < 4·sqrt(ln(8d));
* a closed-form bound on A(x) for the Gaussian target (conductance collapse);
* a Dirichlet-form upper estimate of the spectral gap using the first
  coordinate as test function;
* a generic one-sample TV estimator TV(P, Q) = E_P[(1 − q/p)_+];
* the projection inequality check E||T_x − Q_x||_TV <= 2·E||Qbar_x − Q_x||_TV
  for the Gaussian target, with Qbar the exact OU kernel;
* a per-coordinate empirical-CDF ("sliced") TV proxy and a mixing-time
  measurement built on it.

Every estimator returns a standard error so statistical claims can be
asserted with a 3-SE margin; estimators derive their own RNG substreams
from the given seed and draw and reduce in a fixed order, so they are
deterministic and safe to parallelize externally. The acceptance estimators'
block arithmetic and the mixing time's draws run on threads of their own.

The sliced TV of a law lower-bounds its full total variation in R^d, but an
ensemble's estimate adds a finite-sample noise floor, so a measured mixing
count is the first step at which the estimate, floor included, is at most
eps, not a lower bound on the TV mixing time; mean
acceptance restricted to the typical-set event estimates an average over
finitely many sampled states, never a supremum over the event.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels, oracle1d
from .potentials import Potential, gaussian
from .rng import substream


@dataclass(frozen=True)
class EstimateWithSE:
    """Point estimate with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0 or self.n_samples < 1:
            raise ValueError("std_error must be >= 0 and n_samples >= 1")


def _mean_se(values: np.ndarray) -> EstimateWithSE:
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EstimateWithSE(value=float(values.mean()), std_error=se, n_samples=n)


def _sup_bound(d: int) -> float:
    """Typical-set bound 4·sqrt(ln(8d)) on ||x||_inf; holds with probability >= 1 − 1/(4d)."""
    return 4.0 * math.sqrt(math.log(8.0 * d))


# Acceptance worker threads, and the most row blocks drawn ahead of them.
_ACCEPT_WORKERS = 2
_ACCEPT_AHEAD = 4


def _acceptance_block(p: Potential, h: float, x, value_x, grad_x, noise, out) -> None:
    *_, log_ratios = kernels._propose_and_ratio(p, h, x, value_x, grad_x, noise)
    out[:] = np.exp(np.minimum(kernels._require_finite(log_ratios), 0.0))


def _acceptance_values(p: Potential, h: float, X, n_mc: int, rngs) -> np.ndarray:
    """min(1, a(x, y)) for n_mc proposals y ~ Q_x from each row x of X, drawn
    from the matching generator of ``rngs``; V and ∇V are evaluated once at x
    and once at each y. This thread draws the normals of every block of
    ``kernels._BLOCK_ELEMENTS`` elements in order, at most ``_ACCEPT_AHEAD``
    ahead; ``_ACCEPT_WORKERS`` threads, joined on return, compute each into
    its own slice in a copy of this context (numpy's errstate). No draw or bit
    moves; a non-finite log ratio raises FloatingPointError."""
    kernels._check_step(h)
    chunk = kernels._block_rows(X.shape[1])
    out = np.empty((len(X), n_mc))
    drawn = []
    with ThreadPoolExecutor(_ACCEPT_WORKERS) as pool:
        for x, rng, values in zip(X, rngs, out):
            value_x, grad_x = p.value_and_grad(x)
            for done in range(0, n_mc, chunk):
                while len(drawn) >= _ACCEPT_AHEAD:
                    drawn.pop(0).result()
                noise = rng.standard_normal((min(chunk, n_mc - done), len(x)))
                future = pool.submit(contextvars.copy_context().run, _acceptance_block, p, h,
                                     x, value_x, grad_x, noise, values[done:done + len(noise)])
                drawn.append(future)
        for future in drawn:
            future.result()
    return out


def acceptance_at(p: Potential, h: float, x, n_mc: int, seed) -> EstimateWithSE:
    """Monte-Carlo estimate of A(x) = E_{y~Q_x} min(1, a(x, y))."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    rng = substream(seed, "acceptance-at")
    return _mean_se(_acceptance_values(p, h, np.asarray(x, dtype=float)[None], n_mc, [rng])[0])


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Mean acceptance over stationary states, with filter bookkeeping."""

    estimate: EstimateWithSE
    n_states: int
    n_mc: int
    filter_rejected_fraction: float


def mean_acceptance(
    p: Potential,
    h: float,
    n_states: int,
    n_mc: int,
    seed=0,
) -> AcceptanceEstimate:
    """Double Monte-Carlo estimate of E_{x~pi} A(x) over exact stationary draws.

    Draws ``n_states`` exact samples from the target, drops those outside
    the typical-set event ||x||_inf < 4·sqrt(ln(8d)) (the dropped fraction
    is reported), and estimates A(x) per surviving state with ``n_mc``
    proposals, all states' blocks in one pipeline on two worker threads. The
    SE is the between-state SE of the per-state means (both sampling layers).
    """
    if n_states < 2 or n_mc < 1:
        raise ValueError("need n_states >= 2 and n_mc >= 1")
    X = kernels.sample_separable_target(p, n_states, substream(seed, "states"))
    keep = np.max(np.abs(X), axis=1) < _sup_bound(p.d)
    rejected_fraction = 1.0 - float(keep.mean())
    X = X[keep]
    if len(X) < 2:
        raise ValueError("typical-set filter removed almost every state")
    rngs = (substream(seed, "proposals", i) for i in range(len(X)))
    per_state = [values.mean() for values in _acceptance_values(p, h, X, n_mc, rngs)]
    return AcceptanceEstimate(estimate=_mean_se(per_state), n_states=len(X), n_mc=n_mc,
                              filter_rejected_fraction=rejected_fraction)


def gaussian_conductance_bound(x_norm2: float, h: float, d: int) -> float:
    """Closed-form bound on ∫ Q(x, y) A(x, y) dy for the standard Gaussian target.

    Equals exp[ h²(1 − h/4)/(4(1 + h²/2)) · ||x||² − (d/2)·ln(1 + h²/2) ];
    with ||x||² <= d and h = d^{−r} for r < 1/3 this is exp(−h³d/16·(1+O(h)))
    and certifies the conductance collapse at too-large step sizes.
    """
    kernels._check_step(h)
    if x_norm2 < 0:
        raise ValueError("x_norm2 must be nonnegative")
    exponent = (
        h * h * (1.0 - h / 4.0) / (4.0 * (1.0 + h * h / 2.0)) * x_norm2
        - 0.5 * d * math.log1p(h * h / 2.0)
    )
    return math.exp(exponent)


def dirichlet_gap_upper(p: Potential, h: float, n: int, seed) -> EstimateWithSE:
    """Upper estimate of the spectral gap from the Dirichlet form of f(x) = x_1.

    Over exact stationary states x and realized MALA transitions y ~ T(x, ·),
    estimates (E[(x_1 − y_1)²]/2) / Var(x_1); reversibility turns the
    squared-increment form into the Dirichlet form, and restricting to a
    single test function upper-bounds the infimum defining the gap.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    X = kernels.sample_separable_target(p, n, substream(seed, "gap-states"))
    X_new, _, _ = kernels.batch_mala_update(p, h, X, substream(seed, "gap-proposals"))
    increments = 0.5 * (X[:, 0] - X_new[:, 0]) ** 2
    x1 = X[:, 0]
    var_x1 = float(x1.var(ddof=1))
    num = _mean_se(increments)
    if num.value == 0.0:
        return EstimateWithSE(value=0.0, std_error=0.0, n_samples=n)
    centered_sq = (x1 - x1.mean()) ** 2
    se_var = float(centered_sq.std(ddof=1) / math.sqrt(n))
    value = num.value / var_x1
    rel = math.sqrt((num.std_error / num.value) ** 2 + (se_var / var_x1) ** 2)
    return EstimateWithSE(value=value, std_error=value * rel, n_samples=n)


def tv_mc_estimate(
    log_p: Callable, log_q: Callable, sampler_p: Callable, n: int, rng
) -> EstimateWithSE:
    """One-sample TV estimator TV(P, Q) = E_P[(1 − q(X)/p(X))_+].

    ``sampler_p(n, rng)`` must return n draws from P; ``log_p`` and ``log_q``
    evaluate unnormalized-free log densities on those draws (they must share
    support P-almost surely). Values are clipped to [0, 1] pointwise.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    X = sampler_p(n, rng)
    lp = np.asarray(log_p(X), dtype=float)
    lq = np.asarray(log_q(X), dtype=float)
    if not np.all(np.isfinite(lp)) or np.any(np.isnan(lq)) or np.any(lq == np.inf):
        raise FloatingPointError("non-finite log densities in TV estimator")
    return _mean_se(np.clip(1.0 - np.exp(lq - lp), 0.0, 1.0))


def isotropic_gaussian_logpdf(X, mean, var: float):
    """Log density of N(mean, var·I) evaluated row-wise."""
    X = np.asarray(X, dtype=float)
    d = X.shape[-1]
    sq = np.sum((X - mean) ** 2, axis=-1)
    return -0.5 * (d * math.log(2.0 * math.pi * var) + sq / var)


@dataclass(frozen=True)
class ProjectionReport:
    """Both sides of the projection inequality with the decision threshold."""

    lhs: EstimateWithSE
    rhs: EstimateWithSE
    threshold: float
    n_states: int
    n_mc: int

    @property
    def passed(self) -> bool:
        """lhs <= threshold; a NaN fails."""
        return self.lhs.value <= self.threshold


def projection_check_gaussian(
    h: float, d: int, n_states: int, n_mc: int, seed
) -> ProjectionReport:
    """Check E||T_x − Q_x||_TV <= 2·E||Qbar_x − Q_x||_TV for the Gaussian target.

    Qbar is the exact OU kernel N(e^{−h}x, (1 − e^{−2h})·I) and Q the MALA
    proposal N((1 − h)x, 2h·I); states are exact stationary draws. The left
    side is the mean of 1 − A(x), A as in :func:`acceptance_at`; the right is
    the one-sample TV estimator under Qbar. The inequality is asserted with a
    3-combined-SE margin. Requires n_mc >= 100 and h <= 1/3, the validity
    range of the discretization bound backing this comparison.
    """
    if not 0.0 < h <= 1.0 / 3.0:
        raise ValueError("projection check requires 0 < h <= 1/3")
    if n_mc < 100:
        raise ValueError("n_mc must be >= 100")
    states = substream(seed, "projection-states").standard_normal((n_states, d))
    ou_var = -math.expm1(-2.0 * h)
    decay = math.exp(-h)
    rngs = (substream(seed, "projection-reject", i) for i in range(n_states))
    lhs = [1.0 - a.mean() for a in _acceptance_values(gaussian(d), h, states, n_mc, rngs)]
    rhs = np.empty(n_states)
    for i, x in enumerate(states):
        mean_q = (1.0 - h) * x
        mean_ou = decay * x

        def sampler(n, rng, mean_ou=mean_ou):
            return mean_ou + math.sqrt(ou_var) * rng.standard_normal((n, d))

        rhs[i] = tv_mc_estimate(
            lambda Y: isotropic_gaussian_logpdf(Y, mean_ou, ou_var),
            lambda Y: isotropic_gaussian_logpdf(Y, mean_q, 2.0 * h),
            sampler, n_mc, substream(seed, "projection-tv", i),
        ).value
    lhs_est, rhs_est = _mean_se(lhs), _mean_se(rhs)
    threshold = 2.0 * rhs_est.value + 3.0 * math.sqrt(
        lhs_est.std_error**2 + 4.0 * rhs_est.std_error**2
    )
    return ProjectionReport(lhs=lhs_est, rhs=rhs_est, threshold=threshold,
                            n_states=n_states, n_mc=n_mc)


# Sorted samples per block of the pruned sliced-TV scan, the slack below
# the best block-end gap within which a block is still evaluated in full, and
# the fewest samples for which the sliced TV is defined.
_TV_BLOCK = 16
_TV_MARGIN = 1e-9
_TV_MIN_ROWS = 1000


def _block_end_gaps(X: np.ndarray, cols: slice, table: oracle1d.CDFTable):
    """Coordinates ``cols`` of X sorted, one row each in a copy; the block ends
    of the pruned scan; F at them; and the gaps i/n − F and F − (i−1)/n there."""
    n = len(X)
    Xs = X[:, cols].T.copy()
    Xs.sort(axis=1)
    ends = np.r_[np.arange(_TV_BLOCK - 1, n - 1, _TV_BLOCK), n - 1]
    i_ends = (ends + 1) / n
    F_ends = table.cdf_at(Xs[:, ends])
    return Xs, ends, F_ends, i_ends - F_ends, F_ends - (i_ends - 1.0 / n)


def sliced_tv_to_target(samples, table: oracle1d.CDFTable) -> float:
    """Max over coordinates of the empirical-CDF sup distance to the marginal.

    The sliced TV of a law lower-bounds its full d-dimensional TV distance
    to the product target, but this estimate from n samples carries a noise
    floor (for exact draws, the maximum of d one-sample KS statistics), so
    it does not lower-bound the TV of the samples' law. Requires at least
    ``_TV_MIN_ROWS`` samples.

    The CDF is evaluated only where the maximum can be. Each coordinate's
    sorted samples x_1 <= ... <= x_n fall into blocks of ``_TV_BLOCK``; F is
    evaluated at every block end first. F is monotone, so in a block running
    from s to e every gap i/n − F(x_i) is at most e/n − F(previous block's
    end) (0 before the first block) and every F(x_i) − (i−1)/n at most
    F(x_e) − (s−1)/n. Only blocks whose bound reaches the best block-end
    gap minus ``_TV_MARGIN`` are evaluated in full. The margin sits far
    above F's rounding, so every value that can be the maximum is computed
    at the same point with the same arithmetic as a full scan, and the
    result keeps its bits. A NaN sorts last, so the last block end sees it
    and the result is NaN.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or len(X) < _TV_MIN_ROWS:
        raise ValueError(f"need a 2-D sample array with at least {_TV_MIN_ROWS} rows")
    n = len(X)
    Xs, ends, F_ends, upper_ends, lower_ends = _block_end_gaps(X, slice(None), table)
    i = np.arange(1, n + 1) / n
    i_prev = i - 1.0 / n
    starts = np.r_[0, ends[:-1] + 1]
    cut = max(np.max(upper_ends), np.max(lower_ends)) - _TV_MARGIN
    F_before = np.hstack((np.zeros((len(Xs), 1)), F_ends[:, :-1]))
    rows, blocks = np.nonzero(
        (i[ends] - F_before >= cut) | (F_ends - i_prev[starts] >= cut)
    )
    # The short last block repeats its end point; a repeat cannot move a max.
    cols = np.minimum(starts[blocks, None] + np.arange(_TV_BLOCK), ends[blocks, None])
    F = table.cdf_at(Xs[rows[:, None], cols])
    upper = max(np.max(upper_ends), np.max(i[cols] - F, initial=-np.inf))
    lower = max(np.max(lower_ends), np.max(F - i_prev[cols], initial=-np.inf))
    return float(max(upper, lower, 0.0))


def _mixed(X: np.ndarray, table: oracle1d.CDFTable, eps: float) -> bool:
    """``sliced_tv_to_target(X, table) <= eps``. Columns are screened first in
    chunks of 1, 2, 4, ...; a block-end gap above eps answers False at once."""
    for k in range(X.shape[1].bit_length()):
        *_, upper, lower = _block_end_gaps(X, slice(2**k - 1, 2 ** (k + 1) - 1), table)
        if np.any(upper > eps) or np.any(lower > eps):
            return False
    return sliced_tv_to_target(X, table) <= eps


def mixing_time_measure(
    p: Potential,
    h: float,
    x0_sampler: Callable,
    eps: float,
    max_steps: int,
    n_replicas: int,
    seed,
) -> int:
    """First step at which the replica ensemble's sliced TV is at most eps.

    Runs ``n_replicas`` independent MALA chains in lockstep from
    ``x0_sampler(n, rng)``, given the "mix-init" stream of ``seed`` (an int or
    a ``rng.seed_path``), with steps drawn from its "mix-steps" stream, and
    evaluates the sliced-TV proxy against the exact marginal after every
    step. Returns ``max_steps`` as a sentinel when the threshold
    is never reached. The ensemble's sliced TV includes its finite-sample
    noise floor, so the count is not a lower bound on the TV mixing time;
    only the sliced TV of the law itself lower-bounds the law's TV.

    Each step's test first sorts a few coordinates and compares their
    block-end gaps with eps. That fast path only rules mixing out: a step is
    declared mixed only by a full :func:`sliced_tv_to_target`, so the count
    is the one that computing the sliced TV at every step would give. Each
    step's draws are made a step ahead on a helper thread (``kernels._DrawAhead``);
    the count is the step-by-step loop's.
    """
    if not 0.0 < eps < 1.0 or max_steps < 0:
        raise ValueError("need eps in (0, 1) and max_steps >= 0")
    table = kernels.cdf_table_for(p)
    X = np.asarray(x0_sampler(n_replicas, substream(seed, "mix-init")), dtype=float)
    if sliced_tv_to_target(X, table) <= eps:
        return 0
    with kernels._DrawAhead(substream(seed, "mix-steps"), *X.shape) as rng:
        for step in range(1, max_steps + 1):
            X, _, _ = kernels.batch_mala_update(p, h, X, rng)
            if _mixed(X, table, eps):
                return step
    return max_steps
