"""Exact brute-force testbed on finite state spaces.

Everything the continuous setting can only check statistically is verified
here with exact linear algebra: metropolization and its detailed balance,
the off-diagonal L1 metric in which the adjustment is a projection, the
eigenvalue spectral gap, exhaustively enumerated conductance and
s-conductance, warmness propagation, the chi-squared-vs-TV warmness
inequality, and the conductance-based mixing bound

    ||mu_n − pi||_TV <= M0·s + M0·exp(−C_s²·n/2).

State counts are capped at 20 (subset enumeration is exponential); the
random instance families used by the tests stay at n <= 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

EXACT_TOL = 1e-12

MAX_STATES = 20

# Flows gathered per block of subsets in spectral_quantities (8 MB of floats).
_BLOCK_ELEMENTS = 1 << 20

# (n, step) -> the size groups of an enumeration that is a single block.
_INDEX_CACHE: dict[tuple[int, int], list] = {}


@dataclass(frozen=True)
class FiniteChain:
    """Stationary vector pi, proposal Q, and metropolized kernel T."""

    pi: np.ndarray
    Q: np.ndarray
    T: np.ndarray

    @property
    def n(self) -> int:
        return len(self.pi)


# Both checks are written so that a NaN or infinite entry fails them.
def _check_distribution(pi: np.ndarray, what: str):
    if pi.ndim != 1 or not np.all(pi >= 0) or not abs(pi.sum() - 1.0) <= 1e-9:
        raise ValueError(f"{what} must be a probability vector")


def _check_row_stochastic(M: np.ndarray, what: str):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.all(M >= -1e-9) or not np.max(np.abs(M.sum(axis=1) - 1.0)) <= 1e-9:
        raise ValueError(f"{what} must be row-stochastic")


def metropolize(Q, pi) -> FiniteChain:
    """Metropolis adjustment of proposal Q toward stationary vector pi.

    Off-diagonal entries are T[i, j] = min(pi_i·Q[i, j], pi_j·Q[j, i]) / pi_i
    (the min(1, ratio) rule written symmetrically so detailed balance holds
    to rounding); the diagonal absorbs the rejected mass. Zero proposal mass
    stays zero even when the reverse mass is positive. Detailed balance and
    stationarity are measured, not asserted: ``verify``'s finite-chain rows
    and ``finite-selftest`` report them.
    """
    Q = np.asarray(Q, dtype=float)
    pi = np.asarray(pi, dtype=float)
    _check_row_stochastic(Q, "Q")
    if np.any(pi <= 0):
        raise ValueError("pi must be entrywise positive")
    _check_distribution(pi, "pi")
    flow = np.minimum(pi[:, None] * Q, (pi[:, None] * Q).T)
    T = flow / pi[:, None]
    np.fill_diagonal(T, 0.0)
    np.fill_diagonal(T, np.maximum(0.0, 1.0 - T.sum(axis=1)))
    return FiniteChain(pi=pi, Q=Q, T=T)


def detailed_balance_error(T, pi) -> float:
    """max_ij |pi_i·T[i, j] − pi_j·T[j, i]|."""
    F = np.asarray(pi, dtype=float)[:, None] * np.asarray(T, dtype=float)
    return float(np.max(np.abs(F - F.T)))


def offdiag_l1(A, B, pi) -> float:
    """Σ_i pi_i · Σ_{j != i} |A[i, j] − B[i, j]|, the projection metric."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("matrices must have matching shapes")
    D = np.abs(A - B)
    np.fill_diagonal(D, 0.0)
    return float(np.asarray(pi, dtype=float) @ D.sum(axis=1))


@dataclass(frozen=True)
class SpectralQuantities:
    """Eigen spectral gap plus enumerated conductance profile."""

    gap: float
    conductance: float
    s_conductance: Callable[[float], float]
    subset_masses: np.ndarray


def spectral_quantities(c: FiniteChain) -> SpectralQuantities:
    """Exact gap (1 − second-largest eigenvalue) and enumerated conductance.

    The gap comes from the pi-symmetrized kernel's eigenvalues; conductance
    and s-conductance enumerate all 2^n − 2 proper subsets in blocks grouped
    by size, so 2 <= n <= 20.
    """
    n = c.n
    if not 2 <= n <= MAX_STATES:
        raise ValueError(f"subset enumeration needs at least 2 and at most {MAX_STATES} states")
    root = np.sqrt(c.pi)
    sym = root[:, None] * c.T / root[None, :]
    sym = 0.5 * (sym + sym.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    gap = float(min(max(1.0 - eigenvalues[-2], 0.0), 2.0))

    flat_flows = (c.pi[:, None] * c.T).ravel()
    n_subsets = (1 << n) - 2
    masses = np.empty(n_subsets)
    flows = np.empty(n_subsets)
    # A size-k subset gathers k·(n − k) <= n²/4 flows, so a block of `step`
    # masks gathers at most _BLOCK_ELEMENTS. Each row is summed contiguously
    # in the order of F[np.ix_(inside, outside)] for F = pi_i·T[i, j], as a
    # per-subset .sum() would.
    step = _BLOCK_ELEMENTS * 4 // (n * n)
    for start in range(0, n_subsets, step):
        for rows, inside, cut in _size_groups(n, start, min(start + step, n_subsets), step):
            masses[rows] = c.pi.take(inside).sum(axis=1)
            flows[rows] = flat_flows.take(cut).sum(axis=1)

    small = masses <= 0.5
    conductance = float(np.min(flows[small] / masses[small])) if small.any() else 1.0

    def s_conductance(s: float) -> float:
        if not 0.0 <= s < 0.5:
            raise ValueError("s must lie in [0, 1/2)")
        eligible = (masses > s) & small
        if not eligible.any():
            return math.inf
        return float(np.min(flows[eligible] / (masses[eligible] - s)))

    return SpectralQuantities(
        gap=gap,
        conductance=conductance,
        s_conductance=s_conductance,
        subset_masses=masses,
    )


def _size_groups(n: int, start: int, stop: int, step: int) -> list:
    """(rows, inside, flat cut index) of each subset size k among masks
    start + 1 … stop; rows index subset_masses, cut the row-major flows.
    The arrays are read-only; a block of all 2^n − 2 masks is built once
    per (n, step) and kept in _INDEX_CACHE."""
    whole = stop - start == (1 << n) - 2
    if whole and (n, step) in _INDEX_CACHE:
        return _INDEX_CACHE[n, step]
    bits = (np.arange(start + 1, stop + 1)[:, None] >> np.arange(n)) & 1 == 1
    sizes = bits.sum(axis=1)
    groups = []
    for k in range(1, n):
        rows = np.flatnonzero(sizes == k)
        inside = (np.flatnonzero(bits[rows]) % n).reshape(len(rows), k)
        outside = (np.flatnonzero(~bits[rows]) % n).reshape(len(rows), n - k)
        cut = (inside[:, :, None] * n + outside[:, None, :]).reshape(len(rows), k * (n - k))
        groups.append((rows + start, inside, cut))
        for a in groups[-1]:
            a.setflags(write=False)
    return _INDEX_CACHE.setdefault((n, step), groups) if whole else groups


@dataclass(frozen=True)
class FiniteProjectionReport:
    """Global and per-state projection inequalities for one (pi, Q, Qbar)."""

    global_lhs: float
    global_rhs: float
    state_lhs: np.ndarray
    state_rhs: np.ndarray

    @property
    def passed(self) -> bool:
        """Both inequalities hold to :data:`EXACT_TOL`; a NaN side fails."""
        return bool(self.global_lhs <= self.global_rhs + EXACT_TOL
                    and np.all(self.state_lhs <= self.state_rhs + EXACT_TOL))


def projection_check(Q, Qbar, pi) -> FiniteProjectionReport:
    """Verify the adjustment is a projection relative to any reversible Qbar.

    With T = metropolize(Q, pi) and Qbar reversible w.r.t. pi (checked to
    1e-10), asserts

    (i)  offdiag_l1(T, Q, pi) <= 2 · offdiag_l1(Qbar, Q, pi);
    (ii) per state i:
         Σ_{j != i} |T − Q|[i, j] <= 2 Σ_{j != i} |Qbar − Q|[i, j]
             + Σ_{j: Qbar[j, i] > 0} (pi_j·Qbar[j, i]/pi_i) · |Q[j, i]/Qbar[j, i] − 1|.
    """
    Q = np.asarray(Q, dtype=float)
    Qbar = np.asarray(Qbar, dtype=float)
    pi = np.asarray(pi, dtype=float)
    _check_row_stochastic(Qbar, "Qbar")
    if detailed_balance_error(Qbar, pi) > 1e-10:
        raise ValueError("Qbar is not reversible with respect to pi")
    T = metropolize(Q, pi).T

    global_lhs = offdiag_l1(T, Q, pi)
    global_rhs = 2.0 * offdiag_l1(Qbar, Q, pi)

    DTQ = np.abs(T - Q)
    np.fill_diagonal(DTQ, 0.0)
    DBQ = np.abs(Qbar - Q)
    np.fill_diagonal(DBQ, 0.0)
    state_lhs = DTQ.sum(axis=1)
    reverse_mass = (pi[:, None] * Qbar).T / pi[:, None]  # [i, j] = pi_j Qbar[j,i]/pi_i
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(np.where(Qbar.T > 0, Q.T / np.where(Qbar.T > 0, Qbar.T, 1.0), 0.0) - 1.0)
    rel = np.where(Qbar.T > 0, rel, 0.0)
    state_rhs = 2.0 * DBQ.sum(axis=1) + (reverse_mass * rel).sum(axis=1)

    return FiniteProjectionReport(
        global_lhs=global_lhs,
        global_rhs=global_rhs,
        state_lhs=state_lhs,
        state_rhs=state_rhs,
    )


S_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49)


@dataclass(frozen=True)
class EvolveReport:
    """Exact checks along an evolved distribution mu_n = mu_0 T^n."""

    n_steps: int
    warmness_start: float
    max_warm_violation: float
    max_chi2_violation: float
    max_lovasz_violation: float

    @property
    def passed(self) -> bool:
        """Every violation is at most :data:`EXACT_TOL`; a NaN fails."""
        return all(v <= EXACT_TOL for v in (
            self.max_warm_violation, self.max_chi2_violation, self.max_lovasz_violation))


def evolve_and_check(c: FiniteChain, mu0, n_steps: int) -> EvolveReport:
    """Iterate mu_{n+1} = mu_n T and verify warmness, chi², and mixing bounds.

    Checks, for every n <= n_steps: max(mu_n/pi) is non-increasing;
    chi²(mu_n || pi) <= 2·M0·TV(mu_n, pi); and the s-conductance mixing
    bound TV(mu_n, pi) <= M0·s + M0·exp(−C_s²·n/2) over :data:`S_GRID`.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    mu = np.asarray(mu0, dtype=float)
    _check_distribution(mu, "mu0")
    spec = spectral_quantities(c)
    # Row n is mu_n, each from the row before as a single vector step would be.
    traj = np.empty((n_steps + 1, c.n))
    traj[0] = mu
    for n in range(1, n_steps + 1):
        traj[n] = traj[n - 1] @ c.T
    warm = np.max(traj / c.pi, axis=1)
    m0 = float(warm[0])
    tv = 0.5 * np.abs(traj[1:] - c.pi).sum(axis=1)
    chi2 = ((traj[1:] - c.pi) ** 2 / c.pi).sum(axis=1)
    # math.exp, not np.exp: the bounds keep the bits of the scalar formula.
    decay = [-0.5 * c_s * c_s if math.isfinite(c_s) else None
             for c_s in map(spec.s_conductance, S_GRID)]
    bound = np.array([[m0 * s + (m0 * math.exp(a * n) if a is not None else 0.0)
                       for s, a in zip(S_GRID, decay)] for n in range(1, n_steps + 1)])
    excess = (warm[1:] - warm[:-1], chi2 - 2.0 * m0 * tv,
              tv[:, None] - bound.reshape(n_steps, len(S_GRID)))
    # initial=0.0 reads an empty trajectory as no violation; a NaN propagates.
    return EvolveReport(n_steps, m0, *(float(np.max(e, initial=0.0)) for e in excess))


def _random_proposal(n: int, rng) -> np.ndarray:
    Q = rng.uniform(0.1, 1.0, size=(n, n))
    return Q / Q.sum(axis=1, keepdims=True)


def random_reversible_chain(n: int, rng) -> FiniteChain:
    """Random instance: pi ~ Dirichlet(1, ..., 1), Q row-normalized uniforms."""
    pi = rng.dirichlet(np.ones(n))
    return metropolize(_random_proposal(n, rng), pi)


def random_projection_triple(n: int, rng):
    """(pi, Q, Qbar): pi and Q drawn as random_reversible_chain draws them,
    Qbar reversible by metropolizing a second proposal."""
    pi = rng.dirichlet(np.ones(n))
    Q = _random_proposal(n, rng)
    return pi, Q, metropolize(_random_proposal(n, rng), pi).T
