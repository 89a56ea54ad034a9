"""Exact brute-force testbed on finite state spaces.

Everything the continuous setting can only check statistically is verified
here with exact linear algebra: metropolization and its detailed balance,
the off-diagonal L1 metric in which the adjustment is a projection, the
eigenvalue spectral gap, exhaustively enumerated conductance and
s-conductance, warmness propagation, the chi-squared-vs-TV warmness
inequality, and the conductance-based mixing bound

    ||mu_n − pi||_TV <= M0·s + M0·exp(−C_s²·n/2).

Every entry point takes a stack of m chains of one size n: pi of shape
(m, n), matrices and starts of shape (m, n, n) and (m, n), and it returns
one value per chain. A single chain, pi of shape (n,), is a stack of one
whose results come back unstacked, as floats and (n,) or (2^n − 2,)
arrays. Each chain's values keep the bits of a chain-by-chain computation:
row sums are taken over 2-D rows and products are numpy's vector-matrix and
dot products, one per chain. An input whose shape does not fit pi's raises
``ValueError`` naming both shapes.

State counts are capped at 20 (subset enumeration is exponential); the
random instance families used by the tests stay at n <= 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_TOL = 1e-12

MAX_STATES = 20

# Flows gathered per block of subsets in spectral_quantities (8 MB of floats),
# counted over every chain of the stack.
_BLOCK_ELEMENTS = 1 << 20

# (n, step) -> the size groups of an enumeration that is a single block.
_INDEX_CACHE: dict[tuple[int, int], list] = {}


@dataclass(frozen=True)
class FiniteChain:
    """Stationary vector pi, proposal Q, and metropolized kernel T of one
    chain, (n,) and (n, n), or of a stack, (m, n) and (m, n, n)."""

    pi: np.ndarray
    Q: np.ndarray
    T: np.ndarray

    @property
    def n(self) -> int:
        return self.pi.shape[-1]


def _check_shape(name: str, a: np.ndarray, pi_shape: tuple, expected: tuple):
    if a.shape != expected:
        raise ValueError(f"{name} has shape {a.shape}; pi of shape {pi_shape} needs {expected}")


def _stack(pi, **matrices):
    """(single, pi as (m, n), the named matrices as (m, n, n)): C-ordered
    float stacks, single when pi is one chain's (n,)."""
    pi = np.ascontiguousarray(pi, dtype=float)
    if pi.ndim not in (1, 2):
        raise ValueError(f"pi has shape {pi.shape}; expected (n,) or (m, n)")
    arrays = [np.ascontiguousarray(M, dtype=float) for M in matrices.values()]
    for name, M in zip(matrices, arrays):
        _check_shape(name, M, pi.shape, pi.shape + pi.shape[-1:])
    if pi.ndim == 2:
        return False, pi, arrays
    return True, pi[None], [M[None] for M in arrays]


def _unstack(single: bool, x: np.ndarray):
    """x as given for a stack; for a single chain its only entry, a scalar
    as a float."""
    if not single:
        return x
    return float(x[0]) if x.ndim == 1 else x[0]


def _row_sums(A: np.ndarray) -> np.ndarray:
    """A summed over its last axis as contiguous 2-D rows: each row's sum has
    the same bits whatever the stack around it. (numpy adds a contiguous row
    of 8 or more terms pairwise, but a strided one, or a 3-D gather's, one
    term at a time.)"""
    return np.ascontiguousarray(A).reshape(-1, A.shape[-1]).sum(axis=1).reshape(A.shape[:-1])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[k] @ y[k] for each row k of two (m, n) stacks."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _diagonal(n: int) -> tuple:
    """Index of the diagonals of an (m, n, n) stack."""
    return (slice(None), *np.diag_indices(n))


# Both checks are written so that a NaN or infinite entry fails them.
def _check_distribution(pi: np.ndarray, what: str):
    if not np.all(pi >= 0) or not np.all(np.abs(pi.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError(f"{what} must be a probability vector")


def _check_row_stochastic(M: np.ndarray, what: str):
    if not np.all(M >= -1e-9) or not np.max(np.abs(M.sum(axis=-1) - 1.0)) <= 1e-9:
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
    single, pi, (Q,) = _stack(pi, Q=Q)
    _check_row_stochastic(Q, "Q")
    if np.any(pi <= 0):
        raise ValueError("pi must be entrywise positive")
    _check_distribution(pi, "pi")
    F = pi[:, :, None] * Q
    T = np.minimum(F, F.swapaxes(1, 2)) / pi[:, :, None]
    diagonal = _diagonal(pi.shape[1])
    T[diagonal] = 0.0
    T[diagonal] = np.maximum(0.0, 1.0 - _row_sums(T))
    if single:
        return FiniteChain(pi=pi[0], Q=Q[0], T=T[0])
    return FiniteChain(pi=pi, Q=Q, T=T)


def detailed_balance_error(T, pi):
    """max_ij |pi_i·T[i, j] − pi_j·T[j, i]|."""
    single, pi, (T,) = _stack(pi, T=T)
    F = pi[:, :, None] * T
    return _unstack(single, np.max(np.abs(F - F.swapaxes(1, 2)), axis=(1, 2)))


def _offdiag_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Σ_{j != i} |A[i, j] − B[i, j]| for each row i of two stacks."""
    D = np.abs(A - B)
    D[_diagonal(D.shape[-1])] = 0.0
    return _row_sums(D)


def offdiag_l1(A, B, pi):
    """Σ_i pi_i · Σ_{j != i} |A[i, j] − B[i, j]|, the projection metric."""
    single, pi, (A, B) = _stack(pi, A=A, B=B)
    return _unstack(single, _dot(pi, _offdiag_rows(A, B)))


@dataclass(frozen=True)
class SpectralQuantities:
    """Eigen spectral gap plus enumerated conductance profile: floats for one
    chain, one more leading axis for a stack. Entry r of subset_masses and
    subset_flows is pi(S) and the flow out of S, Σ_{i in S, j not in S}
    pi_i·T[i, j], for the subset S of bitmask r + 1."""

    gap: float
    conductance: float
    subset_masses: np.ndarray
    subset_flows: np.ndarray

    def s_conductance(self, s: float):
        """min of flow(S)/(pi(S) − s) over s < pi(S) <= 1/2; inf if no subset
        qualifies."""
        if not 0.0 <= s < 0.5:
            raise ValueError("s must lie in [0, 1/2)")
        masses = self.subset_masses
        return _min_ratio(self.subset_flows, masses - s, (masses > s) & (masses <= 0.5))


def _min_ratio(flows: np.ndarray, denominators: np.ndarray, eligible: np.ndarray):
    """Per chain, min of flows/denominators over the eligible subsets (inf if
    none); a float for one chain."""
    ratio = np.divide(flows, denominators, out=np.full(flows.shape, math.inf), where=eligible)
    worst = np.min(ratio, axis=-1)
    return float(worst) if worst.ndim == 0 else worst


def spectral_quantities(c: FiniteChain) -> SpectralQuantities:
    """Exact gap (1 − second-largest eigenvalue) and enumerated conductance.

    The gap comes from the pi-symmetrized kernel's eigenvalues; conductance
    and s-conductance enumerate all 2^n − 2 proper subsets in blocks grouped
    by size, so 2 <= n <= 20. A chain whose symmetrized kernel is not finite
    gets a NaN gap and NaN flows, so NaN conductances, instead of a raise.
    """
    single, pi, (T,) = _stack(c.pi, T=c.T)
    m, n = pi.shape
    if not 2 <= n <= MAX_STATES:
        raise ValueError(f"subset enumeration needs at least 2 and at most {MAX_STATES} states")
    root = np.sqrt(pi)
    sym = root[:, :, None] * T / root[:, None, :]
    sym = 0.5 * (sym + sym.swapaxes(1, 2))
    broken = ~np.isfinite(sym).all(axis=(1, 2))
    eigenvalues = np.linalg.eigvalsh(np.where(broken[:, None, None], 0.0, sym))
    gap = np.where(broken, math.nan, np.minimum(np.maximum(1.0 - eigenvalues[:, -2], 0.0), 2.0))

    flat_flows = (pi[:, :, None] * T).reshape(m, n * n)
    n_subsets = (1 << n) - 2
    masses = np.empty((m, n_subsets))
    flows = np.empty((m, n_subsets))
    # A size-k subset gathers k·(n − k) <= n²/4 flows, so `step` masks of one
    # chain gather at most _BLOCK_ELEMENTS, and so do `per` chains of a block
    # of at most step // per masks. Each row is summed contiguously in the
    # order of F[np.ix_(inside, outside)] for F = pi_i·T[i, j], as a
    # per-subset .sum() would.
    step = _BLOCK_ELEMENTS * 4 // (n * n)
    for start in range(0, n_subsets, step):
        stop = min(start + step, n_subsets)
        per = max(1, step // (stop - start))
        for rows, inside, cut in _size_groups(n, start, stop, step):
            for first in range(0, m, per):
                chains = slice(first, first + per)
                masses[chains, rows] = _row_sums(pi[chains].take(inside, axis=1))
                flows[chains, rows] = _row_sums(flat_flows[chains].take(cut, axis=1))

    flows[broken] = math.nan
    small = masses <= 0.5
    conductance = np.where(small.any(axis=1), _min_ratio(flows, masses, small), 1.0)
    return SpectralQuantities(*(_unstack(single, x) for x in (gap, conductance, masses, flows)))


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
    """Global and per-state projection inequalities for (pi, Q, Qbar): floats
    and (n,) arrays for one chain, one more leading axis for a stack."""

    global_lhs: float
    global_rhs: float
    state_lhs: np.ndarray
    state_rhs: np.ndarray

    @property
    def passed(self) -> bool:
        """Both inequalities hold to :data:`EXACT_TOL` on every chain; a NaN
        side fails."""
        return bool(np.all(self.global_lhs <= self.global_rhs + EXACT_TOL)
                    and np.all(self.state_lhs <= self.state_rhs + EXACT_TOL))


def projection_check(Q, Qbar, pi) -> FiniteProjectionReport:
    """Verify the adjustment is a projection relative to any reversible Qbar.

    With T = metropolize(Q, pi) and Qbar reversible w.r.t. pi (checked to
    1e-10 on every chain), asserts

    (i)  offdiag_l1(T, Q, pi) <= 2 · offdiag_l1(Qbar, Q, pi);
    (ii) per state i:
         Σ_{j != i} |T − Q|[i, j] <= 2 Σ_{j != i} |Qbar − Q|[i, j]
             + Σ_{j: Qbar[j, i] > 0} (pi_j·Qbar[j, i]/pi_i) · |Q[j, i]/Qbar[j, i] − 1|.
    """
    single, pi, (Q, Qbar) = _stack(pi, Q=Q, Qbar=Qbar)
    _check_row_stochastic(Qbar, "Qbar")
    if np.any(detailed_balance_error(Qbar, pi) > 1e-10):
        raise ValueError("Qbar is not reversible with respect to pi")
    state_lhs = _offdiag_rows(metropolize(Q, pi).T, Q)
    bar_rows = _offdiag_rows(Qbar, Q)
    # reverse[k, j, i] = (pi_j·Qbar[j, i]/pi_i)·|Q[j, i]/Qbar[j, i] − 1| of chain k,
    # summed over j down each column: numpy adds a column one j at a time.
    reverse_mass = (pi[:, :, None] * Qbar) / pi[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(np.where(Qbar > 0, Q / np.where(Qbar > 0, Qbar, 1.0), 0.0) - 1.0)
    rel = np.where(Qbar > 0, rel, 0.0)
    state_rhs = 2.0 * bar_rows + (reverse_mass * rel).sum(axis=1)
    return FiniteProjectionReport(*(_unstack(single, x) for x in (
        _dot(pi, state_lhs), 2.0 * _dot(pi, bar_rows), state_lhs, state_rhs)))


S_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49)


@dataclass(frozen=True)
class EvolveReport:
    """Exact checks along an evolved distribution mu_n = mu_0 T^n: floats for
    one chain, (m,) arrays for a stack."""

    n_steps: int
    warmness_start: float
    max_warm_violation: float
    max_chi2_violation: float
    max_lovasz_violation: float

    @property
    def passed(self) -> bool:
        """Every violation is at most :data:`EXACT_TOL`; a NaN fails."""
        return bool(np.all(np.array([self.max_warm_violation, self.max_chi2_violation,
                                     self.max_lovasz_violation]) <= EXACT_TOL))


def evolve_and_check(c: FiniteChain, mu0, n_steps: int, *, spectral=None) -> EvolveReport:
    """Iterate mu_{n+1} = mu_n T and verify warmness, chi², and mixing bounds.

    Checks, for every n <= n_steps: max(mu_n/pi) is non-increasing;
    chi²(mu_n || pi) <= 2·M0·TV(mu_n, pi); and the s-conductance mixing
    bound TV(mu_n, pi) <= M0·s + M0·exp(−C_s²·n/2) over :data:`S_GRID`.
    ``spectral`` is the caller's ``spectral_quantities(c)``, computed here if None.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    single, pi, (T,) = _stack(c.pi, T=c.T)
    mu = np.asarray(mu0, dtype=float)
    _check_shape("mu0", mu, np.shape(c.pi), np.shape(c.pi))
    _check_distribution(mu, "mu0")
    spec = spectral_quantities(c) if spectral is None else spectral
    m, n = pi.shape
    # traj[k, t] is mu_t of chain k, each from the row before as a single
    # vector step would be.
    traj = np.empty((m, n_steps + 1, n))
    traj[:, 0] = mu
    for t in range(1, n_steps + 1):
        traj[:, t] = (traj[:, t - 1, None] @ T)[:, 0]
    warm = np.max(traj / pi[:, None], axis=2)
    m0 = warm[:, 0]
    off = traj[:, 1:] - pi[:, None]
    tv = 0.5 * _row_sums(np.abs(off))
    chi2 = _row_sums(off ** 2 / pi[:, None])
    # c_s[k, 0, j] is C_s of chain k at s = S_GRID[j]; decay[k, t − 1, j] = −C_s²·t/2.
    c_s = np.reshape([spec.s_conductance(s) for s in S_GRID], (len(S_GRID), m)).T[:, None]
    finite = np.isfinite(c_s)
    decay = np.where(finite, -0.5 * c_s * c_s, 0.0) * np.arange(1, n_steps + 1)[:, None]
    # math.exp, not np.exp: the bounds keep the bits of the scalar formula.
    tail = np.fromiter(map(math.exp, decay.ravel().tolist()), float, decay.size)
    bound = m0[:, None, None] * np.array(S_GRID) + np.where(
        finite, m0[:, None, None] * tail.reshape(decay.shape), 0.0)
    excess = (warm[:, 1:] - warm[:, :-1], chi2 - 2.0 * m0[:, None] * tv, tv[:, :, None] - bound)
    # initial=0.0 reads an empty trajectory as no violation; a NaN propagates.
    worst = (np.max(e, axis=tuple(range(1, e.ndim)), initial=0.0) for e in excess)
    return EvolveReport(n_steps, *(_unstack(single, x) for x in (m0, *worst)))


def _random_proposal(n: int, rng) -> np.ndarray:
    Q = rng.uniform(0.1, 1.0, size=(n, n))
    return Q / Q.sum(axis=1, keepdims=True)


def _draw(n: int, rng, proposals: int) -> tuple:
    """pi ~ Dirichlet(1, ..., 1), then `proposals` row-normalized uniform
    proposals, drawn in that order."""
    pi = rng.dirichlet(np.ones(n))
    return (pi, *(_random_proposal(n, rng) for _ in range(proposals)))


def random_reversible_chain(n: int, rng) -> FiniteChain:
    """Random instance: pi ~ Dirichlet(1, ..., 1), Q row-normalized uniforms."""
    pi, Q = _draw(n, rng, 1)
    return metropolize(Q, pi)


def random_projection_triple(n: int, rng):
    """(pi, Q, Qbar): pi and Q drawn as random_reversible_chain draws them,
    Qbar reversible by metropolizing a second proposal."""
    pi, Q, other = _draw(n, rng, 2)
    return pi, Q, metropolize(other, pi).T
