"""Every finite-chain and kernel row of ``verify`` can fail: one named fault per row.

Each fault is a plausible one-line bug in the finite-chain testbed or the
kernels, patched in for a single run of its row's group
(``finite_chain_checks`` or ``kernel_checks``); the row it is listed under
must then report a negative slack. The unpatched run of each group is the
control, and each group's ledger must name every row the group reports. No
bound is changed to make a row flip. Findings on the finite-chain group:

* ``finite_projection_global`` flips only through ``projection_check``'s
  reversibility guard. On the 500 random triples the global ratio
  lhs/rhs peaks at 1/2 (the factor 2 of the bound is never used), so a
  fault inside the inequality's arithmetic stays below the bound.
* ``finite_chi2_warmness`` starts each chain at its lightest state, where
  M0 = 1/min pi bounds mu/pi for every probability vector mu. So no fault
  that keeps mu_n a probability vector can flip it; it flips when the
  kernel creates mass.
* ``finite_lovasz_bound`` flips only when the kernel does not keep pi: even
  a doubled s-conductance stays under the bound on these chains.

On the kernel group every row flips through a fault of its own, though some
faults flip more rows than the one they are listed under. The antisymmetry
row reads exactly 0 unpatched, but a fault that only reorders the ratio's
additions reads 7.1e-15, below its 1e-13 bound; it takes a ratio that is not
antisymmetric at all.
"""

import dataclasses
import math

import numpy as np
import pytest

from malalab import finite_chain, kernels, verify
from malalab.potentials import Potential

SEED = 0
CHAIN = finite_chain.FiniteChain


def _kernel_fault(change):
    """A FiniteChain constructor that hands on change(T, Q) as the kernel."""
    def faulty(pi, Q, T):
        return CHAIN(pi=pi, Q=Q, T=change(np.array(T), np.asarray(Q)))
    return faulty


def _diagonal(T):
    return (..., *np.diag_indices(T.shape[-1]))


def _moved_mass(T, Q):
    T[..., 0, 1] += 1e-9
    T[..., 0, 0] -= 1e-9
    return T


def _short_diagonal(T, Q):
    T[_diagonal(T)] -= 1e-9
    return T


def _stale_diagonal(T, Q):
    T[_diagonal(T)] += Q[_diagonal(Q)]
    return T


def _offdiag_rows_with_diagonal(A, B):
    return finite_chain._row_sums(np.abs(A - B))


def _both_directions(spectral_quantities):
    def faulty(c):
        sp = spectral_quantities(c)
        return dataclasses.replace(sp, conductance=2 * sp.conductance,
                                   subset_flows=2 * sp.subset_flows)
    return faulty


def _descending(eigvalsh):
    return lambda a: eigvalsh(a)[..., ::-1]


def _s_added(self, s):
    masses = self.subset_masses
    return finite_chain._min_ratio(self.subset_flows, masses + s, (masses > s) & (masses <= 0.5))


def _no_reverse_term(projection_check):
    def faulty(Q, Qbar, pi):
        rep = projection_check(Q, Qbar, pi)
        Q, Qbar = np.asarray(Q), np.asarray(Qbar)
        return dataclasses.replace(rep, state_rhs=2.0 * finite_chain._offdiag_rows(Qbar, Q))
    return faulty


def _unadjusted_evolution(evolve_and_check):
    def faulty(c, mu0, n_steps):
        return evolve_and_check(dataclasses.replace(c, T=c.Q), mu0, n_steps)
    return faulty


# name -> (owner, attribute, replacement built from the original)
FAULTS = {
    "metropolize returns the proposal unadjusted":
        (finite_chain, "FiniteChain", lambda _: _kernel_fault(lambda T, Q: Q.copy())),
    "metropolize divides the flow by pi_j, not pi_i":
        (finite_chain, "FiniteChain",
         lambda _: _kernel_fault(lambda T, Q: T.swapaxes(-1, -2).copy())),
    "1e-9 of mass moved from T[0, 0] to T[0, 1]":
        (finite_chain, "FiniteChain", lambda _: _kernel_fault(_moved_mass)),
    "the diagonal refilled 1e-9 short":
        (finite_chain, "FiniteChain", lambda _: _kernel_fault(_short_diagonal)),
    "the rejected mass added onto the stale diagonal":
        (finite_chain, "FiniteChain", lambda _: _kernel_fault(_stale_diagonal)),
    "the projection metric counts the diagonal":
        (finite_chain, "_offdiag_rows", lambda _: _offdiag_rows_with_diagonal),
    "each cut flow counted from both sides":
        (finite_chain, "spectral_quantities", _both_directions),
    "eigvalsh read as descending":
        (np.linalg, "eigvalsh", _descending),
    "s-conductance divides by pi(S) + s":
        (finite_chain.SpectralQuantities, "s_conductance", lambda _: _s_added),
    "the reverse-mass term dropped from the pointwise bound":
        (finite_chain, "projection_check", _no_reverse_term),
    "evolve runs the unadjusted proposal":
        (finite_chain, "evolve_and_check", _unadjusted_evolution),
}

def _ratio_over_2h(h, x, value_x, grad_x, y, value_y, grad_y):
    forward = ((y - x + h * grad_x) ** 2).sum(axis=-1)
    backward = ((x - y + h * grad_y) ** 2).sum(axis=-1)
    return (value_x - value_y) + (forward - backward) / (2.0 * h)


def _backward_with_grad_x(log_ratio_parts):
    def faulty(h, x, value_x, grad_x, y, value_y, grad_y):
        return log_ratio_parts(h, x, value_x, grad_x, y, value_y, grad_x)
    return faulty


def _value_without_cosine(self, x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (x * x).sum(axis=-1), self.grad(x)


def _rejected_rows_keep_the_proposal(p, h, X, rng):
    Y, _, _, accepted, log_ratios = kernels._transition(p, h, np.asarray(X, dtype=float), rng)
    return Y, accepted, log_ratios


def _uphill_proposal(h, x, grad_x, noise):
    return (x + h * grad_x) + math.sqrt(2.0 * h) * noise


def _ou_variance_of_half_the_step(h, x, rng):
    x = np.asarray(x, dtype=float)
    return math.exp(-h) * x + math.sqrt(-math.expm1(-h)) * rng.standard_normal(x.shape)


FAULTS.update({
    "the log ratio divides by 2h, not 4h":
        (kernels, "_log_ratio_parts", lambda _: _ratio_over_2h),
    "the backward proposal centred with grad V(x), not grad V(y)":
        (kernels, "_log_ratio_parts", _backward_with_grad_x),
    "value_and_grad drops the cosine from V":
        (Potential, "value_and_grad", lambda _: _value_without_cosine),
    "a rejected row keeps its proposal":
        (kernels, "batch_mala_update", lambda _: _rejected_rows_keep_the_proposal),
    "the proposal drifts up the gradient, x + h grad V(x)":
        (kernels, "_langevin_proposal", lambda _: _uphill_proposal),
    "the OU variance taken as 1 - exp(-h), not 1 - exp(-2h)":
        (kernels, "ou_exact_step", lambda _: _ou_variance_of_half_the_step),
})

LEDGER = {
    "finite_two_state_kernel": "metropolize returns the proposal unadjusted",
    "finite_two_state_offdiag_l1": "the projection metric counts the diagonal",
    "finite_two_state_spectral": "each cut flow counted from both sides",
    "finite_detailed_balance": "1e-9 of mass moved from T[0, 0] to T[0, 1]",
    "finite_stationarity": "the diagonal refilled 1e-9 short",
    "finite_cheeger_sandwich_slack": "eigvalsh read as descending",
    "finite_s_conductance_monotone": "s-conductance divides by pi(S) + s",
    "finite_projection_global": "metropolize divides the flow by pi_j, not pi_i",
    "finite_projection_pointwise": "the reverse-mass term dropped from the pointwise bound",
    "finite_warmness_monotone": "evolve runs the unadjusted proposal",
    "finite_chi2_warmness": "the rejected mass added onto the stale diagonal",
    "finite_lovasz_bound": "evolve runs the unadjusted proposal",
}

KERNEL_LEDGER = {
    "log_accept_gaussian_closed_form": "the log ratio divides by 2h, not 4h",
    "log_accept_antisymmetry": "the backward proposal centred with grad V(x), not grad V(y)",
    "log_accept_density_oracle": "value_and_grad drops the cosine from V",
    "mala_rejection_atom": "a rejected row keeps its proposal",
    "mala_stationarity_zscore": "the proposal drifts up the gradient, x + h grad V(x)",
    "ou_exact_variance_zscore": "the OU variance taken as 1 - exp(-h), not 1 - exp(-2h)",
}


def _slacks(checks=verify.finite_chain_checks):
    return {r.name: r.slack for r in checks(SEED)}


@pytest.mark.parametrize("checks, ledger", [(verify.finite_chain_checks, LEDGER),
                                            (verify.kernel_checks, KERNEL_LEDGER)],
                         ids=["finite", "kernel"])
def test_control_run_passes_every_row_the_ledger_names(checks, ledger):
    slacks = _slacks(checks)
    assert sorted(slacks) == sorted(ledger)
    assert all(slack >= 0.0 for slack in slacks.values())


@pytest.mark.parametrize("row", sorted(LEDGER) + sorted(KERNEL_LEDGER))
def test_the_row_fails_under_its_fault(monkeypatch, row):
    checks, ledger = ((verify.kernel_checks, KERNEL_LEDGER) if row in KERNEL_LEDGER
                      else (verify.finite_chain_checks, LEDGER))
    owner, attr, build = FAULTS[ledger[row]]
    monkeypatch.setattr(owner, attr, build(getattr(owner, attr)))
    assert _slacks(checks)[row] < 0.0, ledger[row]


def _nan_at_first_chain(field):
    def fault(fn):
        def faulty(*args):
            out = fn(*args)
            value = np.array(getattr(out, field), dtype=float)
            value.flat[0] = np.nan
            return dataclasses.replace(out, **{field: value})
        return faulty
    return fault


# A NaN measured on one chain of a stack fails the row that reads it.
@pytest.mark.parametrize("attr, field, row", [
    ("evolve_and_check", "max_warm_violation", "finite_warmness_monotone"),
    ("evolve_and_check", "max_chi2_violation", "finite_chi2_warmness"),
    ("evolve_and_check", "max_lovasz_violation", "finite_lovasz_bound"),
    ("projection_check", "global_lhs", "finite_projection_global"),
    ("projection_check", "state_rhs", "finite_projection_pointwise"),
    ("spectral_quantities", "gap", "finite_cheeger_sandwich_slack"),
    ("spectral_quantities", "subset_flows", "finite_s_conductance_monotone"),
])
def test_a_nan_on_one_chain_fails_its_row(monkeypatch, attr, field, row):
    monkeypatch.setattr(finite_chain, attr,
                        _nan_at_first_chain(field)(getattr(finite_chain, attr)))
    assert not _slacks()[row] >= 0.0


def _nan_diagonal(T, Q):
    T[..., 0, 0] = np.nan
    return T


def test_a_nan_kernel_fails_its_rows_instead_of_raising(monkeypatch):
    # eigvalsh cannot take a NaN; the chain's spectral quantities read NaN
    # instead, and every row is still written. Only the off-diagonal metric
    # does not read T[0, 0].
    monkeypatch.setattr(finite_chain, "FiniteChain", _kernel_fault(_nan_diagonal))
    slacks = _slacks()
    assert sorted(slacks) == sorted(LEDGER)
    passing = {row for row, slack in slacks.items() if slack >= 0.0}
    assert passing == {"finite_two_state_offdiag_l1"}


def test_nan_spectral_quantities_only_on_the_chain_that_is_not_finite():
    rng = np.random.default_rng(0)
    chains = [finite_chain.random_reversible_chain(5, rng) for _ in range(3)]
    pi, T = np.stack([c.pi for c in chains]), np.stack([c.T for c in chains])
    T[1, 2, 3] = np.inf
    sp = finite_chain.spectral_quantities(CHAIN(pi=pi, Q=T, T=T))
    assert np.isnan(sp.gap[1]) and np.isnan(sp.conductance[1])
    assert np.isnan(sp.subset_flows[1]).all() and np.isnan(sp.s_conductance(0.1)[1])
    for k in (0, 2):
        single = finite_chain.spectral_quantities(chains[k])
        assert sp.gap[k] == single.gap and sp.conductance[k] == single.conductance
        assert np.array_equal(sp.subset_flows[k], single.subset_flows)
