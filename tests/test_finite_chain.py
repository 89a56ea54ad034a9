import math
import tracemalloc

import numpy as np
import pytest

from malalab import finite_chain
from malalab.finite_chain import (
    EXACT_TOL,
    MAX_STATES,
    EvolveReport,
    FiniteChain,
    FiniteProjectionReport,
    detailed_balance_error,
    evolve_and_check,
    metropolize,
    offdiag_l1,
    projection_check,
    random_projection_triple,
    random_reversible_chain,
    spectral_quantities,
)
from malalab.rng import substream

TWO_STATE_PI = np.array([2.0 / 3.0, 1.0 / 3.0])
TWO_STATE_Q = np.full((2, 2), 0.5)


class TestMetropolize:
    def test_two_state_hand_values(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        np.testing.assert_allclose(
            chain.T, [[0.75, 0.25], [0.5, 0.5]], atol=1e-15
        )
        # detailed balance of the hand values: 2/3 · 1/4 = 1/3 · 1/2
        assert TWO_STATE_PI[0] * chain.T[0, 1] == pytest.approx(
            TWO_STATE_PI[1] * chain.T[1, 0], abs=1e-16
        )

    def test_reversible_proposal_is_fixed_point(self):
        rng = substream(1, "fixed-point")
        base = random_reversible_chain(5, rng)
        chain = metropolize(base.T, base.pi)
        np.testing.assert_allclose(chain.T, base.T, atol=1e-14)

    def test_uniform_pi_symmetric_q_unchanged(self):
        rng = substream(2, "symmetric")
        M = rng.uniform(0.1, 1.0, size=(4, 4))
        Q = 0.5 * (M + M.T)
        Q /= Q.sum(axis=1, keepdims=True)
        # Row normalization of a symmetric matrix is not symmetric in
        # general, so rebuild a doubly-stochastic-enough example directly.
        Q = 0.25 * np.ones((4, 4))
        chain = metropolize(Q, np.full(4, 0.25))
        np.testing.assert_allclose(chain.T, Q, atol=1e-15)

    def test_zero_proposal_mass_stays_zero(self):
        Q = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        pi = np.array([0.2, 0.3, 0.5])
        chain = metropolize(Q, pi)
        assert chain.T[0, 2] == 0.0
        assert chain.T[2, 0] == 0.0

    def test_invariants_on_random_instances(self):
        rng = substream(3, "invariants")
        for _ in range(200):
            chain = random_reversible_chain(int(rng.integers(2, 11)), rng)
            assert detailed_balance_error(chain.T, chain.pi) <= EXACT_TOL
            assert np.max(np.abs(chain.pi @ chain.T - chain.pi)) <= EXACT_TOL
            assert np.max(np.abs(chain.T.sum(axis=1) - 1.0)) <= EXACT_TOL

    def test_input_validation(self):
        with pytest.raises(ValueError):
            metropolize(np.array([[0.5, 0.4], [0.5, 0.5]]), TWO_STATE_PI)
        with pytest.raises(ValueError):
            metropolize(TWO_STATE_Q, np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            metropolize(TWO_STATE_Q, np.array([1.0, 0.0]))

    def test_nan_proposal_is_rejected(self):
        Q = np.array([[0.5, 0.5], [math.nan, 0.5]])
        with pytest.raises(ValueError, match="row-stochastic"):
            metropolize(Q, TWO_STATE_PI)

    def test_nan_stationary_vector_is_rejected(self):
        with pytest.raises(ValueError, match="probability vector"):
            metropolize(TWO_STATE_Q, np.array([1.0, math.nan]))


class TestOffdiagL1:
    def test_identical_matrices(self):
        assert offdiag_l1(TWO_STATE_Q, TWO_STATE_Q, TWO_STATE_PI) == 0.0

    def test_two_state_hand_value(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        assert offdiag_l1(chain.T, TWO_STATE_Q, TWO_STATE_PI) == pytest.approx(
            1.0 / 6.0, abs=1e-15
        )

    def test_symmetric_in_arguments(self):
        rng = substream(4, "swap")
        a = random_reversible_chain(6, rng)
        b = random_reversible_chain(6, rng)
        assert offdiag_l1(a.T, b.T, a.pi) == offdiag_l1(b.T, a.T, a.pi)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            offdiag_l1(np.eye(2), np.eye(3), TWO_STATE_PI)


class TestSpectralQuantities:
    def test_two_state_hand_values(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        spec = spectral_quantities(chain)
        # Eigenvalues are 1 and 1/4; S = {state 2} carries flow 1/6 on mass 1/3.
        assert spec.gap == pytest.approx(0.75, abs=1e-12)
        assert spec.conductance == pytest.approx(0.5, abs=1e-12)

    def test_identity_chain_is_disconnected(self):
        chain = FiniteChain(pi=TWO_STATE_PI, Q=np.eye(2), T=np.eye(2))
        spec = spectral_quantities(chain)
        assert spec.gap == pytest.approx(0.0, abs=1e-14)
        assert spec.conductance == pytest.approx(0.0, abs=1e-14)

    def test_cheeger_sandwich_on_random_chains(self):
        rng = substream(5, "cheeger")
        for _ in range(200):
            chain = random_reversible_chain(int(rng.integers(2, 11)), rng)
            spec = spectral_quantities(chain)
            assert spec.conductance**2 / 8.0 <= spec.gap + 1e-12
            assert spec.gap <= 2.0 * spec.conductance + 1e-12

    def test_s_conductance_monotone_and_infinite_tail(self):
        rng = substream(6, "s-cond")
        chain = random_reversible_chain(8, rng)
        spec = spectral_quantities(chain)
        values = [spec.s_conductance(s) for s in np.linspace(0.0, 0.45, 10)]
        finite = [v for v in values if math.isfinite(v)]
        assert all(b >= a - 1e-12 for a, b in zip(finite, finite[1:]))
        # Beyond the largest subset mass <= 1/2 the infimum is empty.
        assert spec.s_conductance(float(np.max(
            spec.subset_masses[spec.subset_masses <= 0.5]
        ))) == math.inf
        with pytest.raises(ValueError):
            spec.s_conductance(0.7)

    def test_state_count_cap(self):
        chain = FiniteChain(pi=np.full(21, 1 / 21), Q=np.eye(21), T=np.eye(21))
        with pytest.raises(ValueError):
            spectral_quantities(chain)

    def test_one_state_chain_is_rejected(self):
        chain = metropolize(np.ones((1, 1)), np.ones(1))
        with pytest.raises(ValueError, match="at least 2"):
            spectral_quantities(chain)
        with pytest.raises(ValueError, match="at least 2"):
            evolve_and_check(chain, np.ones(1), 5)


def _per_subset_reference(c):
    """Gap, then the enumeration one subset at a time: masses, conductance
    and s_conductance."""
    n = c.n
    root = np.sqrt(c.pi)
    sym = root[:, None] * c.T / root[None, :]
    eigenvalues = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    gap = float(min(max(1.0 - eigenvalues[-2], 0.0), 2.0))
    F = c.pi[:, None] * c.T
    masses = np.empty((1 << n) - 2)
    flows = np.empty((1 << n) - 2)
    idx = np.arange(n)
    for mask in range(1, (1 << n) - 1):
        members = (mask >> idx) & 1 == 1
        masses[mask - 1] = c.pi[members].sum()
        flows[mask - 1] = F[np.ix_(members, ~members)].sum()
    small = masses <= 0.5
    conductance = float(np.min(flows[small] / masses[small])) if small.any() else 1.0

    def s_conductance(s):
        eligible = (masses > s) & small
        if not eligible.any():
            return math.inf
        return float(np.min(flows[eligible] / (masses[eligible] - s)))

    return gap, masses, conductance, s_conductance


def _birth_death_chain(m=15):
    """A discretized Gaussian on m sites with a +-1 random-walk proposal."""
    sites = np.linspace(-3.0, 3.0, m)
    pi = np.exp(-0.5 * sites**2)
    pi /= pi.sum()
    Q = np.zeros((m, m))
    for i in range(m):
        Q[i, max(i - 1, 0)] += 0.5
        Q[i, min(i + 1, m - 1)] += 0.5
    return metropolize(Q, pi)


def _enumeration_chains():
    rng = substream(10, "enumeration")
    chains = [random_reversible_chain(n, rng) for n in range(2, 13) for _ in range(4)]
    chains.append(FiniteChain(pi=TWO_STATE_PI, Q=np.eye(2), T=np.eye(2)))
    chains.append(_birth_death_chain())
    return chains


class TestSubsetEnumeration:
    S_VALUES = np.linspace(0.0, 0.49, 12)

    # 1000 gathered flows per block splits every chain with n >= 7 into
    # several blocks, so the block boundaries are exercised at small n.
    @pytest.mark.parametrize("block_elements", [None, 1000],
                             ids=["default-blocks", "small-blocks"])
    def test_blocks_match_the_per_subset_loop_bit_for_bit(self, monkeypatch, block_elements):
        if block_elements is not None:
            monkeypatch.setattr(finite_chain, "_BLOCK_ELEMENTS", block_elements)
        for chain in _enumeration_chains():
            spec = spectral_quantities(chain)
            gap, masses, conductance, s_conductance = _per_subset_reference(chain)
            assert spec.gap == gap
            assert spec.subset_masses.tobytes() == masses.tobytes()
            assert spec.conductance == conductance
            for s in self.S_VALUES:
                assert spec.s_conductance(s) == s_conductance(s)

    def test_memory_stays_bounded_at_the_state_cap(self):
        chain = random_reversible_chain(MAX_STATES, substream(11, "cap"))
        tracemalloc.start()
        try:
            spec = spectral_quantities(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        masses = spec.subset_masses
        assert len(masses) == (1 << MAX_STATES) - 2
        # Singletons carry pi, and a subset and its complement carry mass 1.
        np.testing.assert_array_equal(masses[(1 << np.arange(MAX_STATES)) - 1], chain.pi)
        np.testing.assert_allclose(masses + masses[::-1], 1.0, atol=1e-14)

    def test_index_cache_holds_read_only_single_block_enumerations(self, monkeypatch):
        monkeypatch.setattr(finite_chain, "_INDEX_CACHE", {})
        rng = substream(12, "cache")
        chains = [random_reversible_chain(n, rng) for n in (5, 6, 7, 8)]
        default_elements = finite_chain._BLOCK_ELEMENTS
        for block_elements in (None, 1000):
            if block_elements is not None:
                monkeypatch.setattr(finite_chain, "_BLOCK_ELEMENTS", block_elements)
            for chain in chains:
                spectral_quantities(chain)
        # 1000 flows make steps of 160 and 111 masks at n = 5 and 6, one block
        # each; n = 7 and 8 span several blocks there and are not cached.
        default = [(n, default_elements * 4 // (n * n)) for n in (5, 6, 7, 8)]
        assert sorted(finite_chain._INDEX_CACHE) == sorted(default + [(5, 160), (6, 111)])
        for (n, _), groups in finite_chain._INDEX_CACHE.items():
            rows = np.concatenate([group[0] for group in groups])
            np.testing.assert_array_equal(np.sort(rows), np.arange((1 << n) - 2))
            for array in (a for group in groups for a in group):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


class TestProjectionCheck:
    def test_qbar_equals_t_passes(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        report = projection_check(TWO_STATE_Q, chain.T, TWO_STATE_PI)
        assert report.passed

    def test_qbar_equals_q_when_reversible(self):
        rng = substream(7, "self")
        chain = random_reversible_chain(5, rng)
        report = projection_check(chain.T, chain.T, chain.pi)
        assert report.passed
        assert report.global_lhs == pytest.approx(0.0, abs=1e-14)
        assert report.global_rhs == pytest.approx(0.0, abs=1e-14)

    def test_500_random_triples(self):
        rng = substream(8, "triples")
        for _ in range(500):
            pi, Q, Qbar = random_projection_triple(int(rng.integers(2, 9)), rng)
            report = projection_check(Q, Qbar, pi)
            assert report.passed

    def test_triple_is_the_chain_then_a_metropolized_proposal(self):
        for n in range(2, 9):
            rng = substream(14, "triple", n)
            reference = substream(14, "triple", n)
            pi, Q, Qbar = random_projection_triple(n, rng)
            chain = random_reversible_chain(n, reference)
            other = reference.uniform(0.1, 1.0, size=(n, n))
            other /= other.sum(axis=1, keepdims=True)
            qbar = metropolize(other, chain.pi).T
            assert pi.tobytes() == chain.pi.tobytes()
            assert Q.tobytes() == chain.Q.tobytes()
            assert Qbar.tobytes() == qbar.tobytes()
            assert rng.random() == reference.random()

    def test_non_reversible_qbar_rejected(self):
        Qbar = np.array([[0.1, 0.9], [0.6, 0.4]])
        with pytest.raises(ValueError):
            projection_check(TWO_STATE_Q, Qbar, TWO_STATE_PI)


class TestEvolveAndCheck:
    def test_two_state_hand_evolution(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        mu0 = np.array([1.0, 0.0])
        assert float(np.max(mu0 / chain.pi)) == pytest.approx(1.5)
        mu1 = mu0 @ chain.T
        np.testing.assert_allclose(mu1, [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(mu1 / chain.pi, [1.125, 0.75], atol=1e-12)
        report = evolve_and_check(chain, mu0, 10)
        assert report.passed
        assert report.warmness_start == pytest.approx(1.5)

    def test_stationary_start_trivial(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        report = evolve_and_check(chain, chain.pi, 20)
        assert report.passed
        assert report.max_warm_violation <= EXACT_TOL

    def test_100_random_chains(self):
        rng = substream(9, "evolve")
        for _ in range(100):
            n = int(rng.integers(3, 11))
            chain = random_reversible_chain(n, rng)
            mu0 = np.zeros(n)
            mu0[int(np.argmin(chain.pi))] = 1.0
            report = evolve_and_check(chain, mu0, 50)
            assert report.passed, (
                f"violations: warm={report.max_warm_violation} "
                f"chi2={report.max_chi2_violation} "
                f"lovasz={report.max_lovasz_violation}"
            )

    def test_mu0_validated(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        with pytest.raises(ValueError):
            evolve_and_check(chain, np.array([0.7, 0.7]), 5)

    def test_nan_mu0_is_rejected(self):
        chain = random_reversible_chain(4, substream(13, "nan"))
        with pytest.raises(ValueError, match="probability vector"):
            evolve_and_check(chain, [math.nan, 1.0, 0.0, 0.0], 5)

    def test_nan_kernel_fails_the_report(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        T = chain.T.copy()
        T[0, 0] = math.nan
        report = evolve_and_check(FiniteChain(pi=chain.pi, Q=chain.Q, T=T),
                                  np.array([1.0, 0.0]), 5)
        assert math.isnan(report.max_lovasz_violation)
        assert not report.passed

    def test_negative_step_count_is_rejected(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        with pytest.raises(ValueError, match="n_steps"):
            evolve_and_check(chain, np.array([1.0, 0.0]), -1)

    def test_zero_steps_report_no_violation(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        report = evolve_and_check(chain, np.array([1.0, 0.0]), 0)
        assert report == EvolveReport(0, 1.5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n_steps", [0, 1, 50])
    def test_trajectory_matches_the_per_step_loop_bit_for_bit(self, n_steps):
        chains = _enumeration_chains()
        # A kernel borrowed from another chain of the same size does not keep
        # pi, so from mu0 = pi (M0 = 1) the violations are positive and carry
        # the bits of TV and chi²; on a chain's own kernel that start reads
        # the rounding of each step as a warmness violation.
        borrowed = [FiniteChain(pi=a.pi, Q=a.Q, T=b.T)
                    for a, b in zip(chains, chains[1:]) if a.n == b.n]
        for chain in chains + borrowed:
            point = np.zeros(chain.n)
            point[int(np.argmin(chain.pi))] = 1.0
            spread = np.arange(1.0, chain.n + 1.0)
            spread /= spread.sum()
            for mu0 in (point, spread, chain.pi):
                assert (evolve_and_check(chain, mu0, n_steps)
                        == _per_step_evolve_reference(chain, mu0, n_steps))

    def test_lovasz_bound_keeps_the_bits_of_math_exp(self):
        # T does not keep pi, so TV stays near 0.2 while the s = 0.01 term
        # M0·exp(−C_s²n/2) is still 0.17 at n = 10, where the largest excess
        # sits: its bits are those of math.exp, which np.exp does not always
        # reproduce.
        pi = np.array([0.46, 0.23, 0.31])
        T = np.array([[0.3, 0.3, 0.4], [0.4, 0.2, 0.4], [0.1, 0.6, 0.3]])
        chain = FiniteChain(pi=pi, Q=T, T=T)
        mu0 = np.array([1.0, 0.0, 0.0])
        report = evolve_and_check(chain, mu0, 10)
        c_s = spectral_quantities(chain).s_conductance(0.01)
        tv = 0.5 * np.abs(mu0 @ np.linalg.matrix_power(T, 10) - pi).sum()
        term = report.warmness_start * math.exp(-0.5 * c_s * c_s * 10)
        assert 0.0 < report.max_lovasz_violation and 0.5 * tv < term < tv
        assert report == _per_step_evolve_reference(chain, mu0, 10)


def _per_step_evolve_reference(c, mu0, n_steps):
    """The evolve checks one step at a time, each a scalar running max."""
    mu = np.asarray(mu0, dtype=float)
    m0 = float(np.max(mu / c.pi))
    spec = spectral_quantities(c)
    cs = {s: spec.s_conductance(s) for s in finite_chain.S_GRID}
    warm_prev = m0
    max_warm = max_chi2 = max_lovasz = 0.0
    for n in range(1, n_steps + 1):
        mu = mu @ c.T
        warm = float(np.max(mu / c.pi))
        max_warm = max(max_warm, warm - warm_prev)
        warm_prev = warm
        tv = 0.5 * float(np.abs(mu - c.pi).sum())
        chi2 = float(np.sum((mu - c.pi) ** 2 / c.pi))
        max_chi2 = max(max_chi2, chi2 - 2.0 * m0 * tv)
        for s, c_s in cs.items():
            bound = m0 * s + (m0 * math.exp(-0.5 * c_s * c_s * n) if math.isfinite(c_s) else 0.0)
            max_lovasz = max(max_lovasz, tv - bound)
    return EvolveReport(n_steps, m0, max_warm, max_chi2, max_lovasz)


def test_reports_fail_on_a_nan_or_a_violation():
    nan, over = math.nan, 2.0 * EXACT_TOL
    for violations in ((nan, 0.0, 0.0), (0.0, nan, 0.0), (0.0, 0.0, over)):
        assert not EvolveReport(1, 1.0, *violations).passed
    assert EvolveReport(1, 1.0, EXACT_TOL, 0.0, -1.0).passed
    ok, bad = np.zeros(2), np.array([0.0, nan])
    assert FiniteProjectionReport(1.0, 1.0 - EXACT_TOL, ok, ok).passed
    for lhs, rhs, state_lhs in ((nan, 1.0, ok), (1.0, nan, ok), (0.0, 1.0, bad),
                                (1.0 + over, 1.0, ok)):
        assert not FiniteProjectionReport(lhs, rhs, state_lhs, ok).passed


# s values of finite_chain.S_GRID and of verify's monotonicity grid.
STACK_S_VALUES = sorted({*finite_chain.S_GRID, *np.linspace(0.01, 0.45, 9)})


def _stack_draws(n, seed, m=7):
    """m random (pi, Q, other proposal) draws of size n, stacked."""
    rng = substream(seed, "stacks", n)
    return tuple(map(np.stack, zip(*(finite_chain._draw(n, rng, 2) for _ in range(m)))))


class TestStacks:
    """A stack of m chains of one size gives each chain the bits of its own
    call, at every n the verify suite draws (n = 9 and 10 included, where a
    subset holds 8 or more states)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_kernels_and_projection_match_a_per_chain_loop(self, n, seed):
        pi, Q, other = _stack_draws(n, seed)
        chains = metropolize(Q, pi)
        singles = [metropolize(q, p) for q, p in zip(Q, pi)]
        assert chains.T.shape == Q.shape
        assert chains.T.tobytes() == np.stack([c.T for c in singles]).tobytes()
        Qbar = metropolize(other, pi).T
        assert (detailed_balance_error(chains.T, pi).tolist()
                == [detailed_balance_error(c.T, c.pi) for c in singles])
        assert (offdiag_l1(chains.T, Q, pi).tolist()
                == [offdiag_l1(c.T, c.Q, c.pi) for c in singles])
        report = projection_check(Q, Qbar, pi)
        for k in range(len(pi)):
            single = projection_check(Q[k], Qbar[k], pi[k])
            assert report.global_lhs[k] == single.global_lhs
            assert report.global_rhs[k] == single.global_rhs
            assert report.state_lhs[k].tobytes() == single.state_lhs.tobytes()
            assert report.state_rhs[k].tobytes() == single.state_rhs.tobytes()
        assert report.passed

    # 1000 gathered flows per block split the stack into chunks of chains,
    # and n >= 7 into several blocks of subsets.
    @pytest.mark.parametrize("block_elements", [None, 1000],
                             ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_spectral_quantities_match_the_per_subset_loop(self, monkeypatch, n, seed,
                                                           block_elements):
        if block_elements is not None:
            monkeypatch.setattr(finite_chain, "_BLOCK_ELEMENTS", block_elements)
        pi, Q, _ = _stack_draws(n, seed)
        chains = metropolize(Q, pi)
        spec = spectral_quantities(chains)
        assert spec.subset_masses.shape == spec.subset_flows.shape == (len(pi), (1 << n) - 2)
        by_s = {s: spec.s_conductance(s) for s in STACK_S_VALUES}
        for k in range(len(pi)):
            chain = FiniteChain(pi=pi[k], Q=Q[k], T=chains.T[k])
            gap, masses, conductance, s_conductance = _per_subset_reference(chain)
            assert spec.gap[k] == gap
            assert spec.conductance[k] == conductance
            assert spec.subset_masses[k].tobytes() == masses.tobytes()
            single = spectral_quantities(chain)
            assert spec.subset_flows[k].tobytes() == single.subset_flows.tobytes()
            for s, values in by_s.items():
                assert values[k] == s_conductance(s) == single.s_conductance(s)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_evolve_and_check_matches_the_per_step_loop(self, n, seed):
        pi, Q, other = _stack_draws(n, seed)
        chains = metropolize(Q, pi)
        # A kernel built for another pi does not keep this one, so from any
        # start the violations are positive and carry the bits of TV and chi².
        borrowed = FiniteChain(pi=pi, Q=Q, T=metropolize(other, pi[::-1]).T)
        lightest = np.eye(n)[np.argmin(pi, axis=1)]
        spread = np.tile(np.arange(1.0, n + 1.0) / (n * (n + 1) / 2), (len(pi), 1))
        for stack, mu0 in ((chains, lightest), (borrowed, lightest), (borrowed, spread)):
            report = evolve_and_check(stack, mu0, 50)
            assert report.n_steps == 50
            for k in range(len(pi)):
                chain = FiniteChain(pi=pi[k], Q=Q[k], T=stack.T[k])
                single = evolve_and_check(chain, mu0[k], 50)
                assert single == _per_step_evolve_reference(chain, mu0[k], 50)
                assert single == EvolveReport(50, *(float(field[k]) for field in (
                    report.warmness_start, report.max_warm_violation,
                    report.max_chi2_violation, report.max_lovasz_violation)))

    def test_a_single_chain_comes_back_unstacked(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        assert chain.T.shape == (2, 2) and chain.n == 2
        spec = spectral_quantities(chain)
        assert all(type(v) is float for v in (spec.gap, spec.conductance,
                                               spec.s_conductance(0.1)))
        assert spec.subset_masses.shape == spec.subset_flows.shape == (2,)
        report = projection_check(TWO_STATE_Q, chain.T, TWO_STATE_PI)
        assert type(report.global_lhs) is float and report.state_lhs.shape == (2,)
        assert type(detailed_balance_error(chain.T, TWO_STATE_PI)) is float
        assert type(offdiag_l1(chain.T, TWO_STATE_Q, TWO_STATE_PI)) is float
        evolved = evolve_and_check(chain, np.array([1.0, 0.0]), 3)
        assert type(evolved.max_lovasz_violation) is float

    def test_stacked_reports_fail_when_one_chain_fails(self):
        ok, nan = np.zeros(3), np.array([0.0, math.nan, 0.0])
        assert EvolveReport(1, ok + 1.0, ok, ok, ok).passed
        assert not EvolveReport(1, ok + 1.0, ok, nan, ok).passed
        assert FiniteProjectionReport(ok, ok, np.zeros((3, 2)), np.zeros((3, 2))).passed
        state = np.zeros((3, 2))
        state[2, 1] = 2.0 * EXACT_TOL
        assert not FiniteProjectionReport(ok, ok, state, np.zeros((3, 2))).passed


class TestShapeErrors:
    """Inputs of mismatched shapes raise ValueError naming both shapes."""

    def test_metropolize(self):
        with pytest.raises(ValueError, match=r"Q has shape \(3, 3\); pi of shape \(2,\) "
                                             r"needs \(2, 2\)"):
            metropolize(np.full((3, 3), 1 / 3), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=r"Q has shape \(4, 3, 3\); pi of shape \(5, 3\)"):
            metropolize(np.full((4, 3, 3), 1 / 3), np.full((5, 3), 1 / 3))
        with pytest.raises(ValueError, match=r"pi has shape \(1, 1, 2\); expected"):
            metropolize(TWO_STATE_Q, TWO_STATE_PI[None, None])

    def test_detailed_balance_error(self):
        with pytest.raises(ValueError, match=r"T has shape \(3, 3\); pi of shape \(2,\)"):
            detailed_balance_error(np.eye(3), TWO_STATE_PI)

    def test_offdiag_l1(self):
        with pytest.raises(ValueError, match=r"A has shape \(2, 2\); pi of shape \(3,\) "
                                             r"needs \(3, 3\)"):
            offdiag_l1(np.eye(2), np.eye(2), np.full(3, 1 / 3))

    def test_projection_check(self):
        with pytest.raises(ValueError, match=r"Qbar has shape \(3, 3\); pi of shape \(2,\)"):
            projection_check(TWO_STATE_Q, np.full((3, 3), 1 / 3), TWO_STATE_PI)

    def test_spectral_quantities(self):
        chain = FiniteChain(pi=TWO_STATE_PI, Q=np.eye(3), T=np.eye(3))
        with pytest.raises(ValueError, match=r"T has shape \(3, 3\); pi of shape \(2,\)"):
            spectral_quantities(chain)

    def test_evolve_and_check(self):
        chain = metropolize(TWO_STATE_Q, TWO_STATE_PI)
        with pytest.raises(ValueError, match=r"mu0 has shape \(3,\); pi of shape \(2,\) "
                                             r"needs \(2,\)"):
            evolve_and_check(chain, np.full(3, 1 / 3), 5)
