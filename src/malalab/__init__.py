"""malalab: a sampling laboratory for Metropolis-adjusted Langevin.

Targets with certified curvature bounds, MALA/ULA/Ornstein-Uhlenbeck/Euler
kernels, high-accuracy 1-D quadrature oracles, Monte-Carlo diagnostics for
acceptance, conductance, spectral gap, and mixing, and an exact finite-chain
testbed for the projection and mixing machinery.
"""

from .diagnostics import (
    AcceptanceEstimate,
    EstimateWithSE,
    ProjectionReport,
    acceptance_at,
    dirichlet_gap_upper,
    gaussian_conductance_bound,
    mean_acceptance,
    mixing_time_measure,
    projection_check_gaussian,
    rejection_probability,
    sliced_tv_to_target,
    tv_mc_estimate,
)
from .finite_chain import (
    FiniteChain,
    evolve_and_check,
    metropolize,
    offdiag_l1,
    projection_check,
    spectral_quantities,
)
from .kernels import (
    ChainState,
    ChainSummary,
    KernelParams,
    StepRecord,
    diffusion_reference_step,
    init_chain,
    log_accept_ratio,
    mala_step,
    ou_exact_step,
    propose_mala,
    run_chain,
    sample_separable_target,
    ula_step,
)
from .oracle1d import (
    CDFTable,
    coordinate_factor,
    coordinate_factor_first_order,
    gaussian_tv_equal_cov,
    inverse_cdf_table,
    kl_gaussian_vs_adversarial,
    normalizing_constant,
    quad_expectation,
    trig_sin_moment,
)
from .potentials import (
    Potential,
    RegularityReport,
    adversarial_cosine,
    gaussian,
    verify_regularity,
)
from .rng import substream

__version__ = "0.1.0"
