"""malalab: a sampling laboratory for Metropolis-adjusted Langevin.

Two targets with certified curvature bounds (``potentials``), MALA and ULA
chains (``kernels``), high-accuracy 1-D quadrature oracles (``oracle1d``),
Monte-Carlo diagnostics for acceptance, conductance, spectral gap and mixing
(``diagnostics``), and an exact finite-chain testbed for the projection and
mixing machinery (``finite_chain``). Import the submodules; the package
itself binds nothing but ``__version__``.
"""

__version__ = "0.1.0"
