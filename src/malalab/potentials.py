"""Target potentials for the sampling laboratory.

Every target is a distribution pi ∝ exp(-V) on R^d whose potential V carries
certified curvature bounds alpha·I ⪯ V'' ⪯ beta·I. There are two kinds:

* ``gaussian(d)`` — standard Gaussian, V(x) = ||x||²/2, alpha = beta = 1.
* ``adversarial_cosine(d, eta)`` — cosine-perturbed Gaussian,

      V(x) = ||x||²/2 − (1/(2 d^{2·eta})) · Σ_i cos(d^eta · x_i),

  with eta in the open interval (0, 1/4). The 1-D profile has curvature
  v''(t) = 1 + cos(d^eta·t)/2, so the potential is exactly 1/2-strongly
  convex and 3/2-smooth for every admissible eta.

A ``Potential`` is fixed by ``(kind, d, eta)``; alpha and beta follow from
the kind, and the Gaussian takes no eta.

Potentials are deliberately NOT shifted to V(0) = 0: every consumer in this
package (acceptance ratios, quadrature weights, diagnostics) uses potential
differences only, so additive constants are irrelevant, and the perturbed
target keeps its natural value V(0) = −d^{1−2·eta}/2.

Instances are frozen and safe to share across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GAUSSIAN = "gaussian"
ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class Potential:
    """Immutable description of a target pi ∝ exp(-V), fixed by (kind, d, eta).

    ``alpha`` and ``beta`` are the certified strong-convexity and smoothness
    constants of V, set from the kind. Both kinds are separable,
    V(x) = Σ_i v(x_i), with the 1-D profile defined once and exposed through
    :meth:`profile_value` / :meth:`profile_grad`.
    """

    kind: str
    d: int
    eta: float | None = None
    # Set once in __post_init__ from the kind; the perturbed target's
    # w = d^eta and amp = 1/(2 d^{2·eta}) are read, never recomputed.
    alpha: float = field(init=False, compare=False)
    beta: float = field(init=False, compare=False)
    w: float | None = field(init=False, default=None, repr=False, compare=False)
    amp: float | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if self.kind == GAUSSIAN:
            if self.eta is not None:
                raise ValueError(f"the Gaussian target takes no eta, got {self.eta}")
            alpha, beta = 1.0, 1.0
        elif self.kind == ADVERSARIAL:
            if self.eta is None or not 0.0 < self.eta < 0.25:
                raise ValueError(f"eta must lie in the open interval (0, 1/4), got {self.eta}")
            alpha, beta = 0.5, 1.5
            object.__setattr__(self, "w", self.d**self.eta)
            object.__setattr__(self, "amp", 0.5 * self.d ** (-2.0 * self.eta))
        else:
            raise ValueError(f"unknown target kind {self.kind!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    # -- evaluation -------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.d:
            raise ValueError(
                f"input has trailing dimension {x.shape[-1] if x.ndim else 0}, "
                f"expected {self.d}"
            )
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite entries")
        return x

    def _dv(self, t: np.ndarray) -> np.ndarray:
        if self.kind == GAUSSIAN:
            return t.copy()
        return t + np.sin(self.w * t) / (2.0 * self.w)

    def _one_point(self, x) -> float | None:
        """The float in a (1,) float64 array at d = 1, else None."""
        if (type(x) is np.ndarray and x.shape == (1,) and self.d == 1
                and x.dtype == np.float64):
            if not math.isfinite(t := x.item()):
                raise ValueError("input contains non-finite entries")
            return t
        return None

    def value(self, x) -> float | np.ndarray:
        """V(x). Accepts a single point (d,) or a batch (..., d).

        A (1,) float64 point at d = 1 is evaluated on floats, bit for bit the
        array path (libm cos); overflow there gives inf even under
        ``np.errstate(over="raise")``.
        """
        if (t := self._one_point(x)) is not None:
            v = 0.5 * (t * t)
            return v if self.kind == GAUSSIAN else v - self.amp * math.cos(self.w * t)
        x = self._check_input(x)
        # Sum, then scale by amp: the profile form Σ_i v(x_i) rounds
        # differently and would move verify's density-oracle row.
        out = 0.5 * (x * x).sum(axis=-1)
        if self.kind == ADVERSARIAL:
            out = out - self.amp * np.cos(self.w * x).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def grad(self, x) -> np.ndarray:
        """∇V(x) in a fresh array shaped like the input; floats as in :meth:`value`."""
        if (t := self._one_point(x)) is not None:
            return np.array([t if self.kind == GAUSSIAN
                             else t + math.sin(self.w * t) / (2.0 * self.w)])
        return self._dv(self._check_input(x))

    def value_and_grad(self, x):
        """(V(x), ∇V(x)) in one call; batched like :meth:`value`."""
        return self.value(x), self.grad(x)

    # -- 1-D profile --------------------------------------------------------

    def profile_value(self, t):
        """1-D profile v with V(x) = Σ_i v(x_i)."""
        t = np.asarray(t, dtype=float)
        if self.kind == GAUSSIAN:
            return 0.5 * t**2
        return 0.5 * t * t - self.amp * np.cos(self.w * t)

    def profile_grad(self, t):
        """Derivative v' of the 1-D profile."""
        return self._dv(np.asarray(t, dtype=float))


def gaussian(d: int) -> Potential:
    """Standard Gaussian target on R^d."""
    return Potential(GAUSSIAN, d)


def adversarial_cosine(d: int, eta: float) -> Potential:
    """Cosine-perturbed Gaussian target; eta must lie in the open (0, 1/4)."""
    return Potential(ADVERSARIAL, d, float(eta))
