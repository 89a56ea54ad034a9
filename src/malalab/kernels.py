"""Markov transition kernels and chain execution.

The proposal is one unadjusted Langevin step,

    y = x − h·∇V(x) + sqrt(2h)·xi,   xi ~ N(0, I_d),

i.e. Q(x, ·) = N(x − h·∇V(x), 2h·I_d). MALA follows the proposal with an
accept-reject step using

    log a(x, y) = V(x) − V(y)
                  + (||y − x + h·∇V(x)||² − ||x − y + h·∇V(y)||²) / (4h),

and rejection leaves the state bitwise unchanged (the kernel keeps an atom
at x). ULA runs the same proposal unadjusted. :func:`run_chain` drives MALA
and ULA; the exact Ornstein-Uhlenbeck kernel N(e^{−h}·x, (1 − e^{−2h})·I_d),
the Gaussian target's time-h Langevin law, is the one-step reference.

One private transition moves a single chain's point (d,) and the rows
(n, d) of an ensemble alike. A chain carries V and ∇V at its state, so a
MALA step evaluates them once, at the proposal; ULA evaluates ∇V alone.

Acceptance tests are done in log space, log u <= log a with u ~ Uniform(0,1],
which is overflow-safe for large ||x||². All randomness is drawn from
generators derived via :mod:`malalab.rng`, so equal seeds give bitwise-equal
trajectories. Distinct chains share no mutable state; one generator must not
be advanced concurrently.

At d = 1, :func:`run_chain` runs MALA and ULA on Python floats, free of
numpy's per-call cost on (1,) arrays; the chain is the array step's unless a
log ratio falls in the last-bit gap between math.log(u) and np.log(u).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import oracle1d
from .potentials import Potential
from .rng import substream

MALA = "mala"
ULA = "ula"

# The batched MALA paths move their rows in blocks of this many float64
# elements, 256 KiB per temporary. A block's proposal, V and ∇V at both ends
# and log ratio live in about eight such temporaries at once, which together
# stay in a 2 MiB L2 cache; one pass over (4096, 64) temporaries does not.
_BLOCK_ELEMENTS = 2**15


def _check_step(h) -> None:
    # NaN fails both comparisons, so it is rejected with 0, negatives and inf.
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")


@dataclass(frozen=True)
class KernelParams:
    """Step size and kernel variant, MALA or ULA."""

    h: float
    variant: str = MALA

    def __post_init__(self):
        _check_step(self.h)
        if self.variant not in (MALA, ULA):
            raise ValueError(f"unknown variant {self.variant!r}")


def init_chain(p: Potential, x0, seed):
    """A chain's start: (x0, V(x0), ∇V(x0), rng) for one point x0 of shape (d,).

    The chain carries V and ∇V from here on and draws from its own stream.
    """
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError(f"start must be one point of shape (d,), got shape {x0.shape}")
    value, grad = p.value_and_grad(x0)
    return x0, float(value), grad, substream(seed, "chain")


def _langevin_proposal(h: float, x, grad_x, noise) -> np.ndarray:
    """(x − h·∇V(x)) + sqrt(2h)·noise for a standard normal block ``noise``.

    x and ∇V(x) broadcast against ``noise``, so one state can be moved along
    many noise rows.
    """
    return (x - h * grad_x) + math.sqrt(2.0 * h) * noise


def propose_mala(p: Potential, h: float, x, rng) -> np.ndarray:
    """Draw y ~ N(x − h·∇V(x), 2h·I), one ULA step; accepts a batch (..., d)."""
    _check_step(h)
    x = np.asarray(x, dtype=float)
    return _langevin_proposal(h, x, p.grad(x), rng.standard_normal(x.shape))


def _log_ratio_parts(h, x, value_x, grad_x, y, value_y, grad_y):
    # Term order is chosen so that swapping (x, y) negates the result
    # bitwise: a−b = −(b−a) and ||·||² of identically constructed vectors
    # reuse the same floats.
    forward = ((y - x + h * grad_x) ** 2).sum(axis=-1)
    backward = ((x - y + h * grad_y) ** 2).sum(axis=-1)
    return (value_x - value_y) + (forward - backward) / (4.0 * h)


def _propose_and_ratio(p: Potential, h: float, x, value_x, grad_x, noise):
    """MALA proposal from x with V and ∇V at both ends and log a(x, y).

    ``value_x`` and ``grad_x`` are the caller's cached V(x) and ∇V(x), so x
    is never re-evaluated. y = (x − h·∇V(x)) + sqrt(2h)·``noise``, the
    caller's standard normal block; a single x (d,) may stand against m
    rows, shape (m, d). Returns (y, V(y), ∇V(y), log a).
    """
    y = _langevin_proposal(h, x, grad_x, noise)
    value_y, grad_y = p.value_and_grad(y)
    return y, value_y, grad_y, _log_ratio_parts(h, x, value_x, grad_x, y, value_y, grad_y)


def _require_finite(log_ratio):
    if not np.all(np.isfinite(np.atleast_1d(log_ratio))):
        raise FloatingPointError("non-finite acceptance ratio")
    return log_ratio


def log_accept_ratio(p: Potential, h: float, x, y):
    """log a(x, y) = log[pi(y)·Q(y, x)] − log[pi(x)·Q(x, y)].

    Exactly antisymmetric under swapping x and y (bitwise, not just up to
    rounding). ``y`` may be a batch (n, d) against a single x, or both may
    be batches of equal shape.
    """
    _check_step(h)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    value_x, grad_x = p.value_and_grad(x)
    value_y, grad_y = p.value_and_grad(y)
    out = _require_finite(_log_ratio_parts(h, x, value_x, grad_x, y, value_y, grad_y))
    return float(out) if np.ndim(out) == 0 else out


def _uniform_open(rng, size=None):
    # Uniform on (0, 1]: keeps log(u) finite.
    return 1.0 - rng.random(size)


def _block_rows(d: int) -> int:
    """Rows of d coordinates in one block of the batched MALA paths."""
    return max(1, _BLOCK_ELEMENTS // max(d, 1))


def _transition(p: Potential, h: float, X, rng, adjusted=True, carried=None):
    """One Langevin transition of a point X (d,) or of every row of X (n, d).

    ``carried`` is (V(X), ∇V(X)) where the caller keeps them; otherwise they
    are evaluated here. MALA checks that every log ratio is finite, then
    draws one uniform per row; ULA evaluates ∇V(Y) alone and accepts all.
    Returns (Y, V(Y), ∇V(Y), accepted, log ratios), ULA's V(Y) and ratios None.

    More rows than one block of ``_BLOCK_ELEMENTS`` elements are moved block
    by block, for batch_mala_update's MALA: V and ∇V at X are evaluated per
    block, and V(Y), ∇V(Y), which no caller reads there, are not kept. The
    normal blocks are drawn in row order, filling one (n, d) draw, and every
    sum is per row, so the blocks move no draw and no bit.
    """
    rows = _block_rows(X.shape[-1])
    if X.ndim == 1 or len(X) <= rows:
        value_x, grad_x = p.value_and_grad(X) if carried is None else carried
        if not adjusted:
            Y = _langevin_proposal(h, X, grad_x, rng.standard_normal(X.shape))
            return Y, None, p.grad(Y), True, None
        Y, value_y, grad_y, log_ratios = _propose_and_ratio(
            p, h, X, value_x, grad_x, rng.standard_normal(X.shape))
    else:
        Y, value_y, grad_y, log_ratios = np.empty_like(X), None, None, np.empty(len(X))
        for start in range(0, len(X), rows):
            block = slice(start, start + rows)
            x = X[block]
            value_x, grad_x = p.value_and_grad(x)
            Y[block], _, _, log_ratios[block] = _propose_and_ratio(
                p, h, x, value_x, grad_x, rng.standard_normal(x.shape))
    _require_finite(log_ratios)
    accepted = np.log(_uniform_open(rng, None if X.ndim == 1 else len(X))) <= log_ratios
    return Y, value_y, grad_y, accepted, log_ratios


class _DrawAhead:
    """``rng``'s draws for batched MALA steps on (n, d), made one step ahead.

    A step asks for ``_transition``'s draws in its order, the n×d normals in row
    blocks, then n uniforms, or raises. It is served views of one of two buffers
    while a helper thread, calling only the generator, fills the other with the
    next step's. ``with`` exit joins it and puts ``rng`` after the draws served.
    """

    def __init__(self, rng, n: int, d: int):
        self._rng, self._n, self._d, self._pool = rng, n, d, ThreadPoolExecutor(1)
        self._buffers = [(np.empty((n, d)), np.empty(n)) for _ in range(2)]
        # Buffer served, rows served (None between steps), state before each buffer.
        self._i, self._row, self._states = 1, None, [None, None]
        self._draw_ahead()

    def _draw_ahead(self):
        self._states[1 - self._i] = self._rng.bit_generator.state
        normals, uniforms = self._buffers[1 - self._i]
        self._ahead = self._pool.submit(
            lambda: (self._rng.standard_normal(out=normals), self._rng.random(out=uniforms)))

    def standard_normal(self, shape):
        if self._row is None:
            self._ahead.result()
            self._i, self._row = 1 - self._i, 0
            self._draw_ahead()
        start = self._row
        if len(shape) != 2 or shape[1] != self._d or not 0 < shape[0] <= self._n - start:
            raise ValueError(f"normals of shape {shape} off a step's schedule")
        self._row += shape[0]
        return self._buffers[self._i][0][start:self._row]

    def random(self, size):
        if not size == self._row == self._n:
            raise ValueError(f"{size} uniforms off a step's schedule")
        self._row = None
        return self._buffers[self._i][1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown()
        mid = self._row is not None  # a step left mid-way: its normals served are redrawn
        self._rng.bit_generator.state = self._states[self._i if mid else 1 - self._i]
        if mid:
            self._rng.standard_normal(out=self._buffers[self._i][0][:self._row])


def ou_exact_step(h: float, x, rng) -> np.ndarray:
    """Exact time-h Ornstein-Uhlenbeck transition for the Gaussian target.

    y ~ N(e^{−h}·x, (1 − e^{−2h})·I). This is the continuous Langevin kernel
    of the standard Gaussian and satisfies the semigroup property exactly.
    """
    _check_step(h)
    x = np.asarray(x, dtype=float)
    decay = math.exp(-h)
    sigma = math.sqrt(-math.expm1(-2.0 * h))
    return decay * x + sigma * rng.standard_normal(x.shape)


@dataclass(frozen=True)
class ChainSummary:
    """Trajectory summary returned by :func:`run_chain`."""

    final_x: np.ndarray
    n_steps: int
    n_accepted: int
    acceptance_rate: float | None
    mean_sq_displacement_coord1: float | None
    trajectory: np.ndarray | None = field(default=None, repr=False)


def _langevin_floats(p: Potential, h: float, start, n_steps, thin, adjusted):
    """run_chain's MALA/ULA loop at d = 1 on floats, with the array step's draws.

    The scalar standard_normal() draws the bits of shape (1,); t * t is
    numpy's array square and (x − y) ** 2 its scalar power. The accept test's
    math.log(u) is one ulp off the array step's np.log(u) for about 0.35 % of
    uniforms, and a log ratio in that gap decides otherwise. V and ∇V come from
    ``p.value``/``p.grad`` on the (1,) buffer, where a class-level patch sees
    them and a built-in target is evaluated on floats. ULA evaluates ∇V alone:
    its ratio is never read. ``start`` is :func:`init_chain`'s result; returns
    (final state, n_accepted, Σ squared displacement, recorded states as
    floats or None).
    """
    x0, v, g, rng = start
    x, g, v_y = float(x0[0]), float(g[0]), v  # ULA never evaluates V; v then stays unread
    buf, scale = np.empty(1), math.sqrt(2.0 * h)
    snapshots = [x] if thin > 0 else None
    n_accepted, sq_disp_total = 0, 0.0
    for step in range(1, n_steps + 1):
        y = (x - h * g) + scale * rng.standard_normal()
        buf[0] = y
        if adjusted:
            v_y = p.value(buf)
        g_y = float(p.grad(buf)[0])
        if adjusted:
            forward, backward = (y - x) + h * g, (x - y) + h * g_y
            log_ratio = (v - v_y) + (forward * forward - backward * backward) / (4.0 * h)
            if not math.isfinite(log_ratio):
                raise FloatingPointError("non-finite acceptance ratio")
        if not adjusted or math.log(_uniform_open(rng)) <= log_ratio:
            try:
                sq_disp_total += (x - y) ** 2
            except OverflowError:  # where numpy's scalar power gives inf
                sq_disp_total += math.inf
            n_accepted += 1
            x, v, g = y, v_y, g_y
        if thin > 0 and step % thin == 0:
            snapshots.append(x)
    return np.array([x]), n_accepted, sq_disp_total, snapshots


def run_chain(
    p: Potential,
    params: KernelParams,
    x0,
    n_steps: int,
    seed,
    thin: int = 0,
) -> ChainSummary:
    """Drive a single chain for ``n_steps`` transitions.

    ``thin`` > 0 records the state every ``thin`` steps (including step 0)
    into ``trajectory``; ULA counts every step as accepted. At d = 1 the
    chain runs on floats but still calls ``p.value``/``p.grad``, so wrappers
    of those see every evaluation.
    """
    if n_steps < 0 or thin < 0:
        raise ValueError(f"n_steps and thin must be >= 0, got {n_steps} and {thin}")
    start = x, value, grad, rng = init_chain(p, x0, seed)
    adjusted = params.variant == MALA
    if x.shape == (1,):
        x, n_accepted, sq_disp_total, snapshots = _langevin_floats(
            p, params.h, start, n_steps, thin, adjusted
        )
    else:
        n_accepted, sq_disp_total = 0, 0.0
        snapshots = [x] if thin > 0 else None
        for step in range(1, n_steps + 1):
            # A state array is never written to, so snapshots need no copy.
            y, value_y, grad_y, accepted, _ = _transition(
                p, params.h, x, rng, adjusted, (value, grad)
            )
            if accepted:
                n_accepted += 1
                sq_disp_total += float((x[0] - y[0]) ** 2)
                x, value, grad = y, value_y, grad_y
            if thin > 0 and step % thin == 0:
                snapshots.append(x)
    return ChainSummary(
        final_x=x, n_steps=n_steps, n_accepted=n_accepted,
        acceptance_rate=n_accepted / n_steps if n_steps else None,
        mean_sq_displacement_coord1=sq_disp_total / n_steps if n_steps else None,
        trajectory=(np.array(snapshots).reshape(len(snapshots), -1)
                    if snapshots is not None else None),
    )


def batch_mala_update(p: Potential, h: float, X, rng):
    """One independent MALA transition for every row of X.

    Returns (X_new, accepted_mask, log_ratios); rejected rows keep their
    original values bitwise. Rows are independent chains, so this is the
    vectorized form of many single steps, moved in row blocks of
    ``_BLOCK_ELEMENTS`` elements that move no draw and no bit.
    """
    _check_step(h)
    X = np.asarray(X, dtype=float)
    Y, _, _, accepted, log_ratios = _transition(p, h, X, rng)
    np.copyto(Y, X, where=~accepted[:, None])  # Y is the transition's own array
    return Y, accepted, log_ratios


_TABLE_CACHE: dict[tuple, oracle1d.CDFTable] = {}


def cdf_table_for(p: Potential) -> oracle1d.CDFTable:
    """Inverse-CDF table of the target's 1-D marginal.

    Tables are cached on (kind, w, amp), all the table reads (alpha follows
    the kind). Concurrent builders of one table all get the first one stored.
    """
    key = (p.kind, p.w, p.amp)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _TABLE_CACHE.setdefault(key, oracle1d.inverse_cdf_table(p))
    return table


def sample_separable_target(p: Potential, n: int, seed) -> np.ndarray:
    """n i.i.d. exact draws from a separable target, one row per sample.

    Coordinates are sampled independently through the 1-D inverse-CDF table,
    so rows are exact up to the table tolerance (<= 1e-8 in CDF).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = cdf_table_for(p)
    rng = substream(seed, "separable-sampling")
    u = rng.random((n, p.d))
    return np.asarray(table.inverse(u.ravel()), dtype=float).reshape(n, p.d)
