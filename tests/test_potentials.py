import dataclasses
import math

import numpy as np
import pytest

from malalab import potentials
from malalab.potentials import (
    ADVERSARIAL,
    GAUSSIAN,
    Potential,
    adversarial_cosine,
    gaussian,
)
from malalab.rng import substream


def central_diff_grad(p, x, eps=1e-5):
    g = np.empty_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (p.value(xp) - p.value(xm)) / (2 * eps)
    return g


def test_gaussian_value_and_gradient():
    p = gaussian(2)
    value, grad = p.value_and_grad(np.array([3.0, 4.0]))
    assert value == pytest.approx(12.5, abs=1e-14)
    np.testing.assert_allclose(grad, [3.0, 4.0], atol=1e-14)


def test_adversarial_value_and_gradient_at_origin():
    p = adversarial_cosine(1, 0.2)
    value, grad = p.value_and_grad(np.zeros(1))
    assert value == pytest.approx(-0.5, abs=1e-14)
    np.testing.assert_allclose(grad, [0.0], atol=1e-14)


@pytest.mark.parametrize(
    "p",
    [
        gaussian(4),
        adversarial_cosine(4, 0.2),
        adversarial_cosine(7, 0.195),
    ],
    ids=["gaussian", "adversarial", "adversarial-preset"],
)
def test_gradient_matches_finite_differences(p):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(p.d)
        _, grad = p.value_and_grad(x)
        approx = central_diff_grad(p, x)
        np.testing.assert_allclose(grad, approx, rtol=1e-6, atol=1e-9)


def test_batched_evaluate_matches_loop():
    p = adversarial_cosine(6, 0.2)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((11, 6))
    values, grads = p.value_and_grad(X)
    for i in range(11):
        vi, gi = p.value_and_grad(X[i])
        assert values[i] == vi
        np.testing.assert_array_equal(grads[i], gi)


@pytest.mark.parametrize("p", [gaussian(5), adversarial_cosine(5, 0.22)])
def test_separability_decomposition(p):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(p.d)
    v0 = p.value(np.zeros(p.d)) / p.d
    embedded = sum(p.value(np.eye(p.d)[i] * x[i]) for i in range(p.d))
    assert embedded == pytest.approx(p.value(x) + p.d * (p.d - 1) * v0, abs=1e-10)


@pytest.mark.parametrize("p", [gaussian(6), adversarial_cosine(6, 0.2)])
def test_symmetry(p):
    rng = np.random.default_rng(6)
    x = rng.standard_normal(p.d)
    assert p.value(-x) == pytest.approx(p.value(x), abs=1e-12)
    np.testing.assert_allclose(p.grad(-x), -p.grad(x), atol=1e-12)


def test_adversarial_profile_curvature_on_dense_grid():
    p = adversarial_cosine(64, 0.2)
    ts = np.linspace(-12.0, 12.0, 20001)
    eps = 1e-4
    curv = (p.profile_grad(ts + eps) - p.profile_grad(ts - eps)) / (2 * eps)
    assert curv.min() >= 0.5 - 1e-6
    assert curv.max() <= 1.5 + 1e-6


def test_convexity_bounds():
    assert (gaussian(3).alpha, gaussian(3).beta) == (1.0, 1.0)
    p = adversarial_cosine(3, 0.2)
    assert (p.alpha, p.beta) == (0.5, 1.5)


def test_alpha_beta_follow_the_kind_under_replace():
    p = dataclasses.replace(gaussian(8), kind=ADVERSARIAL, eta=0.2)
    assert (p.alpha, p.beta) == (0.5, 1.5) and p == adversarial_cosine(8, 0.2)
    q = dataclasses.replace(p, kind=GAUSSIAN, eta=None)
    assert (q.alpha, q.beta) == (1.0, 1.0) and q == gaussian(8)
    assert (q.w, q.amp) == (None, None)


def test_settable_fields_are_kind_d_and_eta():
    assert [f.name for f in dataclasses.fields(Potential) if f.init] == ["kind", "d", "eta"]
    with pytest.raises(TypeError):
        Potential(GAUSSIAN, 3, alpha=2.0)


def test_unknown_kind_raises():
    for kind in ("banana", "custom", "Gaussian"):
        with pytest.raises(ValueError, match="unknown target kind"):
            Potential(kind, 3)
    with pytest.raises(ValueError, match="unknown target kind"):
        dataclasses.replace(gaussian(3), kind="banana")


def second_differences(p, n_probes, seed, eps=1e-3):
    """Directional second differences of V at random points x = r·u.

    The radius r is log-uniform on [1e-3, 4] and u a uniform unit direction,
    so the origin's neighborhood is probed; each probe takes
    (V(x + eps·w) − 2 V(x) + V(x − eps·w)) / eps² along a fresh unit w.
    """
    rng = substream(seed, "verify-regularity")
    curvs = np.empty(n_probes)
    for i in range(n_probes):
        u = rng.standard_normal(p.d)
        u /= np.linalg.norm(u)
        x = np.exp(rng.uniform(np.log(1e-3), np.log(4.0))) * u
        w = rng.standard_normal(p.d)
        w /= np.linalg.norm(w)
        vp, v0, vm = p.value(x + eps * w), p.value(x), p.value(x - eps * w)
        curvs[i] = (vp - 2.0 * v0 + vm) / (eps * eps)
    return curvs


def test_verify_regularity_gaussian():
    c = second_differences(gaussian(8), 100, seed=7)
    assert c.min() >= 1 - 1e-4 and c.max() <= 1 + 1e-4


def test_verify_regularity_adversarial():
    p = adversarial_cosine(64, 0.2)
    c = second_differences(p, 1000, seed=8)
    assert c.min() >= p.alpha - 1e-3 and c.max() <= p.beta + 1e-3


def test_verify_regularity_flags_quartic(monkeypatch):
    # A quartic V = t⁴ has curvature 12t², below alpha = 0.5 near the origin.
    p = adversarial_cosine(1, 0.2)
    monkeypatch.setattr(potentials.Potential, "value", lambda self, x: float(x[0] ** 4))
    c = second_differences(p, 500, seed=9)
    assert c.min() < p.alpha - 1e-3


def test_verify_regularity_fails_on_a_nan_probe(monkeypatch):
    # V is NaN beyond |t| = 1, and a NaN curvature is neither below nor above.
    p = adversarial_cosine(1, 0.2)
    monkeypatch.setattr(potentials.Potential, "value",
                        lambda self, x: 0.5 * x[0] * x[0] if abs(x[0]) < 1.0 else math.nan)
    c = second_differences(p, 200, seed=9)
    assert np.sum(c < p.alpha - 1e-3) == np.sum(c > p.beta + 1e-3) == 0
    assert np.isnan(c).any()


def test_eta_range_is_open():
    for bad in (0.0, 0.25, -0.1, 0.3):
        with pytest.raises(ValueError):
            adversarial_cosine(8, bad)
    for eta in (0.2, 0.195):
        adversarial_cosine(8, eta)


def test_replace_with_a_bad_eta_raises():
    p = adversarial_cosine(8, 0.2)
    for bad in (0.3, 0.0, 0.25, math.nan, None):
        with pytest.raises(ValueError, match="open interval"):
            dataclasses.replace(p, eta=bad)
    with pytest.raises(ValueError, match="open interval"):
        dataclasses.replace(gaussian(8), kind=ADVERSARIAL)


def test_the_gaussian_takes_no_eta():
    for eta in (0.3, 0.2, 0.0):
        with pytest.raises(ValueError, match="takes no eta"):
            Potential(GAUSSIAN, 8, eta)
    with pytest.raises(ValueError, match="takes no eta"):
        dataclasses.replace(adversarial_cosine(8, 0.2), kind=GAUSSIAN)
    assert gaussian(8).eta is None


def test_dimension_mismatch_raises():
    bad_inputs = [np.zeros(3), np.zeros((5, 3)), np.array(1.0), np.zeros(1),
                  np.array([1.0, np.nan, 0.0, 0.0])]
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((3, 4))
        X[1, 2] = bad
        bad_inputs.append(X)
    # At d = 1 a (1,) float64 point of a built-in target is evaluated on floats.
    bad_points = [np.array([bad]) for bad in (np.nan, np.inf, -np.inf)]
    bad_points += [np.array(0.5), np.zeros(2)]
    for d, inputs in ((4, bad_inputs), (1, bad_points)):
        for p in (gaussian(d), adversarial_cosine(d, 0.2)):
            for method in (p.value, p.grad, p.value_and_grad):
                for x in inputs:
                    with pytest.raises(ValueError):
                        method(x)


def test_value_and_grad_delegates(monkeypatch):
    # bench/selftest.py injects faults by patching Potential.value and
    # Potential.grad alone; a value_and_grad with its own body would let
    # every caller that evaluates V and ∇V together miss those faults.
    monkeypatch.setattr(potentials.Potential, "value", lambda self, x: "V sentinel")
    monkeypatch.setattr(potentials.Potential, "grad", lambda self, x: "grad sentinel")
    for p in (gaussian(2), adversarial_cosine(2, 0.2)):
        assert p.value_and_grad(np.zeros(2)) == ("V sentinel", "grad sentinel")


@pytest.mark.parametrize(
    "p",
    [gaussian(5), adversarial_cosine(5, 0.2)],
    ids=["gaussian", "adversarial"],
)
def test_value_and_grad_equals_separate_calls_bitwise(p):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(p.d)
    value, grad = p.value_and_grad(x)
    assert type(value) is float and value == p.value(x)
    assert grad.tobytes() == p.grad(x).tobytes()
    X = rng.standard_normal((3, 4, p.d))
    values, grads = p.value_and_grad(X)
    assert values.shape == (3, 4)
    assert values.tobytes() == p.value(X).tobytes()
    assert grads.tobytes() == p.grad(X).tobytes()


@pytest.mark.parametrize(
    "p",
    [gaussian(5), adversarial_cosine(5, 0.2), adversarial_cosine(4096, 0.195)],
    ids=["gaussian", "adversarial", "adversarial-4096"],
)
def test_grad_is_the_profile_derivative_bitwise(p):
    # ∇V and v' are one definition: grad applies v' coordinate-wise.
    X = np.random.default_rng(8).standard_normal((7, p.d)) * 3.0
    assert p.grad(X).tobytes() == p.profile_grad(X).tobytes()
    assert p.grad(X[0]).tobytes() == p.profile_grad(X[0]).tobytes()


def test_parameters_are_computed_once_and_follow_replace():
    p = adversarial_cosine(64, 0.2)
    q = dataclasses.replace(p, d=4096)
    x = np.full(4096, 0.3)
    assert q.value(x) == adversarial_cosine(4096, 0.2).value(x)
    assert q == adversarial_cosine(4096, 0.2) and p != q


def test_potentials_are_immutable():
    p = gaussian(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.d = 5


one_point_targets = pytest.mark.parametrize(
    "p", [gaussian(1), adversarial_cosine(1, 0.2),
          dataclasses.replace(adversarial_cosine(64, 0.2), d=1)],
    ids=["gaussian", "adversarial", "adversarial-replaced"])


class TestOnePointBranch:
    """value/grad evaluate a (1,) float64 point of a built-in d = 1 target on
    Python floats. It must give the bits of the array path, which a (1, 1)
    batch takes; so this also fails where numpy's cos/sin differ from libm's.
    """

    # t * t is subnormal at 1e-160 and 2e-158; at 2e-158 (0.5 * t) * t
    # rounds apart from 0.5 * (t * t).
    SPECIAL = [0.0, -0.0, 5e-324, 1e-160, 2e-158, -2e-158, 1e160, 1.7e308, -1.7e308]

    @one_point_targets
    def test_matches_the_batch_path_bit_for_bit(self, p):
        rng = np.random.default_rng(1201)
        ts = np.concatenate([rng.standard_normal(10_000) * scale
                             for scale in (1.0, 50.0, 1e6)] + [self.SPECIAL])
        for t in ts:
            x = np.array([t])
            value, grad = p.value(x), p.grad(x)
            with np.errstate(over="ignore"):
                batch_value, batch_grad = p.value(x[None]), p.grad(x[None])
            assert np.float64(value).tobytes() == batch_value.tobytes(), t
            assert grad.tobytes() == batch_grad.tobytes(), t

    @one_point_targets
    def test_returns_a_float_and_a_fresh_array(self, p):
        x = np.array([0.7])
        value, grad = p.value_and_grad(x)
        assert type(value) is float
        assert type(grad) is np.ndarray and grad.dtype == np.float64
        assert grad.shape == (1,) and not np.shares_memory(grad, x)

    @one_point_targets
    def test_overflow_gives_inf_under_raise(self, p):
        with np.errstate(over="raise"):
            assert p.value(np.array([1e160])) == math.inf

    @one_point_targets
    def test_non_finite_point_raises_the_array_message(self, p):
        for bad in (np.nan, np.inf, -np.inf):
            for method in (p.value, p.grad):
                with pytest.raises(ValueError, match="non-finite entries"):
                    method(np.array([bad]))

    @one_point_targets
    def test_only_a_plain_float64_point_takes_the_branch(self, p, monkeypatch):
        class Sub(np.ndarray):
            pass

        checked = []
        check = potentials.Potential._check_input
        monkeypatch.setattr(potentials.Potential, "_check_input",
                            lambda self, x: checked.append(1) or check(self, x))
        p.value(np.array([0.5]))
        p.grad(np.array([0.5]))
        assert checked == []
        others = [[0.5], np.array([1]), np.array([0.5], dtype=np.float32),
                  np.array([[0.5]]), np.array([0.5]).view(Sub)]
        for x in others:
            p.value(x)
            p.grad(x)
        assert len(checked) == 2 * len(others)
