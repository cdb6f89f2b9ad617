import math

import numpy as np
import pytest

from zobarrier.errors import ContractViolationError
from zobarrier.problems import ProblemSpec, analytic_problem
from zobarrier.smoothing import ball_sample, smoothed_gradient, smoothed_value
from zobarrier.streams import substream

from barrier_reference import barrier_value_and_grad


def test_ball_sample_law():
    b = ball_sample(3, 200_000, substream(0))
    norms = np.linalg.norm(b, axis=1)
    assert norms.max() <= 1.0
    # E|b|^2 = d/(d+2) for the uniform unit ball.
    assert np.mean(norms**2) == pytest.approx(3.0 / 5.0, abs=0.005)
    assert np.abs(b.mean(axis=0)).max() < 4.0 / math.sqrt(200_000)


def test_constant_field_exact():
    f = lambda pts: np.full(pts.shape[0], 3.25)
    value, se = smoothed_value(f, np.zeros(2), 0.7, 500, substream(0))
    assert value == 3.25
    assert se == 0.0
    grad, _ = smoothed_gradient(f, np.zeros(2), 0.7, 500, substream(0))
    assert np.array_equal(grad, np.zeros(2))


def test_linear_field_within_mc_error():
    a = np.array([1.5, -2.0])
    f = lambda pts: pts @ a
    x = np.array([0.3, 0.4])
    value, value_se = smoothed_value(f, x, 0.5, 50_000, substream(1))
    assert abs(value - a @ x) <= 4.0 * value_se
    grad, grad_se = smoothed_gradient(f, x, 0.5, 50_000, substream(2))
    assert np.abs(grad - a).max() <= 4.0 * grad_se


def test_quadratic_ball_moment():
    # |x|^2 smoothed over a radius-nu ball gains nu^2 * d/(d+2):
    # d = 2, nu = 0.5 adds exactly 0.125.
    f = lambda pts: np.sum(pts * pts, axis=1)
    x = np.array([0.7, -0.1])
    value, se = smoothed_value(f, x, 0.5, 100_000, substream(3))
    assert abs(value - (x @ x + 0.125)) <= 4.0 * se


def test_absolute_value_smoothed_slope():
    # f(x) = |x| in one dimension smooths to (x^2 + nu^2) / (2 nu) inside
    # |x| <= nu, so the smoothed slope at x = 0.2 with nu = 1 is 0.2.
    f = lambda pts: np.abs(pts[:, 0])
    grad, se = smoothed_gradient(f, np.array([0.2]), 1.0, 200_000, substream(4))
    assert abs(grad[0] - 0.2) <= 4.0 * se


def test_zero_radius_value_is_exact():
    f = lambda pts: pts[:, 0] ** 3
    value, _ = smoothed_value(f, np.array([2.0, 0.0]), 0.0, 100, substream(0))
    assert value == 8.0


def test_gradient_requires_positive_radius():
    f = lambda pts: pts[:, 0]
    with pytest.raises(ContractViolationError):
        smoothed_gradient(f, np.zeros(2), 0.0, 10, substream(0))


def _constant_zero_problem():
    # Objective identically zero, one linear constraint x0 - 1 <= 0.
    return ProblemSpec(
        name="flat-linear",
        dim=2,
        num_constraints=1,
        eval_all=lambda pts: np.stack(
            [np.zeros(pts.shape[0]), pts[:, 0] - 1.0], axis=1
        ),
        lipschitz=1.0,
        grad_lower=1.0,
        noise_sigma=0.0,
        safe_start=np.zeros(2),
    )


def test_barrier_zero_eta_equals_smoothed_objective():
    prob = analytic_problem("sphere-quadratic")
    x = np.array([0.4, 0.2])
    value, grad = barrier_value_and_grad(
        prob, x, eta=0.0, nu=0.2, n_mc=50_000, rng=substream(5)
    )
    ref, ref_se = smoothed_value(prob.objective_batch, x, 0.2, 200_000, substream(5, 1))
    assert abs(value - ref) <= 4.0 * ref_se + 1e-3
    true_grad = 2.0 * x  # exact smoothed gradient of a quadratic
    assert np.linalg.norm(grad - true_grad) <= 0.05


def test_barrier_gradient_linear_constraint_limit():
    # Flat objective with constraint x0 - 1: at the origin the barrier
    # gradient tends to eta * e0 / 1 as nu -> 0.
    prob = _constant_zero_problem()
    eta = 0.3
    value, grad = barrier_value_and_grad(
        prob, np.zeros(2), eta=eta, nu=1e-3, n_mc=200_000, rng=substream(6)
    )
    assert np.allclose(grad, [eta, 0.0], atol=0.01)
    assert value == pytest.approx(-eta * math.log(1.0), abs=0.01)


def test_barrier_matches_finite_differences():
    # Central finite differences of the barrier value, computed with
    # common random numbers (same stream key per evaluation), form an
    # independent check of the returned gradient.
    prob = analytic_problem("linear-ball")
    x = np.array([-0.9, 0.1])
    eta, nu, n_mc = 0.1, 0.05, 400_000
    _, grad = barrier_value_and_grad(prob, x, eta, nu, n_mc, rng=substream(7, 0))
    h = 1e-4
    fd = np.zeros(2)
    for c in range(2):
        e = np.zeros(2)
        e[c] = h
        vp, _ = barrier_value_and_grad(prob, x + e, eta, nu, n_mc, rng=substream(7, 0))
        vm, _ = barrier_value_and_grad(prob, x - e, eta, nu, n_mc, rng=substream(7, 0))
        fd[c] = (vp - vm) / (2.0 * h)
    assert np.linalg.norm(fd - grad) < 0.05


def test_barrier_outside_domain():
    prob = analytic_problem("linear-ball")
    with pytest.raises(ValueError, match="not certifiably negative"):
        barrier_value_and_grad(prob, np.array([1.0, 0.0]), 0.1, 0.1, 20_000, substream(8))
