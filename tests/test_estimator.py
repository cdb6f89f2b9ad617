import math

import numpy as np
import pytest

from zobarrier.errors import ContractViolationError, MarginExhaustedError
from zobarrier.estimator import (
    barrier_gradient,
    confidence_bounds,
    estimate_gradient,
    margin,
    sphere_sample,
)
from zobarrier.oracle import MeasurementOracle, NoiseModel
from zobarrier.problems import analytic_problem
from zobarrier.solver import barrier_estimate
from zobarrier.streams import substream


def measure_iteration(oracle, x, directions, radius, iteration):
    """Base and perturbed tables of one iteration, as the solver takes them."""
    base = oracle.measure_base(x, len(directions), iteration)
    return base, oracle.measure_perturbed(x, directions, radius, iteration)


def max_columns(base, pert):
    """Per-sample noisy max over the constraint columns, on each side."""
    return base[:, 1:].max(axis=1), pert[:, 1:].max(axis=1)


# -- sphere sampling ---------------------------------------------------------


def test_sphere_d1_is_signs():
    s = sphere_sample(1, 50, 0)
    assert set(np.unique(s)) == {-1.0, 1.0}


def test_sphere_unit_norms():
    s = sphere_sample(7, 1000, 1)
    assert np.abs(np.linalg.norm(s, axis=1) - 1.0).max() < 1e-12


def test_sphere_determinism():
    assert np.array_equal(sphere_sample(3, 10, (5, 6)), sphere_sample(3, 10, (5, 6)))


def test_sphere_mean_and_second_moment():
    s = sphere_sample(3, 100_000, 2)
    assert np.abs(s.mean(axis=0)).max() < 4.0 / math.sqrt(100_000)
    second = s.T @ s / s.shape[0]
    assert np.abs(second - np.eye(3) / 3.0).max() < 0.01


def test_sphere_contract_violations():
    with pytest.raises(ContractViolationError):
        sphere_sample(0, 5, 0)
    with pytest.raises(ContractViolationError):
        sphere_sample(3, 0, 0)


# -- gradient estimation -----------------------------------------------------


def test_constant_function_gives_zero_gradient():
    dirs = sphere_sample(3, 8, 0)
    vals = np.full((8, 2), 4.2)
    assert np.array_equal(estimate_gradient(vals[:, 0], vals[:, 0], dirs, 0.1), np.zeros(3))
    assert np.array_equal(estimate_gradient(*max_columns(vals, vals), dirs, 0.1), np.zeros(3))


def test_linear_function_single_sample_exact():
    # f(x) = a x in one dimension: d * (f(x + nu s) - f(x))/nu * s = a s^2 = a.
    a = 1.7
    for s in (1.0, -1.0):
        g = estimate_gradient(np.array([0.0]), np.array([a * 0.1 * s]), np.array([[s]]), 0.1)
        assert g[0] == pytest.approx(a, rel=1e-12)


def test_quadratic_mean_matches_true_gradient():
    # For f(x) = |x|^2 the smoothed gradient equals the true gradient, so
    # the estimate over one large noiseless batch must agree within
    # sampling error.
    prob = analytic_problem("sphere-quadratic", noise_sigma=0.0)
    oracle = MeasurementOracle(prob, NoiseModel(kind="none", sigma=0.0))
    x = np.array([1.0, 0.0])
    dirs = sphere_sample(2, 1_000_000, 3)
    base, pert = measure_iteration(oracle, x, dirs, 0.1, 1)
    g = estimate_gradient(base[:, 0], pert[:, 0], dirs, 0.1)
    terms = 2 * ((pert[:, 0] - base[:, 0]) / 0.1)[:, None] * dirs
    se = terms.std(axis=0, ddof=1) / math.sqrt(len(dirs))
    assert np.all(np.abs(g - np.array([2.0, 0.0])) <= 3.0 * se)


def test_noisy_max_pairing():
    # The max-constraint estimate takes the max across constraint columns
    # per sample and per side, then differences.
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    base = np.array([[9.0, -1.0, -3.0], [9.0, -4.0, -2.0]])  # maxes: -1, -2
    pert = np.array([[9.0, -2.0, -0.5], [9.0, -1.0, -6.0]])  # maxes: -0.5, -1
    expected = 2.0 / 0.5 * (
        (-0.5 - -1.0) * dirs[0] + (-1.0 - -2.0) * dirs[1]
    ) / 2.0
    assert np.allclose(estimate_gradient(*max_columns(base, pert), dirs, 0.5), expected, atol=1e-14)
    # The assembled estimate uses the same pairing: with a zero objective
    # column, g = (eta / alpha) * Gc.
    base[:, 0] = pert[:, 0] = 0.0
    g = barrier_estimate(base, pert, dirs, 0.5, eta=0.5, alpha=0.25)
    assert np.allclose(g, 2.0 * expected, atol=1e-14)


def test_estimate_gradient_contracts():
    dirs = sphere_sample(2, 2, 0)
    with pytest.raises(ContractViolationError):
        estimate_gradient(np.zeros(2), np.zeros(2), dirs, 0.0)
    with pytest.raises(ContractViolationError):
        estimate_gradient(np.zeros(0), np.zeros(0), np.zeros((0, 2)), 0.1)


# -- confidence bounds -------------------------------------------------------


def one_constraint_table(values):
    """Base table (n, 2) whose single constraint column holds `values`."""
    values = np.asarray(values, dtype=float)
    return np.column_stack([np.zeros(values.size), values])


def test_ucb_zero_sigma_is_mean():
    assert confidence_bounds(one_constraint_table([1.0, 3.0]), 0.0, 0.5)[0] == 2.0


def test_ucb_formula_value():
    # mean 2 plus (1/sqrt(3)) * sqrt(ln e) = 2 + 1/sqrt(3).
    got = confidence_bounds(one_constraint_table([1.0, 2.0, 3.0]), 1.0, math.exp(-1.0))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(2.0 + 1.0 / math.sqrt(3.0), rel=1e-12)


def test_ucb_domain_checks():
    with pytest.raises(ContractViolationError):
        confidence_bounds(one_constraint_table([1.0]), 1.0, 0.0)
    with pytest.raises(ContractViolationError):
        confidence_bounds(one_constraint_table([1.0]), 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        confidence_bounds(one_constraint_table([]), 1.0, 0.5)


def test_ucb_coverage_quick():
    # Frozen-seed coverage check at delta_bar = 0.2: the bound must cover
    # the true value in at least a 1 - delta_bar share of repeats (with
    # binomial slack); full-scale protocol lives in the acceptance suite.
    rng = substream(77)
    truth, sigma, n, delta_bar, reps = -0.4, 1.0, 10, 0.2, 4000
    covered = 0
    means = truth + rng.normal(0.0, sigma, size=(reps, n)).mean(axis=1)
    inflation = sigma / math.sqrt(n) * math.sqrt(math.log(1.0 / delta_bar))
    covered = np.mean(truth <= means + inflation)
    assert covered >= 1.0 - delta_bar - 3.0 * math.sqrt(delta_bar * 0.8 / reps)


def test_confidence_bounds_columns():
    base = np.array([[5.0, -1.0, -2.0], [5.0, -3.0, -4.0]])
    fhat = confidence_bounds(base, sigma=0.0, delta_bar=0.5)
    assert np.allclose(fhat, [-2.0, -3.0])


# -- margin ------------------------------------------------------------------


def test_margin_formula():
    fhat_c_nu, alpha = margin(np.array([-2.0, -3.0]), nu=0.1, lipschitz=1.0)
    assert fhat_c_nu == pytest.approx(-1.9)
    assert alpha == pytest.approx(1.9)


def test_margin_exhausted():
    with pytest.raises(MarginExhaustedError) as exc:
        margin(np.array([-0.05]), nu=0.1, lipschitz=1.0)
    assert exc.value.fhat_c_nu == pytest.approx(0.05)


def test_margin_monotone():
    rng = substream(5)
    for _ in range(200):
        fhat = -rng.uniform(0.5, 3.0, size=4)
        i = rng.integers(0, 4)
        bumped = fhat.copy()
        bumped[i] += rng.uniform(0.0, 0.2)
        try:
            base_val, _ = margin(fhat, 0.05, 1.0)
            bump_val, _ = margin(bumped, 0.05, 1.0)
        except MarginExhaustedError:
            continue
        assert bump_val >= base_val


# -- barrier gradient --------------------------------------------------------


def test_barrier_gradient_values():
    g = barrier_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1, 0.5)
    assert np.allclose(g, [1.0, 0.2])
    assert np.array_equal(
        barrier_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.5),
        np.array([1.0, 0.0]),
    )
    near_boundary = barrier_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1, 0.01)
    assert np.allclose(near_boundary, [1.0, 10.0])


def test_barrier_gradient_linearity_exact():
    # Dyadic inputs make every operation exact, so linearity in each
    # argument holds bitwise.
    g0 = np.array([0.5, -0.25])
    gc = np.array([0.125, 2.0])
    eta, alpha = 0.5, 0.25
    both = barrier_gradient(g0, gc, eta, alpha)
    assert np.array_equal(both, g0 + 2.0 * gc)
    assert np.array_equal(
        barrier_gradient(2.0 * g0, gc, eta, alpha) - both, g0
    )
    assert np.array_equal(
        barrier_gradient(g0, 2.0 * gc, eta, alpha) - both, 2.0 * gc
    )


def test_barrier_gradient_contracts():
    with pytest.raises(ContractViolationError):
        barrier_gradient(np.zeros(2), np.zeros(2), 0.1, 0.0)
    with pytest.raises(ContractViolationError):
        barrier_gradient(np.zeros(2), np.zeros(2), -0.1, 1.0)


# -- assembled estimate ------------------------------------------------------


def test_build_estimate_fields():
    prob = analytic_problem("linear-ball", noise_sigma=0.05)
    oracle = MeasurementOracle(prob, NoiseModel(sigma=0.05, master_seed=8))
    dirs = sphere_sample(2, 16, 8)
    base, pert = measure_iteration(oracle, np.zeros(2), dirs, 0.02, 1)
    assert base.shape == pert.shape == (16, 2)
    fhat = confidence_bounds(base, sigma=0.05, delta_bar=0.01)
    fhat_c_nu, alpha_hat = margin(fhat, 0.02, prob.lipschitz)
    assert fhat.shape == (1,)
    assert fhat_c_nu == fhat.max() + 0.02 * prob.lipschitz
    assert alpha_hat == -fhat_c_nu > 0.0
    g = barrier_estimate(base, pert, dirs, 0.02, eta=0.1, alpha=alpha_hat)
    assert g.shape == (2,)
    # The assembly is G0 + (eta / alpha) * Gc with both pieces from the same tables.
    g0 = estimate_gradient(base[:, 0], pert[:, 0], dirs, 0.02)
    gc = estimate_gradient(*max_columns(base, pert), dirs, 0.02)
    assert np.array_equal(g, barrier_gradient(g0, gc, 0.1, alpha_hat))


def test_barrier_gradient_deviation_bound():
    # The assembled estimate's expected deviation from the true smoothed
    # barrier gradient is bounded by
    # (d+1)(sqrt(2)*sigma + L*nu) / (nu*sqrt(n)) * (1 + 2*eta/alpha).
    # On linear-ball both smoothed pieces are closed-form: the linear
    # objective smooths to itself and |x|^2 gains nu^2*d/(d+2).
    prob = analytic_problem("linear-ball", noise_sigma=0.05)
    x = np.array([0.3, 0.2])
    eta, nu, n, sigma, delta_bar = 0.1, 0.05, 32, 0.05, 0.05
    L, d = prob.lipschitz, 2
    fc_nu = x @ x + nu**2 * d / (d + 2) - 1.0
    grad_b = np.array([1.0, 0.0]) + eta * 2.0 * x / (-fc_nu)
    oracle = MeasurementOracle(prob, NoiseModel(sigma=sigma, master_seed=99))
    zeta_norms, bounds = [], []
    for k in range(1, 2001):
        dirs = sphere_sample(d, n, substream(31, 7, k))
        base, pert = measure_iteration(oracle, x, dirs, nu, k)
        fhat = confidence_bounds(base, sigma, delta_bar)
        _, alpha = margin(fhat, nu, L)
        g = barrier_estimate(base, pert, dirs, nu, eta, alpha)
        zeta_norms.append(np.linalg.norm(g - grad_b))
        bounds.append(
            (d + 1)
            * (math.sqrt(2.0) * sigma + L * nu)
            / (nu * math.sqrt(n))
            * (1.0 + 2.0 * eta / alpha)
        )
    assert np.mean(zeta_norms) <= np.mean(bounds)


def test_gradient_deviation_high_probability_bound():
    # |G0 - grad f0_nu| stays below Sigma/(nu*sqrt(n)) in at least a
    # 1 - delta share of batches (Sigma at K = 1, delta = 0.1).
    from zobarrier.solver import sigma_big

    prob = analytic_problem("linear-ball", noise_sigma=0.05)
    x = np.array([0.3, 0.2])
    nu, n, sigma, delta = 0.05, 32, 0.05, 0.1
    oracle = MeasurementOracle(prob, NoiseModel(sigma=sigma, master_seed=99))
    threshold = sigma_big(2, delta, 1, sigma, prob.lipschitz, nu) / (nu * math.sqrt(n))
    inside = 0
    reps = 1000
    for k in range(1, reps + 1):
        dirs = sphere_sample(2, n, substream(57, 3, k))
        base, pert = measure_iteration(oracle, x, dirs, nu, k)
        dev = np.linalg.norm(estimate_gradient(base[:, 0], pert[:, 0], dirs, nu) - [1.0, 0.0])
        inside += dev <= threshold
    assert inside / reps >= 1.0 - delta


def test_estimator_unbiased_on_linear_field():
    # Linear objective: the smoothed gradient equals the coefficient
    # vector for every radius, an exact independent reference.
    prob = analytic_problem("linear-ball", noise_sigma=0.1)
    oracle = MeasurementOracle(prob, NoiseModel(sigma=0.1, master_seed=21))
    dirs = sphere_sample(2, 100_000, 13)
    base, pert = measure_iteration(oracle, np.zeros(2), dirs, 0.05, 1)
    terms = 2 * ((pert[:, 0] - base[:, 0]) / 0.05)[:, None] * dirs
    mean = terms.mean(axis=0)
    se = terms.std(axis=0, ddof=1) / math.sqrt(len(dirs))
    assert np.all(np.abs(mean - np.array([1.0, 0.0])) <= 3.0 * se)
    assert np.allclose(estimate_gradient(base[:, 0], pert[:, 0], dirs, 0.05), mean, atol=1e-12)
