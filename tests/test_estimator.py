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

from test_oracle import measure_iteration


def max_columns(base, pert):
    """Per-sample noisy max over the constraint columns, on each side."""
    return base[:, 1:].max(axis=1), pert[:, 1:].max(axis=1)


# -- sphere sampling ---------------------------------------------------------


def test_sphere_d1_is_signs():
    s = sphere_sample(1, 50, substream(0))
    assert set(np.unique(s)) == {-1.0, 1.0}


def test_sphere_unit_norms():
    s = sphere_sample(7, 1000, substream(1))
    assert np.abs(np.linalg.norm(s, axis=1) - 1.0).max() < 1e-12


def test_sphere_determinism():
    a = sphere_sample(3, 10, substream(5, 6))
    assert np.array_equal(a, sphere_sample(3, 10, substream(5, 6)))


def test_sphere_mean_and_second_moment():
    s = sphere_sample(3, 100_000, substream(2))
    assert np.abs(s.mean(axis=0)).max() < 4.0 / math.sqrt(100_000)
    second = s.T @ s / s.shape[0]
    assert np.abs(second - np.eye(3) / 3.0).max() < 0.01


def test_sphere_contract_violations():
    with pytest.raises(ContractViolationError):
        sphere_sample(0, 5, substream(0))
    with pytest.raises(ContractViolationError):
        sphere_sample(3, 0, substream(0))


# -- gradient estimation -----------------------------------------------------


def test_constant_function_gives_zero_gradient():
    dirs = sphere_sample(3, 8, substream(0))
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
    oracle = MeasurementOracle(prob, NoiseModel(sigma=0.0))
    x = np.array([1.0, 0.0])
    dirs, base, pert = measure_iteration(oracle, x, 1_000_000, 0.1, 1)
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
    dirs = sphere_sample(2, 2, substream(0))
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
    # mean 2 plus (1/sqrt(3)) * sqrt(2 ln e) = 2 + sqrt(2/3).
    got = confidence_bounds(one_constraint_table([1.0, 2.0, 3.0]), 1.0, math.exp(-1.0))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(2.0 + math.sqrt(2.0 / 3.0), rel=1e-12)


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


def binomial_upper_quantile(trials, p, tail):
    """Smallest k with P(Binomial(trials, p) > k) <= tail, summing the pmf."""
    k, log_pmf, cdf = 0, trials * math.log1p(-p), 0.0
    while cdf + math.exp(log_pmf) < 1.0 - tail:
        cdf += math.exp(log_pmf)
        log_pmf += math.log((trials - k) * p / ((k + 1) * (1.0 - p)))
        k += 1
    return k


def test_ucb_coverage_at_the_solver_delta_bar():
    # At delta_bar = 5e-5 (a run of about 1000 iterations at delta = 0.05)
    # the bound may miss the true value 0 no more often than a miss rate of
    # delta_bar allows: at most the binomial count exceeded with probability
    # delta_bar, in 2M repeats of n = 7 draws at sigma = 1. Each repeat is a
    # constraint column of one base table, 100k columns a table. The width
    # sigma * sqrt(2 ln(1/delta_bar) / n) misses with probability
    # Phi^c(sqrt(2 ln(1/delta_bar))) = 4.3e-6; without the 2, the width
    # sigma * sqrt(ln(1/delta_bar) / n) would miss with probability 8.2e-4,
    # about 1,650 misses.
    n, sigma, delta_bar, reps, columns = 7, 1.0, 5e-5, 2_000_000, 100_000
    rng = substream(20261020)
    misses = 0
    for _ in range(reps // columns):
        bounds = confidence_bounds(rng.standard_normal((n, 1 + columns)), sigma, delta_bar)
        misses += np.count_nonzero(bounds < 0.0)
    assert misses <= binomial_upper_quantile(reps, delta_bar, delta_bar)


def test_confidence_bounds_columns():
    base = np.array([[5.0, -1.0, -2.0], [5.0, -3.0, -4.0]])
    fhat = confidence_bounds(base, sigma=0.0, delta_bar=0.5)
    assert np.allclose(fhat, [-2.0, -3.0])


# -- margin ------------------------------------------------------------------


def test_margin_formula():
    alpha = margin(np.maximum.reduce(np.array([-2.0, -3.0])), 0.1 * 1.0)
    assert alpha == pytest.approx(1.9)
    assert alpha == -(-2.0 + 0.1)


def test_margin_exhausted():
    with pytest.raises(MarginExhaustedError) as exc:
        margin(-0.05, 0.1 * 1.0)
    assert exc.value.fhat_c_nu == pytest.approx(0.05)


def test_margin_refuses_a_nan_bound():
    # A NaN bound (or reach) certifies nothing: it ends as an exhausted
    # margin, never as a NaN alpha.
    for max_fhat, reach in [(math.nan, 0.1), (-1.0, math.nan), (math.nan, math.nan)]:
        with pytest.raises(MarginExhaustedError) as exc:
            margin(max_fhat, reach)
        assert math.isnan(exc.value.fhat_c_nu)
    with pytest.raises(MarginExhaustedError):
        margin(float(np.maximum.reduce(np.array([-1.0, np.nan]))), 0.1)


def test_margin_exhausted_before_a_negative_reach_is_refused():
    # An adaptive reach -M/2 is negative exactly when M > 0: that is an
    # exhausted margin. With a positive margin, a negative reach is a
    # contract violation.
    with pytest.raises(MarginExhaustedError) as exc:
        margin(0.5, -0.25)
    assert exc.value.fhat_c_nu == 0.25
    with pytest.raises(MarginExhaustedError):
        margin(0.0, -0.0)
    with pytest.raises(ContractViolationError):
        margin(-1.0, -0.1)


def test_margin_monotone():
    rng = substream(5)
    for _ in range(200):
        fhat = -rng.uniform(0.5, 3.0, size=4)
        i = rng.integers(0, 4)
        bumped = fhat.copy()
        bumped[i] += rng.uniform(0.0, 0.2)
        try:
            base_val = margin(fhat.max(), 0.05 * 1.0)
            bump_val = margin(bumped.max(), 0.05 * 1.0)
        except MarginExhaustedError:
            continue
        assert bump_val <= base_val


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
    dirs, base, pert = measure_iteration(oracle, np.zeros(2), 16, 0.02, 1)
    assert base.shape == pert.shape == (16, 2)
    fhat = confidence_bounds(base, sigma=0.05, delta_bar=0.01)
    alpha_hat = margin(fhat.max(), 0.02 * prob.lipschitz)
    assert fhat.shape == (1,)
    assert alpha_hat == -(fhat.max() + 0.02 * prob.lipschitz) > 0.0
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
        dirs, base, pert = measure_iteration(oracle, x, n, nu, k)
        fhat = confidence_bounds(base, sigma, delta_bar)
        alpha = margin(fhat.max(), nu * L)
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
        dirs, base, pert = measure_iteration(oracle, x, n, nu, k)
        dev = np.linalg.norm(estimate_gradient(base[:, 0], pert[:, 0], dirs, nu) - [1.0, 0.0])
        inside += dev <= threshold
    assert inside / reps >= 1.0 - delta


def test_estimator_unbiased_on_linear_field():
    # Linear objective: the smoothed gradient equals the coefficient
    # vector for every radius, an exact independent reference.
    prob = analytic_problem("linear-ball", noise_sigma=0.1)
    oracle = MeasurementOracle(prob, NoiseModel(sigma=0.1, master_seed=21))
    dirs, base, pert = measure_iteration(oracle, np.zeros(2), 100_000, 0.05, 1)
    terms = 2 * ((pert[:, 0] - base[:, 0]) / 0.05)[:, None] * dirs
    mean = terms.mean(axis=0)
    se = terms.std(axis=0, ddof=1) / math.sqrt(len(dirs))
    assert np.all(np.abs(mean - np.array([1.0, 0.0])) <= 3.0 * se)
    assert np.allclose(estimate_gradient(base[:, 0], pert[:, 0], dirs, 0.05), mean, atol=1e-12)
