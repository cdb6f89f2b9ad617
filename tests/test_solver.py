import dataclasses
import math

import numpy as np
import pytest

from zobarrier.errors import (
    ContractViolationError,
    DivergedTrajectoryError,
    MarginExhaustedError,
)
from zobarrier.estimator import confidence_bounds, margin
from zobarrier.harness import audit_trial
from zobarrier.oracle import MeasurementOracle, NoiseModel
from zobarrier.problems import ProblemSpec, analytic_problem
from zobarrier.solver import (
    NU_POLICIES,
    AlgoConfig,
    IterateRecord,
    KktCertificate,
    certificate_from_record,
    kkt_residuals,
    plan_iterations,
    required_samples,
    resolve_sample_count,
    run,
    select_output,
    sigma_big,
    step_weight,
)
from zobarrier.streams import (
    PAGE_VALUES,
    SIDE_BASE,
    SIDE_PERTURBED,
    substream,
)

from barrier_reference import barrier_value_and_grad


def make_oracle(problem, sigma=None, seed=0):
    sigma = problem.noise_sigma if sigma is None else sigma
    return MeasurementOracle(problem, NoiseModel(sigma=sigma, master_seed=seed))


def flat_problem(constraint_level=-1.0):
    """Constant objective and constraint: every gradient estimate is zero."""
    m = float(constraint_level)
    return ProblemSpec(
        name="flat",
        dim=2,
        num_constraints=1,
        eval_all=lambda pts: np.stack(
            [np.ones(pts.shape[0]), np.full(pts.shape[0], m)], axis=1
        ),
        lipschitz=1.0,
        grad_lower=1.0,
        noise_sigma=0.0,
        safe_start=np.zeros(2),
    )


# -- parameter derivation ----------------------------------------------------


def test_sigma_big_values():
    # d=1, delta=1/e, K=0, sigma=0, L=1, nu=1: 2 * sqrt(1 + 0) * 1 = 2.
    assert sigma_big(1, math.exp(-1.0), 0, 0.0, 1.0, 1.0) == pytest.approx(2.0)
    # sigma = 0 drops the noise term entirely.
    got = sigma_big(3, 0.1, 10, 0.0, 2.0, 0.5)
    assert got == pytest.approx(4 * math.sqrt(math.log(10.0) + math.log(21.0)) * 1.0)


def test_sigma_big_monotone():
    base = sigma_big(2, 0.1, 10, 0.5, 1.0, 0.1)
    assert sigma_big(2, 0.1, 10, 1.0, 1.0, 0.1) > base
    assert sigma_big(2, 0.1, 10, 0.5, 1.0, 0.2) > base
    assert sigma_big(2, 0.1, 20, 0.5, 1.0, 0.1) > base
    assert sigma_big(3, 0.1, 10, 0.5, 1.0, 0.1) > base
    with pytest.raises(ContractViolationError):
        sigma_big(2, 1.5, 10, 0.5, 1.0, 0.1)


def test_required_samples_equality_point():
    # Sigma = nu*L*C / (2(C+1)) makes the bound exactly one sample.
    nu = lipschitz = C = 1.0
    sigma_bound = nu * lipschitz * C / (2.0 * (C + 1.0))
    assert required_samples(sigma_bound, nu, C, lipschitz) == 1


def test_required_samples_quadratic_in_sigma():
    assert required_samples(0.5, 1.0, 1.0, 1.0) == 4
    assert required_samples(1.0, 1.0, 1.0, 1.0) == 16
    with pytest.raises(ContractViolationError):
        required_samples(0.0, 1.0, 1.0, 1.0)


def test_step_weight_values():
    assert step_weight(1, 1.0, 1.0) == pytest.approx(0.5)
    # k = 32: k^(2/5) = 4 and k^(3/5) = 8, both branches equal 1/8.
    assert step_weight(32, 1.0, 1.0) == pytest.approx(0.125)
    with pytest.raises(ContractViolationError):
        step_weight(0, 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        step_weight(1, 0.0, 1.0)


def test_step_weight_never_exceeds_margin_over_2l():
    rng = substream(15)
    for _ in range(300):
        k = int(rng.integers(1, 5000))
        alpha = float(rng.uniform(1e-4, 5.0))
        lipschitz = float(rng.uniform(0.1, 50.0))
        assert step_weight(k, alpha, lipschitz) <= alpha / (2.0 * lipschitz)


@pytest.mark.parametrize("eta, lipschitz", [(0.05, 3.0), (0.001, 40.0), (0.3, 1.0)])
def test_adaptive_margin_is_self_consistent(eta, lipschitz):
    # Both branches of the adaptive reach min(eta, -M/2) that run() hands
    # to `margin`: M <= -2*eta (nu = eta/L binds) and -2*eta < M < 0
    # (nu = alpha/L). The certified margin must be alpha = -(M + nu*L)
    # with nu = min(eta/L, alpha/L).
    for ratio in (-50.0, -3.0, -2.0, -1.999, -1.5, -1.0, -0.5, -1e-3):
        M = ratio * eta
        reach = min(eta, -M / 2.0)
        nu = reach / lipschitz
        alpha = margin(M, reach)
        assert math.isclose(alpha, -(M + nu * lipschitz), rel_tol=1e-15, abs_tol=1e-15)
        assert math.isclose(nu, min(eta / lipschitz, alpha / lipschitz), rel_tol=1e-15)
        assert alpha > 0.0
    # M >= 0 makes the adaptive reach <= 0: the margin is exhausted, not a
    # contract violation on the reach.
    for M in (0.0, 1e-12, 2.0 * eta):
        with pytest.raises(MarginExhaustedError):
            margin(M, min(eta, -M / 2.0))


def test_adaptive_margin_trace_visits_both_branches():
    # Adaptive nu solves nu = min(eta/L, alpha/L) jointly with alpha =
    # -(M + nu*L), M the largest constraint bound: the reach nu*L is eta
    # when M <= -2*eta and -M/2 otherwise. This run visits both branches.
    prob = analytic_problem("quadratic-halfspace", noise_sigma=0.01)
    eta, L = 0.3, prob.lipschitz
    cfg = AlgoConfig(eta=eta, max_iters=300, n_fixed=16, nu_policy="adaptive")
    result = run(prob, cfg, make_oracle(prob, seed=7))
    assert result.halted_reason is None and len(result.trace) == 300
    branches = {"eta": 0, "half": 0}
    for rec in result.trace:
        M = float(np.maximum.reduce(rec.fhat))
        reach = min(eta, -M / 2.0)
        assert rec.nu == reach / L
        assert rec.alpha_hat == -(M + reach)
        assert rec.alpha_hat == (-M - eta if M <= -2.0 * eta else -M / 2.0) > 0.0
        assert math.isclose(rec.nu, min(eta / L, rec.alpha_hat / L), rel_tol=1e-15)
        branches["eta" if M <= -2.0 * eta else "half"] += 1
    assert branches == {"eta": 37, "half": 263}


def test_resolve_sample_count_policies(caplog):
    prob = analytic_problem("smooth-2con")
    fixed = AlgoConfig(eta=0.3, max_iters=10, n_policy="fixed", n_fixed=9)
    assert resolve_sample_count(prob, fixed) == 9
    theo = AlgoConfig(eta=0.3, max_iters=10, n_policy="theoretical", n_cap=512)
    with caplog.at_level("WARNING"):
        n = resolve_sample_count(prob, theo)
    assert n == 512
    assert any("exceeds cap" in r.message for r in caplog.records)


def test_plan_iterations_reports_terms():
    plan = plan_iterations(eta=0.1, lipschitz=2.0, C=0.01, d=4, d_f_estimate=1.0)
    assert plan["K_required"] == math.ceil(
        max(plan["term_gap"], plan["term_dimension"], plan["term_log"])
    )
    assert plan["term_gap"] > 0 and plan["term_dimension"] > 0


# -- output sampling ---------------------------------------------------------


def test_select_output_single_weight():
    for _ in range(5):
        assert select_output([0.0, 0.0, 2.5, 0.0], substream(1)) == 3


def test_select_output_all_zero():
    with pytest.raises(ContractViolationError):
        select_output([0.0, 0.0], substream(1))
    with pytest.raises(ContractViolationError):
        select_output([], substream(1))


@pytest.mark.parametrize(
    "weights",
    [[], [0.0], [-0.0, 0.0], [-1.0, 0.0], [-1.0, 2.0], [2.0, -0.0], [math.nan],
     [math.nan, -1.0], [-1.0, math.nan], [0.0, math.nan, 1.0]],
)
def test_select_output_refuses_what_numpy_comparisons_refuse(weights):
    w = np.asarray(weights, dtype=float)
    if np.isfinite(w).all() and np.all(w >= 0.0) and np.any(w > 0.0):
        assert 1 <= select_output(weights, substream(1)) <= len(weights)
        return
    with pytest.raises(ContractViolationError):
        select_output(weights, substream(1))


@pytest.mark.parametrize(
    "weights",
    [[0.0, math.nan, 1.0], [math.nan], [math.inf], [1.0, -math.inf], [0.0, math.inf, 2.0]],
)
def test_select_output_refuses_non_finite_weights(weights):
    # A NaN makes every later cumulative weight NaN, which bisect never
    # passes: [0, nan, 1] drew the zero-weight entry 1.
    with pytest.raises(ContractViolationError, match="weights must be finite"):
        select_output(weights, substream(1))


def test_select_output_frequencies():
    rng = substream(44)
    draws = 100_000
    counts = np.zeros(2)
    for _ in range(draws):
        counts[select_output([1.0, 3.0], rng) - 1] += 1
    p_hat = counts[1] / draws
    assert abs(p_hat - 0.75) <= 3.0 * math.sqrt(0.75 * 0.25 / draws)


def test_select_output_uniform_for_equal_weights():
    rng = substream(45)
    draws = 40_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[select_output(np.ones(4), rng) - 1] += 1
    assert np.abs(counts / draws - 0.25).max() <= 3.0 * math.sqrt(0.25 * 0.75 / draws)


# -- multipliers and residuals -----------------------------------------------


def record_of(fhat, alpha_hat):
    """A trace record with the given constraint bounds and margin."""
    return IterateRecord(
        k=1,
        x=np.zeros(2),
        alpha_hat=alpha_hat,
        g_norm=1.0,
        gamma=0.1,
        weight=0.1,
        nu=0.01,
        fhat=np.array(fhat),
        scalar_calls_so_far=0,
        directions_so_far=0,
    )


def test_kkt_multipliers_single_constraint():
    cert = certificate_from_record(record_of([-0.4], 0.4), eta=0.1)
    assert cert.lambda_hat[0] == pytest.approx(0.25)
    assert cert.lambda_scalar == 0.1 / 0.4


def test_kkt_multipliers_unique_argmax():
    lam = certificate_from_record(record_of([-1.0, -2.0], 0.9), eta=0.1).lambda_hat
    assert lam[1] == 0.0
    assert abs(lam[0] - 1.0 / 9.0) < 1e-15


def test_kkt_multipliers_tie_splits_mass():
    lam = certificate_from_record(record_of([-1.0, -1.0], 0.9), eta=0.1).lambda_hat
    assert lam[0] == lam[1] == pytest.approx(0.1 / 0.9 / 2.0)
    assert lam.sum() == pytest.approx(0.1 / 0.9)


def test_kkt_multipliers_margin_guard():
    # A certificate takes alpha_R from its record, so it needs no check of
    # its own: every recorded margin passed `margin` (an exhausted margin
    # ends the run with no certificate, test_margin_policy_halt).
    prob = analytic_problem("smooth-2con", noise_sigma=0.01)
    result = run(prob, ball_config(eta=0.2, max_iters=60), make_oracle(prob, seed=2))
    for rec in result.trace:
        assert rec.alpha_hat > 0.0
        cert = certificate_from_record(rec, 0.2)
        assert cert.lambda_scalar == 0.2 / rec.alpha_hat
        assert cert.lambda_hat.sum() == pytest.approx(cert.lambda_scalar, rel=1e-15)


def test_kkt_residuals_exact_point():
    prob = analytic_problem("linear-ball")
    x_star = prob.solution["x_star"]
    cert = KktCertificate(
        x=x_star,
        iteration=1,
        lambda_scalar=0.5,
        lambda_hat=prob.solution["lambda_star"],
    )
    res = kkt_residuals(prob, cert, nu=0.01, rng=substream(0))
    assert res.feasibility == pytest.approx(0.0, abs=1e-12)
    assert res.complementarity == pytest.approx(0.0, abs=1e-12)
    assert res.stationarity == pytest.approx(0.0, abs=1e-12)


def test_kkt_residuals_interior_zero_multipliers():
    prob = analytic_problem("sphere-quadratic")
    cert = KktCertificate(
        x=np.zeros(2),
        iteration=1,
        lambda_scalar=0.0,
        lambda_hat=np.array([0.0]),
    )
    res = kkt_residuals(prob, cert, nu=0.01, rng=substream(0))
    assert res.complementarity == 0.0
    assert res.stationarity == pytest.approx(0.0, abs=1e-12)


def test_kkt_residuals_smoothing_fallback():
    # Strip the analytic gradients to force the Monte-Carlo path.
    prob = analytic_problem("linear-ball")
    stripped = dataclasses.replace(prob, objective_grad=None, constraint_grads=None)
    cert = KktCertificate(
        x=np.array([-0.5, 0.0]),
        iteration=1,
        lambda_scalar=0.2,
        lambda_hat=np.array([0.2]),
    )
    got = kkt_residuals(stripped, cert, nu=0.05, rng=substream(9), n_mc=200_000)
    want = kkt_residuals(prob, cert, nu=0.05, rng=substream(0))
    assert got.feasibility == want.feasibility
    assert got.stationarity == pytest.approx(want.stationarity, abs=0.02)


def test_kkt_residuals_smoothing_fallback_two_multipliers():
    # Both constraints active at x*, multipliers 1% short of lambda*: the
    # Monte-Carlo Lagrangian gradient must weigh each constraint by its own
    # multiplier. Dropping either one moves stationarity by about 0.6.
    prob = analytic_problem("smooth-2con")
    stripped = dataclasses.replace(prob, objective_grad=None, constraint_grads=None)
    lam = 0.99 * prob.solution["lambda_star"]
    cert = KktCertificate(
        x=prob.solution["x_star"],
        iteration=1,
        lambda_scalar=float(lam.sum()),
        lambda_hat=lam,
    )
    got = kkt_residuals(stripped, cert, nu=0.05, rng=substream(9), n_mc=200_000)
    want = kkt_residuals(prob, cert, nu=0.05, rng=substream(0))
    assert want.stationarity == pytest.approx(0.01)
    assert got.stationarity == pytest.approx(want.stationarity, abs=1e-3)


# -- run loop ----------------------------------------------------------------


def ball_config(**overrides):
    base = dict(
        eta=0.05,
        delta=0.05,
        max_iters=150,
        n_policy="fixed",
        n_fixed=8,
        nu_policy="adaptive",
    )
    base.update(overrides)
    return AlgoConfig(**base)


def test_run_zero_iterations():
    prob = analytic_problem("linear-ball")
    result = run(prob, ball_config(max_iters=0), make_oracle(prob, seed=1))
    assert result.trace == []
    assert np.array_equal(result.x_final, prob.safe_start)
    assert result.certificate is None
    assert result.audit.total_scalar_calls == 0


def test_final_point_is_not_a_trace_records_array():
    # Every gradient is zero, so x is never rebound and the records share it.
    prob = ProblemSpec(
        name="flat",
        dim=2,
        num_constraints=1,
        eval_all=lambda points: np.full((len(points), 2), -1.0),
        lipschitz=1.0,
        grad_lower=1.0,
        noise_sigma=0.0,
        safe_start=np.zeros(2),
    )
    result = run(prob, ball_config(max_iters=3), make_oracle(prob, seed=1))
    assert [r.g_norm for r in result.trace] == [0.0, 0.0, 0.0]
    result.x_final[:] = 7.0
    assert all(np.array_equal(r.x, prob.safe_start) for r in result.trace)


def test_run_is_deterministic():
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    a = run(prob, ball_config(), make_oracle(prob, seed=5))
    b = run(prob, ball_config(), make_oracle(prob, seed=5))
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert np.array_equal(ra.x, rb.x)
        assert ra.gamma == rb.gamma and ra.alpha_hat == rb.alpha_hat
    assert np.array_equal(a.x_final, b.x_final)
    assert a.certificate.iteration == b.certificate.iteration
    assert np.array_equal(a.certificate.x, b.certificate.x)


def test_audit_rows_are_the_queries_in_order():
    # Iteration k queries its base point, then x + nu * s_j for the
    # directions j = 1..n in the order they were drawn: k's table of the
    # paged (oracle seed, DOMAIN_DIRECTIONS) stream. 256 directions in R^2 make
    # 8 iterations a page, so the 30 iterations read 4 pages.
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    cfg = ball_config(max_iters=30, n_fixed=256)
    result = run(prob, cfg, make_oracle(prob, seed=5))
    audit, n = result.audit, cfg.n_fixed
    assert len(result.trace) == 30
    assert len(audit) == 30 * (1 + n)
    assert len({rec.k // (PAGE_VALUES // (n * prob.dim)) for rec in result.trace}) == 4
    directions_of = make_oracle(prob, seed=5).directions
    for rec, rows in zip(result.trace, np.split(np.arange(len(audit)), 30)):
        assert audit.iterations[rows].tolist() == [rec.k] * (1 + n)
        assert audit.sides[rows].tolist() == [SIDE_BASE] + [SIDE_PERTURBED] * n
        directions = directions_of(rec.k, n)
        np.testing.assert_array_equal(audit.points[rows[0]], rec.x)
        np.testing.assert_array_equal(audit.points[rows[1:]], rec.x + rec.nu * directions)


def test_trace_internal_consistency():
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    result = run(prob, ball_config(max_iters=100), make_oracle(prob, seed=6))
    L = prob.lipschitz
    for rec in result.trace:
        if rec.g_norm == 0.0:
            continue
        # Stored step quantities reproduce bitwise from (k, alpha, |g|, L).
        assert rec.weight == step_weight(rec.k, rec.alpha_hat, L)
        assert rec.gamma == step_weight(rec.k, rec.alpha_hat, L) / rec.g_norm
        # Adaptive radius satisfies nu_k = min(eta/L, alpha_k/L) exactly.
        assert rec.nu == min(0.05 / L, rec.alpha_hat / L)
    # Consecutive-iterate displacement equals the recorded weight.
    for prev, nxt in zip(result.trace, result.trace[1:]):
        step = np.linalg.norm(nxt.x - prev.x)
        assert step == pytest.approx(prev.weight, rel=1e-12)
        assert step <= prev.alpha_hat / (2.0 * L * prev.k ** 0.4) * (1 + 1e-12)


def test_recorded_bounds_use_the_union_bound_confidence():
    # Each iteration's fhat is the confidence bound of its own base table at
    # delta_bar = delta / (2K + 1); a fresh oracle with the same seed serves
    # the identical table again.
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    cfg = ball_config(max_iters=60)
    result = run(prob, cfg, make_oracle(prob, seed=14))
    assert len(result.trace) == 60
    replay = make_oracle(prob, seed=14)
    delta_bar = cfg.delta / (2 * cfg.max_iters + 1)
    for rec in result.trace:
        table = replay.measure_base(rec.x, cfg.n_fixed, rec.k)
        assert np.array_equal(confidence_bounds(table, 0.02, delta_bar), rec.fhat)


def test_budget_counters_cumulative():
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    result = run(prob, ball_config(max_iters=20), make_oracle(prob, seed=8))
    m1 = prob.num_constraints + 1
    for rec in result.trace:
        assert rec.scalar_calls_so_far == rec.k * 2 * 8 * m1
        assert rec.directions_so_far == rec.k * 8
    assert result.audit.total_scalar_calls == 20 * 2 * 8 * m1


@pytest.mark.parametrize("cap, calls, audited", [(100, 96, 3 * 9), (112, 112, 3 * 9 + 1)])
def test_budget_exhaustion_is_a_named_halt(cap, calls, audited):
    # 32 scalar calls per iteration: cap 100 runs out at the 4th base
    # measurement, cap 112 at the 4th perturbed one.
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    oracle = MeasurementOracle(prob, NoiseModel(sigma=0.02, master_seed=8), budget_cap=cap)
    result = run(prob, ball_config(max_iters=20), oracle)
    assert result.halted_reason == "budget-exhausted"
    assert result.halted_at == 4
    assert [rec.k for rec in result.trace] == [1, 2, 3]
    assert result.certificate is None
    assert result.audit.total_scalar_calls == calls
    assert len(result.audit) == audited


@pytest.mark.parametrize("cap, capacity", [(None, 20 * 9), (100, 100 // 2)])
def test_a_run_allocates_its_audit_log_once(monkeypatch, cap, capacity):
    # 20 iterations of a base row and 8 perturbed rows; doubling from empty
    # would grow the log 7 times. Each linear-ball row costs at least 2
    # scalar calls, so a cap of 100 pays for at most 50 rows (it halts at 27).
    grown, fit = [], MeasurementOracle._fit

    def counted(self, rows):
        log = self._log
        fit(self, rows)
        if self._log is not log:
            grown.append(len(self._log[0]))

    monkeypatch.setattr(MeasurementOracle, "_fit", counted)
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    oracle = MeasurementOracle(prob, NoiseModel(sigma=0.02, master_seed=8), budget_cap=cap)
    result = run(prob, ball_config(max_iters=20), oracle)
    assert len(result.audit) == (27 if cap else 20 * 9)
    assert grown == [capacity]


def nan_beyond_problem(noise_sigma=0.01):
    """linear-ball (min x0 in the unit disk, optimum (-1, 0)) with the
    constraint undefined (NaN) for x0 < -0.3, on the way to the optimum."""

    def eval_all(points):
        con = np.sum(points * points, axis=1) - 1.0
        return np.stack([points[:, 0], np.where(points[:, 0] < -0.3, np.nan, con)], axis=1)

    return ProblemSpec(
        name="nan-beyond",
        dim=2,
        num_constraints=1,
        eval_all=eval_all,
        lipschitz=3.5,
        grad_lower=1.0,
        noise_sigma=noise_sigma,
        safe_start=np.zeros(2),
    )


def test_non_finite_measurement_is_a_named_halt():
    prob = nan_beyond_problem()
    result = run(prob, ball_config(max_iters=300), make_oracle(prob, seed=1))
    assert result.halted_reason == "non-finite"
    assert 1 < result.halted_at < 300
    assert [rec.k for rec in result.trace] == list(range(1, result.halted_at))
    assert result.certificate is None
    # Every point measured before the halt had finite true values; the
    # refused measurement is audited, and its NaN rows are flagged.
    audit = result.audit
    before = audit.iterations < result.halted_at
    assert np.all(np.isfinite(audit.true_max_constraint[before]))
    assert np.isnan(audit.true_max_constraint[~before]).any()
    flagged = audit_trial(prob, result).violation_count
    assert flagged == np.count_nonzero(~before & audit.violated) > 0


def diverge_beyond_problem():
    """nan_beyond_problem whose evaluator instead raises, as the unicycle
    simulator does, once any queried point has x0 < -0.3."""
    inner = nan_beyond_problem()

    def eval_all(points):
        if (points[:, 0] < -0.3).any():
            raise DivergedTrajectoryError(3)
        return inner.eval_all(points)

    return dataclasses.replace(inner, name="diverge-beyond", eval_all=eval_all)


def test_diverged_measurement_is_a_named_halt():
    prob = diverge_beyond_problem()
    result = run(prob, ball_config(max_iters=300), make_oracle(prob, seed=1))
    assert result.halted_reason == "diverged"
    assert 1 < result.halted_at < 300
    assert [rec.k for rec in result.trace] == list(range(1, result.halted_at))
    assert result.certificate is None
    # The refused measurement's points are audited with a NaN true value,
    # and they are the only flagged rows.
    audit = result.audit
    unknown = np.isnan(audit.true_max_constraint)
    assert unknown.any()
    assert np.all(audit.iterations[unknown] == result.halted_at)
    assert audit_trial(prob, result).violation_count == np.count_nonzero(unknown)


def test_zero_gradient_records_zero_weight():
    prob = flat_problem()
    result = run(prob, ball_config(max_iters=10, nu_policy="fixed"), make_oracle(prob))
    assert len(result.trace) == 10
    assert all(rec.weight == 0.0 and rec.gamma == 0.0 for rec in result.trace)
    assert np.array_equal(result.x_final, prob.safe_start)
    assert result.certificate is None
    assert result.halted_reason is None


def test_margin_policy_halt():
    # Fixed radius with C_override = 1 makes nu*L = eta > |constraint|,
    # so the certified margin is exhausted at the first iteration.
    prob = flat_problem(constraint_level=-0.05)
    cfg = ball_config(max_iters=10, nu_policy="fixed", C_override=1.0, eta=0.1)
    result = run(prob, cfg, make_oracle(prob))
    assert result.halted_reason == "margin-exhausted"
    assert result.halted_at == 1
    assert result.trace == []
    assert result.certificate is None


def assert_halted_at_the_start(result, prob):
    """Iteration 1's margin refused the start: nothing was stepped or
    certified, and the audit holds the start's base row, truly feasible."""
    assert result.halted_reason == "margin-exhausted"
    assert result.halted_at == 1
    assert result.trace == []
    assert result.certificate is None
    audit = result.audit
    assert len(audit) == 1
    assert audit.iterations.tolist() == [1]
    assert audit.sides.tolist() == [SIDE_BASE]
    np.testing.assert_array_equal(audit.points[0], prob.safe_start)
    truth = audit_trial(prob, result)
    assert truth.violation_count == truth.containment_failures == len(truth.x) == 0


def test_unsafe_start_detected():
    # Feasible in truth but far from certifiable under huge noise, under
    # either radius policy.
    prob = flat_problem(constraint_level=-0.01)
    prob = dataclasses.replace(prob, noise_sigma=100.0)
    for nu_policy in NU_POLICIES:
        cfg = ball_config(max_iters=5, nu_policy=nu_policy)
        assert_halted_at_the_start(run(prob, cfg, make_oracle(prob, sigma=100.0, seed=3)), prob)


def test_confidence_bounds_use_the_declared_sigma():
    # The oracle draws no noise, but the problem declares sigma = 100, and
    # the solver trusts the declaration: the start is not certifiable.
    prob = dataclasses.replace(flat_problem(constraint_level=-0.01), noise_sigma=100.0)
    cfg = ball_config(max_iters=5, nu_policy="fixed")
    assert_halted_at_the_start(run(prob, cfg, make_oracle(prob, sigma=0.0, seed=3)), prob)


def test_certificate_structure():
    prob = analytic_problem("linear-ball", noise_sigma=0.02)
    result = run(prob, ball_config(), make_oracle(prob, seed=12))
    cert = result.certificate
    rec = result.trace[cert.iteration - 1]
    assert np.array_equal(cert.x, rec.x)
    assert cert.lambda_scalar == 0.05 / rec.alpha_hat
    assert cert.lambda_hat.shape == (1,)
    assert cert.lambda_hat[0] >= 0.0
    rebuilt = certificate_from_record(rec, 0.05)
    assert np.array_equal(rebuilt.lambda_hat, cert.lambda_hat)


def test_nonmaximizer_multipliers_zero():
    prob = analytic_problem("smooth-2con", noise_sigma=0.01)
    cfg = ball_config(eta=0.2, max_iters=120)
    result = run(prob, cfg, make_oracle(prob, seed=2))
    cert = result.certificate
    fhat = result.trace[cert.iteration - 1].fhat
    argmax = np.flatnonzero(fhat == fhat.max())
    for i in range(2):
        if i not in argmax:
            assert cert.lambda_hat[i] == 0.0


def test_barrier_descent_noiseless():
    # End-to-end descent of the reference smoothed barrier in theory mode
    # (fixed radius, noiseless measurements, capped sample bound).
    prob = analytic_problem("linear-ball", noise_sigma=0.0)
    cfg = AlgoConfig(
        eta=0.1,
        delta=0.05,
        max_iters=200,
        n_policy="theoretical",
        n_cap=128,
        nu_policy="fixed",
    )
    result = run(prob, cfg, make_oracle(prob, sigma=0.0, seed=3))
    L = prob.lipschitz
    C = prob.grad_lower**2 / (8.0 * L * L)
    nu = C * cfg.eta / L
    b0, _ = barrier_value_and_grad(prob, prob.safe_start, cfg.eta, nu, 200_000, substream(1))
    bk, _ = barrier_value_and_grad(prob, result.x_final, cfg.eta, nu, 200_000, substream(2))
    assert bk < b0 - 0.1
    assert audit_trial(prob, result).violation_count == 0
