import math
import tracemalloc

import numpy as np
import pytest

from zobarrier import problems
from zobarrier.errors import (
    ContractViolationError,
    DivergedTrajectoryError,
    UnknownProblemError,
)
from zobarrier.problems import (
    _BLOCK_ROWS,
    _ROW_KERNEL_MAX_ROWS,
    ProblemSpec,
    UnicycleConfig,
    _evaluate_rows,
    _evaluate_vectorized,
    analytic_names,
    analytic_problem,
    constraint_max,
    make_unicycle_problem,
    simulate_unicycle_batch,
)

# Mean squared goal distance of the default error-feedback configuration
# under its initial gain, frozen as a regression baseline.
GOLDEN_BASELINE_COST = 27.72419601789319


def constant_input_states(start, v, omega, steps=1, dt=0.1):
    """simulate_unicycle_batch's states under constant inputs (v, omega >= 0):
    error feedback toward a far goal, with gains large enough that the
    clamps hold v and omega at their bounds (a zero turn-rate gain gives
    omega = 0 exactly, the sinc(0) = 1 case)."""
    gain = [[1e6, 0.0, 0.0], [1e6 if omega else 0.0, 0.0, 0.0]]
    cfg = UnicycleConfig(
        horizon=steps, dt=dt, start=start, goal=(-100.0, -100.0, -100.0), error_feedback=True,
        initial_gain=gain, v_max=v, omega_max=omega or 1.0,
    )
    return simulate_unicycle_batch(cfg.initial_gain[None], cfg)[0]


def test_straight_line_step():
    # omega = 0, v = 1, theta = 0, dt = 0.1: the sinc(0) = 1 limit.
    q1 = constant_input_states((0.0, 0.0, 0.0), v=1.0, omega=0.0)[1]
    assert np.allclose(q1, [0.1, 0.0, 0.0], atol=1e-15)


def test_theta_update_is_exact():
    q1 = constant_input_states((0.3, -0.2, 0.7), v=0.5, omega=1.3)[1]
    assert q1[2] == 0.7 + 0.1 * 1.3


def test_constant_input_traces_circle():
    # Constant v = 1, omega = 1 follows a circle of radius v/omega = 1
    # centered at (0, 1); the exact-integration step lands on it at every
    # sample time, so only float rounding remains.
    traj = constant_input_states((0.0, 0.0, 0.0), v=1.0, omega=1.0, steps=63)
    assert np.abs(np.hypot(traj[:, 0], traj[:, 1] - 1.0) - 1.0).max() < 1e-6


def test_feedback_timing_matches_manual_rollout():
    cfg = UnicycleConfig(error_feedback=True, horizon=5)
    U = cfg.initial_gain
    traj = simulate_unicycle_batch(U[None], cfg)[0]
    q = np.asarray(cfg.start, dtype=float)
    goal = np.asarray(cfg.goal, dtype=float)
    for t in range(cfg.horizon):
        u = U @ (q - goal)
        v = np.clip(u[0], -cfg.v_max, cfg.v_max)
        w = np.clip(u[1], -cfg.omega_max, cfg.omega_max)
        half = 0.5 * cfg.dt * w
        ds = v * cfg.dt * (math.sin(half) / half if half else 1.0)
        q = q + [ds * math.cos(q[2] + half), ds * math.sin(q[2] + half), cfg.dt * w]
        assert np.allclose(traj[t + 1], q, atol=1e-14)


def test_objective_zero_at_fixed_goal():
    # Start at the goal with zero gain: the goal is a fixed point.
    cfg = UnicycleConfig(start=(1.0, 1.0, 0.0), goal=(1.0, 1.0, 0.0))
    assert make_unicycle_problem(cfg).objective_value(np.zeros(6)) == 0.0


def test_objective_single_step_distance():
    # T = 1, stationary trajectory at distance 2 from the goal.
    cfg = UnicycleConfig(horizon=1, start=(0.0, 0.0, 0.0), goal=(2.0, 0.0, 0.0))
    assert make_unicycle_problem(cfg).objective_value(np.zeros(6)) == 4.0


def test_objective_baseline_regression():
    prob = make_unicycle_problem(UnicycleConfig(error_feedback=True))
    cost = prob.objective_value(prob.safe_start)
    assert cost == pytest.approx(GOLDEN_BASELINE_COST, rel=1e-12)


def test_literal_default_cost():
    # Literal state feedback from the origin never moves: every state
    # remains at the start, so the cost is |q_goal|^2 = 32 exactly.
    prob = make_unicycle_problem(UnicycleConfig())
    assert prob.objective_value(prob.safe_start) == 32.0


@pytest.mark.parametrize(
    "start,expected",
    [((3.0, 2.0, 0.0), 0.0), ((4.0, 2.0, 0.0), -3.0), ((2.0, 2.0, 0.0), 1.0)],
)
def test_constraint_values(start, expected):
    # Stationary trajectories (zero gain) probe the clearance formula
    # r^2 - dist^2 at every step: on the boundary, at distance 2, and at
    # the obstacle center. The safe start gain drives straight out of the
    # obstacle at v = v_max = 20, two units per step.
    cfg = UnicycleConfig(start=start, v_max=20.0, initial_gain=[[10.0, 0, 0], [0, 0, 0]])
    values = make_unicycle_problem(cfg).constraint_values(np.zeros(6))
    assert values == pytest.approx(np.full(cfg.horizon, expected))


def test_constraint_step_range():
    # One constraint column per trajectory step 1..T, and an evaluator
    # returning any other column count is rejected.
    prob = make_unicycle_problem(UnicycleConfig())
    assert prob.evaluate_all(np.zeros((4, 6))).shape == (4, 1 + prob.num_constraints)
    for columns in (prob.num_constraints, prob.num_constraints + 2):
        broken = dict(vars(prob), eval_all=lambda pts, c=columns: np.zeros((len(pts), c)))
        with pytest.raises(ContractViolationError):
            ProblemSpec(**broken)


def test_diverged_trajectory_reports_step():
    cfg = UnicycleConfig(start=(1.0, 0.0, 0.0), v_max=np.inf, omega_max=np.inf)
    with pytest.raises(DivergedTrajectoryError) as exc:
        simulate_unicycle_batch(np.array([[[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]]), cfg)
    assert 0 <= exc.value.step <= cfg.horizon


KERNEL_CONFIGS = {
    "literal": {},
    "error-feedback": {"error_feedback": True},
    "v-max-20": {"error_feedback": True, "v_max": 20.0},
    "v-max-inf": {"v_max": np.inf},
    # Negative zeros in the state reach no table entry: each is squared.
    "signed-zero-start": {"start": (0.0, -0.0, -0.0), "omega_max": np.inf},
}
KERNEL_HORIZONS = (1, 5, 8, 30, 200)


def kernel_gains(cfg, rows):
    """Fixed-seed gains around the config's start gain: small steps, rows
    scaled up so the clamp is active, and rows with no turn-rate gain."""
    rng = np.random.default_rng(20261018)
    gains = cfg.initial_gain + rng.uniform(-0.15, 0.15, size=(rows, 2, 3))
    gains[1::4] *= 60.0
    gains[2::5, 1] = 0.0
    return gains


@pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
def test_row_kernel_bitwise_equals_vectorized(name):
    # The solver's batches (1 base row, n_k perturbed rows) take the
    # per-row float kernel, larger ones the vectorized path. Each row's
    # table must be byte-identical whichever path and batch it is in; this
    # also checks that math.sin/math.cos round as numpy's float64 sin/cos
    # do, and that the sum over T is numpy's pairwise one.
    big = _ROW_KERNEL_MAX_ROWS + 9
    for horizon in KERNEL_HORIZONS:
        cfg = UnicycleConfig(horizon=horizon, **KERNEL_CONFIGS[name])
        evaluate = make_unicycle_problem(cfg).evaluate_all
        points = kernel_gains(cfg, big).reshape(big, 6)
        full = evaluate(points)
        assert full.shape == (big, horizon + 1)
        assert full.tobytes() == _evaluate_vectorized(points, cfg).tobytes()
        assert _evaluate_rows(points, cfg).tobytes() == full.tobytes()
        assert evaluate(points[:7]).tobytes() == full[:7].tobytes()
        for b in range(big):
            assert evaluate(points[b : b + 1]).tobytes() == full[b].tobytes()


def test_trajectory_bitwise_the_same_in_any_batch():
    for params in KERNEL_CONFIGS.values():
        cfg = UnicycleConfig(**params)
        gains = kernel_gains(cfg, _ROW_KERNEL_MAX_ROWS + 9)
        full = simulate_unicycle_batch(gains, cfg)
        assert full.shape == (len(gains), cfg.horizon + 1, 3) and full.flags.c_contiguous
        seven = simulate_unicycle_batch(gains[:7], cfg)
        assert seven.flags.c_contiguous and seven.tobytes() == full[:7].tobytes()
        for b in range(len(gains)):
            alone = simulate_unicycle_batch(gains[b][None], cfg)
            assert alone.shape == (1, cfg.horizon + 1, 3) and alone.flags.c_contiguous
            assert alone.tobytes() == full[b].tobytes()


@pytest.mark.parametrize(
    "start,gain,step",
    [
        # Overflow to inf after one finite step.
        ((1.0, 0.0, 0.0), [[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]], 2),
        # Infinite turn rate: sin/cos of inf (math raises, numpy gives NaN).
        ((1e10, 0.0, 0.0), [[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]], 1),
        # inf - inf: a NaN turn rate passes the clamp.
        ((1e10, 0.0, 1e10), [[0.0, 0.0, 0.0], [1e300, 0.0, -1e300]], 1),
    ],
)
def test_diverged_step_same_on_both_kernels(start, gain, step):
    # Alone and in 7 rows (the row kernel), in 25 rows (one in-place
    # block) and in more rows than a block.
    cfg = UnicycleConfig(start=start, v_max=np.inf, omega_max=np.inf, initial_gain=np.zeros((2, 3)))
    evaluate = make_unicycle_problem(cfg).evaluate_all
    points = np.zeros((_BLOCK_ROWS + 9, 6))
    points[5] = np.ravel(gain)
    for batch in (points[5:6], points[:7], points[: _ROW_KERNEL_MAX_ROWS + 9], points):
        with pytest.raises(DivergedTrajectoryError) as exc:
            evaluate(batch)
        assert exc.value.step == step


# Literal feedback starts off the origin, where it would never move. With
# feedback off and a goal heading that is not 0, the goal differences the
# table squares are not the feedback.
PARITY_CONFIGS = {
    "literal": {"start": (0.5, -0.3, 0.2)},
    "error-feedback": {"error_feedback": True},
    "literal-goal-heading": {"start": (0.5, -0.3, 0.2), "goal": (4.0, 4.0, 0.7)},
    "error-feedback-goal-heading": {"goal": (4.0, 4.0, -0.7), "error_feedback": True},
}


def table_from_trajectories(traj, cfg):
    """The evaluation table reduced from simulate_unicycle_batch's states
    with numpy's own sums."""
    goal = traj[:, 1:] - np.asarray(cfg.goal)
    center = traj[:, 1:, :2] - np.asarray(cfg.obstacle_center)
    return np.c_[
        (goal * goal).sum(axis=-1).sum(axis=1) / cfg.horizon,
        cfg.obstacle_radius**2 - (center * center).sum(axis=-1),
    ]


@pytest.mark.parametrize("horizon", [1, 30])
@pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
def test_row_kernel_in_place_loop_and_trajectories_agree_bitwise(name, horizon):
    cfg = UnicycleConfig(horizon=horizon, **PARITY_CONFIGS[name])
    gains = kernel_gains(cfg, _BLOCK_ROWS + 1)
    points = gains.reshape(len(gains), 6)
    # The first step's inputs pass both clamps, and some turn rates are 0.
    start = np.asarray(cfg.start)
    u = gains @ (start - np.asarray(cfg.goal) if cfg.error_feedback else start)
    assert (np.abs(u[:, 0]) > cfg.v_max).any() and (np.abs(u[:, 1]) > cfg.omega_max).any()
    assert (u[:, 1] == 0.0).any()
    for rows in (1, 7, 16, 17, len(gains)):
        expected = table_from_trajectories(simulate_unicycle_batch(gains[:rows], cfg), cfg)
        in_place = np.empty((rows, horizon + 1))
        assert simulate_unicycle_batch(gains[:rows], cfg, in_place) is in_place
        assert in_place.tobytes() == expected.tobytes()
        assert _evaluate_rows(points[:rows], cfg).tobytes() == expected.tobytes()
        assert make_unicycle_problem(cfg).eval_all(points[:rows]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["literal", "error-feedback"])
@pytest.mark.parametrize("rows", [511, 512, 513, 1025])
def test_blocked_table_bitwise_equals_one_block(monkeypatch, name, rows):
    # Blocks of 512 rows: one short block, one full, a full one and one
    # row, two full ones and one row.
    cfg = UnicycleConfig(**KERNEL_CONFIGS[name])
    points = kernel_gains(cfg, rows).reshape(rows, 6)
    monkeypatch.setattr(problems, "_BLOCK_ROWS", rows)
    one_block = _evaluate_vectorized(points, cfg)
    # The one-block table stays alive, so the blocked one cannot reuse its memory.
    monkeypatch.setattr(problems, "_BLOCK_ROWS", 512)
    blocked = make_unicycle_problem(cfg).evaluate_all(points)
    assert blocked.tobytes() == one_block.tobytes()


@pytest.mark.parametrize("early_row", [None, 3])
def test_divergence_in_a_later_block_raises_the_one_block_step(monkeypatch, early_row):
    # In blocks of 512, row 1025 (the third block) diverges at step 1; the
    # early row, if any, diverges at step 2 in the first block.
    cfg = UnicycleConfig(
        start=(1e10, 0.0, 0.0), v_max=np.inf, omega_max=np.inf, initial_gain=np.zeros((2, 3))
    )
    points = np.zeros((2 * 512 + 5, 6))
    points[2 * 512 + 1, 3] = 1e300
    if early_row is not None:
        points[early_row, 0] = 1e200
    errors = []
    for block in (len(points), 512):
        monkeypatch.setattr(problems, "_BLOCK_ROWS", block)
        with pytest.raises(DivergedTrajectoryError) as exc:
            make_unicycle_problem(cfg).evaluate_all(points)
        errors.append((exc.value.step, str(exc.value)))
    assert errors == [(1, "trajectory diverged at step 1")] * 2


def test_large_batch_peak_memory_is_the_table_and_one_block():
    # The Monte-Carlo residual's batch, which peaked at 4.6 MB with its
    # (rows, T+1, 3) trajectories and (rows, T, 3) and (rows, T, 2) arrays
    # of squares; the in-place loop keeps no trajectory.
    assert _BLOCK_ROWS >= 2048
    cfg = UnicycleConfig(error_feedback=True)
    evaluate = make_unicycle_problem(cfg).eval_all
    points = kernel_gains(cfg, 2048).reshape(2048, 6)
    evaluate(points)
    tracemalloc.start()
    try:
        table = evaluate(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 1_000_000


def test_points_of_the_wrong_dimension_are_refused():
    # Both problems are in R^2: the sum over 3 columns and the lookup of a
    # second column that is not there both end as a contract violation.
    for name, points in [("sphere-quadratic", np.ones((4, 3))), ("smooth-2con", np.ones((4, 1)))]:
        with pytest.raises(ContractViolationError, match="expected dim = 2"):
            analytic_problem(name).evaluate_all(points)
    with pytest.raises(ContractViolationError):
        analytic_problem("linear-ball").objective_value(np.zeros(3))


def test_nonfinite_gain_rejected():
    with pytest.raises(ContractViolationError):
        simulate_unicycle_batch(np.full((1, 2, 3), np.nan), UnicycleConfig())
    # In error feedback an infinite gain meets a nonzero error, and the
    # clamp turns the infinite input into a finite one.
    cfg = UnicycleConfig(error_feedback=True)
    evaluate = make_unicycle_problem(cfg).evaluate_all
    for value in (np.inf, -np.inf, np.nan):
        points = np.tile(cfg.initial_gain.ravel(), (7, 1))
        points[3, 0] = value
        for batch in (points[3:4], points):
            with pytest.raises(ContractViolationError, match="gain matrix must be finite"):
                evaluate(batch)


def test_infeasible_start_rejected():
    cfg = UnicycleConfig(start=(2.0, 2.0, 0.0), error_feedback=True)
    with pytest.raises(ContractViolationError):
        make_unicycle_problem(cfg)


def test_dt_refinement_first_order():
    # Exact integration is exact in position for piecewise-constant
    # inputs, so halving dt (and doubling T) only changes the control
    # update rate: endpoint differences shrink linearly in dt.
    def endpoint(dt, horizon):
        cfg = UnicycleConfig(error_feedback=True, dt=dt, horizon=horizon)
        return simulate_unicycle_batch(cfg.initial_gain[None], cfg)[0, -1]

    d12 = np.linalg.norm(endpoint(0.1, 30) - endpoint(0.05, 60))
    d23 = np.linalg.norm(endpoint(0.05, 60) - endpoint(0.025, 120))
    assert d12 < 0.05 * 0.1  # O(dt) with a generous constant
    assert 1.4 < d12 / d23 < 3.0


# -- analytic fixtures -------------------------------------------------------


def test_registry_contents():
    assert set(analytic_names()) >= {"linear-ball", "quadratic-halfspace", "smooth-2con"}
    with pytest.raises(UnknownProblemError):
        analytic_problem("no-such-problem")
    assert isinstance(UnknownProblemError("x"), LookupError)


def test_linear_ball_solution():
    prob = analytic_problem("linear-ball")
    x_star = prob.solution["x_star"]
    lam = prob.solution["lambda_star"]
    assert np.allclose(x_star, [-1.0, 0.0])
    assert lam[0] == 0.5
    # Stationarity: grad f0 + lam * grad f1 = 0 at the optimum.
    grad = prob.objective_grad(x_star) + lam[0] * prob.constraint_grads[0](x_star)
    assert np.allclose(grad, 0.0, atol=1e-14)
    assert prob.objective_value(x_star) == prob.solution["objective_star"]


def test_quadratic_halfspace_projection():
    prob = analytic_problem("quadratic-halfspace")
    assert np.allclose(prob.solution["x_star"], [1.0, 0.0])
    grad = prob.objective_grad(prob.solution["x_star"]) + prob.solution["lambda_star"][
        0
    ] * prob.constraint_grads[0](prob.solution["x_star"])
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_smooth_2con_fixture():
    prob = analytic_problem("smooth-2con")
    # Declared start is strictly feasible for both constraints.
    assert np.all(prob.constraint_values(prob.safe_start) < 0.0)
    # Both constraints are active at the declared optimum and the
    # multipliers make the Lagrangian stationary.
    x_star = prob.solution["x_star"]
    assert np.allclose(prob.constraint_values(x_star), 0.0, atol=1e-14)
    grad = prob.objective_grad(x_star).copy()
    for lam_i, g_i in zip(prob.solution["lambda_star"], prob.constraint_grads):
        grad += lam_i * g_i(x_star)
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_strict_feasibility_of_all_registered_starts():
    for name in analytic_names():
        prob = analytic_problem(name)
        assert prob.max_constraint(prob.safe_start) < 0.0


def test_lipschitz_sanity():
    rng = np.random.default_rng(42)
    problems = [analytic_problem(name) for name in analytic_names()]
    problems.append(make_unicycle_problem(UnicycleConfig(error_feedback=True)))
    for prob in problems:
        lo, hi = prob.box
        xs = rng.uniform(lo, hi, size=(1000, prob.dim))
        ys = rng.uniform(lo, hi, size=(1000, prob.dim))
        vx = prob.evaluate_all(xs)
        vy = prob.evaluate_all(ys)
        dist = np.linalg.norm(xs - ys, axis=1)
        ratios = np.abs(vx - vy) / dist[:, None]
        assert ratios.max() <= prob.lipschitz, prob.name


# [f0, f1, ..., fm] of each analytic fixture at one point, written out.
CLOSED_FORMS = {
    "linear-ball": lambda x, y: [x, x * x + y * y - 1.0],
    "quadratic-halfspace": lambda x, y: [(x - 2.0) ** 2 + y * y, x - 1.0],
    "smooth-2con": lambda x, y: [-y, x * x + y * y - 1.0, (x - 1.0) ** 2 + y * y - 1.0],
    "sphere-quadratic": lambda x, y: [x * x + y * y, x * x + y * y - 25.0],
}


def test_evaluate_all_matches_closed_forms():
    assert set(CLOSED_FORMS) == set(analytic_names())
    rng = np.random.default_rng(3)
    for name in analytic_names():
        prob = analytic_problem(name)
        pts = rng.uniform(*prob.box, size=(20, prob.dim))
        table = prob.evaluate_all(pts)
        assert table.shape == (20, prob.num_constraints + 1)
        for row, x in zip(table, pts):
            assert row == pytest.approx(CLOSED_FORMS[name](*x), abs=1e-12)


def test_unicycle_eval_all_matches_per_step_constraints():
    # Reference from one simulated trajectory: the mean squared goal
    # distance over steps 1..T and the clearance r^2 - |p_t - c|^2 per step.
    cfg = UnicycleConfig(error_feedback=True)
    prob = make_unicycle_problem(cfg)
    x = prob.safe_start + 0.01
    row = prob.evaluate_all(x[None, :])[0]
    traj = simulate_unicycle_batch(x.reshape(1, 2, 3), cfg)[0]
    goal_dist = np.sum((traj[1:] - np.asarray(cfg.goal)) ** 2, axis=1)
    assert row[0] == pytest.approx(goal_dist.mean(), abs=1e-12)
    for t in (1, 7, prob.num_constraints):
        clearance = np.sum((traj[t, :2] - np.asarray(cfg.obstacle_center)) ** 2)
        assert row[t] == pytest.approx(cfg.obstacle_radius**2 - clearance, abs=1e-12)


def _columns(*columns):
    return np.stack(columns, axis=1)


# The analytic evaluators' tables with every sum of squares written as
# numpy's `.sum(axis=-1)`.
SUM_FORMULAS = {
    "linear-ball": lambda p: _columns(p @ [1.0, 0.0], (p * p).sum(axis=-1) - 1.0),
    "quadratic-halfspace": lambda p: _columns(
        ((p - [2.0, 0.0]) * (p - [2.0, 0.0])).sum(axis=-1), p @ [1.0, 0.0] - 1.0
    ),
    "smooth-2con": lambda p: _columns(
        -p[:, 1],
        (p * p).sum(axis=-1) - 1.0,
        ((p - [1.0, 0.0]) * (p - [1.0, 0.0])).sum(axis=-1) - 1.0,
    ),
    "sphere-quadratic": lambda p: _columns((p * p).sum(axis=-1), (p * p).sum(axis=-1) - 25.0),
}


def special_table(rng, shape):
    """Random entries over many magnitudes, a fifth replaced by NaN, +-inf,
    +-0.0 or subnormals; NaNs of both signs."""
    table = rng.standard_normal(shape) * rng.choice([1e-300, 1e-5, 1.0, 1e10, 1e300], size=shape)
    specials = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, -1e-310]
    mask = rng.random(shape) < 0.2
    table[mask] = rng.choice(specials, size=int(mask.sum()))
    return table


@pytest.mark.parametrize(
    "shape", [(1, 2), (1, 3), (1, 31), (7, 31), (16, 2), (64, 31), (2048, 3), (4096, 31)]
)
def test_column_wise_reductions_are_numpy_reductions_bit_for_bit(shape):
    # Bit for bit except for the sign of a NaN, which numpy's own
    # reductions keep for some entries and not others: a row max of
    # [-nan, 1.0] gives +nan and of [1.0, -nan] gives -nan.
    def assert_same_bits(got, expected):
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    rows = shape[0]
    rng = np.random.default_rng(100 * rows + shape[1])
    for _ in range(20):
        table = special_table(rng, shape)
        out = np.full((rows, 2), 7.0)
        for got in (constraint_max(table), constraint_max(table, out=out[:, 1])):
            assert_same_bits(got, table[:, 1:].max(axis=1))
        assert (out[:, 0] == 7.0).all()
        # The evaluators add their squares column by column.
        points = special_table(rng, (rows, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            for name, formula in SUM_FORMULAS.items():
                assert_same_bits(analytic_problem(name).eval_all(points), formula(points))
    for params in KERNEL_CONFIGS.values():
        cfg = UnicycleConfig(**params)
        points = kernel_gains(cfg, rows).reshape(rows, 6)
        traj = simulate_unicycle_batch(points.reshape(rows, 2, 3), cfg)[:, 1:]
        goal = traj - np.asarray(cfg.goal)
        center = traj[:, :, :2] - np.asarray(cfg.obstacle_center)
        expected = np.c_[
            (goal * goal).sum(axis=-1).sum(axis=1) / cfg.horizon,
            cfg.obstacle_radius**2 - (center * center).sum(axis=-1),
        ]
        assert_same_bits(_evaluate_vectorized(points, cfg), expected)


def test_problem_spec_validation():
    with pytest.raises(ContractViolationError):
        analytic_problem("linear-ball", noise_sigma=-1.0)
