"""Benchmark problems with exact (noiseless) evaluators.

A problem is an objective plus m constraint fields f_i(x) <= 0 on R^d,
a strictly feasible start point, and declared Lipschitz constants. One
batched exact evaluator serves all m+1 fields and is ground truth: the
measurement oracle adds noise on top of it and the safety audit judges
feasibility against it. The
solver itself only ever sees noisy measurements.

Two families live here: the unicycle controller-design task (optimize a
linear feedback gain so a simulated vehicle approaches a goal without
entering a circular obstacle) and small analytic problems with known
KKT points used as test fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractViolationError, DivergedTrajectoryError, UnknownProblemError


@dataclass
class ProblemSpec:
    """A constrained minimization problem: min f0(x) s.t. f_i(x) <= 0.

    eval_all maps a (P, d) array of points to the (P, m+1) table of
    [f0, f1, ..., fm] at each row; it is the problem's only evaluator.
    lipschitz is a common Lipschitz bound for the objective and every
    constraint over `box`; grad_lower is the declared lower bound on the
    smoothed max-constraint gradient norm near the boundary. Both are
    inputs the solver trusts, not quantities it can verify.
    """

    name: str
    dim: int
    num_constraints: int
    eval_all: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    grad_lower: float
    noise_sigma: float
    safe_start: np.ndarray
    box: tuple[np.ndarray, np.ndarray] | None = None
    objective_grad: Callable[[np.ndarray], np.ndarray] | None = None
    constraint_grads: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None
    solution: dict | None = None

    def __post_init__(self):
        self.safe_start = np.asarray(self.safe_start, dtype=float)
        if self.dim < 1:
            raise ContractViolationError("dim must be a positive integer")
        if self.num_constraints < 1:
            raise ContractViolationError("num_constraints must be a positive integer")
        if self.safe_start.shape != (self.dim,):
            raise ContractViolationError(
                f"safe_start has shape {self.safe_start.shape}, expected ({self.dim},)"
            )
        if not 0.0 < self.grad_lower <= self.lipschitz < math.inf:
            raise ContractViolationError("need 0 < grad_lower <= lipschitz < inf")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ContractViolationError("noise_sigma must be nonnegative and finite")
        if self.box is not None and not np.all(np.isfinite(self.box) & (self.box[0] < self.box[1])):
            raise ContractViolationError("box must have finite bounds lo < hi")
        worst = self.max_constraint(self.safe_start)
        if not worst < 0.0:
            raise ContractViolationError(
                f"safe_start is not strictly feasible: max_i f_i(x0) = {worst:.6g}"
            )

    # -- exact evaluation -------------------------------------------------

    def evaluate_all(self, points: np.ndarray) -> np.ndarray:
        """Evaluate [f0, f1, ..., fm] at each row of `points`; (P, m+1)."""
        if not (type(points) is np.ndarray and points.ndim == 2 and points.dtype == np.float64):
            points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise ContractViolationError(
                f"points have {points.shape[1]} columns, expected dim = {self.dim}"
            )
        out = np.asarray(self.eval_all(points), dtype=float)
        if out.shape != (points.shape[0], self.num_constraints + 1):
            raise ContractViolationError(
                f"eval_all returned shape {out.shape}, expected "
                f"({points.shape[0]}, {self.num_constraints + 1})"
            )
        return out

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.evaluate_all(np.asarray(x)[None, :])[0, 0])

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate_all(np.asarray(x)[None, :])[0, 1:]

    def max_constraint(self, x: np.ndarray) -> float:
        """Pointwise max of the constraints; feasibility is max <= 0."""
        return float(self.constraint_values(x).max())

    def objective_batch(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate_all(points)[:, 0]

    def max_constraint_batch(self, points: np.ndarray) -> np.ndarray:
        return constraint_max(self.evaluate_all(points))


# A reduction along rows makes one inner-loop call per row, about 45 ns;
# a column-wise form makes one ufunc call per column, about 1 us. So a
# column costs about as much as this many rows.
_ROWS_PER_COLUMN_CALL = 24


def constraint_max(table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row max of the constraint columns of a (P, m+1) table
    [f0, f1, ..., fm], into `out` if given: `table[:, 1:].max(axis=1)` bit
    for bit, except that a NaN's sign may differ (no output reads it).

    A table with few constraints for its rows (smooth-2con at n = 2048)
    is maxed a column at a time, comparing left to right as the row loop
    does. Many constraints over few rows (the unicycle's 30 at n = 7)
    keep the row reduction, where one call per column would cost more."""
    rows, m = table.shape[0], table.shape[1] - 1
    if rows < _ROWS_PER_COLUMN_CALL * (m - 2):
        return table[:, 1:].max(axis=1, out=out)
    # With one constraint this is the max of column 1 with itself.
    out = np.maximum(table[:, 1], table[:, min(2, m)], out=out)
    for j in range(3, m + 1):
        np.maximum(out, table[:, j], out=out)
    return out


def _sum_columns(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1)` bit for bit, for a last axis of 2 to 7 entries,
    except that a row holding NaNs of both signs may sum to either.

    numpy adds a row that short left to right onto +0.0 (its pairwise
    blocks start at 8 entries). Over enough rows, adding whole columns
    in that order is cheaper; the final + 0.0 turns an all -0.0 row into
    +0.0, as numpy's start value does."""
    cols = a.shape[-1]
    if a.size // cols < _ROWS_PER_COLUMN_CALL * (cols - 1):
        return a.sum(axis=-1)
    total = a[..., 0] + a[..., 1]
    for j in range(2, cols):
        total += a[..., j]
    total += 0.0
    return total


# ---------------------------------------------------------------------------
# Unicycle controller design
# ---------------------------------------------------------------------------


def _default_gain() -> np.ndarray:
    # Weak proportional gain: speed from position error, turn rate from
    # heading error. Verified safe at problem construction.
    return np.array([[-0.05, -0.05, 0.0], [0.0, 0.0, -0.2]])


@dataclass
class UnicycleConfig:
    """Geometry and discretization for the unicycle task.

    The gain is a 2x3 matrix mapping state (or goal error, with
    error_feedback) to inputs u = (v, omega); the optimization variable
    is its flattening, d = 6. Inputs are clamped to |v| <= v_max,
    |omega| <= omega_max so the declared Lipschitz constant is
    meaningful on the search box.
    """

    horizon: int = 30
    dt: float = 0.1
    start: tuple[float, float, float] = (0.0, 0.0, 0.0)
    goal: tuple[float, float, float] = (4.0, 4.0, 0.0)
    obstacle_center: tuple[float, float] = (2.0, 2.0)
    obstacle_radius: float = 1.0
    initial_gain: np.ndarray = field(default_factory=_default_gain)
    v_max: float = 2.0
    omega_max: float = 2.0
    error_feedback: bool = False

    def __post_init__(self):
        self.initial_gain = np.asarray(self.initial_gain, dtype=float)
        self.start = tuple(float(v) for v in self.start)
        self.goal = tuple(float(v) for v in self.goal)
        self.obstacle_center = tuple(float(v) for v in self.obstacle_center)
        if self.horizon < 1:
            raise ContractViolationError("horizon must be a positive integer")
        if not 0.0 < self.dt < math.inf:
            raise ContractViolationError("dt must be positive and finite")
        if not 0.0 < self.obstacle_radius < math.inf:
            raise ContractViolationError("obstacle_radius must be positive and finite")
        if self.initial_gain.shape != (2, 3):
            raise ContractViolationError("initial_gain must be a 2x3 matrix")
        coords = (*self.start, *self.goal, *self.obstacle_center, *self.initial_gain.flat)
        if not all(map(math.isfinite, coords)):
            raise ContractViolationError(
                "start, goal, obstacle_center and initial_gain must be finite"
            )
        # inf means no clamp; NaN would clamp every input to NaN.
        if not (self.v_max > 0.0 and self.omega_max > 0.0):
            raise ContractViolationError("input bounds must be positive")


def _step(q: np.ndarray, v: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Exact-integration state update for inputs held constant over dt:

        theta' = theta + dt*omega
        dx = v*dt*sinc(dt*omega/2) * cos(theta + dt*omega/2)
        dy = v*dt*sinc(dt*omega/2) * sin(theta + dt*omega/2)

    with sinc(z) = sin(z)/z, sinc(0) = 1, which reproduces the
    continuous-time arc for any dt (straight line in the omega -> 0
    limit). Vectorized over leading axes of q / v / omega; a single
    state (3,) with scalar inputs gives one update.
    """
    half = 0.5 * dt * omega
    ds = v * dt * np.sinc(half / np.pi)  # np.sinc(z/pi) = sin(z)/z
    theta = q[..., 2]
    return q + np.stack(
        [ds * np.cos(theta + half), ds * np.sin(theta + half), dt * omega], axis=-1
    )


# Batches up to this many rows take the per-row float kernel. Each numpy
# call in the vectorized step costs a few microseconds even on a
# 7-element array, so below the crossover (25 to 45 rows across runs,
# see BENCH_simulator.json) plain floats are faster. The solver's batches
# (1 base row, n_k perturbed rows) fall below it; trace evaluation and
# the Monte-Carlo residuals (hundreds to thousands of rows) stay above.
_ROW_KERNEL_MAX_ROWS = 16


def simulate_unicycle_batch(gains: np.ndarray, cfg: UnicycleConfig) -> np.ndarray:
    """Simulate a batch of gains (B, 2, 3), or one 2x3 gain as a batch of
    one; returns C-contiguous states of shape (B, T+1, 3).

    Control is u_{t+1} = U q_t, or U (q_t - q_goal) in error-feedback
    mode, clamped componentwise; the state advances by the exact
    integration step.

    Two kernels compute the same floating-point operations in the same
    order, so a row's trajectory is bitwise identical whichever one runs
    and whatever batch it is in: batches of at most _ROW_KERNEL_MAX_ROWS
    rows run row by row in Python floats, larger ones run the vectorized
    numpy loop. Raises DivergedTrajectoryError with the first step at
    which any row's state is not finite.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim == 2:
        gains = gains[None]
    if not np.isfinite(gains).all():
        raise ContractViolationError("gain matrix must be finite")
    if gains.shape[0] <= _ROW_KERNEL_MAX_ROWS:
        traj = _simulate_rows(gains, cfg)
    else:
        traj = _simulate_vectorized(gains, cfg)
    if not np.isfinite(traj).all():
        bad = np.flatnonzero(~np.isfinite(traj).all(axis=(0, 2)))
        raise DivergedTrajectoryError(int(bad[0]))
    return traj


def _simulate_vectorized(gains: np.ndarray, cfg: UnicycleConfig) -> np.ndarray:
    """All rows at once, one numpy step per time step; (B, T+1, 3)."""
    B = gains.shape[0]
    T = cfg.horizon
    goal = np.asarray(cfg.goal, dtype=float)
    traj = np.empty((B, T + 1, 3))
    q = np.tile(np.asarray(cfg.start, dtype=float), (B, 1))
    traj[:, 0] = q
    # Overflow from an unstable gain surfaces as the diverged-trajectory
    # error, not as runtime warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(T):
            feedback = q - goal if cfg.error_feedback else q
            u = np.einsum("bij,bj->bi", gains, feedback)
            v = np.clip(u[:, 0], -cfg.v_max, cfg.v_max)
            w = np.clip(u[:, 1], -cfg.omega_max, cfg.omega_max)
            q = _step(q, v, w, cfg.dt)
            traj[:, t + 1] = q
    return traj


def _simulate_rows(gains: np.ndarray, cfg: UnicycleConfig) -> np.ndarray:
    """One row at a time in Python floats; (B, T+1, 3).

    Mirrors _simulate_vectorized operation for operation: the gain
    products are summed in einsum's order, the clamp keeps NaN as
    np.clip does, np.sinc(z) is sin(pi*z)/(pi*z) with 1 at 0, and
    math.sin/math.cos round as numpy's float64 sin/cos do. A row whose
    sine or cosine argument becomes infinite (where math raises and numpy
    returns NaN) is NaN from that step on, so the diverged step is the
    one numpy reports.
    """
    T, dt, hdt = cfg.horizon, cfg.dt, 0.5 * cfg.dt
    v_max, w_max = cfg.v_max, cfg.omega_max
    start = np.asarray(cfg.start, dtype=float).tolist()
    # Subtracting +0.0 is exact, so literal feedback shares the loop.
    gx, gy, gt = np.asarray(cfg.goal, dtype=float).tolist() if cfg.error_feedback else (0.0,) * 3
    sin, cos, pi = math.sin, math.cos, math.pi
    row_len = 3 * (T + 1)
    out: list[float] = []
    for (a0, a1, a2), (b0, b1, b2) in gains.tolist():
        row_start = len(out)
        x, y, th = start
        out += start
        try:
            for _ in range(T):
                ex, ey, et = x - gx, y - gy, th - gt
                # einsum sums (g0*e0 + g2*e2) + g1*e1 into a zeroed output;
                # the + 0.0 turns a sum of negative zeros into 0.0 as it does.
                v = (a0 * ex + a2 * et) + a1 * ey + 0.0
                w = (b0 * ex + b2 * et) + b1 * ey + 0.0
                if v < -v_max:
                    v = -v_max
                elif v > v_max:
                    v = v_max
                if w < -w_max:
                    w = -w_max
                elif w > w_max:
                    w = w_max
                half = hdt * w
                z = pi * (half / pi)
                ds = (v * dt) * (sin(z) / z if z else 1.0)
                a = th + half
                x = x + ds * cos(a)
                y = y + ds * sin(a)
                th = th + dt * w
                out += (x, y, th)
        except ValueError:
            out += [math.nan] * (row_start + row_len - len(out))
    return np.array(out).reshape(gains.shape[0], T + 1, 3)


# Half-width of the search box around the initial gain where L = 130 was measured.
UNICYCLE_BOX_HALFWIDTH = 0.15


def make_unicycle_problem(
    cfg: UnicycleConfig | None = None,
    *,
    noise_sigma: float = 1e-4,
    lipschitz: float = 130.0,
    grad_lower: float = 1.0,
) -> ProblemSpec:
    """Wrap a unicycle configuration as a ProblemSpec over x = flatten(U).

    One constraint per trajectory step (m = T); no pre-aggregation, the
    algorithm's noisy max does that. The batch evaluator shares one
    simulation per query point across all m+1 fields. The default
    lipschitz value holds empirically on the default box with margin;
    a caller passing a smaller tuned value (as benchmark presets do)
    trades the containment guarantee for larger steps and must judge
    safety from the audit.
    """
    cfg = cfg or UnicycleConfig()
    x0 = cfg.initial_gain.ravel().copy()
    center = np.asarray(cfg.obstacle_center, dtype=float)
    goal = np.asarray(cfg.goal, dtype=float)
    r2 = cfg.obstacle_radius**2
    T = cfg.horizon

    def eval_all(points: np.ndarray) -> np.ndarray:
        P = points.shape[0]
        traj = simulate_unicycle_batch(points.reshape(P, 2, 3), cfg)[:, 1:]
        out = np.empty((P, T + 1))
        sq = traj - goal
        sq *= sq
        # A row sum divided by T is bitwise what `mean` computes.
        out[:, 0] = _sum_columns(sq).sum(axis=1) / T
        sq = traj[:, :, :2] - center
        sq *= sq
        np.subtract(r2, _sum_columns(sq), out=out[:, 1:])
        return out

    return ProblemSpec(
        name="unicycle",
        dim=6,
        num_constraints=T,
        eval_all=eval_all,
        lipschitz=lipschitz,
        grad_lower=grad_lower,
        noise_sigma=noise_sigma,
        safe_start=x0,
        box=(x0 - UNICYCLE_BOX_HALFWIDTH, x0 + UNICYCLE_BOX_HALFWIDTH),
    )


# ---------------------------------------------------------------------------
# Analytic fixtures with known solutions
# ---------------------------------------------------------------------------


def _linear_ball(noise_sigma: float) -> ProblemSpec:
    # min c.x s.t. |x|^2 - 1 <= 0 with c = (1, 0):
    # stationarity c + 2*lam*x = 0 on the unit circle gives
    # x* = -c/|c| = (-1, 0), lam* = |c|/2 = 0.5.
    c = np.array([1.0, 0.0])

    def eval_all(points):
        out = np.empty((points.shape[0], 2))
        out[:, 0] = points @ c
        out[:, 1] = _sum_columns(points * points) - 1.0
        return out

    lo = np.array([-1.2, -1.2])
    return ProblemSpec(
        name="linear-ball",
        dim=2,
        num_constraints=1,
        eval_all=eval_all,
        lipschitz=3.5,
        grad_lower=1.0,
        noise_sigma=noise_sigma,
        safe_start=np.zeros(2),
        box=(lo, -lo),
        objective_grad=lambda x: c.copy(),
        constraint_grads=(lambda x: 2.0 * x,),
        solution={
            "x_star": np.array([-1.0, 0.0]),
            "lambda_star": np.array([0.5]),
            "objective_star": -1.0,
        },
    )


def _quadratic_halfspace(noise_sigma: float) -> ProblemSpec:
    # min |x - xbar|^2 s.t. a.x - b <= 0 with xbar infeasible; the optimum
    # is the Euclidean projection of xbar onto the halfspace:
    # xbar = (2, 0), a = (1, 0), b = 1 -> x* = (1, 0), lam* = 2.
    xbar = np.array([2.0, 0.0])
    a = np.array([1.0, 0.0])
    b = 1.0

    def eval_all(points):
        d = points - xbar
        out = np.empty((points.shape[0], 2))
        out[:, 0] = _sum_columns(d * d)
        out[:, 1] = points @ a - b
        return out

    lo = np.array([-1.5, -1.5])
    return ProblemSpec(
        name="quadratic-halfspace",
        dim=2,
        num_constraints=1,
        eval_all=eval_all,
        lipschitz=8.0,
        grad_lower=1.0,
        noise_sigma=noise_sigma,
        safe_start=np.zeros(2),
        box=(lo, -lo),
        objective_grad=lambda x: 2.0 * (x - xbar),
        constraint_grads=(lambda x: a.copy(),),
        solution={
            "x_star": np.array([1.0, 0.0]),
            "lambda_star": np.array([2.0]),
            "objective_star": 1.0,
        },
    )


def _smooth_two_constraints(noise_sigma: float) -> ProblemSpec:
    # min -x2 inside the lens of two unit disks centered (0,0) and (1,0).
    # Both constraints are active at x* = (0.5, sqrt(3)/2); stationarity
    # (0,-1) + lam1*(1, sqrt3) + lam2*(-1, sqrt3) = 0 gives
    # lam1 = lam2 = 1/(2*sqrt(3)). Exercises the max-aggregated
    # constraint with a genuinely two-sided corner.
    c1 = np.array([0.0, 0.0])
    c2 = np.array([1.0, 0.0])

    def eval_all(points):
        d1 = points - c1
        d2 = points - c2
        out = np.empty((points.shape[0], 3))
        out[:, 0] = -points[:, 1]
        out[:, 1] = _sum_columns(d1 * d1) - 1.0
        out[:, 2] = _sum_columns(d2 * d2) - 1.0
        return out

    root3 = math.sqrt(3.0)
    return ProblemSpec(
        name="smooth-2con",
        dim=2,
        num_constraints=2,
        eval_all=eval_all,
        lipschitz=3.7,
        grad_lower=1.4,
        noise_sigma=noise_sigma,
        safe_start=np.array([0.5, 0.0]),
        box=(np.array([-0.5, -1.05]), np.array([1.5, 1.05])),
        objective_grad=lambda x: np.array([0.0, -1.0]),
        constraint_grads=(lambda x: 2.0 * (x - c1), lambda x: 2.0 * (x - c2)),
        solution={
            "x_star": np.array([0.5, root3 / 2.0]),
            "lambda_star": np.array([1.0 / (2.0 * root3), 1.0 / (2.0 * root3)]),
            "objective_star": -root3 / 2.0,
        },
    )


def _sphere_quadratic(noise_sigma: float) -> ProblemSpec:
    # min |x|^2 inside a wide ball |x|^2 <= 25 (constraint never active);
    # unconstrained optimum x* = 0, lam* = 0. Fixture for estimator
    # statistics at points like (1, 0) where grad f0 = (2, 0) exactly.
    def eval_all(points):
        out = np.empty((points.shape[0], 2))
        out[:, 0] = _sum_columns(points * points)
        out[:, 1] = out[:, 0] - 25.0
        return out

    lo = np.array([-1.25, -1.25])
    return ProblemSpec(
        name="sphere-quadratic",
        dim=2,
        num_constraints=1,
        eval_all=eval_all,
        lipschitz=3.6,
        grad_lower=2.0,
        noise_sigma=noise_sigma,
        safe_start=np.array([1.0, 0.0]),
        box=(lo, -lo),
        objective_grad=lambda x: 2.0 * x,
        constraint_grads=(lambda x: 2.0 * x,),
        solution={
            "x_star": np.zeros(2),
            "lambda_star": np.array([0.0]),
            "objective_star": 0.0,
        },
    )


_ANALYTIC: dict[str, Callable[[float], ProblemSpec]] = {
    "linear-ball": _linear_ball,
    "quadratic-halfspace": _quadratic_halfspace,
    "smooth-2con": _smooth_two_constraints,
    "sphere-quadratic": _sphere_quadratic,
}


def analytic_names() -> tuple[str, ...]:
    return tuple(sorted(_ANALYTIC))


def analytic_problem(name: str, noise_sigma: float = 0.01) -> ProblemSpec:
    """Build a registered analytic benchmark with a documented solution."""
    try:
        builder = _ANALYTIC[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown analytic problem {name!r}; registered: {', '.join(analytic_names())}"
        ) from None
    return builder(noise_sigma)
