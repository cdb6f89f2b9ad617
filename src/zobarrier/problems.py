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

from .errors import (
    ContractViolationError,
    DivergedTrajectoryError,
    UnknownProblemError,
    require_integer,
)


@dataclass
class ProblemSpec:
    """A constrained minimization problem: min f0(x) s.t. f_i(x) <= 0.

    eval_all maps a (P, d) array of points to the (P, m+1) table of
    [f0, f1, ..., fm] at each row; it is the problem's only evaluator.
    lipschitz is a Lipschitz bound L over `box` that the certified margin
    and the step bound use for the constraints (on unicycle-paper the
    objective's secants exceed L = 40); grad_lower is the declared lower
    bound on the smoothed max-constraint gradient norm near the boundary.
    Both are inputs the solver trusts, not quantities it can verify.
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
    keep the row reduction, where one call per column would cost more.
    Without `out` the result may be a view of `table`, for any m: with
    one constraint it is column 1 itself."""
    rows, m = table.shape[0], table.shape[1] - 1
    if m == 1:
        if out is None:
            return table[:, 1]
        out[...] = table[:, 1]
        return out
    if rows < _ROWS_PER_COLUMN_CALL * (m - 2):
        return np.maximum.reduce(table[:, 1:], 1, out=out)
    out = np.maximum(table[:, 1], table[:, 2], out=out)
    for j in range(3, m + 1):
        np.maximum(out, table[:, j], out=out)
    return out


# ---------------------------------------------------------------------------
# Unicycle controller design
# ---------------------------------------------------------------------------


def _default_gain() -> np.ndarray:
    # Weak proportional gain: speed from position error, turn rate from
    # heading error. Verified safe at problem construction.
    return np.array([[-0.05, -0.05, 0.0], [0.0, 0.0, -0.2]])


def _floats(name: str, value, length: int) -> tuple[float, ...]:
    """`value` as a tuple of `length` floats; otherwise ContractViolationError."""
    values = np.asarray(value, dtype=float)
    if values.shape != (length,):
        raise ContractViolationError(f"{name} must be {length} numbers, got {value!r}")
    return tuple(values.tolist())


@dataclass
class UnicycleConfig:
    """Geometry and discretization for the unicycle task.

    The gain is a 2x3 matrix mapping the goal error q - q_goal to inputs
    u = (v, omega); the optimization variable is its flattening, d = 6.
    Inputs are clamped to |v| <= v_max, |omega| <= omega_max so the
    declared Lipschitz constant is meaningful on the search box.
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

    def __post_init__(self):
        self.initial_gain = np.asarray(self.initial_gain, dtype=float)
        self.start = _floats("start", self.start, 3)
        self.goal = _floats("goal", self.goal, 3)
        self.obstacle_center = _floats("obstacle_center", self.obstacle_center, 2)
        self.horizon = require_integer("horizon", self.horizon, 1)
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


def simulate_unicycle_batch(
    gains: np.ndarray, cfg: UnicycleConfig, table: np.ndarray | None = None
) -> np.ndarray:
    """Simulate a float array of gains (B, 2, 3); returns C-contiguous
    states of shape (B, T+1, 3), or, given a (B, T+1) `table`, fills it
    with the evaluation table (see _evaluate_vectorized), keeping no states.

    Control is goal-error feedback u_{t+1} = U (q_t - q_goal), clamped
    componentwise. The state advances by the exact integration step for
    inputs held constant over dt:

        theta' = theta + dt*omega
        dx = v*dt*sinc(dt*omega/2) * cos(theta + dt*omega/2)
        dy = v*dt*sinc(dt*omega/2) * sin(theta + dt*omega/2)

    with sinc(z) = sin(z)/z, sinc(0) = 1, which reproduces the
    continuous-time arc for any dt (straight line in the omega -> 0
    limit). A time step is about 30 in-place numpy calls over all rows,
    doing np.einsum's (summing (a0*e0 + a2*e2) + a1*e1; a zero may differ
    in sign), np.clip's and np.sinc's operations in their order. Raises
    DivergedTrajectoryError with the first step where a state is not finite.
    """
    if not np.isfinite(gains).all():
        raise ContractViolationError("gain matrix must be finite")
    B, T, dt, eps = gains.shape[0], cfg.horizon, cfg.dt, np.finfo(float).eps
    # Each gain entry, coordinate and input is one row of B contiguous values.
    U = np.ascontiguousarray(gains.reshape(B, 6).T).reshape(2, 3, B)
    start, goal, center = (np.array(c)[:, None] for c in (cfg.start, cfg.goal, cfg.obstacle_center))
    q = start.repeat(B, 1)
    e = q - goal  # the goal differences, fed back
    hi = np.array([[cfg.v_max], [cfg.omega_max]])
    lo, u, work, zero = -hi, np.empty((2, B)), np.empty((6, B)), np.empty(B, bool)
    out = np.empty((B, T + 1)) if table is None else table
    terms = np.empty((B, T))
    traj = None if table is not None else np.tile(cfg.start, (B, T + 1, 1))
    # Overflow from an unstable gain surfaces as the diverged-trajectory
    # error, not as runtime warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(T):
            np.multiply(U, e, out=work.reshape(2, 3, B))
            np.add(np.add(work[0::3], work[2::3], out=u), work[1::3], out=u)
            v, w = np.clip(u, lo, hi, out=u)
            half = np.multiply(0.5 * dt, w, out=work[0])
            # np.sinc(half / pi): sin(y) / y at y = pi * (half / pi), with eps for y = 0
            y = np.multiply(np.pi, np.divide(half, np.pi, out=work[1]), out=work[1])
            np.copyto(y, eps, where=np.equal(y, 0.0, out=zero))
            sinc = np.divide(np.sin(y, out=work[2]), y, out=work[2])
            ds = np.multiply(np.multiply(v, dt, out=v), sinc, out=v)
            a, step = np.add(q[2], half, out=half), work[2:4]
            np.cos(a, out=step[0])
            np.sin(a, out=step[1])
            q[:2] += np.multiply(ds, step, out=step)
            q[2] += np.multiply(dt, w, out=w)
            np.subtract(q, goal, out=e)
            if traj is not None:
                traj[:, t + 1] = q.T
            # Squares summed as numpy sums 3 or 2 columns: left to right.
            sq = np.multiply(e, e, out=work[:3])
            np.add(np.add(sq[0], sq[1], out=terms[:, t]), sq[2], out=terms[:, t])
            p = np.subtract(q[:2], center, out=work[3:5])
            p *= p
            np.subtract(cfg.obstacle_radius**2, np.add(p[0], p[1], out=p[0]), out=out[:, t + 1])
    np.divide(np.add.reduce(terms, 1), T, out=out[:, 0])
    if traj is None:  # a state that is not finite stays so; the states raise its first step
        return out if np.isfinite(q).all() else simulate_unicycle_batch(gains, cfg)
    bad = np.flatnonzero(~np.isfinite(traj).all(axis=(0, 2)))
    if bad.size:
        raise DivergedTrajectoryError(int(bad[0]))
    return traj


# Rows per simulate_unicycle_batch call: the residual's 2048 rows are one block, whose
# numpy memory peaks at the table plus 0.9 MB of scratch (BENCH_simulator.json).
_BLOCK_ROWS = 2048


def _evaluate_vectorized(points: np.ndarray, cfg: UnicycleConfig) -> np.ndarray:
    """The unicycle's (P, T+1) table: the mean squared goal distance over
    steps 1..T, then r^2 - |p_t - c|^2 for t = 1..T. simulate_unicycle_batch
    writes it _BLOCK_ROWS rows at a time (rows are independent, so bit for
    bit one block's) and stores no trajectory."""
    P = points.shape[0]
    gains, out = points.reshape(P, 2, 3), np.empty((P, cfg.horizon + 1))
    try:
        for lo in range(0, P, _BLOCK_ROWS):
            simulate_unicycle_batch(gains[lo : lo + _BLOCK_ROWS], cfg, out[lo : lo + _BLOCK_ROWS])
    except DivergedTrajectoryError:  # as one block, the batch raises its first bad step
        simulate_unicycle_batch(gains, cfg)
    return out


# Batches up to this many rows are evaluated row by row in Python floats.
# The in-place loop makes about 30 numpy calls per time step, each about a
# microsecond even on 7 rows, so plain floats win up to 48 rows, which this
# stays below (BENCH_simulator.json). The solver's batches (1 base row, n_k
# perturbed rows) fall below it; the Monte-Carlo residuals stay above.
_ROW_KERNEL_MAX_ROWS = 32


def _evaluate_rows(points: np.ndarray, cfg: UnicycleConfig) -> np.ndarray | None:
    """_evaluate_vectorized's table bit for bit, one row at a time in
    Python floats; None if a row's state stops being finite, so that the
    vectorized path raises what it raises.

    Each operation is the vectorized path's, in its order: the goal
    differences a step squares are the ones the next step feeds back, the
    gain products are summed in einsum's order, the clamp keeps NaN as
    np.clip does, np.sinc(z) is sin(pi*z)/(pi*z) with 1 at 0,
    math.sin/math.cos round as numpy's float64 sin/cos do, a step's
    squares are summed left to right as numpy sums 2 or 3 columns, and the
    sum over T is numpy's own. A zero may differ in sign from einsum's
    (which sums onto +0.0), but only zeros follow from it, and every entry
    squares them. Every update adds to the state, so a state that is not
    finite stays so; math raises on sin/cos of inf where numpy gives NaN.
    """
    P, T, dt, hdt = points.shape[0], cfg.horizon, cfg.dt, 0.5 * cfg.dt
    v_max, w_max, r2 = cfg.v_max, cfg.omega_max, cfg.obstacle_radius**2
    v_min, w_min = -v_max, -w_max
    (gx, gy, gt), (cx, cy) = cfg.goal, cfg.obstacle_center
    sin, cos, pi = math.sin, math.cos, math.pi
    out: list[float] = []  # each step's clearance, then its goal term
    append = out.append
    for a0, a1, a2, b0, b1, b2 in points.tolist():
        x, y, th = cfg.start
        ex, ey, et = x - gx, y - gy, th - gt  # the feedback: the goal differences
        try:
            for _ in range(T):
                v = (a0 * ex + a2 * et) + a1 * ey
                w = (b0 * ex + b2 * et) + b1 * ey
                if v < v_min:
                    v = v_min
                elif v > v_max:
                    v = v_max
                if w < w_min:
                    w = w_min
                elif w > w_max:
                    w = w_max
                half = hdt * w
                z = pi * (half / pi)
                ds = (v * dt) * (sin(z) / z if z else 1.0)
                a = th + half
                x = x + ds * cos(a)
                y = y + ds * sin(a)
                th = th + dt * w
                ex, ey, et = x - gx, y - gy, th - gt
                px, py = x - cx, y - cy
                append(r2 - (px * px + py * py))
                append((ex * ex + ey * ey) + et * et)
        except ValueError:
            x = math.nan
        # Also catches a gain that is not finite, which the clamp can hide.
        if not math.isfinite(x + y + th + a0 + a1 + a2 + b0 + b1 + b2):
            return None
    steps = np.fromiter(out, float, 2 * P * T).reshape(P, T, 2)
    table = np.empty((P, T + 1))
    table[:, 1:] = steps[:, :, 0]
    np.divide(np.add.reduce(steps[:, :, 1], 1), T, out=table[:, 0])
    return table


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
    simulation per query point across all m+1 fields: batches of at most
    _ROW_KERNEL_MAX_ROWS rows run row by row in Python floats (_evaluate_rows),
    larger ones through simulate_unicycle_batch's in-place loop, which fills
    the table _BLOCK_ROWS rows at a time (_evaluate_vectorized); the tables
    are bitwise equal. The default lipschitz value holds empirically on the
    default box with margin; a caller passing a smaller tuned value (as
    benchmark presets do) trades the containment guarantee for larger steps
    and must judge safety from the audit.
    """
    cfg = cfg or UnicycleConfig()
    x0 = cfg.initial_gain.ravel().copy()

    def eval_all(points: np.ndarray) -> np.ndarray:
        table = _evaluate_rows(points, cfg) if len(points) <= _ROW_KERNEL_MAX_ROWS else None
        return _evaluate_vectorized(points, cfg) if table is None else table

    return ProblemSpec(
        name="unicycle",
        dim=6,
        num_constraints=cfg.horizon,
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
        sq = points * points
        out[:, 1] = sq[:, 0] + sq[:, 1] - 1.0
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
        d *= d
        out[:, 0] = d[:, 0] + d[:, 1]
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
        d1 *= d1
        d2 *= d2
        out[:, 1] = d1[:, 0] + d1[:, 1] - 1.0
        out[:, 2] = d2[:, 0] + d2[:, 1] - 1.0
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
        sq = points * points
        out[:, 0] = sq[:, 0] + sq[:, 1]
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
