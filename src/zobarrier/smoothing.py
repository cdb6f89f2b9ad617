"""Monte-Carlo reference oracle for smoothed quantities.

Independent estimates of the ball-smoothed function f_nu(x) = E f(x+nu*b)
(b uniform on the unit ball), its gradient via the sphere identity
grad f_nu(x) = E d*(f(x+nu*s) - f(x))/nu * s, and the smoothed log
barrier built from them. Used by tests and diagnostics to check the
solver's estimates against an independent path; never on the solver's
decision path.

All tolerances downstream are expressed in the returned standard errors,
so assertions stay honest at any sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, OutsideBarrierDomainError
from .estimator import sphere_sample
from .problems import ProblemSpec
from .streams import as_generator


@dataclass
class SmoothedEval:
    """One Monte-Carlo estimate; value/grad parts filled as requested."""

    value: float | None
    grad: np.ndarray | None
    n_mc: int
    std_err_value: float | None
    std_err_grad: float | None  # max componentwise


def ball_sample(d: int, n: int, rng) -> np.ndarray:
    """n points uniform in the unit ball: sphere direction times U^(1/d)."""
    gen = as_generator(rng)
    dirs = sphere_sample(d, n, gen)
    radii = gen.uniform(0.0, 1.0, size=n) ** (1.0 / d)
    return dirs * radii[:, None]


def smoothed_value(
    f, x: np.ndarray, nu: float, n_mc: int, rng
) -> SmoothedEval:
    """Monte-Carlo estimate of f_nu(x) over uniform-ball displacements;
    f maps a (P, d) array of points to their (P,) values."""
    if nu < 0.0:
        raise ContractViolationError("nu must be nonnegative")
    if n_mc < 1:
        raise ContractViolationError("n_mc must be >= 1")
    x = np.asarray(x, dtype=float)
    b = ball_sample(x.size, n_mc, rng)
    vals = np.asarray(f(x[None, :] + nu * b), dtype=float)
    se = float(vals.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else float("inf")
    return SmoothedEval(
        value=float(vals.mean()), grad=None, n_mc=n_mc, std_err_value=se, std_err_grad=None
    )


def smoothed_gradient(
    f, x: np.ndarray, nu: float, n_mc: int, rng
) -> SmoothedEval:
    """Monte-Carlo estimate of grad f_nu(x) via sphere sampling; f is
    batched as in smoothed_value."""
    if nu <= 0.0:
        raise ContractViolationError("gradient smoothing requires nu > 0")
    if n_mc < 1:
        raise ContractViolationError("n_mc must be >= 1")
    x = np.asarray(x, dtype=float)
    d = x.size
    s = sphere_sample(d, n_mc, rng)
    fx = np.asarray(f(x[None, :]), dtype=float)[0]
    vals = np.asarray(f(x[None, :] + nu * s), dtype=float)
    terms = (d / nu) * (vals - fx)[:, None] * s  # (n, d)
    grad = terms.mean(axis=0)
    if n_mc > 1:
        se = float((terms.std(axis=0, ddof=1) / math.sqrt(n_mc)).max())
    else:
        se = float("inf")
    return SmoothedEval(
        value=None, grad=grad, n_mc=n_mc, std_err_value=None, std_err_grad=se
    )


def barrier_value_and_grad(
    problem: ProblemSpec, x: np.ndarray, eta: float, nu: float, n_mc: int, rng
) -> tuple[float, np.ndarray]:
    """Reference smoothed log barrier and gradient at x:

        B(x) = f0_nu(x) - eta * log(-fc_nu(x))
        grad B(x) = grad f0_nu(x) + eta * grad fc_nu(x) / (-fc_nu(x))

    with fc the pointwise max of the constraints. Requires the smoothed
    constraint estimate to be negative by more than 4 standard errors.
    """
    gen = as_generator(rng)
    f0 = problem.objective_batch
    fc = problem.max_constraint_batch
    v0 = smoothed_value(f0, x, nu, n_mc, gen)
    vc = smoothed_value(fc, x, nu, n_mc, gen)
    if not vc.value + 4.0 * vc.std_err_value < 0.0:
        raise OutsideBarrierDomainError(
            f"smoothed max-constraint {vc.value:.6g} +- {vc.std_err_value:.2g} "
            "not certifiably negative"
        )
    g0 = smoothed_gradient(f0, x, nu, n_mc, gen)
    gc = smoothed_gradient(fc, x, nu, n_mc, gen)
    value = v0.value - eta * math.log(-vc.value)
    grad = g0.grad + eta * gc.grad / (-vc.value)
    return value, grad
