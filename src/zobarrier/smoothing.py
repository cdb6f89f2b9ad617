"""Monte-Carlo reference oracle for smoothed quantities.

Independent estimates of the ball-smoothed function f_nu(x) = E f(x+nu*b)
(b uniform on the unit ball) and its gradient via the sphere identity
grad f_nu(x) = E d*(f(x+nu*s) - f(x))/nu * s. Used by the smoothing
property suite, the Monte-Carlo KKT residuals and tests to check the
solver's estimates against an independent path; never on the solver's
decision path.

Each estimate comes with its standard error, so assertions stay honest
at any sample count.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError
from .estimator import sphere_sample


def ball_sample(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the unit ball: sphere direction times U^(1/d)."""
    dirs = sphere_sample(d, n, rng)
    radii = rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)
    return dirs * radii[:, None]


def smoothed_value(
    f, x: np.ndarray, nu: float, n_mc: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo estimate of f_nu(x) over uniform-ball displacements and
    its standard error; f maps a (P, d) array of points to their (P,) values."""
    if nu < 0.0:
        raise ContractViolationError("nu must be nonnegative")
    if n_mc < 1:
        raise ContractViolationError("n_mc must be >= 1")
    x = np.asarray(x, dtype=float)
    b = ball_sample(x.size, n_mc, rng)
    vals = np.asarray(f(x[None, :] + nu * b), dtype=float)
    se = float(vals.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else float("inf")
    return float(vals.mean()), se


def smoothed_gradient(
    f, x: np.ndarray, nu: float, n_mc: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Monte-Carlo estimate of grad f_nu(x) via sphere sampling and its
    largest componentwise standard error; f is batched as in smoothed_value."""
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
    if n_mc > 1:
        se = float((terms.std(axis=0, ddof=1) / math.sqrt(n_mc)).max())
    else:
        se = float("inf")
    return terms.mean(axis=0), se
