"""Monte-Carlo reference for the smoothed log barrier, for tests that
check the solver's descent against an independent path."""

import math

import numpy as np

from zobarrier.problems import ProblemSpec
from zobarrier.smoothing import smoothed_gradient, smoothed_value


def barrier_value_and_grad(
    problem: ProblemSpec, x: np.ndarray, eta: float, nu: float, n_mc: int, rng
) -> tuple[float, np.ndarray]:
    """Reference smoothed log barrier and gradient at x:

        B(x) = f0_nu(x) - eta * log(-fc_nu(x))
        grad B(x) = grad f0_nu(x) + eta * grad fc_nu(x) / (-fc_nu(x))

    with fc the pointwise max of the constraints. Raises ValueError unless
    the smoothed constraint estimate is negative by more than 4 standard
    errors.
    """
    f0 = problem.objective_batch
    fc = problem.max_constraint_batch
    v0, _ = smoothed_value(f0, x, nu, n_mc, rng)
    vc, vc_se = smoothed_value(fc, x, nu, n_mc, rng)
    if not vc + 4.0 * vc_se < 0.0:
        raise ValueError(
            f"smoothed max-constraint {vc:.6g} +- {vc_se:.2g} not certifiably negative"
        )
    g0, _ = smoothed_gradient(f0, x, nu, n_mc, rng)
    gc, _ = smoothed_gradient(fc, x, nu, n_mc, rng)
    return v0 - eta * math.log(-vc), g0 + eta * gc / (-vc)
