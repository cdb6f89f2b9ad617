"""Gradient estimation from noisy measurement tables.

The pieces of the barrier-gradient estimate, computed from one
iteration's base and perturbed value tables (n, m+1): the randomized
gradient estimator, per-constraint upper confidence bounds, the
certified safety margin, and the combination g = G0 + eta * Gc / alpha.
The solver assembles them (`solver.barrier_estimate`).

The single-sample estimator for function f from a direction s is

    d * (F(x + nu*s, xi+) - F(x, xi-)) / nu * s,

whose expectation is the gradient of the nu-smoothed function f_nu.
The max-constraint variant applies the same formula to the noisy
pointwise max across constraints, paired within each sample's noise
draw on each side.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, MarginExhaustedError


def sphere_sample(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on the unit sphere in R^d, as rows; deterministic
    given the generator's stream key (standard-normal vector, normalized)."""
    if d < 1:
        raise ContractViolationError("dimension must be >= 1")
    if n < 1:
        raise ContractViolationError("sample count must be >= 1")
    vecs = rng.standard_normal((n, d))
    norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
    while (norms < 1e-300).any():  # essentially impossible; redraw to be safe
        bad = norms < 1e-300
        vecs[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
    return vecs / norms[:, None]


def estimate_gradient(
    base: np.ndarray, pert: np.ndarray, directions: np.ndarray, radius: float
) -> np.ndarray:
    """Averaged randomized gradient estimate from one value column per side.

    base[j] = F(x, xi-) and pert[j] = F(x + radius * directions[j], xi+)
    for samples j = 0..n-1; the column is either a function's own
    values or the per-sample noisy max over the constraint columns.
    """
    if radius <= 0.0:
        raise ContractViolationError("gradient estimation requires radius > 0")
    n, d = directions.shape
    if n < 1:
        raise ContractViolationError("need at least one sample")
    diffs = (pert - base) / radius
    return d * (diffs @ directions) / n


def confidence_bounds(base_values: np.ndarray, sigma: float, delta_bar: float) -> np.ndarray:
    """Upper confidence bound per constraint from a batch's base table
    (columns 1..m); reuses the gradient estimator's measurements, no
    extra oracle calls."""
    if not 0.0 < delta_bar < 1.0:
        raise ContractViolationError("delta_bar must lie in (0, 1)")
    if sigma < 0.0:
        raise ContractViolationError("sigma must be nonnegative")
    cons = np.asarray(base_values, dtype=float)[:, 1:]
    n = cons.shape[0]
    if n < 1:
        raise ContractViolationError("need at least one measurement")
    inflation = sigma / math.sqrt(n) * math.sqrt(math.log(1.0 / delta_bar))
    # The sum over n divided by n is bitwise what `mean` computes; the
    # ufunc's own reduce skips `sum`'s Python wrapper.
    return np.add.reduce(cons, 0) / n + inflation


def margin(max_fhat: float, reach: float) -> float:
    """The certified margin alpha = -(max_fhat + reach), from the largest
    per-constraint upper bound and the radius policy's reach nu*L; the
    only place it is computed. Raises MarginExhaustedError(-alpha) unless
    alpha > 0, a NaN included: a fabricated margin would silently void
    the safety guarantee. A negative reach is refused after that, so an
    adaptive reach (<= 0 only when max_fhat >= 0) ends as exhausted.
    """
    alpha = -(max_fhat + reach)
    if not alpha > 0.0:
        raise MarginExhaustedError(-alpha)
    if reach < 0.0:
        raise ContractViolationError("reach must be nonnegative")
    return alpha


def barrier_gradient(g0: np.ndarray, gc: np.ndarray, eta: float, alpha_hat: float) -> np.ndarray:
    """Barrier-gradient estimate g = g0 + (eta / alpha_hat) * gc."""
    if alpha_hat <= 0.0:
        raise ContractViolationError("alpha_hat must be positive")
    if eta < 0.0:
        raise ContractViolationError("eta must be nonnegative")
    return np.asarray(g0, dtype=float) + (eta / alpha_hat) * np.asarray(gc, dtype=float)
