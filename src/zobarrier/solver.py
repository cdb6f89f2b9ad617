"""Safe zeroth-order log-barrier descent.

The solver minimizes a smoothed log barrier of the problem using only
noisy function values served by the measurement oracle. Each iteration
k = 1..K at the current iterate:

  1. measures every function n_k times at the iterate (base side),
  2. forms per-constraint upper confidence bounds, their max M_k, and
     the certified margin alpha_k = -(M_k + nu_k*L) (halting if it is
     not positive),
  3. measures at x + nu_k * s_j along the oracle's directions s_j,
  4. assembles the barrier-gradient estimate
     g_k = G0 + eta * Gc / alpha_k,
  5. steps x -= gamma_k * g_k with
     gamma_k = min(alpha_k / (2 L k^(2/5)), k^(-3/5)) / |g_k|,

so the step length never exceeds alpha_k / (2L): one step cannot cross
the constraint boundary when L is honest. The returned point x_R is
drawn from the trace with probability proportional to gamma_k * |g_k|,
with multiplier lambda_R = eta / alpha_R.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExhaustedError,
    ConfigError,
    ContractViolationError,
    DivergedTrajectoryError,
    MarginExhaustedError,
    NonFiniteMeasurementError,
    NoValidOutputError,
    UnsafeQueryError,
    UnsafeStartError,
    require_integer,
)
from .estimator import barrier_gradient, confidence_bounds, estimate_gradient, margin
# `sphere_sample` stays importable here: perfbench's tracer wraps it at the solver.
from .estimator import sphere_sample  # noqa: F401
from .oracle import MeasurementOracle
from .problems import ProblemSpec, constraint_max
from .smoothing import smoothed_gradient
from .streams import DOMAIN_OUTPUT, substream

logger = logging.getLogger(__name__)

N_POLICIES = ("fixed", "theoretical")
NU_POLICIES = ("fixed", "adaptive")

# Errors that end a run with their halt_reason and the partial trace.
_HALTS = (
    MarginExhaustedError,
    UnsafeQueryError,
    DivergedTrajectoryError,
    BudgetExhaustedError,
    NonFiniteMeasurementError,
)


@dataclass
class AlgoConfig:
    """Run parameters.

    The margin constant C defaults to l^2 / (8 L^2) from the problem's
    declared constants; C_override sidesteps the (often unknowable) l.
    nu_policy "fixed" uses nu = C*eta/L throughout (the theory setting);
    "adaptive" re-derives nu_k = min(eta/L, alpha_k/L) each iteration
    from that iteration's own base measurements. n_policy "theoretical"
    derives n_k from the concentration bound and clamps it to n_cap with
    a warning; "fixed" uses n_fixed. A run's draws are keyed by its oracle's seed.
    """

    eta: float
    max_iters: int
    delta: float = 0.05
    n_policy: str = "fixed"
    n_fixed: int | None = None
    n_cap: int = 4096
    nu_policy: str = "fixed"
    C_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ContractViolationError("eta must be positive and finite")
        if not 0.0 < self.delta < 1.0:
            raise ContractViolationError("delta must lie in (0, 1)")
        self.max_iters = require_integer("max_iters", self.max_iters, 0)
        if self.n_policy not in N_POLICIES:
            raise ContractViolationError(f"n_policy must be one of {N_POLICIES}")
        if self.nu_policy not in NU_POLICIES:
            raise ContractViolationError(f"nu_policy must be one of {NU_POLICIES}")
        if self.n_policy == "fixed":
            self.n_fixed = require_integer("n_fixed (fixed n policy)", self.n_fixed, 1)
        self.n_cap = require_integer("n_cap", self.n_cap, 1)
        if self.C_override is not None and not 0.0 < self.C_override < math.inf:
            raise ContractViolationError("C_override must be positive and finite")


@dataclass
class IterateRecord:
    """Per-iteration trace entry; x is the point the iteration measured at.
    A step with g_norm == 0 keeps x, so the next record shares its array:
    read x, never write it."""

    k: int
    x: np.ndarray
    alpha_hat: float
    g_norm: float
    gamma: float
    weight: float  # gamma * |g| = min(alpha/(2 L k^0.4), k^-0.6)
    nu: float
    fhat: np.ndarray
    scalar_calls_so_far: int
    directions_so_far: int


@dataclass
class KktCertificate:
    """Output pair (x_R, lambda_R) plus per-constraint multipliers."""

    x: np.ndarray
    iteration: int
    lambda_scalar: float  # eta / alpha_R
    lambda_hat: np.ndarray  # per-constraint multipliers, argmax mass split


class KktResiduals(NamedTuple):
    feasibility: float  # max_i true f_i(x_R)
    complementarity: float  # max_i lambda_hat[i] * (-true f_i(x_R))
    stationarity: float  # |grad f0 + sum lambda_hat[i] grad f_i|


@dataclass
class RunResult:
    trace: list[IterateRecord]
    x_final: np.ndarray
    certificate: KktCertificate | None
    audit: object  # SafetyAudit
    # None, or the halt_reason of the error that ended the run:
    # "margin-exhausted" | "unsafe-query" | "diverged" | "budget-exhausted" | "non-finite"
    halted_reason: str | None = None
    halted_at: int | None = None


# ---------------------------------------------------------------------------
# Parameter derivation
# ---------------------------------------------------------------------------


def margin_constants(problem: ProblemSpec, cfg: AlgoConfig) -> tuple[float, float]:
    """The margin constant C (cfg.C_override, else l^2 / (8 L^2)) and the
    fixed sampling radius nu = C * eta / L."""
    L = problem.lipschitz
    C = cfg.C_override if cfg.C_override is not None else problem.grad_lower**2 / (8.0 * L**2)
    return C, C * cfg.eta / L


def sigma_big(d: int, delta: float, K: int, sigma: float, lipschitz: float, nu: float) -> float:
    """Concentration constant

        (d+1) * sqrt(ln(1/delta) + ln(2K+1)) * (sqrt(2)*sigma + L*nu)

    controlling the deviation of the gradient estimators across a run of
    K iterations at confidence delta.
    """
    if d < 1:
        raise ContractViolationError("d must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ContractViolationError("delta must lie in (0, 1)")
    if K < 0:
        raise ContractViolationError("K must be >= 0")
    if sigma < 0.0 or nu < 0.0 or lipschitz <= 0.0:
        raise ContractViolationError("sigma, nu must be >= 0 and L > 0")
    return (
        (d + 1)
        * math.sqrt(math.log(1.0 / delta) + math.log(2 * K + 1))
        * (math.sqrt(2.0) * sigma + lipschitz * nu)
    )


def required_samples(sigma_bound: float, nu: float, C: float, lipschitz: float) -> int:
    """Per-iteration sample count guaranteeing the certified margin stays
    above C*eta for a whole run: ceil(4*Sigma^2*(C+1)^2 / (nu^2 C^2 L^2))."""
    if sigma_bound <= 0.0 or nu <= 0.0 or C <= 0.0 or lipschitz <= 0.0:
        raise ContractViolationError("all arguments must be positive")
    bound = 4.0 * sigma_bound**2 * (C + 1.0) ** 2 / (nu**2 * C**2 * lipschitz**2)
    return max(1, math.ceil(bound))


def sample_bound(problem: ProblemSpec, cfg: AlgoConfig) -> tuple[float, float, float, int]:
    """(C, nu, Sigma, n_k): the margin constant, the fixed sampling radius,
    the concentration constant and the sample count `required_samples`
    derives from them for cfg's run on problem."""
    L = problem.lipschitz
    C, nu = margin_constants(problem, cfg)
    sig = sigma_big(problem.dim, cfg.delta, cfg.max_iters, problem.noise_sigma, L, nu)
    return C, nu, sig, required_samples(sig, nu, C, L)


def step_weight(k: int, alpha_hat: float, lipschitz: float) -> float:
    """Step length min(alpha/(2 L k^(2/5)), k^(-3/5)); the first branch is
    what makes a single step unable to cross the boundary."""
    if k < 1:
        raise ContractViolationError("k must be >= 1")
    if alpha_hat <= 0.0:
        raise ContractViolationError("alpha_hat must be positive")
    return min(alpha_hat / (2.0 * lipschitz * k ** (2.0 / 5.0)), 1.0 / k ** (3.0 / 5.0))


def plan_iterations(
    eta: float,
    lipschitz: float,
    C: float,
    d: int,
    d_f_estimate: float,
) -> dict:
    """Iteration-count planning helper: the three lower-bound terms whose
    max drives the E|grad B(x_R)| <= 5*eta guarantee. d_f_estimate is the
    user's guess at the initial barrier suboptimality gap (unobservable)."""
    t1 = (lipschitz * d_f_estimate / (C * eta**2)) ** 2.5
    t2 = (lipschitz**2 * math.sqrt(d) * (1.0 + 1.0 / C) / (C**2 * eta**3)) ** (5.0 / 3.0)
    t3 = (5.0 * math.log(1.0 / eta) / (C * eta)) ** 5 if eta < 1.0 else 0.0
    return {
        "term_gap": t1,
        "term_dimension": t2,
        "term_log": t3,
        "K_required": math.ceil(max(t1, t2, t3)),
    }


# ---------------------------------------------------------------------------
# Output selection and certificates
# ---------------------------------------------------------------------------


def select_output(weights, rng: np.random.Generator) -> int:
    """Sample an iteration index R with P(R = k) proportional to the
    recorded weight gamma_k * |g_k|; returns a 1-based index.

    One uniform draw u is placed among the cumulative weights: R is the
    entry whose interval [W_{k-1}, W_k) holds u * W_K, so a zero weight is
    never drawn. Should u * W_K round up to W_K, R is the last entry with
    positive weight. NaN and infinite weights are refused."""
    w = np.asarray(weights, dtype=float).tolist()
    if not all(map(math.isfinite, w)):
        raise ContractViolationError("weights must be finite")
    if all(v <= 0.0 for v in w):
        raise NoValidOutputError("no positive weights to sample from")
    if any(v < 0.0 for v in w):
        raise ContractViolationError("weights must be nonnegative")
    cum = list(itertools.accumulate(w))
    total = cum[-1]
    return bisect.bisect_right(cum, rng.random() * total, 0, bisect.bisect_left(cum, total)) + 1


def certificate_from_record(record: IterateRecord, eta: float) -> KktCertificate:
    """Build the output certificate for one trace entry: lambda = eta /
    alpha_R, and per-constraint multipliers that put that mass on the
    argmax of the constraint bounds, split equally across exact ties, and
    zero elsewhere. The record's alpha_R already passed `margin`."""
    lam_scalar = eta / record.alpha_hat
    maximizers = record.fhat == np.maximum.reduce(record.fhat)
    lam = np.zeros_like(record.fhat)
    lam[maximizers] = lam_scalar / np.count_nonzero(maximizers)
    return KktCertificate(record.x.copy(), record.k, lam_scalar, lam)


def kkt_residuals(
    problem: ProblemSpec,
    certificate: KktCertificate,
    nu: float,
    rng: np.random.Generator,
    n_mc: int = 4096,
) -> KktResiduals:
    """Ground-truth diagnostic residuals at the certificate point.

    Stationarity uses the problem's analytic gradients when available,
    otherwise one Monte-Carlo smoothed gradient of the Lagrangian
    f0 + sum lambda_hat[i] f_i at radius nu, drawn from rng.
    """
    x = certificate.x
    true_cons = problem.constraint_values(x)
    lam = certificate.lambda_hat
    r1 = float(true_cons.max())
    r2 = float((lam * (-true_cons)).max()) if lam.size else 0.0
    if problem.objective_grad is not None and problem.constraint_grads is not None:
        grad = problem.objective_grad(x).astype(float).copy()
        for lam_i, g_i in zip(lam, problem.constraint_grads):
            if lam_i != 0.0:
                grad += lam_i * g_i(x)
    else:
        weights = np.r_[1.0, lam]
        grad, _ = smoothed_gradient(
            lambda pts: problem.evaluate_all(pts) @ weights, x, nu, n_mc, rng
        )
    return KktResiduals(r1, r2, float(np.linalg.norm(grad)))


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def barrier_estimate(
    base: np.ndarray, pert: np.ndarray, directions: np.ndarray, nu: float, eta: float, alpha: float
) -> np.ndarray:
    """Barrier-gradient estimate g = G0 + (eta / alpha) * Gc from one
    iteration's base and perturbed tables (n, m+1): G0 differences the
    objective column, Gc the per-sample noisy max of the constraint
    columns (each side maxed within its own noise draw)."""
    g0 = estimate_gradient(base[:, 0], pert[:, 0], directions, nu)
    gc = estimate_gradient(constraint_max(base), constraint_max(pert), directions, nu)
    return barrier_gradient(g0, gc, eta, alpha)


def resolve_sample_count(problem: ProblemSpec, cfg: AlgoConfig) -> int:
    """n_k for the run; theoretical policy clamps to n_cap with a warning."""
    if cfg.n_policy == "fixed":
        return cfg.n_fixed
    required = sample_bound(problem, cfg)[3]
    if required > cfg.n_cap:
        logger.warning(
            "theoretical sample bound n_k = %d exceeds cap %d; clamping "
            "(margin guarantee no longer covered by the bound)",
            required,
            cfg.n_cap,
        )
        return cfg.n_cap
    return required


def run(problem: ProblemSpec, cfg: AlgoConfig, oracle: MeasurementOracle) -> RunResult:
    """Execute K iterations and sample the output pair.

    L and sigma are the problem's declared `lipschitz` and `noise_sigma`.
    The start point is accepted only if every constraint's upper
    confidence bound at it is negative (the solver cannot see true
    values); otherwise UnsafeStartError propagates. Any error in _HALTS
    (exhausted margin, infeasible query, divergence, budget cap,
    non-finite true values) ends the run with its halt_reason, the trace
    and audit so far, and no certificate. A log too large for memory is a ConfigError.
    """
    L = problem.lipschitz
    K = cfg.max_iters
    delta_bar = cfg.delta / (2 * K + 1)
    # The radius policy picks (nu_k, reach = nu_k * L), here fixed at
    # nu_k = C * eta / L; `margin` turns the reach into alpha_k.
    adaptive = cfg.nu_policy == "adaptive"
    _, nu_k = margin_constants(problem, cfg)
    reach = nu_k * L
    sigma = problem.noise_sigma
    n = resolve_sample_count(problem, cfg)
    try:
        oracle.reserve(K * (n + 1))  # a base row and n perturbed rows an iteration
    except MemoryError as exc:
        raise ConfigError(f"no memory for max_iters x (n + 1) = {K} x {n + 1} audit rows") from exc

    x = np.asarray(problem.safe_start, dtype=float).copy()
    records: list[IterateRecord] = []
    halted_reason: str | None = None
    halted_at: int | None = None

    for k in range(1, K + 1):
        try:
            base = oracle.measure_base(x, n, k)
            fhat = confidence_bounds(base, sigma, delta_bar)
            max_fhat = float(np.maximum.reduce(fhat))
            if k == 1 and max_fhat >= 0.0:
                raise UnsafeStartError(
                    f"start point not certifiably feasible: max upper bound "
                    f"{max_fhat:.6g} >= 0"
                )
            if adaptive:
                # nu = min(eta/L, alpha/L) solved jointly with alpha =
                # -(M + nu*L): reach eta when M <= -2*eta, else -M/2, so
                # alpha = -M - eta or -M/2 exactly (M - M/2 is exact).
                reach = min(cfg.eta, -max_fhat / 2.0)
                nu_k = reach / L
            alpha = margin(max_fhat, reach)
            directions = oracle.directions(k, n)
            pert = oracle.measure_perturbed(x, directions, nu_k, k)
        except _HALTS as exc:
            logger.warning("halted at iteration %d (%s): %s", k, exc.halt_reason, exc)
            halted_reason, halted_at = exc.halt_reason, k
            break
        g = barrier_estimate(base, pert, directions, nu_k, cfg.eta, alpha)
        g_norm = math.sqrt(float(g @ g))  # bitwise np.linalg.norm of a vector
        # A zero gradient has no direction; weight 0 keeps it out of output sampling.
        weight = gamma = 0.0
        if g_norm != 0.0:
            weight = step_weight(k, alpha, L)
            gamma = weight / g_norm
        records.append(
            IterateRecord(
                k=k,
                x=x,  # rebound below, never written in place
                alpha_hat=alpha,
                g_norm=g_norm,
                gamma=gamma,
                weight=weight,
                nu=nu_k,
                fhat=fhat,
                scalar_calls_so_far=oracle.total_scalar_calls,
                directions_so_far=oracle.total_directions,
            )
        )
        if g_norm != 0.0:
            x = x - gamma * g

    certificate = None
    if halted_reason is None and records:
        weights = np.array([r.weight for r in records])
        if np.any(weights > 0.0):
            R = select_output(weights, substream(oracle.noise.master_seed, DOMAIN_OUTPUT))
            certificate = certificate_from_record(records[R - 1], cfg.eta)
    return RunResult(
        trace=records,
        x_final=x.copy(),  # records keep x itself
        certificate=certificate,
        audit=oracle.audit(),
        halted_reason=halted_reason,
        halted_at=halted_at,
    )
