"""Experiment harness: configs, presets, multi-trial runs, verification.

Reads a YAML experiment config (optionally expanded from a named
preset), executes seeded independent trials, persists per-trial trace
and audit CSVs plus one summary JSON, and hosts the named
property-verification suites that back the statistical claims the
solver relies on.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from .errors import ConfigError, UnknownSuiteError
from .estimator import sphere_sample
from .oracle import MeasurementOracle, NoiseModel, write_audit_csv
from .problems import ProblemSpec, UnicycleConfig, analytic_names, analytic_problem, make_unicycle_problem
from .smoothing import smoothed_gradient, smoothed_value
from .solver import (
    AlgoConfig,
    RunResult,
    barrier_estimate,
    kkt_residuals,
    run,
    select_output,
)
from .streams import DOMAIN_MC, substream

ENV_OUTPUT_DIR = "ZOBARRIER_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class EmitFlags:
    trace_csv: bool = True
    audit_csv: bool = True
    summary_json: bool = True


@dataclass
class ExperimentConfig:
    problem_name: str
    problem_options: dict
    algo: AlgoConfig
    trials: int
    base_seed: int
    output_dir: Path
    emit: EmitFlags = field(default_factory=EmitFlags)
    noise_kind: str = "gaussian"
    budget_cap: int | None = None
    residual_mc: int = 2048
    label: str = ""
    plan_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials: must be a positive integer")
        self.output_dir = Path(self.output_dir)


_UNICYCLE_KEYS = {
    "horizon",
    "dt",
    "start",
    "goal",
    "obstacle_center",
    "obstacle_radius",
    "initial_gain",
    "v_max",
    "omega_max",
    "error_feedback",
}
_PROBLEM_EXTRA_KEYS = {"name", "noise_sigma", "lipschitz", "grad_lower", "box_halfwidth"}


def build_problem(name: str, options: dict) -> ProblemSpec:
    """Instantiate a benchmark from its config section."""
    options = dict(options)
    if name == "unicycle":
        unknown = set(options) - _UNICYCLE_KEYS - _PROBLEM_EXTRA_KEYS
        if unknown:
            raise ConfigError(f"problem: unknown unicycle option(s) {sorted(unknown)}")
        geo = {k: options[k] for k in _UNICYCLE_KEYS if k in options}
        for key in ("start", "goal", "obstacle_center"):
            if key in geo:
                geo[key] = tuple(float(v) for v in geo[key])
        if "initial_gain" in geo:
            geo["initial_gain"] = np.asarray(geo["initial_gain"], dtype=float)
        try:
            cfg = UnicycleConfig(**geo)
            return make_unicycle_problem(
                cfg,
                noise_sigma=float(options.get("noise_sigma", 1e-4)),
                lipschitz=float(options.get("lipschitz", 130.0)),
                grad_lower=float(options.get("grad_lower", 1.0)),
                box_halfwidth=float(options.get("box_halfwidth", 0.15)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem: {exc}") from exc
    if name in analytic_names():
        unknown = set(options) - {"name", "noise_sigma"}
        if unknown:
            raise ConfigError(f"problem: unknown option(s) {sorted(unknown)} for {name}")
        return analytic_problem(name, noise_sigma=float(options.get("noise_sigma", 0.01)))
    raise ConfigError(
        f"problem.name: unknown problem {name!r}; choose 'unicycle' or one of "
        f"{', '.join(analytic_names())}"
    )


_ALGO_KEYS = {
    "eta",
    "delta",
    "max_iters",
    "n_policy",
    "n_fixed",
    "n_cap",
    "nu_policy",
    "C_override",
    "margin_policy",
    "seed",
}


def _parse_algo(section: dict) -> AlgoConfig:
    unknown = set(section) - _ALGO_KEYS
    if unknown:
        raise ConfigError(f"algo: unknown option(s) {sorted(unknown)}")
    try:
        return AlgoConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"algo: {exc}") from exc


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Validate a parsed config mapping; error messages carry field paths."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = expand_preset(data)
    problem = data.get("problem")
    if not isinstance(problem, dict) or "name" not in problem:
        raise ConfigError("problem: required section with a 'name' key")
    algo = data.get("algo")
    if not isinstance(algo, dict):
        raise ConfigError("algo: required section")
    emit_raw = data.get("emit", {})
    if not isinstance(emit_raw, dict):
        raise ConfigError("emit: must be a mapping of flags")
    unknown_emit = set(emit_raw) - {"trace_csv", "audit_csv", "summary_json"}
    if unknown_emit:
        raise ConfigError(f"emit: unknown flag(s) {sorted(unknown_emit)}")
    known_top = {
        "preset",
        "problem",
        "algo",
        "trials",
        "base_seed",
        "output_dir",
        "emit",
        "noise_kind",
        "budget_cap",
        "residual_mc",
        "label",
        "plan",
    }
    unknown_top = set(data) - known_top
    if unknown_top:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown_top)}")
    try:
        trials = int(data.get("trials", 1))
        base_seed = int(data.get("base_seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"trials/base_seed: {exc}") from exc
    noise_kind = data.get("noise_kind", "gaussian")
    if noise_kind not in ("gaussian", "bounded-uniform", "none"):
        raise ConfigError(f"noise_kind: invalid value {noise_kind!r}")
    budget_cap = data.get("budget_cap")
    if budget_cap is not None:
        budget_cap = int(budget_cap)
    # Build once here so bad problem/algo sections fail at parse time.
    build_problem(problem["name"], problem)
    return ExperimentConfig(
        problem_name=problem["name"],
        problem_options={k: v for k, v in problem.items() if k != "name"},
        algo=_parse_algo(algo),
        trials=trials,
        base_seed=base_seed,
        output_dir=Path(data.get("output_dir", "out")),
        emit=EmitFlags(**{k: bool(v) for k, v in emit_raw.items()}),
        noise_kind=noise_kind,
        budget_cap=budget_cap,
        residual_mc=int(data.get("residual_mc", 2048)),
        label=str(data.get("label", "") or problem["name"]),
        plan_options=dict(data.get("plan", {}) or {}),
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# "unicycle-paper": the controller benchmark at eta = 0.001, L = 40,
# n_k = 7, K = 500 with the adaptive sampling radius. The geometry
# (start/goal/obstacle/horizon), sigma = 1e-4, l = 1, and error feedback
# are this repo's documented defaults; override any of them in the config.
PRESETS: dict[str, dict] = {
    "unicycle-paper": {
        "label": "unicycle-paper",
        "problem": {
            "name": "unicycle",
            "noise_sigma": 1e-4,
            "lipschitz": 40.0,
            "grad_lower": 1.0,
            "horizon": 30,
            "dt": 0.1,
            "start": [0.0, 0.0, 0.0],
            "goal": [4.0, 4.0, 0.0],
            "obstacle_center": [2.0, 2.0],
            "obstacle_radius": 1.0,
            "error_feedback": True,
        },
        "algo": {
            "eta": 0.001,
            "delta": 0.05,
            "max_iters": 500,
            "n_policy": "fixed",
            "n_fixed": 7,
            "nu_policy": "adaptive",
            "margin_policy": "halt",
        },
        "trials": 20,
        "base_seed": 2026,
        "output_dir": "out/unicycle-paper",
    },
    "linear-ball-demo": {
        "label": "linear-ball-demo",
        "problem": {"name": "linear-ball", "noise_sigma": 0.01},
        "algo": {
            "eta": 0.05,
            "delta": 0.05,
            "max_iters": 2000,
            "n_policy": "fixed",
            "n_fixed": 16,
            "nu_policy": "adaptive",
            "margin_policy": "halt",
        },
        "trials": 10,
        "base_seed": 7,
        "output_dir": "out/linear-ball-demo",
    },
}


def expand_preset(data: dict) -> dict:
    """Merge user keys over the named preset (sections merge shallowly)."""
    name = data.get("preset")
    if name is None:
        return data
    if name not in PRESETS:
        raise ConfigError(
            f"preset: unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in PRESETS[name].items()}
    for key, value in data.items():
        if key == "preset":
            continue
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    merged["preset"] = name
    return merged


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


@dataclass
class TrialSummary:
    trial: int
    seed: int
    iterations: int
    final_objective: float
    best_objective: float
    x_r: list | None
    lambda_r: float | None
    residual_feasibility: float | None
    residual_complementarity: float | None
    residual_stationarity: float | None
    violation_count: int
    total_scalar_calls: int
    total_directions: int
    wall_time: float
    halted_reason: str | None
    halted_at: int | None = None


@dataclass
class RunSummary:
    label: str
    trials: list[TrialSummary]
    aggregate: dict

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "trials": [dataclasses.asdict(t) for t in self.trials],
            "aggregate": dict(self.aggregate),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        return cls(
            label=data["label"],
            trials=[TrialSummary(**t) for t in data["trials"]],
            aggregate=dict(data["aggregate"]),
        )


def _atomic_write(path: Path, writer) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def write_trace_csv(result: RunResult, problem: ProblemSpec, path: Path) -> None:
    """Trace as CSV with ground-truth objective/constraint columns.

    Bytes match `csv.writer` output: CRLF line ends, floats as `repr`."""
    dim = problem.dim
    header = (
        ["k"]
        + [f"x{i}" for i in range(dim)]
        + ["alpha_hat", "g_norm", "gamma_k", "weight", "true_objective", "true_max_constraint"]
    )
    columns = []
    if result.trace:
        points = np.stack([r.x for r in result.trace])
        values = problem.evaluate_all(points)
        steps = np.array(
            [(r.alpha_hat, r.g_norm, r.gamma, r.weight) for r in result.trace], dtype=float
        )
        columns = [
            map(str, [r.k for r in result.trace]),
            *(map(repr, col) for col in points.T.tolist()),
            *(map(repr, col) for col in steps.T.tolist()),
            map(repr, values[:, 0].tolist()),
            map(repr, values[:, 1:].max(axis=1).tolist()),
        ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def run_trial(
    problem: ProblemSpec, cfg: ExperimentConfig, trial: int
) -> tuple[RunResult, TrialSummary]:
    """One seeded independent run; trial t uses seed base_seed + t."""
    seed = cfg.base_seed + trial
    oracle = MeasurementOracle(
        problem,
        NoiseModel(kind=cfg.noise_kind, sigma=problem.noise_sigma, master_seed=seed),
        budget_cap=cfg.budget_cap,
    )
    algo = dataclasses.replace(cfg.algo, seed=seed)
    t0 = time.perf_counter()
    result = run(problem, algo, oracle)
    wall = time.perf_counter() - t0

    final_obj = problem.objective_value(result.x_final)
    best_obj = final_obj
    if result.trace:
        points = np.stack([r.x for r in result.trace])
        best_obj = min(best_obj, float(problem.objective_batch(points).min()))
    x_r = lam_r = None
    res = (None, None, None)
    if result.certificate is not None:
        cert = result.certificate
        x_r = [float(v) for v in cert.x]
        lam_r = float(cert.lambda_scalar)
        if cfg.residual_mc > 0:
            nu_r = result.trace[cert.iteration - 1].nu
            triple = kkt_residuals(
                problem, cert, nu_r, n_mc=cfg.residual_mc, rng=(seed, DOMAIN_MC, 1)
            )
            result.residuals = triple
            cert.stationarity_norm = float(triple.stationarity)
            res = (float(triple[0]), float(triple[1]), float(triple[2]))
    audit = result.audit
    summary = TrialSummary(
        trial=trial,
        seed=seed,
        iterations=len(result.trace),
        final_objective=final_obj,
        best_objective=best_obj,
        x_r=x_r,
        lambda_r=lam_r,
        residual_feasibility=res[0],
        residual_complementarity=res[1],
        residual_stationarity=res[2],
        violation_count=audit.violation_count,
        total_scalar_calls=audit.total_scalar_calls,
        total_directions=audit.total_directions,
        wall_time=wall,
        halted_reason=result.halted_reason,
        halted_at=result.halted_at,
    )
    return result, summary


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Execute all trials, persist trace/audit/summary files, return the summary."""
    problem = build_problem(cfg.problem_name, cfg.problem_options)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    for t in range(cfg.trials):
        result, summary = run_trial(problem, cfg, t)
        if cfg.emit.trace_csv:
            _atomic_write(
                out / f"trial{t:03d}_trace.csv",
                lambda p, r=result: write_trace_csv(r, problem, p),
            )
        if cfg.emit.audit_csv:
            _atomic_write(
                out / f"trial{t:03d}_audit.csv",
                lambda p, r=result: write_audit_csv(r.audit, p),
            )
        summaries.append(summary)
    finals = [s.final_objective for s in summaries]
    aggregate = {
        "objective_median": float(np.median(finals)),
        "objective_min": float(np.min(finals)),
        "objective_max": float(np.max(finals)),
        "total_violations": int(sum(s.violation_count for s in summaries)),
        "trials": len(summaries),
    }
    run_summary = RunSummary(label=cfg.label, trials=summaries, aggregate=aggregate)
    if cfg.emit.summary_json:
        _atomic_write(
            out / "summary.json",
            lambda p: Path(p).write_text(json.dumps(run_summary.to_dict(), indent=2) + "\n"),
        )
    return run_summary


# ---------------------------------------------------------------------------
# Property verification suites
# ---------------------------------------------------------------------------


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""


def containment_violations(result: RunResult, lipschitz: float, rel_tol: float = 1e-9) -> int:
    """Count consecutive steps violating |x_{k+1} - x_k| <= alpha_k / (2 L k^(2/5))."""
    bad = 0
    trace = result.trace
    for i in range(len(trace) - 1):
        rec = trace[i]
        step = float(np.linalg.norm(trace[i + 1].x - rec.x))
        if rec.frozen:
            if step != 0.0:
                bad += 1
            continue
        bound = rec.alpha_hat / (2.0 * lipschitz * rec.k ** (2.0 / 5.0))
        if step > bound * (1.0 + rel_tol):
            bad += 1
    return bad


def check_estimator_unbiasedness(
    seed: int = 20260809,
    n_estimates: int = 100_000,
    nu: float = 0.1,
    sigma: float = 0.1,
) -> list[PropertyCheck]:
    """Single-sample gradient estimates of f(x) = |x|^2 at x = (1, 0).

    For quadratics the smoothed gradient equals the true gradient, so the
    estimate mean must sit within 3 empirical standard errors of (2, 0),
    and the mean squared deviation must respect the
    (d^2/n) * (L^2 + 2 sigma^2 / nu^2) bound with n = 1 per estimate.
    All n_estimates single-sample estimates share one measurement batch:
    each (direction, base, perturbed) triple is an independent n = 1
    estimator, so the batch's per-sample terms are the estimates, and
    their mean is the solver's estimate for the batch with eta = 0 (the
    objective term alone).
    """
    problem = analytic_problem("sphere-quadratic", noise_sigma=sigma)
    oracle = MeasurementOracle(
        problem, NoiseModel(kind="gaussian", sigma=sigma, master_seed=seed)
    )
    x = problem.safe_start
    d = problem.dim
    directions = sphere_sample(d, n_estimates, substream(seed, DOMAIN_MC, 0))
    base = oracle.measure_base(x, n_estimates, iteration=1)
    pert = oracle.measure_perturbed(x, directions, nu, iteration=1)
    diffs = (pert[:, 0] - base[:, 0]) / nu
    terms = d * diffs[:, None] * directions  # (n, d) single-sample estimates
    target = np.array([2.0, 0.0])
    mean = barrier_estimate(base, pert, directions, nu, eta=0.0, alpha=1.0)
    se = terms.std(axis=0, ddof=1) / math.sqrt(n_estimates)
    gap = np.abs(mean - target) / se
    deviations = np.sum((terms - target) ** 2, axis=1)
    bound = d**2 * (problem.lipschitz**2 + 2.0 * sigma**2 / nu**2)
    return [
        PropertyCheck(
            name="estimator-unbiasedness/mean-within-3se",
            passed=bool(np.all(gap <= 3.0)),
            statistic=float(gap.max()),
            threshold=3.0,
            detail=f"mean={mean.tolist()}, se={se.tolist()}",
        ),
        PropertyCheck(
            name="estimator-unbiasedness/deviation-second-moment",
            passed=bool(deviations.mean() <= bound),
            statistic=float(deviations.mean()),
            threshold=float(bound),
            detail=f"n=1 per estimate, nu={nu}, sigma={sigma}",
        ),
    ]


def check_coverage(
    seed: int = 20260809,
    repeats: int = 10_000,
    n: int = 10,
    delta_bar: float = 0.1,
    sigma: float = 1.0,
    nu: float = 0.01,
) -> list[PropertyCheck]:
    """Confidence-bound coverage under gaussian noise.

    Part 1: the scalar upper bound covers the true value in at least a
    1 - delta_bar fraction of seeded repeats (minus 3-sigma binomial
    slack). Part 2: on linear-ball at the center, the certified margin
    never exceeds min(|fc_nu|, |fc|) more often than that; repeats where
    the margin is exhausted make no claim and count as covered.
    """
    rng = substream(seed, DOMAIN_MC, 1)
    slack = 3.0 * math.sqrt(delta_bar * (1.0 - delta_bar) / repeats)
    threshold = 1.0 - delta_bar - slack
    inflation = sigma / math.sqrt(n) * math.sqrt(math.log(1.0 / delta_bar))

    true_value = 0.7
    means = true_value + rng.normal(0.0, sigma, size=(repeats, n)).mean(axis=1)
    covered = float(np.mean(true_value <= means + inflation))

    problem = analytic_problem("linear-ball")
    x = np.zeros(2)
    fc = problem.max_constraint(x)  # -1 exactly
    # Smoothed max-constraint at the center, analytically:
    # E|x + nu*b|^2 - 1 = nu^2 * d/(d+2) - 1 for the uniform unit ball.
    fc_nu = nu**2 * 2.0 / 4.0 - 1.0
    limit = min(abs(fc_nu), abs(fc))
    sample_means = fc + rng.normal(0.0, sigma, size=(repeats, n)).mean(axis=1)
    fhat_c_nu = sample_means + inflation + nu * problem.lipschitz
    alpha = -fhat_c_nu
    margin_covered = float(np.mean((fhat_c_nu >= 0.0) | (alpha <= limit)))

    return [
        PropertyCheck(
            name="coverage/upper-bound",
            passed=covered >= threshold,
            statistic=covered,
            threshold=float(threshold),
            detail=f"{repeats} repeats, n={n}, delta_bar={delta_bar}",
        ),
        PropertyCheck(
            name="coverage/margin-lower-bound",
            passed=margin_covered >= threshold,
            statistic=margin_covered,
            threshold=float(threshold),
            detail=f"limit={limit:.6g} on linear-ball at the center",
        ),
    ]


_SMOOTHING_BENCHMARKS = (
    "linear-ball",
    "quadratic-halfspace",
    "smooth-2con",
    "sphere-quadratic",
)


def check_smoothing_properties(
    seed: int = 20260809,
    n_points: int = 100,
    n_mc: int = 30_000,
    nu: float = 0.2,
) -> list[PropertyCheck]:
    """Smoothed-function properties on every analytic benchmark.

    Over n_points random box points (pairs for the gradient-Lipschitz
    property), with all tolerances in measured standard errors:
      value bias    |f_nu(x) - f(x)| <= nu*L + 4*SE
      gradient norm |grad f_nu(x)|  <= L + 4*SE
      smoothness    |grad f_nu(x) - grad f_nu(y)| <= (sqrt(d)*L/nu)|x-y| + 8*SE
    """
    checks = []
    for bench_idx, bench in enumerate(_SMOOTHING_BENCHMARKS):
        problem = analytic_problem(bench)
        L = problem.lipschitz
        d = problem.dim
        lo, hi = problem.box
        # Shrink the sampling region so displaced points stay inside the
        # box where the declared L holds.
        lo_s, hi_s = lo + nu, hi - nu
        rng = substream(seed, DOMAIN_MC, 2, bench_idx)
        fields = (problem.objective_batch, problem.max_constraint_batch)

        worst_bias = -math.inf
        worst_norm = -math.inf
        for _ in range(n_points):
            x = rng.uniform(lo_s, hi_s)
            fb = fields[int(rng.uniform() < 0.5)]
            sv = smoothed_value(fb, x, nu, n_mc, rng)
            fx = float(fb(x[None, :])[0])
            worst_bias = max(
                worst_bias, abs(sv.value - fx) - (nu * L + 4.0 * sv.std_err_value)
            )
            sg = smoothed_gradient(fb, x, nu, n_mc, rng)
            worst_norm = max(
                worst_norm, float(np.linalg.norm(sg.grad)) - (L + 4.0 * sg.std_err_grad)
            )
        worst_lip = -math.inf
        m_nu = math.sqrt(d) * L / nu
        for _ in range(n_points):
            x = rng.uniform(lo_s, hi_s)
            y = rng.uniform(lo_s, hi_s)
            fb = fields[int(rng.uniform() < 0.5)]
            gx = smoothed_gradient(fb, x, nu, n_mc, rng)
            gy = smoothed_gradient(fb, y, nu, n_mc, rng)
            allowance = m_nu * float(np.linalg.norm(x - y)) + 8.0 * max(
                gx.std_err_grad, gy.std_err_grad
            )
            worst_lip = max(
                worst_lip, float(np.linalg.norm(gx.grad - gy.grad)) - allowance
            )
        checks.extend(
            [
                PropertyCheck(
                    name=f"smoothing/{bench}/value-bias",
                    passed=worst_bias <= 0.0,
                    statistic=worst_bias,
                    threshold=0.0,
                    detail=f"max |f_nu - f| excess over nu*L + 4*SE, nu={nu}",
                ),
                PropertyCheck(
                    name=f"smoothing/{bench}/gradient-norm",
                    passed=worst_norm <= 0.0,
                    statistic=worst_norm,
                    threshold=0.0,
                    detail="max |grad f_nu| excess over L + 4*SE",
                ),
                PropertyCheck(
                    name=f"smoothing/{bench}/gradient-lipschitz",
                    passed=worst_lip <= 0.0,
                    statistic=worst_lip,
                    threshold=0.0,
                    detail="max gradient-difference excess over (sqrt(d)L/nu)|x-y| + 8*SE",
                ),
            ]
        )
    return checks


def check_output_law(
    seed: int = 20260809, draws: int = 100_000, weights: tuple = (1.0, 2.0, 3.0, 4.0)
) -> list[PropertyCheck]:
    """Chi-square goodness of fit of output sampling against its weights."""
    rng = substream(seed, DOMAIN_MC, 3)
    w = np.asarray(weights, dtype=float)
    counts = np.zeros(w.size)
    for _ in range(draws):
        counts[select_output(w, rng) - 1] += 1
    expected = w / w.sum() * draws
    stat, pvalue = stats.chisquare(counts, expected)
    return [
        PropertyCheck(
            name="output-law/chi-square",
            passed=bool(pvalue > 0.001),
            statistic=float(pvalue),
            threshold=0.001,
            detail=f"chi2={float(stat):.3f} over {draws} draws, weights={list(weights)}",
        )
    ]


def check_safety_containment(seed: int = 20260809) -> list[PropertyCheck]:
    """Short noisy run: zero ground-truth violations and every step inside
    its alpha_k / (2 L k^(2/5)) containment bound."""
    problem = analytic_problem("linear-ball", noise_sigma=0.01)
    cfg = AlgoConfig(
        eta=0.05,
        max_iters=400,
        delta=0.05,
        n_policy="fixed",
        n_fixed=8,
        nu_policy="adaptive",
        seed=seed,
    )
    oracle = MeasurementOracle(
        problem, NoiseModel(kind="gaussian", sigma=0.01, master_seed=seed)
    )
    result = run(problem, cfg, oracle)
    bad_steps = containment_violations(result, problem.lipschitz)
    return [
        PropertyCheck(
            name="safety/zero-violations",
            passed=result.audit.violation_count == 0,
            statistic=float(result.audit.violation_count),
            threshold=0.0,
            detail=f"{len(result.audit)} audited points",
        ),
        PropertyCheck(
            name="safety/step-containment",
            passed=bad_steps == 0,
            statistic=float(bad_steps),
            threshold=0.0,
            detail=f"{len(result.trace)} recorded iterations",
        ),
    ]


SUITES = {
    "estimator-unbiasedness": check_estimator_unbiasedness,
    "coverage": check_coverage,
    "smoothing": check_smoothing_properties,
    "output-law": check_output_law,
    "safety-containment": check_safety_containment,
}


def verify_properties(suite: str, **kwargs) -> list[PropertyCheck]:
    """Run one named property suite; raises UnknownSuiteError otherwise."""
    try:
        fn = SUITES[suite]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}"
        ) from None
    return fn(**kwargs)
