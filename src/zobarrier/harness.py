"""Experiment harness: configs, presets, multi-trial runs, verification.

Reads a YAML experiment config (optionally expanded from a named
preset), executes seeded independent trials, persists per-trial trace
and audit CSVs plus one summary JSON (always all three), and hosts the
named property-verification suites that back the statistical claims
the solver relies on.

Each config section is checked by the dataclass or constructor it
builds (`_build`), whose fields or parameters are the accepted keys and
hold the defaults; anything else is a ConfigError naming the section.
"""

from __future__ import annotations

import ctypes
import dataclasses
import inspect
import json
import math
import os
import pickle
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ContractViolationError,
    DivergedTrajectoryError,
    MarginExhaustedError,
    UnknownSuiteError,
    ZobarrierError,
    require_integer,
)
from .estimator import confidence_bounds, margin
from .oracle import MeasurementOracle, NoiseModel, write_audit_csv, write_csv
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
from .streams import DOMAIN_MC, SIDE_BASE, substream

ENV_OUTPUT_DIR = "ZOBARRIER_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One experiment. Its fields are the config's top-level keys, except
    that the `problem` section is split into problem_name and
    problem_options. An `algo` mapping is built into an AlgoConfig."""

    problem_name: str
    problem_options: dict
    algo: AlgoConfig | dict
    trials: int = 1
    base_seed: int = 0
    output_dir: Path = Path("out")
    noise_kind: str = "gaussian"
    budget_cap: int | None = None
    residual_mc: int = 2048
    label: str = ""
    plan: dict = field(default_factory=dict)  # `zobarrier plan` inputs: d_f_estimate

    def __post_init__(self):
        lower = {"trials": 1, "base_seed": 0, "residual_mc": 0}
        if self.budget_cap is not None:
            lower["budget_cap"] = 1
        for key, low in lower.items():
            setattr(self, key, require_integer(key, getattr(self, key), low))
        NoiseModel(kind=self.noise_kind)  # rejects an unknown noise kind
        self.plan = {} if self.plan is None else self.plan
        if not isinstance(self.plan, dict) or set(self.plan) - {"d_f_estimate"}:
            raise ContractViolationError(f"plan: only d_f_estimate may be set, got {self.plan!r}")
        gap = self.plan.get("d_f_estimate")
        if isinstance(gap, (bool, str)):  # as `_build` refuses them for a number
            raise ContractViolationError(f"plan.d_f_estimate must be a number, got {gap!r}")
        self.plan = {key: float(value) for key, value in self.plan.items()}
        if not 0.0 <= self.plan.get("d_f_estimate", 0.0) < math.inf:
            raise ContractViolationError("plan.d_f_estimate must be finite and >= 0")
        self.output_dir = Path(self.output_dir)
        self.label = str(self.label or self.problem_name)
        if isinstance(self.algo, dict) and self.algo.get("margin_policy") == "halt":
            # The removed key's one value, which perfbench's smooth-2con-wide still sets.
            self.algo = {k: v for k, v in self.algo.items() if k != "margin_policy"}
        if not isinstance(self.algo, AlgoConfig):
            self.algo = _build(AlgoConfig, self.algo, "algo")


def _build(callee, section, where: str, **fixed):
    """callee(**section, **fixed) for one config section.

    A section may set the callee's dataclass fields or parameters, less
    the ones passed as `fixed`. Any other key, text or a boolean where the
    annotation is a number, and a TypeError/ValueError the callee raises
    on a value, become a ConfigError naming the section.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a mapping, got {section!r}")
    if dataclasses.is_dataclass(callee):
        types = {f.name: f.type for f in dataclasses.fields(callee)}
    else:
        types = {p.name: p.annotation for p in inspect.signature(callee).parameters.values()}
    unknown = set(section) - (set(types) - set(fixed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {sorted(unknown)}")
    for key, value in section.items():
        if types[key] not in ("int", "float", "int | None", "float | None"):
            continue
        if isinstance(value, bool):  # YAML reads yes, no, true and false as booleans
            raise ConfigError(f"{where}.{key}: {value!r} is a boolean, not a number")
        if isinstance(value, str):
            raise ConfigError(f"{where}.{key}: {value!r} is text, not a number (YAML reads a "
                              "float only with a dot and a signed exponent, e.g. 1.0e-4)")
    try:
        return callee(**section, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_problem(name: str, options: dict) -> ProblemSpec:
    """Instantiate a benchmark from its config section, less `name`: a
    unicycle section splits into UnicycleConfig and make_unicycle_problem."""
    if name == "unicycle":
        geometry = {f.name for f in dataclasses.fields(UnicycleConfig)}
        cfg = _build(UnicycleConfig, {k: v for k, v in options.items() if k in geometry}, "problem")
        rest = {k: v for k, v in options.items() if k not in geometry}
        return _build(make_unicycle_problem, rest, "problem", cfg=cfg)
    if name in analytic_names():
        return _build(analytic_problem, options, "problem", name=name)
    raise ConfigError(
        f"problem.name: unknown problem {name!r}; choose 'unicycle' or one of "
        f"{', '.join(analytic_names())}"
    )


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Validate a parsed config mapping; error messages name the section."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    top = {k: v for k, v in expand_preset(data).items() if k != "preset"}
    problem = top.pop("problem", None)
    if not isinstance(problem, dict) or "name" not in problem:
        raise ConfigError("problem: required section with a 'name' key")
    options = {k: v for k, v in problem.items() if k != "name"}
    # Build once here so a bad problem section fails at parse time.
    build_problem(problem["name"], options)
    return _build(
        ExperimentConfig, top, "top-level", problem_name=problem["name"], problem_options=options
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# "unicycle-paper": the controller benchmark at eta = 0.001, L = 40,
# n_k = 7, K = 500 with the adaptive sampling radius. The geometry
# (start/goal/obstacle/horizon), sigma = 1e-4 and l = 1 are the defaults
# of UnicycleConfig and make_unicycle_problem; override any in the config.
PRESETS: dict[str, dict] = {
    "unicycle-paper": {
        "label": "unicycle-paper",
        "problem": {"name": "unicycle", "lipschitz": 40.0},
        "algo": {
            "eta": 0.001,
            "delta": 0.05,
            "max_iters": 500,
            "n_policy": "fixed",
            "n_fixed": 7,
            "nu_policy": "adaptive",
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


def _atomic_write(path: Path, writer) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _iterate_truth(result: RunResult) -> tuple[np.ndarray, np.ndarray]:
    """True objective and max-constraint at each trace point, read from the
    audit: iteration k's base measurement queried x_k, so trace record k
    is the k-th SIDE_BASE row. A trace the audit does not cover raises."""
    audit = result.audit
    rows = np.flatnonzero(audit.sides == SIDE_BASE)[: len(result.trace)]
    if len(rows) < len(result.trace):
        raise ContractViolationError(
            f"trace has {len(result.trace)} records, the audit {len(rows)} base rows"
        )
    return audit.true_objective[rows], audit.true_max_constraint[rows]


def write_trace_csv(result: RunResult, path: Path) -> None:
    """Trace as CSV with ground-truth objective/constraint columns, which are
    the audit's base rows.

    Bytes match `csv.writer` output: CRLF line ends, floats as `repr`,
    formatted by `float_rows` (orjson for 1e-4 <= |v| < 1e16 and +-0.0,
    `repr` elsewhere) in chunks of rows, as the audit CSV is (`write_csv`)."""
    dim = len(result.x_final)
    header = (
        ["k"]
        + [f"x{i}" for i in range(dim)]
        + ["alpha_hat", "g_norm", "gamma_k", "weight", "true_objective", "true_max_constraint"]
    )
    trace = result.trace
    ks = [r.k for r in trace]
    x = np.array([r.x for r in trace]).reshape(len(ks), dim)
    steps = np.array([(r.alpha_hat, r.g_norm, r.gamma, r.weight) for r in trace]).reshape(-1, 4)
    write_csv(path, header, [x, steps, *_iterate_truth(result)], lambda rows: [
        f"{ks[rows.start]},", *[f"\r\n{k}," for k in ks[rows][1:]], "\r\n"])


def run_trial(
    problem: ProblemSpec, cfg: ExperimentConfig, trial: int
) -> tuple[RunResult, TrialSummary]:
    """One seeded run; trial t's oracle, which keys all its draws, has seed base_seed + t."""
    seed = cfg.base_seed + trial
    oracle = MeasurementOracle(
        problem,
        NoiseModel(kind=cfg.noise_kind, sigma=problem.noise_sigma, master_seed=seed),
        budget_cap=cfg.budget_cap,
    )
    t0 = time.perf_counter()
    result = run(problem, cfg.algo, oracle)
    wall = time.perf_counter() - t0

    try:
        final_obj = problem.objective_value(result.x_final)
    except DivergedTrajectoryError:  # x_final itself diverged: unknown, as in the audit
        final_obj = math.nan
    best_obj = final_obj
    if result.trace:
        best_obj = float(np.fmin(best_obj, _iterate_truth(result)[0].min()))
    x_r = lam_r = None
    res = (None, None, None)
    if result.certificate is not None:
        cert = result.certificate
        x_r = [float(v) for v in cert.x]
        lam_r = float(cert.lambda_scalar)
        if cfg.residual_mc > 0:
            nu_r = result.trace[cert.iteration - 1].nu
            res = kkt_residuals(
                problem, cert, nu_r, substream(seed, DOMAIN_MC, 1), n_mc=cfg.residual_mc
            )
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


def _worker_count(items: int) -> int:
    """Processes for `items` items: one per usable CPU, at most one per
    item, and 1 where fork or CPU affinity is unavailable or where other
    threads run (a forked child keeps only the forking thread, so a lock
    another thread held would never be released in it)."""
    if (
        items < 2
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items] for a sequence `items`, run in
    W = _worker_count(len(items)) processes.

    Share w is items w, w + W, w + 2W, ...: the caller runs share 0, and a
    forked helper runs each other share and pickles back (results,
    (index, error) | None) through a pipe. An error stops its share; once
    every share has ended, the lowest-index error is raised, and one that
    pickle cannot carry crosses as a ZobarrierError holding its traceback.
    Every helper is reaped, and killed if the caller is interrupted.
    """
    workers = _worker_count(len(items))

    def share(w):
        done = []
        for i in range(w, len(items), workers):
            try:
                done.append(fn(items[i]))
            except Exception as exc:
                return done, (i, exc)
        return done, None

    helpers = []
    try:
        for w in range(1, workers):
            sys.stdout.flush()  # or the helper would print the caller's buffered output again
            sys.stderr.flush()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if not pid:  # the helper: it never returns into the caller's stack
                try:
                    os.close(read_fd)
                    done, error = share(w)
                    try:
                        report = pickle.dumps((done, error))
                    except Exception:
                        i, exc = error
                        text = "".join(traceback.format_exception(exc)).rstrip()
                        report = pickle.dumps((done, (i, ZobarrierError(f"item {i}: {text}"))))
                    sys.stdout.flush()
                    sys.stderr.flush()
                    with open(write_fd, "wb") as fh:
                        fh.write(report)
                    os._exit(0)
                except BaseException:
                    traceback.print_exc()  # the caller learns only that no report came
                    sys.stderr.flush()
                finally:
                    os._exit(1)
            os.close(write_fd)
            helpers.append((pid, read_fd))
        reports = [share(0)]
        for pid, read_fd in helpers:
            with open(read_fd, "rb", closefd=False) as fh:
                data = fh.read()
            try:
                reports.append(pickle.loads(data))
            except Exception as exc:
                raise ZobarrierError(f"helper {pid} ended without a readable report") from exc
    except BaseException:
        from signal import SIGKILL  # only this path needs the module

        for pid, _ in helpers:  # none is reaped yet, so each pid is still its own
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, read_fd in helpers:
            os.close(read_fd)
            os.waitpid(pid, 0)
    errors = [error for _, error in reports if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return [reports[i % workers][0][i // workers] for i in range(len(items))]


# glibc's mallopt parameter number for the mmap threshold.
_M_MMAP_THRESHOLD = -3


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default, 128 KiB, in this process.

    Otherwise glibc raises the threshold to the size of each mapped block
    freed, up to 32 MiB. Once a run has freed a multi-megabyte block
    (the audit log as it grows, a read of the audit file), later blocks up
    to that size come from the heap, and how much of the heap stays
    resident depends on where its holes fell: the peak resident size of
    repeated smooth-2con-wide runs sat in two modes 2.6 MB apart, picked
    by details as small as the length of the output path. With the
    threshold fixed, each block of 128 KiB or more is mapped when
    allocated and returned when freed; the CSV writers keep their text
    blocks under it (`oracle._CSV_CHUNK_VALUES`). A C library without
    mallopt (not glibc) is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 128 * 1024)


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Execute all trials, persist trace/audit/summary files, return the summary.

    First fixes the process's mmap threshold (`_pin_mmap_threshold`), so
    that its resident size does not depend on heap layout.

    The trials run through `_fork_map`, each process writing its own
    trials' CSVs. Each trial's seed and streams are keyed by its index, so
    every output file is the same in any number of processes. If a trial
    fails, its error is raised and no summary.json is written. The
    objective median, min and max are over the trials that did not halt,
    None (null) when every trial halted.
    """
    _pin_mmap_threshold()
    problem = build_problem(cfg.problem_name, cfg.problem_options)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)

    def trial(t):
        result, summary = run_trial(problem, cfg, t)
        _atomic_write(
            cfg.output_dir / f"trial{t:03d}_trace.csv", lambda p: write_trace_csv(result, p)
        )
        _atomic_write(
            cfg.output_dir / f"trial{t:03d}_audit.csv", lambda p: write_audit_csv(result.audit, p)
        )
        return summary

    summaries = _fork_map(trial, range(cfg.trials))
    finals = [s.final_objective for s in summaries if s.halted_reason is None]
    aggregate = {
        "objective_median": float(np.median(finals)) if finals else None,
        "objective_min": min(finals, default=None),
        "objective_max": max(finals, default=None),
        "total_violations": int(sum(s.violation_count for s in summaries)),
        "trials": len(summaries),
    }
    run_summary = RunSummary(label=cfg.label, trials=summaries, aggregate=aggregate)
    _atomic_write(
        cfg.output_dir / "summary.json",
        lambda p: Path(p).write_text(json.dumps(dataclasses.asdict(run_summary), indent=2) + "\n"),
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
    directions = oracle.directions(1, n_estimates)
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

    def upper_bounds(true_value: float) -> np.ndarray:
        # One (n, 1 + repeats) base table: column 0 stands in for the
        # objective, column j holds repeat j's n noisy constraint values.
        noise = rng.normal(0.0, sigma, size=(repeats, n)).T
        table = np.hstack([np.zeros((n, 1)), true_value + noise])
        return confidence_bounds(table, sigma, delta_bar)

    true_value = 0.7
    covered = float(np.mean(true_value <= upper_bounds(true_value)))

    problem = analytic_problem("linear-ball")
    x = np.zeros(2)
    fc = problem.max_constraint(x)  # -1 exactly
    # Smoothed max-constraint at the center, analytically:
    # E|x + nu*b|^2 - 1 = nu^2 * d/(d+2) - 1 for the uniform unit ball.
    fc_nu = nu**2 * 2.0 / 4.0 - 1.0
    limit = min(abs(fc_nu), abs(fc))
    held = 0
    for max_fhat in upper_bounds(fc).tolist():  # one constraint: its bound is the max
        try:
            held += margin(max_fhat, nu * problem.lipschitz) <= limit
        except MarginExhaustedError:
            held += 1
    margin_covered = held / repeats

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
    The benchmarks run through `_fork_map`, each on its own stream, so
    the checks are the same, in benchmark order, in any number of processes.
    """

    def bench_checks(bench_idx):
        bench = _SMOOTHING_BENCHMARKS[bench_idx]
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
            value, value_se = smoothed_value(fb, x, nu, n_mc, rng)
            fx = float(fb(x[None, :])[0])
            worst_bias = max(worst_bias, abs(value - fx) - (nu * L + 4.0 * value_se))
            grad, grad_se = smoothed_gradient(fb, x, nu, n_mc, rng)
            worst_norm = max(worst_norm, float(np.linalg.norm(grad)) - (L + 4.0 * grad_se))
        worst_lip = -math.inf
        m_nu = math.sqrt(d) * L / nu
        for _ in range(n_points):
            x = rng.uniform(lo_s, hi_s)
            y = rng.uniform(lo_s, hi_s)
            fb = fields[int(rng.uniform() < 0.5)]
            gx, se_x = smoothed_gradient(fb, x, nu, n_mc, rng)
            gy, se_y = smoothed_gradient(fb, y, nu, n_mc, rng)
            allowance = m_nu * float(np.linalg.norm(x - y)) + 8.0 * max(se_x, se_y)
            worst_lip = max(worst_lip, float(np.linalg.norm(gx - gy)) - allowance)
        return [
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

    per_bench = _fork_map(bench_checks, range(len(_SMOOTHING_BENCHMARKS)))
    return [check for checks in per_bench for check in checks]


def check_output_law(
    seed: int = 20260809, draws: int = 100_000, weights: tuple = (1.0, 2.0, 3.0, 4.0)
) -> list[PropertyCheck]:
    """Chi-square goodness of fit of output sampling against its weights."""
    from scipy import stats  # about 1 s to import, and only this suite needs it

    rng = substream(seed, DOMAIN_MC, 3)
    w = np.asarray(weights, dtype=float)
    counts = [0] * w.size
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
