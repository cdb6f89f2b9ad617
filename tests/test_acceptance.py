"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s / on
failure) and asserts the criterion. Expensive run bundles are shared
module-scoped fixtures.
"""

import csv
import time
from types import SimpleNamespace

import numpy as np
import pytest

from zobarrier.harness import (
    _fork_map,
    build_problem,
    check_coverage,
    check_estimator_unbiasedness,
    check_output_law,
    check_smoothing_properties,
    config_from_mapping,
    containment_violations,
    run_experiment,
)
from zobarrier.oracle import MeasurementOracle, NoiseModel
from zobarrier.problems import analytic_problem
from zobarrier.smoothing import smoothed_value
from zobarrier.solver import (
    AlgoConfig,
    certificate_from_record,
    kkt_residuals,
    resolve_sample_count,
    run,
)
from zobarrier.streams import DOMAIN_MC, substream


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared run bundles
# ---------------------------------------------------------------------------


def trace_from_csv(path):
    """The trace records of a trace CSV, with the fields containment_violations
    reads; the CSV holds each float at full round-trip precision."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    coords = [name for name in rows[0] if name.startswith("x")]
    trace = [
        SimpleNamespace(
            k=int(row["k"]),
            x=np.array([float(row[name]) for name in coords]),
            alpha_hat=float(row["alpha_hat"]),
        )
        for row in rows
    ]
    return SimpleNamespace(trace=trace)


@pytest.fixture(scope="module")
def unicycle_bundle(tmp_path_factory):
    # The paper preset as `zobarrier run` executes it.
    out = tmp_path_factory.mktemp("unicycle-paper")
    cfg = config_from_mapping(
        {"preset": "unicycle-paper", "residual_mc": 0, "output_dir": str(out)}
    )
    problem = build_problem(cfg.problem_name, cfg.problem_options)
    baseline = problem.objective_value(problem.safe_start)
    t0 = time.perf_counter()
    summaries = run_experiment(cfg).trials
    elapsed = time.perf_counter() - t0
    return dict(
        problem=problem,
        baseline=baseline,
        results=[trace_from_csv(out / f"trial{t:03d}_trace.csv") for t in range(cfg.trials)],
        summaries=summaries,
        elapsed=elapsed,
    )


def seeded_run(problem, cfg, seed):
    """One run whose oracle has seed `seed`, as a trial of that seed runs."""
    oracle = MeasurementOracle(problem, NoiseModel(kind="gaussian", sigma=0.01, master_seed=seed))
    return run(problem, cfg, oracle)


@pytest.fixture(scope="module")
def ball_bundle():
    problem = analytic_problem("linear-ball", noise_sigma=0.01)
    eta = 0.05
    cfg = AlgoConfig(
        eta=eta,
        delta=0.05,
        max_iters=2000,
        n_policy="fixed",
        n_fixed=16,
        nu_policy="adaptive",
    )
    seeds = range(7, 17)
    results = _fork_map(lambda seed: seeded_run(problem, cfg, seed), seeds)
    return dict(problem=problem, eta=eta, seeds=seeds, results=results)


@pytest.fixture(scope="module")
def margin_bundle():
    problem = analytic_problem("smooth-2con", noise_sigma=0.01)
    eta = 0.3
    cfg = AlgoConfig(
        eta=eta,
        delta=0.1,
        max_iters=40,
        n_policy="theoretical",
        n_cap=2048,
        nu_policy="fixed",
    )
    results = _fork_map(lambda seed: seeded_run(problem, cfg, seed), range(500, 550))
    C = problem.grad_lower**2 / (8.0 * problem.lipschitz**2)
    return dict(problem=problem, eta=eta, C=C, cfg=cfg, results=results)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_reproduction_safety(unicycle_bundle):
    violations = [s.violation_count for s in unicycle_bundle["summaries"]]
    elapsed = unicycle_bundle["elapsed"]
    ok = all(v == 0 for v in violations) and elapsed < 60.0
    report(
        "1 reproduction-safety",
        ok,
        f"violations per trial {sorted(set(violations))}, 20 trials in {elapsed:.1f}s",
    )


def test_criterion_02_reproduction_budget(unicycle_bundle):
    directions = {s.total_directions for s in unicycle_bundle["summaries"]}
    report("2 reproduction-budget", directions == {3500}, f"total_directions={directions}")


def test_criterion_03_reproduction_improvement(unicycle_bundle):
    baseline = unicycle_bundle["baseline"]
    finals = [s.final_objective for s in unicycle_bundle["summaries"]]
    improved = sum(f < baseline for f in finals)
    report(
        "3 reproduction-improvement",
        improved >= 18,
        f"{improved}/20 improved vs baseline {baseline:.4f}; "
        f"median final {np.median(finals):.4f}",
    )


def test_criterion_04_estimator_unbiasedness():
    checks = check_estimator_unbiasedness(n_estimates=100_000, nu=0.1, sigma=0.1)
    for check in checks:
        report(
            f"4 {check.name}",
            check.passed,
            f"statistic={check.statistic:.6g} threshold={check.threshold:.6g}",
        )


def test_criterion_05_smoothing_properties():
    checks = check_smoothing_properties(n_points=100, n_mc=30_000)
    for check in checks:
        report(
            f"5 {check.name}",
            check.passed,
            f"worst excess={check.statistic:.6g}",
        )


def test_criterion_06_confidence_coverage():
    checks = check_coverage(repeats=10_000, n=10, delta_bar=0.1, sigma=1.0)
    for check in checks:
        report(
            f"6 {check.name}",
            check.passed,
            f"coverage={check.statistic:.4f} >= {check.threshold:.4f}",
        )


def test_criterion_07_safety_margin(margin_bundle, caplog):
    C, eta = margin_bundle["C"], margin_bundle["eta"]
    floor = C * eta
    held = sum(
        all(rec.alpha_hat >= floor for rec in result.trace)
        and result.halted_reason is None
        for result in margin_bundle["results"]
    )
    # The theoretical sample bound is astronomically above the cap here;
    # the run uses the largest feasible n_k and logs a warning.
    with caplog.at_level("WARNING"):
        n_used = resolve_sample_count(margin_bundle["problem"], margin_bundle["cfg"])
    warned = any("exceeds cap" in rec.message for rec in caplog.records)
    report(
        "7 safety-margin",
        held >= 48 and warned and n_used == 2048,
        f"margin alpha>=C*eta={floor:.5f} held in {held}/50 runs; cap warning={warned}",
    )


def test_criterion_08_convergence_quality(ball_bundle):
    problem, eta = ball_bundle["problem"], ball_bundle["eta"]
    complementarities, ratios, finals, violations = [], [], [], 0
    for seed, result in zip(ball_bundle["seeds"], ball_bundle["results"]):
        assert result.certificate is not None
        cert = result.certificate
        violations += result.audit.violation_count
        finals.append(problem.objective_value(result.x_final))
        nu_r = result.trace[cert.iteration - 1].nu
        fc_nu, _ = smoothed_value(
            problem.max_constraint_batch,
            cert.x,
            nu_r,
            200_000,
            substream(seed, DOMAIN_MC, 101),
        )
        complementarities.append(cert.lambda_scalar * (-fc_nu))
        # linear-ball has analytic gradients, so the residuals draw nothing from rng.
        rng = substream(seed, DOMAIN_MC, 1)
        r_out = kkt_residuals(problem, cert, nu_r, rng)
        cert0 = certificate_from_record(result.trace[0], eta)
        r_start = kkt_residuals(problem, cert0, result.trace[0].nu, rng)
        ratios.append(r_start.stationarity / max(r_out.stationarity, 1e-300))
    comp_median = float(np.median(complementarities))
    ratio_median = float(np.median(ratios))
    final_median = float(np.median(finals))
    optimum = problem.solution["objective_star"]
    report(
        "8a complementarity",
        comp_median <= 3.0 * eta,
        f"median lambda_R*(-fc_nu(x_R))={comp_median:.4f} <= {3.0 * eta:.2f}",
    )
    report(
        "8b stationarity-decrease",
        ratio_median >= 5.0,
        f"median start/output residual ratio={ratio_median:.2f} >= 5",
    )
    report(
        "8c objective-gap",
        final_median <= optimum + 5.0 * eta and violations == 0,
        f"median final={final_median:.4f} vs optimum {optimum} + 5*eta="
        f"{optimum + 5 * eta:.2f}; violations={violations}",
    )


def test_criterion_09_step_containment(unicycle_bundle, ball_bundle, margin_bundle):
    bad = 0
    total = 0
    for bundle in (unicycle_bundle, ball_bundle, margin_bundle):
        L = bundle["problem"].lipschitz
        for result in bundle["results"]:
            bad += containment_violations(result, L)
            total += max(len(result.trace) - 1, 0)
    report("9 step-containment", bad == 0, f"{bad} violations across {total} steps")


def test_criterion_10_output_law():
    checks = check_output_law(draws=100_000, weights=(1.0, 2.0, 3.0, 4.0))
    check = checks[0]
    report(
        "10 output-law",
        check.passed,
        f"chi-square p={check.statistic:.4f} > {check.threshold}",
    )


def test_criterion_11_determinism(tmp_path):
    overrides = {
        "preset": "unicycle-paper",
        "trials": 1,
        "residual_mc": 0,
        "algo": {"max_iters": 120},
    }
    cfg_a = config_from_mapping({**overrides, "output_dir": str(tmp_path / "a")})
    cfg_b = config_from_mapping({**overrides, "output_dir": str(tmp_path / "b")})
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    same = all(
        (cfg_a.output_dir / name).read_bytes() == (cfg_b.output_dir / name).read_bytes()
        for name in ("trial000_trace.csv", "trial000_audit.csv")
    )
    report("11 determinism", same, "trace and audit files byte-identical across reruns")
