import csv
import math

import numpy as np
import pytest

from zobarrier.errors import (
    BudgetExhaustedError,
    ContractViolationError,
    NonFiniteMeasurementError,
)
from zobarrier.estimator import sphere_sample
from zobarrier.oracle import MeasurementOracle, NoiseModel, write_audit_csv
from zobarrier.problems import ProblemSpec, analytic_problem
from zobarrier.solver import AlgoConfig, run
from zobarrier.streams import SIDE_BASE, SIDE_PERTURBED


@pytest.fixture
def ball():
    return analytic_problem("linear-ball")


def make_oracle(problem, sigma=0.0, seed=0, kind="gaussian", cap=None):
    return MeasurementOracle(
        problem, NoiseModel(kind=kind, sigma=sigma, master_seed=seed), budget_cap=cap
    )


def measure_iteration(oracle, x, directions, radius, iteration):
    """Base and perturbed tables of one iteration, as the solver takes them."""
    base = oracle.measure_base(x, len(directions), iteration)
    return base, oracle.measure_perturbed(x, directions, radius, iteration)


def test_zero_noise_returns_exact_values(ball):
    oracle = make_oracle(ball, sigma=0.0)
    x = np.array([0.3, -0.2])
    dirs = np.array([[1.0, 0.0]])
    base, pert = measure_iteration(oracle, x, dirs, 0.1, 1)
    assert base[0, 0] == 0.3 and base[0, 1] == x @ x - 1.0
    assert pert[0, 0] == 0.4 and pert[0, 1] == 0.4**2 + 0.2**2 - 1.0


def test_identical_stream_key_identical_value(ball):
    a = make_oracle(ball, sigma=1.0, seed=9)
    x = np.array([0.1, 0.1])
    v1 = a.measure_base(x, 3, iteration=3)
    v2 = a.measure_base(x, 3, iteration=3)
    assert np.array_equal(v1, v2)


def test_measurement_order_independence(ball):
    # Noise is keyed by (iteration, side, sample), not call order: an
    # oracle measuring perturbed before base and iteration 2 before 1
    # serves bitwise identical tables.
    oracle = make_oracle(ball, sigma=0.7, seed=5)
    other = make_oracle(ball, sigma=0.7, seed=5)
    x = np.array([0.2, 0.0])
    dirs = sphere_sample(2, 4, 11)
    in_order = [measure_iteration(oracle, x, dirs, 0.05, k) for k in (1, 2)]
    reversed_tables = {}
    for k in (2, 1):
        pert = other.measure_perturbed(x, dirs, 0.05, k)
        reversed_tables[k] = (other.measure_base(x, 4, k), pert)
    for k, (base, pert) in zip((1, 2), in_order):
        assert np.array_equal(base, reversed_tables[k][0])
        assert np.array_equal(pert, reversed_tables[k][1])
    a, b = oracle.audit(), other.audit()
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.samples, b.samples)


def test_batch_scalar_call_count(ball):
    oracle = make_oracle(ball)
    measure_iteration(oracle, np.zeros(2), sphere_sample(2, 1, 0), 0.1, 1)
    # n = 1, m = 1: two functions at two points.
    assert oracle.total_scalar_calls == 4
    assert oracle.total_directions == 1


def test_zero_radius_noise_still_independent(ball):
    # With radius 0 the perturbed points coincide with the base point but
    # the noise streams are keyed by side, so values differ when sigma > 0.
    oracle = make_oracle(ball, sigma=1.0, seed=4)
    base, pert = measure_iteration(oracle, np.zeros(2), sphere_sample(2, 3, 1), 0.0, 1)
    assert np.array_equal(oracle.audit().points, np.zeros((4, 2)))
    assert not np.allclose(base, pert)


def test_budget_replay_totals(ball):
    # n_k = 7 directions per iteration for K = 500 iterations.
    oracle = make_oracle(ball, sigma=0.1, seed=1)
    for k in range(1, 501):
        measure_iteration(oracle, np.zeros(2), sphere_sample(2, 7, k), 0.01, k)
    assert oracle.total_directions == 3500
    assert oracle.total_scalar_calls == 500 * 2 * 7 * 2


def test_budget_cap(ball):
    oracle = make_oracle(ball, cap=10)
    oracle.measure_base(np.zeros(2), 4, iteration=1)  # 8 calls
    with pytest.raises(BudgetExhaustedError):
        oracle.measure_base(np.zeros(2), 2, iteration=2)  # would exceed 10


def test_non_unit_direction_rejected(ball):
    oracle = make_oracle(ball)
    with pytest.raises(ContractViolationError):
        oracle.measure_perturbed(np.zeros(2), np.array([[1.0, 1.0]]), 0.1, 1)
    with pytest.raises(ContractViolationError):
        oracle.measure_perturbed(np.zeros(2), np.array([[0.5, 0.0]]), 0.1, 1)
    assert oracle.total_scalar_calls == 0


def test_empty_audit(ball):
    audit = make_oracle(ball).audit()
    assert len(audit) == 0
    assert audit.violation_count == 0
    assert audit.total_scalar_calls == 0


def test_audit_records_violation(ball):
    oracle = make_oracle(ball)
    oracle.measure_base(np.array([2.0, 0.0]), 1, iteration=1)  # truly infeasible point
    audit = oracle.audit()
    assert audit.violation_count == 1
    assert audit.true_max_constraint[0] == pytest.approx(3.0)


def test_audit_covers_every_point_in_order(ball):
    oracle = make_oracle(ball, sigma=0.3, seed=2)
    x = np.zeros(2)
    dirs = sphere_sample(2, 3, 7)
    measure_iteration(oracle, x, dirs, 0.05, 1)
    measure_iteration(oracle, x, dirs, 0.05, 2)
    audit = oracle.audit()
    assert len(audit) == 2 * (1 + 3)
    keys = list(zip(audit.iterations.tolist(), audit.sides.tolist(), audit.samples.tolist()))
    assert keys == sorted(keys)
    assert np.allclose(audit.points[0], x)
    for j in range(3):
        assert np.allclose(audit.points[1 + j], x + 0.05 * dirs[j])


def test_audit_determinism(ball):
    def run_queries(oracle):
        for k in range(1, 4):
            measure_iteration(oracle, np.zeros(2), sphere_sample(2, 2, k), 0.1, k)
        return oracle.audit()

    a = run_queries(make_oracle(ball, sigma=0.5, seed=33))
    b = run_queries(make_oracle(ball, sigma=0.5, seed=33))
    assert a.total_scalar_calls == b.total_scalar_calls
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.true_max_constraint, b.true_max_constraint)


def test_audit_sorts_out_of_order_scalar_calls(ball):
    oracle = make_oracle(ball)
    east = np.array([[1.0, 0.0]])
    oracle.measure_perturbed(np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1, 2)
    oracle.measure_perturbed(np.array([0.1, 0.0]), east, 0.1, 1)
    oracle.measure_base(np.array([0.2, 0.0]), 1, iteration=2)
    oracle.measure_base(np.array([0.3, 0.0]), 1, iteration=1)
    audit = oracle.audit()
    assert audit.iterations.tolist() == [1, 1, 2, 2, 2]
    assert audit.sides.tolist() == [
        SIDE_BASE, SIDE_PERTURBED, SIDE_BASE, SIDE_PERTURBED, SIDE_PERTURBED
    ]
    assert audit.samples.tolist() == [0, 1, 0, 1, 2]
    # Each point travels with its key.
    assert np.allclose(audit.points[:, 0], [0.3, 0.2, 0.2, 0.0, 0.1])


def test_audit_keeps_points_not_caller_arrays(ball):
    oracle = make_oracle(ball)
    x = np.array([0.1, 0.2])
    oracle.measure_base(x, 2, iteration=1)
    x[:] = 0.5
    assert np.array_equal(oracle.audit().points[0], [0.1, 0.2])


def non_finite_problem():
    """2-D problem whose constraint is NaN for x0 < -0.3 and -inf for
    x0 > 0.3: unknown values, not certificates of safety."""

    def eval_all(points):
        x0 = points[:, 0]
        con = np.where(x0 < -0.3, np.nan, np.where(x0 > 0.3, -np.inf, x0 + points[:, 1] - 1.0))
        return np.stack([np.sum(points * points, axis=1), con], axis=1)

    return ProblemSpec(
        name="non-finite",
        dim=2,
        num_constraints=1,
        eval_all=eval_all,
        lipschitz=2.0,
        grad_lower=1.0,
        noise_sigma=0.0,
        safe_start=np.zeros(2),
    )


def test_non_finite_true_value_counts_as_violation(tmp_path):
    # The oracle refuses both measurements, but only after auditing them.
    oracle = make_oracle(non_finite_problem())
    with pytest.raises(NonFiniteMeasurementError):
        oracle.measure_base(np.array([-0.5, 0.0]), 1, iteration=1)
    dirs = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteMeasurementError):
        oracle.measure_perturbed(np.zeros(2), dirs, 0.4, iteration=1)
    audit = oracle.audit()
    assert audit.violated.tolist() == [True, True, True, False]
    assert audit.violation_count == 3
    write_audit_csv(audit, tmp_path / "audit.csv")
    rows = (tmp_path / "audit.csv").read_text().splitlines()[1:]
    assert [r.split(",")[-2:] for r in rows] == [
        ["nan", "1"],
        ["nan", "1"],
        ["-inf", "1"],
        ["-0.6", "0"],
    ]


def legacy_audit_csv(audit, path):
    """The per-row csv.writer serialization the columnar writer replaces."""
    dim = audit.points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "tag"] + [f"x{i}" for i in range(dim)] + ["true_fc", "violated"])
        for k, side, point, fc in zip(
            audit.iterations, audit.sides, audit.points, audit.true_max_constraint
        ):
            writer.writerow(
                [int(k), "base" if side == SIDE_BASE else "perturbed"]
                + [repr(float(v)) for v in point]
                + [repr(float(fc)), int(not (math.isfinite(fc) and fc <= 0.0))]
            )


def test_audit_csv_matches_csv_writer_bytes(ball, tmp_path):
    oracle = make_oracle(ball, sigma=0.1, seed=3)
    run(ball, AlgoConfig(eta=0.05, max_iters=4, n_policy="fixed", n_fixed=3, seed=3), oracle)
    # Signed zero, exponent notation, a large iteration index and a violation.
    oracle.measure_base(np.array([-0.0, 1e-05]), 1, iteration=10**12)
    oracle.measure_perturbed(
        np.array([2.5e-7, -0.0]), np.array([[0.0, 1.0]]), 1e-05, iteration=10**12
    )
    oracle.measure_base(np.array([2.0, 0.0]), 1, iteration=10**12 + 1)
    audit = oracle.audit()
    assert audit.violation_count == 1
    write_audit_csv(audit, tmp_path / "columnar.csv")
    legacy_audit_csv(audit, tmp_path / "legacy.csv")
    got = (tmp_path / "columnar.csv").read_bytes()
    assert got == (tmp_path / "legacy.csv").read_bytes()
    assert b"\r\n" in got and b"-0.0" in got and b"1e-05" in got and b"1000000000000" in got


def test_empty_audit_csv_is_header_only(ball, tmp_path):
    write_audit_csv(make_oracle(ball).audit(), tmp_path / "audit.csv")
    assert (tmp_path / "audit.csv").read_bytes() == b"k,tag,true_fc,violated\r\n"


def test_value_determinism_across_oracles(ball):
    a = make_oracle(ball, sigma=0.5, seed=33)
    b = make_oracle(ball, sigma=0.5, seed=33)
    dirs = sphere_sample(2, 5, 3)
    base_a, pert_a = measure_iteration(a, np.zeros(2), dirs, 0.1, 1)
    base_b, pert_b = measure_iteration(b, np.zeros(2), dirs, 0.1, 1)
    assert np.array_equal(base_a, base_b)
    assert np.array_equal(pert_a, pert_b)


def test_gaussian_noise_statistics(ball):
    sigma = 0.8
    draws = NoiseModel(kind="gaussian", sigma=sigma, master_seed=6).draw(1, 0, 100_000, 1)
    assert abs(draws.mean()) < 4 * sigma / math.sqrt(draws.size)
    assert abs(draws.var() - sigma**2) < 0.05 * sigma**2


def test_bounded_uniform_noise_statistics(ball):
    sigma = 0.5
    draws = NoiseModel(kind="bounded-uniform", sigma=sigma, master_seed=6).draw(
        1, 0, 100_000, 1
    )
    half = sigma * math.sqrt(3.0)
    assert draws.min() >= -half and draws.max() <= half
    assert abs(draws.mean()) < 4 * sigma / math.sqrt(draws.size)
    assert abs(draws.var() - sigma**2) < 0.05 * sigma**2


def test_none_noise_kind(ball):
    oracle = make_oracle(ball, sigma=5.0, kind="none")
    assert np.array_equal(oracle.measure_base(np.zeros(2), 3, iteration=1), [[0.0, -1.0]] * 3)


def test_repeated_measurement_mean_concentrates(ball):
    # Mean of 10^4 unit-variance measurements lands within 3/sqrt(10^4)
    # of the true value in at least 99% of seeded trials (the seeds are
    # fixed, so this is a frozen statement about these 200 draws).
    x = np.array([0.25, 0.1])
    truth = ball.objective_value(x)
    hits = 0
    trials = 200
    for seed in range(trials):
        noise = NoiseModel(kind="gaussian", sigma=1.0, master_seed=seed)
        values = truth + noise.draw(0, SIDE_BASE, 10_000, 1)[:, 0]
        hits += abs(values.mean() - truth) <= 0.03
    assert hits / trials >= 0.99


def test_function_index_validated(ball):
    # Query points must be finite on both sides; on the perturbed side the
    # displaced points are checked, which also catches a NaN radius.
    oracle = make_oracle(ball)
    east = np.array([[1.0, 0.0]])
    with pytest.raises(ContractViolationError):
        oracle.measure_base(np.array([np.nan, 0.0]), 1, iteration=1)
    with pytest.raises(ContractViolationError):
        oracle.measure_perturbed(np.array([np.inf, 0.0]), east, 0.1, 1)
    with pytest.raises(ContractViolationError):
        oracle.measure_perturbed(np.zeros(2), east, np.nan, 1)
    assert oracle.total_scalar_calls == 0
    assert len(oracle.audit()) == 0
