import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from zobarrier.errors import (
    BudgetExhaustedError,
    ContractViolationError,
    DivergedTrajectoryError,
    NonFiniteMeasurementError,
    UnsafeQueryError,
)
from zobarrier.oracle import (
    _CSV_CHUNK_VALUES,
    MeasurementOracle,
    NoiseModel,
    SafetyAudit,
    float_rows,
    write_audit_csv,
)
from zobarrier.problems import ProblemSpec, UnicycleConfig, analytic_problem, make_unicycle_problem
from zobarrier.solver import AlgoConfig, run
from zobarrier.streams import PAGE_VALUES, SIDE_BASE, SIDE_PERTURBED


@pytest.fixture
def ball():
    return analytic_problem("linear-ball")


def make_oracle(problem, sigma=0.0, seed=0, cap=None):
    return MeasurementOracle(
        problem, NoiseModel(sigma=sigma, master_seed=seed), budget_cap=cap
    )


def measure_iteration(oracle, x, n, radius, iteration):
    """Directions, base and perturbed tables of one iteration, as the solver
    takes them: n directions served by `oracle.directions(iteration, n)`."""
    directions = oracle.directions(iteration, n)
    base = oracle.measure_base(x, n, iteration)
    return directions, base, oracle.measure_perturbed(x, directions, radius, iteration)


def test_zero_noise_returns_exact_values(ball):
    oracle = make_oracle(ball, sigma=0.0)
    x = np.array([0.3, -0.2])
    dirs, base, pert = measure_iteration(oracle, x, 1, 0.1, 1)
    assert base[0, 0] == 0.3 and base[0, 1] == x @ x - 1.0
    point = x + 0.1 * dirs[0]
    assert pert[0, 0] == point[0] and pert[0, 1] == pytest.approx(point @ point - 1.0, rel=1e-15)
    np.testing.assert_array_equal(pert, ball.evaluate_all(point[None, :]))


def test_identical_stream_key_identical_value(ball):
    a = make_oracle(ball, sigma=1.0, seed=9)
    x = np.array([0.1, 0.1])
    v1 = a.measure_base(x, 3, iteration=3)
    v2 = a.measure_base(x, 3, iteration=3)
    assert np.array_equal(v1, v2)


def test_measurement_order_independence(ball):
    # Noise and directions are keyed by the oracle's seed and the iteration,
    # not by call order: an oracle of equal seed measuring perturbed before
    # base and iteration 2 before 1 serves bitwise identical tables, and an
    # oracle of another seed serves other directions.
    oracle = make_oracle(ball, sigma=0.7, seed=5)
    other = make_oracle(ball, sigma=0.7, seed=5)
    x = np.array([0.2, 0.0])
    in_order = [measure_iteration(oracle, x, 4, 0.05, k) for k in (1, 2)]
    reversed_tables = {}
    for k in (2, 1):
        directions = other.directions(k, 4)
        pert = other.measure_perturbed(x, directions, 0.05, k)
        reversed_tables[k] = (directions, other.measure_base(x, 4, k), pert)
    reseeded = make_oracle(ball, sigma=0.7, seed=6)
    for k, tables in zip((1, 2), in_order):
        for table, again in zip(tables, reversed_tables[k]):
            assert np.array_equal(table, again)
        assert not np.intersect1d(reseeded.directions(k, 4), tables[0]).size


def test_batch_scalar_call_count(ball):
    oracle = make_oracle(ball)
    measure_iteration(oracle, np.zeros(2), 1, 0.1, 1)
    # n = 1, m = 1: two functions at two points.
    assert oracle.total_scalar_calls == 4
    assert oracle.total_directions == 1


def test_zero_radius_noise_still_independent(ball):
    # With radius 0 the perturbed points coincide with the base point but
    # the noise streams are keyed by side, so values differ when sigma > 0.
    oracle = make_oracle(ball, sigma=1.0, seed=4)
    _, base, pert = measure_iteration(oracle, np.zeros(2), 3, 0.0, 1)
    assert np.array_equal(oracle.audit().points, np.zeros((4, 2)))
    assert not np.allclose(base, pert)


def test_budget_replay_totals(ball):
    # n_k = 7 directions per iteration for K = 500 iterations.
    oracle = make_oracle(ball, sigma=0.1, seed=1)
    for k in range(1, 501):
        measure_iteration(oracle, np.zeros(2), 7, 0.01, k)
    assert oracle.total_directions == 3500
    assert oracle.total_scalar_calls == 500 * 2 * 7 * 2


def test_budget_cap(ball):
    oracle = make_oracle(ball, cap=10)
    oracle.measure_base(np.zeros(2), 4, iteration=1)  # 8 calls
    with pytest.raises(BudgetExhaustedError):
        oracle.measure_base(np.zeros(2), 2, iteration=2)  # would exceed 10


REFUSAL = r"^directions must be the table directions\(\) served last$"


def assert_locked(table):
    """Neither `table`, nor the page it was read from, nor any view of
    them can be unlocked or written through; returns the page."""
    kept = table.copy()
    views = [table, table[:], table[1:3], table.T, table.ravel()[1:7].reshape(3, 2)]
    page = table
    while isinstance(page.base, np.ndarray):
        page = page.base
        views.append(page)
    assert page.size == PAGE_VALUES  # the whole page the table was read from
    for view in views:
        with pytest.raises(ValueError):
            view.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.0
    np.testing.assert_array_equal(table, kept)
    return page


def test_a_noise_page_cannot_be_unlocked():
    # Noise pages are built as direction pages are. Unlocking a table's page
    # and writing it would change the table of every later iteration on it:
    # iterations 1 and 2 share page 0 of the 16 x 2 tables.
    noise = NoiseModel(sigma=1.0, master_seed=3)
    later = noise.draw(2, SIDE_BASE, 16, 2).copy()
    assert_locked(noise.draw(1, SIDE_BASE, 16, 2))
    assert_locked(noise.draw(1, SIDE_PERTURBED, 2048, 2))
    np.testing.assert_array_equal(noise.draw(2, SIDE_BASE, 16, 2), later)


def test_a_table_built_by_hand_is_refused(ball):
    # A table built by hand is refused whether or not its rows are unit
    # vectors, read-only or not, and so is a single direction not given
    # as a row: nothing is charged or audited.
    oracle = make_oracle(ball)
    oracle.directions(1, 1)
    for direction in ([1.0, 1.0], [0.5, 0.0], [0.0, 1.0 + 1e-10], [0.0, 1.0 - 1e-10], [0.0, 1.0]):
        table = np.array([direction])
        locked = table.copy()
        locked.flags.writeable = False
        for directions in (table, locked):
            with pytest.raises(ContractViolationError, match=REFUSAL):
                oracle.measure_perturbed(np.zeros(2), directions, 0.1, 1)
    for directions in (np.array([1.0, 0.0]), np.eye(2)):
        with pytest.raises(ContractViolationError, match=REFUSAL):
            oracle.measure_perturbed(np.zeros(2), directions, 0.1, 1)
    assert oracle.total_scalar_calls == oracle.total_directions == len(oracle.audit()) == 0


def test_only_the_table_served_last_is_measured_along(ball):
    # The table served last is measured along as it is: its rows are unit
    # vectors by construction. An earlier table is refused before and after
    # it, and so is every view of the table served last, even one over the
    # same rows of its page.
    oracle = make_oracle(ball)
    earlier = oracle.directions(1, 4)
    served = oracle.directions(2, 4)
    # Both tables are rows of page 0; rows 8-11 of the page are iteration 2's.
    rows = served.base.reshape(-1, 2)[8:12]
    assert np.array_equal(rows, served) and rows is not served
    for directions in (served[:], served[1:3], rows, earlier):
        with pytest.raises(ContractViolationError, match=REFUSAL):
            oracle.measure_perturbed(np.zeros(2), directions, 0.1, 2)
    assert oracle.total_scalar_calls == oracle.total_directions == len(oracle.audit()) == 0
    oracle.measure_perturbed(np.zeros(2), served, 0.1, 2)
    assert oracle.total_directions == 4 and len(oracle.audit()) == 4
    with pytest.raises(ContractViolationError, match=REFUSAL):
        oracle.measure_perturbed(np.zeros(2), earlier, 0.1, 3)
    assert oracle.total_directions == 4


def test_a_served_table_stays_locked_after_it_is_measured_along(ball):
    # No caller can make a direction page writable: a 16 x 2 table shares
    # its page with 127 others, and neither the table, nor its page, nor any
    # view of them can be unlocked, before or after it is measured along.
    oracle = make_oracle(ball)
    table = oracle.directions(5, 16)
    assert_locked(table)
    oracle.measure_perturbed(np.zeros(2), table, 0.1, 5)
    assert_locked(table)
    oracle.measure_perturbed(np.zeros(2), table, 0.1, 6)
    assert oracle.total_directions == 32


def test_a_table_with_a_page_to_itself_is_served_and_its_page_refused(ball):
    # 2048 rows of 2 values have a page to themselves, served as a view of
    # it: the table is measured along, its page cannot be unlocked, and the
    # page itself, though it holds the same values, is refused.
    oracle = make_oracle(ball)
    directions = oracle.directions(1, 2048)
    page = assert_locked(directions)
    assert directions.base is page and np.array_equal(page.reshape(2048, 2), directions)
    for other in (page.reshape(2048, 2), directions.copy()):
        with pytest.raises(ContractViolationError, match=REFUSAL):
            oracle.measure_perturbed(np.zeros(2), other, 0.1, 1)
    assert oracle.total_directions == 0
    oracle.measure_perturbed(np.zeros(2), directions, 0.1, 1)
    assert oracle.total_directions == 2048


def test_a_view_across_the_rows_of_a_served_page_is_refused(ball):
    # A view with the table's strides and columns that starts one value in:
    # each of its rows straddles two rows of the page. It is refused, and
    # it cannot be unlocked.
    oracle = make_oracle(ball)
    directions = oracle.directions(0, 4)
    oracle.measure_perturbed(np.zeros(2), directions, 0.1, 1)
    page = directions.base
    straddling = page[1 : 2 * 4 + 1].reshape(4, 2)
    assert straddling.base is page and straddling.strides == directions.strides
    with pytest.raises(ContractViolationError, match=REFUSAL):
        oracle.measure_perturbed(np.zeros(2), straddling, 0.1, 2)
    with pytest.raises(ValueError):
        straddling.flags.writeable = True
    assert oracle.total_directions == 4


def test_a_writable_copy_is_refused_on_every_call(ball):
    # A copy of the table served last, and a slice of it, are refused on
    # every call, before and after an edit; the table itself still serves.
    oracle = make_oracle(ball)
    served = oracle.directions(0, 4)
    copy = served.copy()
    assert copy.flags.writeable
    for k in (1, 2):
        for directions in (copy, copy[1:3]):
            with pytest.raises(ContractViolationError, match=REFUSAL):
                oracle.measure_perturbed(np.zeros(2), directions, 0.1, k)
        copy[2] *= 1.0 + 1e-10
    assert oracle.total_scalar_calls == oracle.total_directions == len(oracle.audit()) == 0
    oracle.measure_perturbed(np.zeros(2), served, 0.1, 3)
    assert oracle.total_directions == 4


@pytest.mark.parametrize("dim", [1, 2, 6])
def test_every_served_direction_is_a_unit_row(dim):
    # Each table of one page the solver reads, for n = 16 in R^dim, and a
    # table with a page to itself: every row has unit norm within 1e-12.
    problem = ProblemSpec(
        name="flat",
        dim=dim,
        num_constraints=1,
        eval_all=lambda points: np.full((len(points), 2), -1.0),
        lipschitz=1.0,
        grad_lower=1.0,
        noise_sigma=0.0,
        safe_start=np.zeros(dim),
    )
    oracle = make_oracle(problem)
    per_page = PAGE_VALUES // (16 * dim)
    tables = [(k, 16) for k in range(per_page)] + [(per_page, PAGE_VALUES)]
    for k, n in tables:
        directions = oracle.directions(k, n)
        assert directions.shape == (n, dim) and not directions.flags.writeable
        assert np.abs(np.linalg.norm(directions, axis=1) - 1.0).max() <= 1e-12
        oracle.measure_perturbed(np.zeros(dim), directions, 0.1, k)
    assert oracle.total_directions == 16 * per_page + PAGE_VALUES


def test_an_empty_direction_table_is_refused(ball):
    # As an empty base measurement is: nothing is drawn, charged or audited,
    # and the table served before stays the one measured along.
    oracle = make_oracle(ball)
    served = oracle.directions(1, 4)
    for n in (0, -1):
        with pytest.raises(ContractViolationError, match="^need n >= 1 directions$"):
            oracle.directions(2, n)
    for directions in (np.zeros((0, 2)), served[:0]):
        with pytest.raises(ContractViolationError, match="served last"):
            oracle.measure_perturbed(np.zeros(2), directions, 0.1, 1)
    assert oracle.total_scalar_calls == oracle.total_directions == len(oracle.audit()) == 0
    oracle.measure_perturbed(np.zeros(2), served, 0.1, 1)
    assert oracle.total_directions == 4


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("coordinate", [0, 1])
def test_a_non_finite_base_point_is_refused(ball, value, coordinate):
    oracle = make_oracle(ball)
    x = np.zeros(2)
    x[coordinate] = value
    with pytest.raises(ContractViolationError, match="^query point must be finite$"):
        oracle.measure_base(x, 3, iteration=1)
    assert oracle.total_scalar_calls == 0 and len(oracle.audit()) == 0


@pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], 0.5], ids=str)
def test_a_query_point_of_the_wrong_length_is_refused(ball, x):
    # linear-ball is in R^2: a point of any other shape is refused by both
    # measurements before anything is charged, drawn or audited, as a
    # non-finite point is; it is neither broadcast nor left to the evaluator.
    oracle = make_oracle(ball, sigma=1.0)
    served = oracle.directions(1, 4)
    with pytest.raises(ContractViolationError, match="^query point must have 2 coordinates"):
        oracle.measure_perturbed(np.array(x), served, 0.1, 1)
    with pytest.raises(ContractViolationError, match="^query point must have 2 coordinates"):
        oracle.measure_base(np.array(x), 2, 1)
    assert oracle.total_scalar_calls == oracle.total_directions == len(oracle.audit()) == 0
    assert oracle.noise._pages[SIDE_BASE]._page is None
    assert oracle.noise._pages[SIDE_PERTURBED]._page is None
    oracle.measure_perturbed(np.zeros(2), served, 0.1, 1)
    assert oracle.total_directions == 4 and len(oracle.audit()) == 4


def test_empty_audit(ball):
    audit = make_oracle(ball).audit()
    assert len(audit) == 0
    assert audit.points.shape == (0, 2)
    assert audit.violation_count == 0
    assert audit.total_scalar_calls == 0


def test_audit_records_violation(ball):
    # The oracle refuses a truly infeasible query, but only after auditing
    # it; a perturbed measurement is refused if any of its points is. From
    # (0.5, 0) at radius 0.6 seed 0's first direction leaves the unit ball
    # and its second does not.
    oracle = make_oracle(ball)
    with pytest.raises(UnsafeQueryError):
        oracle.measure_base(np.array([2.0, 0.0]), 1, iteration=1)
    dirs = oracle.directions(1, 2)
    x = np.array([0.5, 0.0])
    assert (np.linalg.norm(x + 0.6 * dirs, axis=1) > 1.0).tolist() == [True, False]
    with pytest.raises(UnsafeQueryError):
        oracle.measure_perturbed(x, dirs, 0.6, iteration=1)
    audit = oracle.audit()
    assert audit.violated.tolist() == [True, True, False]
    assert audit.true_max_constraint[0] == pytest.approx(3.0)


def test_audit_flags_a_point_that_violates_only_the_last_constraint():
    # (-0.5, 0) is inside smooth-2con's first disk and outside its second.
    oracle = make_oracle(analytic_problem("smooth-2con"))
    with pytest.raises(UnsafeQueryError):
        oracle.measure_base(np.array([-0.5, 0.0]), 1, iteration=1)
    assert oracle.audit().true_max_constraint.tolist() == [1.25]


def test_audit_covers_every_point_in_order(ball):
    oracle = make_oracle(ball, sigma=0.3, seed=2)
    x = np.zeros(2)
    tables = [measure_iteration(oracle, x, 3, 0.05, k)[0] for k in (1, 2)]
    audit = oracle.audit()
    assert len(audit) == 2 * (1 + 3)
    assert audit.iterations.tolist() == [1] * 4 + [2] * 4
    assert audit.sides.tolist() == ([SIDE_BASE] + [SIDE_PERTURBED] * 3) * 2
    for k, dirs in enumerate(tables):
        assert np.allclose(audit.points[4 * k], x)
        for j in range(3):
            assert np.allclose(audit.points[4 * k + 1 + j], x + 0.05 * dirs[j])


def test_audit_determinism(ball):
    def run_queries(oracle):
        for k in range(1, 4):
            measure_iteration(oracle, np.zeros(2), 2, 0.1, k)
        return oracle.audit()

    a = run_queries(make_oracle(ball, sigma=0.5, seed=33))
    b = run_queries(make_oracle(ball, sigma=0.5, seed=33))
    assert a.total_scalar_calls == b.total_scalar_calls
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.true_max_constraint, b.true_max_constraint)


@pytest.mark.parametrize(
    "problem",
    [
        analytic_problem("linear-ball", noise_sigma=0.01),
        analytic_problem("smooth-2con", noise_sigma=0.01),
        make_unicycle_problem(lipschitz=40.0),
    ],
    ids=["linear-ball", "smooth-2con", "unicycle"],
)
def test_audit_true_values_are_the_evaluated_rows(problem):
    # Each measurement is evaluated once, as its own batch; one batch of
    # every audited point gives the same values bit for bit.
    oracle = make_oracle(problem, sigma=problem.noise_sigma, seed=5)
    cfg = AlgoConfig(eta=0.01, max_iters=15, n_policy="fixed", n_fixed=7)
    assert run(problem, cfg, oracle).halted_reason is None
    audit = oracle.audit()
    values = problem.evaluate_all(audit.points)
    assert len(audit) == 15 * (1 + 7)
    np.testing.assert_array_equal(audit.true_objective, values[:, 0])
    np.testing.assert_array_equal(audit.true_max_constraint, values[:, 1:].max(axis=1))


def test_an_audit_is_a_read_only_view_that_later_measurements_leave_as_it_is(ball):
    # The log grows in place; an audit taken before it grows keeps its
    # rows, and neither audit can be written through.
    oracle = make_oracle(ball)
    tables = [measure_iteration(oracle, np.zeros(2), 3, 0.05, 1)[0]]
    first = oracle.audit()
    columns = ("iterations", "sides", "points", "true_objective", "true_max_constraint")
    kept = {name: getattr(first, name).copy() for name in columns}
    xs = [np.array([0.01 * k, -0.02 * k]) for k in range(2, 40)]
    for k, x in enumerate(xs, start=2):
        tables.append(measure_iteration(oracle, x, 3, 0.05, k)[0])
    wide = oracle.directions(40, 1000)
    oracle.measure_perturbed(np.zeros(2), wide, 0.05, 40)
    second = oracle.audit()
    assert not np.shares_memory(first.points, second.points)  # the log grew
    for name in columns:
        np.testing.assert_array_equal(getattr(first, name), kept[name])
        for audit in (first, second):
            assert not getattr(audit, name).flags.writeable
            with pytest.raises(ValueError):
                getattr(audit, name)[0] = 1
    # The second audit's rows are every query in order, the first's leading.
    points = [np.zeros((1, 2)), 0.05 * tables[0]]
    for x, dirs in zip(xs, tables[1:]):
        points += [x[None, :], x[None, :] + 0.05 * dirs]
    points.append(0.05 * wide)
    np.testing.assert_array_equal(second.points, np.concatenate(points))
    assert second.iterations.tolist() == [k for k in range(1, 40) for _ in range(4)] + [40] * 1000
    sides = [SIDE_BASE, *[SIDE_PERTURBED] * 3] * 39 + [SIDE_PERTURBED] * 1000
    assert second.sides.tolist() == sides
    values = ball.evaluate_all(second.points)
    np.testing.assert_array_equal(second.true_objective, values[:, 0])
    np.testing.assert_array_equal(second.true_max_constraint, values[:, 1])
    assert len(second) == 39 * 4 + 1000 and second.total_scalar_calls == 2 * (39 * 6 + 1000)


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
    # At radius 0.4 seed 113's three directions reach x0 < -0.3 (NaN),
    # x0 > 0.3 (-inf) and neither, in that order.
    oracle = make_oracle(non_finite_problem(), seed=113)
    with pytest.raises(NonFiniteMeasurementError):
        oracle.measure_base(np.array([-0.5, 0.0]), 1, iteration=1)
    points = 0.4 * oracle.directions(1, 3)
    assert points[0, 0] < -0.3 and points[1, 0] > 0.3 and abs(points[2, 0]) <= 0.3
    with pytest.raises(NonFiniteMeasurementError):
        oracle.measure_perturbed(np.zeros(2), oracle.directions(1, 3), 0.4, iteration=1)
    audit = oracle.audit()
    assert audit.violated.tolist() == [True, True, True, False]
    assert audit.violation_count == 3
    write_audit_csv(audit, tmp_path / "audit.csv")
    rows = (tmp_path / "audit.csv").read_text().splitlines()[1:]
    assert [r.split(",")[-2:] for r in rows] == [
        ["nan", "1"],
        ["nan", "1"],
        ["-inf", "1"],
        [repr(float(points[2, 0] + points[2, 1] - 1.0)), "0"],
    ]


def test_diverged_measurement_is_audited_and_flagged(tmp_path):
    # Unbounded inputs and a radius of 1e200: along any direction the
    # displaced point's trajectory overflows at step 2. The queried point
    # is charged, audited with a NaN true value (so flagged) and the
    # error still reaches the caller, where `run` halts "diverged".
    cfg = UnicycleConfig(start=(1.0, 0.0, 0.0), v_max=math.inf, omega_max=math.inf)
    oracle = make_oracle(make_unicycle_problem(cfg))
    x = oracle.problem.safe_start
    oracle.measure_base(x, 2, iteration=1)
    direction = oracle.directions(1, 1)
    with pytest.raises(DivergedTrajectoryError) as exc:
        oracle.measure_perturbed(x, direction, 1e200, iteration=1)
    assert exc.value.step == 2
    assert oracle.total_scalar_calls == 3 * 31
    audit = oracle.audit()
    assert len(audit) == 2
    assert audit.sides.tolist() == [SIDE_BASE, SIDE_PERTURBED]
    np.testing.assert_array_equal(audit.points[1], x + 1e200 * direction[0])
    assert math.isnan(audit.true_max_constraint[1]) and math.isnan(audit.true_objective[1])
    assert audit.true_objective[0] == oracle.problem.objective_value(x)
    assert audit.violated.tolist() == [False, True]
    write_audit_csv(audit, tmp_path / "audit.csv")
    last = (tmp_path / "audit.csv").read_text().splitlines()[-1]
    assert last.startswith("1,perturbed,") and last.endswith(",nan,1")


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
    exact = ball.eval_all

    def diverging(points):
        if (points[:, 1] > 5.0).any():
            raise DivergedTrajectoryError(3)
        return exact(points)

    ball = dataclasses.replace(ball, noise_sigma=0.1, eval_all=diverging)
    oracle = make_oracle(ball, sigma=0.1, seed=4)
    run(ball, AlgoConfig(eta=0.05, max_iters=4, n_policy="fixed", n_fixed=3), oracle)
    # Signed zero, exponent notation, a large iteration index and a violation.
    oracle.measure_base(np.array([-0.0, 1e-05]), 1, iteration=10**12)
    tiny = oracle.directions(10**12, 1)
    oracle.measure_perturbed(np.array([2.5e-7, -0.0]), tiny, 1e-05, iteration=10**12)
    with pytest.raises(UnsafeQueryError):
        oracle.measure_base(np.array([2.0, 0.0]), 1, iteration=10**12 + 1)
    # A perturbed run across two boundaries of the writer's chunks (three
    # float fields a row) that ends a chunk past the second. From (0.9, 0)
    # at radius 0.2 a direction leaves the ball where s0 > 5/12, about a
    # third of the rows; at both boundaries seed 4's flag flips.
    chunk = max(1, _CSV_CHUNK_VALUES // 3)
    start = len(oracle.audit())
    boundary = (start // chunk + 2) * chunk
    dirs = oracle.directions(7, boundary + chunk - start)
    with pytest.raises(UnsafeQueryError):
        oracle.measure_perturbed(np.array([0.9, 0.0]), dirs, 0.2, iteration=7)
    # A value of 1e16 or more, and a diverged row with NaN truth.
    with pytest.raises(UnsafeQueryError):
        oracle.measure_base(np.array([1e16, -2.5e17]), 1, iteration=8)
    with pytest.raises(DivergedTrajectoryError):
        oracle.measure_base(np.array([0.0, 6.0]), 1, iteration=9)
    audit = oracle.audit()
    long_run = np.flatnonzero(audit.iterations == 7)
    assert long_run[0] < boundary - chunk and long_run[-1] == boundary + chunk - 1
    outside = np.linalg.norm(audit.points[long_run], axis=1) > 1.0
    np.testing.assert_array_equal(audit.violated[long_run], outside)
    for row in (boundary - chunk, boundary):
        assert audit.violated[row] != audit.violated[row - 1]
    assert audit.violated[[long_run[0] - 1, -2, -1]].all()
    write_audit_csv(audit, tmp_path / "columnar.csv")
    legacy_audit_csv(audit, tmp_path / "legacy.csv")
    got = (tmp_path / "columnar.csv").read_bytes()
    assert got == (tmp_path / "legacy.csv").read_bytes()
    assert b"\r\n" in got and b"-0.0" in got and b"1e-05" in got and b"1000000000000" in got
    assert b"1e+16,-2.5e+17," in got and got.endswith(b"9,base,0.0,6.0,nan,1\r\n")


def test_empty_audit_csv_is_header_only(ball, tmp_path):
    write_audit_csv(make_oracle(ball).audit(), tmp_path / "audit.csv")
    assert (tmp_path / "audit.csv").read_bytes() == b"k,tag,x0,x1,true_fc,violated\r\n"


def test_float_rows_is_repr_byte_for_byte():
    # Pins orjson's formatting: an upgrade that changes it fails here
    # instead of changing the audit CSV. Random bit patterns cover
    # subnormals, huge values and NaN payloads; `repr` takes about 3 us on
    # such a value, so there are 200k of them. Each value is checked as a
    # one-column row; rows of four mix values orjson formats with ones it
    # does not.
    rng = np.random.default_rng(20261018)
    bit_patterns = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.float64)
    log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    powers = np.array([float(f"1e{e}") for e in range(-6, 19)])
    neighbours = [powers]
    for toward in (np.inf, 0.0):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, toward)
            neighbours.append(step)
    neighbours = np.concatenate(neighbours)
    max_float = np.finfo(np.float64).max
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, max_float, -max_float])
    for values in (bit_patterns, log_uniform, neighbours, -neighbours, specials):
        assert float_rows(values[:, None]) == list(map(repr, values.tolist()))
    mixed = rng.permutation(np.concatenate((log_uniform[:30_000], bit_patterns[:10_000])))
    for table in (mixed.reshape(-1, 4), rng.normal(size=(3, 1000)).T * 1e-3):
        assert float_rows(table) == [",".join(map(repr, row)) for row in table.tolist()]
    assert float_rows(np.zeros((0, 3))) == []
    with pytest.raises(ContractViolationError):
        float_rows(np.zeros(2))


def test_audit_csv_memory_is_bounded(tmp_path):
    # 100k rows in 50 measurements of 1 base + 1999 perturbed points. The
    # writer formats a bounded chunk of rows at a time, so its peak does
    # not grow with the audit.
    rng = np.random.default_rng(8)
    sides = np.full(2000, SIDE_PERTURBED, dtype=np.int8)
    sides[0] = SIDE_BASE
    audit = SafetyAudit(
        iterations=np.repeat(np.arange(1, 51, dtype=np.int64), 2000),
        sides=np.tile(sides, 50),
        points=rng.normal(size=(100_000, 2)),
        true_objective=rng.normal(size=100_000),
        true_max_constraint=rng.normal(size=100_000),
    )
    tracemalloc.start()
    try:
        write_audit_csv(audit, tmp_path / "audit.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert (tmp_path / "audit.csv").read_bytes().count(b"\r\n") == 1 + 100_000


def test_value_determinism_across_oracles(ball):
    a = make_oracle(ball, sigma=0.5, seed=33)
    b = make_oracle(ball, sigma=0.5, seed=33)
    _, base_a, pert_a = measure_iteration(a, np.zeros(2), 5, 0.1, 1)
    _, base_b, pert_b = measure_iteration(b, np.zeros(2), 5, 0.1, 1)
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
    served = oracle.directions(1, 1)
    with pytest.raises(ContractViolationError):
        oracle.measure_base(np.array([np.nan, 0.0]), 1, iteration=1)
    with pytest.raises(ContractViolationError, match="^query points must be finite$"):
        oracle.measure_perturbed(np.array([np.inf, 0.0]), served, 0.1, 1)
    with pytest.raises(ContractViolationError, match="^query points must be finite$"):
        oracle.measure_perturbed(np.zeros(2), served, np.nan, 1)
    assert oracle.total_scalar_calls == 0
    assert len(oracle.audit()) == 0
