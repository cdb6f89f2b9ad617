"""Noisy measurement oracle with budget accounting and a safety audit.

The oracle is the only channel through which the solver sees a problem:
it serves F_i(x, xi) = f_i(x) + xi with fresh noise per scalar value,
counts every call against an optional budget cap, and records a
ground-truth audit of every queried point: its true objective and
max-constraint. The audit uses the problem's exact evaluator -- a
test-harness privilege the solver never gets. A measurement is audited,
then refused with NonFiniteMeasurementError if its true values are not
finite and with UnsafeQueryError if a point is truly infeasible
(observations exist only at feasible points); a diverged simulation is
audited with NaN true values (flagged) and its DivergedTrajectoryError
re-raised.

A noise table is a pure function of (master_seed, iteration, side,
rows, cols), never of call order, so identical query sequences from two
oracles with equal seeds are bitwise identical and a noise table may be
served in any order. The oracle also draws the solver's directions, keyed
by the same seed, and measures only along the table it served last: its
rows are unit vectors by construction. Tables are paged
(`streams.TablePages`) over immutable buffers: one generator serves
several consecutive iterations' tables. The audit is the log of the
queries in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import (
    BudgetExhaustedError,
    ContractViolationError,
    DivergedTrajectoryError,
    NonFiniteMeasurementError,
    UnsafeQueryError,
)
from .estimator import sphere_sample
from .problems import ProblemSpec, constraint_max
# `substream` stays importable here: perfbench's tracer wraps it at every
# module that bound it, this one included.
from .streams import DOMAIN_DIRECTIONS, DOMAIN_NOISE, SIDE_BASE, SIDE_PERTURBED, TablePages
from .streams import substream  # noqa: F401

_KINDS = ("gaussian", "bounded-uniform")


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean sub-Gaussian measurement noise.

    gaussian: N(0, sigma^2); bounded-uniform: U[-sigma*sqrt(3),
    sigma*sqrt(3)] (variance sigma^2). Both are sub-Gaussian with
    variance proxy sigma^2, the sigma `estimator.confidence_bounds`
    assumes. sigma = 0 means exact values.
    Frozen, because the pages it keeps were drawn with its fields.
    """

    kind: str = "gaussian"
    sigma: float = 0.0
    master_seed: int = 0
    # The pages of each side, SIDE_BASE and SIDE_PERTURBED.
    _pages: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractViolationError(f"noise kind must be one of {_KINDS}")
        if self.sigma < 0.0:
            raise ContractViolationError("sigma must be nonnegative")
        self._pages[:] = TablePages(self._fill), TablePages(self._fill)

    def _fill(self, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size=(rows, cols))
        half = self.sigma * math.sqrt(3.0)
        return rng.uniform(-half, half, size=(rows, cols))

    def draw(self, iteration: int, side: int, rows: int, cols: int) -> np.ndarray:
        """Noise table for (iteration, side), read-only; entry [j, i] is the
        draw for sample j, function i. A pure function of (master_seed,
        iteration, side, rows, cols), paged by `streams.TablePages`: with
        per_page = max(1, PAGE_VALUES // (rows * cols)) and page, slot =
        divmod(iteration, per_page), the table is rows slot * rows :
        (slot + 1) * rows of the (per_page * rows, cols) table read in row
        order from substream(master_seed, DOMAIN_NOISE, page,
        side + 2 * rows * cols). Tables of different value counts on one
        side never share values. Each side keeps its last page."""
        if self.sigma == 0.0:
            return np.broadcast_to(0.0, (rows, cols))
        return self._pages[side].table(self.master_seed, DOMAIN_NOISE, iteration, side, rows, cols)


@dataclass
class SafetyAudit:
    """Ground-truth record of every point the oracle was queried at.

    Row r is one queried point: its iteration, side (SIDE_BASE or
    SIDE_PERTURBED), coordinates, true objective and true max-constraint
    (both NaN where the evaluation diverged). Rows are in query order;
    the solver's iteration k gives its base row x_k, then its perturbed
    rows j = 1..n. An oracle's audit holds read-only views of its log.
    """

    iterations: np.ndarray  # (P,) int
    sides: np.ndarray  # (P,) int
    points: np.ndarray  # (P, d)
    true_objective: np.ndarray  # (P,)
    true_max_constraint: np.ndarray  # (P,)
    total_scalar_calls: int = 0
    total_directions: int = 0

    def __len__(self) -> int:
        return self.iterations.shape[0]

    @property
    def violated(self) -> np.ndarray:
        """Per-row flag; a NaN or infinite true value counts as violated,
        because an unknown value is not a certificate of safety."""
        fc = self.true_max_constraint
        return ~(np.isfinite(fc) & (fc <= 0.0))


class MeasurementOracle:
    """Serves noisy measurements of one problem and audits every query.

    Value computation is pure given the stream key. The oracle is
    single-threaded. Its audit is one log of four columns (iteration,
    side, points, [true objective, true max-constraint]): each
    measurement writes its rows in place after the last, and a
    measurement that does not fit doubles the capacity (or grows it to
    fit). `audit` returns read-only views of the rows written so far.
    `directions` draws the solver's directions."""

    def __init__(self, problem: ProblemSpec, noise: NoiseModel, budget_cap: int | None = None):
        self.problem = problem
        self.noise = noise
        self.budget_cap = budget_cap
        self._log = [np.empty(0, np.int64), np.empty(0, np.int8)]  # iterations, sides
        self._log += [np.empty((0, problem.dim)), np.empty((0, 2))]  # points, truth
        self._rows = self._scalar_calls = self._directions = 0
        self._direction_pages = TablePages(lambda rng, rows, cols: sphere_sample(cols, rows, rng))
        self._served = None  # the table `directions` served last

    # -- accounting --------------------------------------------------------

    @property
    def total_scalar_calls(self) -> int:
        return self._scalar_calls

    @property
    def total_directions(self) -> int:
        return self._directions

    def _charge(self, scalar_calls: int, directions: int = 0) -> None:
        if self.budget_cap is not None and self._scalar_calls + scalar_calls > self.budget_cap:
            raise BudgetExhaustedError(
                f"budget cap {self.budget_cap} would be exceeded "
                f"({self._scalar_calls} used, {scalar_calls} requested)"
            )
        self._scalar_calls += scalar_calls
        self._directions += directions

    def reserve(self, rows: int) -> None:
        """Make room in the log for `rows` more rows, or as many as the budget
        cap still pays for (a row is charged m+1 scalar calls or more)."""
        if self.budget_cap is not None:
            m1 = self.problem.num_constraints + 1
            rows = min(rows, (self.budget_cap - self._scalar_calls) // m1)
        self._fit(self._rows + rows)

    def _fit(self, rows: int) -> None:
        """Grow the log to hold `rows` rows, at least doubling its capacity."""
        if rows > len(self._log[0]):
            grown = [np.empty((max(rows, 2 * len(a)), *a.shape[1:]), a.dtype) for a in self._log]
            for new, old in zip(grown, self._log):
                new[: self._rows] = old[: self._rows]
            self._log = grown

    def _log_rows(self, iteration: int, side: int, points: np.ndarray, true_vals: np.ndarray):
        """Write a measurement's rows after the last in the log, growing it where
        they do not fit; returns their truth rows [f0, max_i f_i] of `true_vals`."""
        lo, hi = self._rows, self._rows + len(points)
        self._fit(hi)
        ks, sides, logged, truth = self._log
        ks[lo:hi], sides[lo:hi], logged[lo:hi] = iteration, side, points
        if true_vals.shape[1] == 2:  # [f0, f1] is its own truth row: one contiguous copy
            truth[lo:hi] = true_vals
        else:
            truth[lo:hi, 0] = true_vals[:, 0]
            constraint_max(true_vals, out=truth[lo:hi, 1])
        self._rows = hi
        return truth[lo:hi]

    def _measure(self, iteration: int, side: int, points: np.ndarray, n: int, directions: int):
        """Charge, audit and serve one measurement: n noisy rows (n, m+1) of
        the true values at `points`, (1, d) for a base and (n, d) for a
        perturbed measurement.

        The rows are logged before any refusal, so refused points are
        still audited and flagged: a diverged evaluation is recorded with
        NaN true values and re-raised; non-finite values, then infeasible
        points, raise NonFiniteMeasurementError and UnsafeQueryError."""
        m1 = self.problem.num_constraints + 1
        self._charge(n * m1, directions)
        try:
            true_vals = self.problem.evaluate_all(points)
        except DivergedTrajectoryError:
            self._log_rows(iteration, side, points, np.full((len(points), 2), np.nan))
            raise
        truth = self._log_rows(iteration, side, points, true_vals)
        # np.count_nonzero is one C call; .any() and .all() are ufunc reductions.
        if np.count_nonzero(np.isfinite(true_vals)) < true_vals.size:
            raise NonFiniteMeasurementError(
                f"true values at iteration {iteration} are not all finite"
            )
        if np.count_nonzero(truth[:, 1] > 0.0):
            raise UnsafeQueryError(f"iteration {iteration} queried a truly infeasible point")
        return true_vals + self.noise.draw(iteration, side, n, m1)

    # -- measurement -------------------------------------------------------

    def _point(self, x) -> np.ndarray:
        """x as a float vector of the problem's dimension d; a point of another
        shape is refused, before anything is charged, drawn or audited."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.problem.dim,):
            raise ContractViolationError(
                f"query point must have {self.problem.dim} coordinates, got shape {x.shape}"
            )
        return x

    def measure_base(self, x: np.ndarray, n: int, iteration: int) -> np.ndarray:
        """n fresh noisy measurements of every function at x; (n, m+1)."""
        points = self._point(x)[None, :]
        if not all(map(math.isfinite, points.ravel().tolist())):
            raise ContractViolationError("query point must be finite")
        if n < 1:
            raise ContractViolationError("need n >= 1 base samples")
        return self._measure(iteration, SIDE_BASE, points, n, directions=0)

    def directions(self, iteration: int, n: int) -> np.ndarray:
        """The iteration's n unit directions in R^d, the one table `measure_perturbed`
        accepts until the next: (noise.master_seed, DOMAIN_DIRECTIONS, iteration, 0,
        n, d) of `streams.TablePages`, each page one `sphere_sample`."""
        if n < 1:
            raise ContractViolationError("need n >= 1 directions")
        key = (self.noise.master_seed, DOMAIN_DIRECTIONS, iteration, 0, n, self.problem.dim)
        self._served = self._direction_pages.table(*key)
        return self._served

    def measure_perturbed(
        self, x: np.ndarray, directions: np.ndarray, radius: float, iteration: int
    ) -> np.ndarray:
        """Noisy values at x + radius * s_j for each direction; (n, m+1).

        `directions` must be the table `directions()` served last: the same
        object, not a copy or a view of it."""
        x = self._point(x)
        if radius < 0.0:
            raise ContractViolationError("radius must be nonnegative")
        if directions is not self._served:
            raise ContractViolationError("directions must be the table directions() served last")
        n = len(directions)
        points = x[None, :] + radius * directions
        # Checking the displaced points also catches a NaN radius.
        if np.count_nonzero(np.isfinite(points)) < points.size:
            raise ContractViolationError("query points must be finite")
        return self._measure(iteration, SIDE_PERTURBED, points, n, directions=n)

    # -- audit ---------------------------------------------------------------

    def audit(self) -> SafetyAudit:
        """Complete audit so far, rows in query order: read-only views of
        the log's first rows, which later measurements never write."""
        views = [a[: self._rows] for a in self._log]
        for view in views:
            view.flags.writeable = False
        ks, sides, points, truth = views
        calls = self._scalar_calls, self._directions
        return SafetyAudit(ks, sides, points, truth[:, 0], truth[:, 1], *calls)


_TAGS = {SIDE_BASE: "base", SIDE_PERTURBED: "perturbed"}

# Float values formatted per CSV write, and per orjson call. At 25 bytes a
# value at most, plus row labels, a chunk's joined lines and orjson's
# buffer, which doubles as it fills, stay under the 128 KiB mmap threshold
# that `harness._pin_mmap_threshold` fixes: the heap serves them and reuses
# them from chunk to chunk, where a mapped block would be faulted in page
# by page and unmapped every time.
_CSV_CHUNK_VALUES = 4096
_ORJSON_VALUES = 2048


def float_rows(table: np.ndarray) -> list[str]:
    """The rows of a 2-D float table as strings: each row's values as
    `repr(float(v))`, joined by commas, formatted by orjson
    `_ORJSON_VALUES` values at a time.

    orjson prints the shortest decimal that round-trips (Ryu), byte for
    byte as `repr` does for 1e-4 <= |v| < 1e16 and for +-0.0. Outside
    that range it prints `null`, `0.00001` or `1e16` where `repr` prints
    `nan`/`inf`, `1e-05` or `1e+16`, so those values are replaced by
    their `repr` in their rows."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ContractViolationError("float_rows takes a 2-D array")
    if table.size == 0:
        return [""] * len(table)
    step, rows = max(1, _ORJSON_VALUES // table.shape[1]), []
    for lo in range(0, len(table), step):
        text = orjson.dumps(table[lo : lo + step], option=orjson.OPT_SERIALIZE_NUMPY)
        rows += text[2:-2].decode().split("],[")
    mag = np.abs(table)
    outside = ~(((mag >= 1e-4) & (mag < 1e16)) | (table == 0.0))
    at_rows, at_cols = np.nonzero(outside)
    fields = {r: rows[r].split(",") for r in at_rows.tolist()}
    for r, c, v in zip(at_rows.tolist(), at_cols.tolist(), table[outside].tolist()):
        fields[r][c] = repr(v)
    for r, row in fields.items():
        rows[r] = ",".join(row)
    return rows


def _separators(ks: np.ndarray, sides: np.ndarray, violated: np.ndarray) -> list[str]:
    """The text around the float fields of a chunk of audit rows: "k,tag,"
    before row 0, ",flag\r\nk,tag," between rows and ",flag\r\n" after the
    last. A measurement's rows share one label, so each separator is
    formatted once per run of equal (iteration, side) and flag."""
    new_run = (ks[1:] != ks[:-1]) | (sides[1:] != sides[:-1])
    starts = np.flatnonzero(np.concatenate(([True], new_run)))
    labels = [f"{k},{_TAGS[s]}," for k, s in zip(ks[starts].tolist(), sides[starts].tolist())]
    between = np.array([f",{flag}\r\n{label}" for label in labels for flag in "01"], dtype=object)
    flags = violated.view(np.int8)
    return [labels[0], *between[2 * new_run.cumsum() + flags[:-1]].tolist(), f",{flags[-1]}\r\n"]


def write_csv(path, header: list[str], columns: list[np.ndarray], separators) -> None:
    """CSV file of a header line, then the rows of `columns` side by side
    (a 1-D column is one field) formatted by `float_rows`: for a slice of
    rows, `separators(rows)` is the text before row 0's float fields,
    between each two rows' and after the last's. Rows are written
    max(1, _CSV_CHUNK_VALUES // fields) at a time, each chunk one join."""
    step = max(1, _CSV_CHUNK_VALUES // sum(math.prod(c.shape[1:]) for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), step):
            rows = slice(lo, lo + step)
            text = separators(rows)
            tokens = [""] * (2 * len(text) - 1)
            tokens[0::2] = text
            tokens[1::2] = float_rows(np.column_stack([c[rows] for c in columns]))
            fh.write("".join(tokens))


def write_audit_csv(audit: SafetyAudit, path) -> None:
    """Audit as CSV: k, tag, point components, true_fc, violated.

    Bytes match `csv.writer` output: CRLF line ends, floats as `repr`.
    Floats are formatted by `float_rows` (orjson for 1e-4 <= |v| < 1e16
    and +-0.0, `repr` elsewhere), in chunks of rows (`write_csv`)."""
    dim = audit.points.shape[1]
    header = ["k", "tag"] + [f"x{i}" for i in range(dim)] + ["true_fc", "violated"]
    violated = audit.violated
    write_csv(path, header, [audit.points, audit.true_max_constraint], lambda rows: _separators(
        audit.iterations[rows], audit.sides[rows], violated[rows]))
