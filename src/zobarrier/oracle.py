"""Noisy measurement oracle with budget accounting and a safety audit.

The oracle is the only channel through which the solver sees a problem:
it serves F_i(x, xi) = f_i(x) + xi with fresh noise per scalar value,
counts every call against an optional budget cap, and records a
ground-truth feasibility audit of every queried point. The audit uses
the problem's exact evaluator -- a test-harness privilege the solver
never gets. A measurement whose true values are not finite is audited
and then refused with NonFiniteMeasurementError.

Noise draws are keyed by (master_seed, iteration, side, sample, function
index), never by call order, so identical query sequences from two
oracles with equal seeds are bitwise identical and base/perturbed halves
may be served in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, ContractViolationError, NonFiniteMeasurementError
from .problems import ProblemSpec
from .streams import DOMAIN_NOISE, SIDE_BASE, SIDE_PERTURBED, substream

_UNIT_NORM_TOL = 1e-12

_KINDS = ("gaussian", "bounded-uniform", "none")


@dataclass
class NoiseModel:
    """Zero-mean sub-Gaussian measurement noise.

    gaussian: N(0, sigma^2); bounded-uniform: U[-sigma*sqrt(3),
    sigma*sqrt(3)] (variance sigma^2); none: exact values.
    """

    kind: str = "gaussian"
    sigma: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractViolationError(f"noise kind must be one of {_KINDS}")
        if self.sigma < 0.0:
            raise ContractViolationError("sigma must be nonnegative")
        if self.kind == "none":
            # Consumers read sigma for their confidence bounds; a noiseless
            # model must report zero regardless of what was passed in.
            self.sigma = 0.0

    def draw(self, iteration: int, side: int, rows: int, cols: int) -> np.ndarray:
        """Noise table for (iteration, side); entry [j, i] is the draw for
        sample j, function i. Pure function of the key."""
        if self.kind == "none" or self.sigma == 0.0:
            return np.zeros((rows, cols))
        rng = substream(self.master_seed, DOMAIN_NOISE, iteration, side)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, size=(rows, cols))
        half = self.sigma * math.sqrt(3.0)
        return rng.uniform(-half, half, size=(rows, cols))


@dataclass
class SafetyAudit:
    """Ground-truth record of every point the oracle was queried at.

    Row r is one queried point: its iteration, side (SIDE_BASE or
    SIDE_PERTURBED), sample index (0 for the base point, 1..n for
    perturbed points), coordinates and true max-constraint value. Rows
    are in canonical (iteration, side, sample) order.
    """

    iterations: np.ndarray  # (P,) int
    sides: np.ndarray  # (P,) int
    samples: np.ndarray  # (P,) int
    points: np.ndarray  # (P, d)
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

    @property
    def violation_count(self) -> int:
        return int(np.count_nonzero(self.violated))


class MeasurementOracle:
    """Serves noisy measurements of one problem and audits every query.

    Value computation is pure given the stream key. The oracle is
    single-threaded: each measurement appends one chunk of audit columns
    (iteration, side, sample indices, points, true max-constraint), and
    `audit` reads them back in canonical (iteration, side, sample) order.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        noise: NoiseModel | None = None,
        budget_cap: int | None = None,
    ):
        self.problem = problem
        self.noise = noise if noise is not None else NoiseModel(
            kind="gaussian", sigma=problem.noise_sigma
        )
        self.budget_cap = budget_cap
        self._chunks: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]] = []
        self._scalar_calls = 0
        self._directions = 0

    # -- accounting --------------------------------------------------------

    @property
    def total_scalar_calls(self) -> int:
        return self._scalar_calls

    @property
    def total_directions(self) -> int:
        return self._directions

    def _charge(self, scalar_calls: int, directions: int = 0) -> None:
        if (
            self.budget_cap is not None
            and self._scalar_calls + scalar_calls > self.budget_cap
        ):
            raise BudgetExhaustedError(
                f"budget cap {self.budget_cap} would be exceeded "
                f"({self._scalar_calls} used, {scalar_calls} requested)"
            )
        self._scalar_calls += scalar_calls
        self._directions += directions

    def _record(
        self, iteration: int, side: int, samples: np.ndarray, points: np.ndarray, values: np.ndarray
    ) -> None:
        """Append one audit chunk, then refuse values that are not finite.

        `points` must not alias caller memory. The chunk is appended
        first so that the refused points are still audited (and flagged)."""
        self._chunks.append((iteration, side, samples, points, values[:, 1:].max(axis=1)))
        if not np.isfinite(values).all():
            raise NonFiniteMeasurementError(
                f"true values at iteration {iteration} are not all finite"
            )

    # -- measurement -------------------------------------------------------

    def measure_base(self, x: np.ndarray, n: int, iteration: int) -> np.ndarray:
        """n fresh noisy measurements of every function at x; (n, m+1)."""
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ContractViolationError("query point must be finite")
        if n < 1:
            raise ContractViolationError("need n >= 1 base samples")
        m1 = self.problem.num_constraints + 1
        self._charge(n * m1)
        true_vals = self.problem.evaluate_all(x[None, :])  # (1, m+1)
        self._record(iteration, SIDE_BASE, np.zeros(1, dtype=int), np.array(x, ndmin=2), true_vals)
        return true_vals + self.noise.draw(iteration, SIDE_BASE, n, m1)

    def measure_perturbed(
        self, x: np.ndarray, directions: np.ndarray, radius: float, iteration: int
    ) -> np.ndarray:
        """Noisy values at x + radius * s_j for each direction; (n, m+1)."""
        x = np.asarray(x, dtype=float)
        directions = np.asarray(directions, dtype=float)
        if radius < 0.0:
            raise ContractViolationError("radius must be nonnegative")
        norms = np.linalg.norm(directions, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
            raise ContractViolationError("directions must be unit vectors")
        points = x[None, :] + radius * directions
        # Checking the displaced points also catches a NaN radius.
        if not np.isfinite(points).all():
            raise ContractViolationError("query points must be finite")
        n, m1 = directions.shape[0], self.problem.num_constraints + 1
        self._charge(n * m1, directions=n)
        true_vals = self.problem.evaluate_all(points)  # (n, m+1)
        self._record(iteration, SIDE_PERTURBED, np.arange(1, n + 1), points, true_vals)
        return true_vals + self.noise.draw(iteration, SIDE_PERTURBED, n, m1)

    # -- audit ---------------------------------------------------------------

    def audit(self) -> SafetyAudit:
        """Complete audit so far, in canonical (iteration, side, sample) order.

        The solver queries in that order already; the stable sort also
        orders measurements made out of order."""
        totals = dict(
            total_scalar_calls=self._scalar_calls, total_directions=self._directions
        )
        if not self._chunks:
            empty = np.zeros(0, dtype=int)
            return SafetyAudit(empty, empty, empty, np.zeros((0, 0)), np.zeros(0), **totals)
        ks, sides, samples, points, fcs = zip(*self._chunks)
        rows = [len(s) for s in samples]
        iterations = np.repeat(np.array(ks, dtype=np.int64), rows)
        sides = np.repeat(np.array(sides, dtype=np.int8), rows)
        samples = np.concatenate(samples)
        order = np.lexsort((samples, sides, iterations))
        return SafetyAudit(
            iterations=iterations[order],
            sides=sides[order],
            samples=samples[order],
            points=np.concatenate(points)[order],
            true_max_constraint=np.concatenate(fcs)[order],
            **totals,
        )


_TAGS = {SIDE_BASE: "base", SIDE_PERTURBED: "perturbed"}


def write_audit_csv(audit: SafetyAudit, path) -> None:
    """Audit as CSV: k, tag, point components, true_fc, violated.

    Bytes match `csv.writer` output: CRLF line ends, floats as `repr`."""
    dim = audit.points.shape[1]
    header = ["k", "tag"] + [f"x{i}" for i in range(dim)] + ["true_fc", "violated"]
    columns = [
        map(str, audit.iterations.tolist()),
        map(_TAGS.__getitem__, audit.sides.tolist()),
        *(map(repr, col) for col in audit.points.T.tolist()),
        map(repr, audit.true_max_constraint.tolist()),
        # The last column carries the line end, saving a concatenation per row.
        map(("0\r\n", "1\r\n").__getitem__, audit.violated.tolist()),
    ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(",".join, zip(*columns)))
