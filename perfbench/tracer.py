"""In-memory spans around calls into zobarrier's modules, and the
per-layer metrics derived from them.

A span is one call of a wrapped function: its name, start, end, the
span that was open when it began (its parent), the trial it belongs
to, and a size (rows, points or 1). Spans stay in memory until the run
ends. The wrappers are installed where each caller looks the name up:
`solver.py` and `harness.py` import functions by name, so wrapping only
the defining module's attribute would miss every call they make.
"""

from __future__ import annotations

import csv
import functools
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records spans from wrapped functions into parallel lists."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trials: list[int] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []
        self._trial = -1

    def wrap(self, name, fn, size=None, trial_of=None):
        """`fn` recording one span per call; `size(args, kwargs)` gives the
        span's work count and `trial_of(args, kwargs)` the trial id it opens."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_trial = self._trial
            if trial_of is not None:
                self._trial = trial_of(args, kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.trials.append(self._trial)
            self.sizes.append(size(args, kwargs) if size is not None else 1)
            self.ends.append(math.nan)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
                self._trial = outer_trial

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (owner, attribute, span name, size, trial_of) target for
        the duration of the block, then restore the originals.

        A target that no longer exists raises instead of being skipped, so a
        renamed function cannot silently drop out of the per-layer numbers.
        """
        originals = []
        try:
            for owner, attr, name, size, trial_of in targets:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, size, trial_of))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start", "end", "parent", "trial", "size"])
            for i, row in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.trials, self.sizes)
            ):
                w.writerow([i, *row])


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children count once)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def _rows(a) -> int:
    return len(a) if np.ndim(a) == 2 else 1


def _sim_rows(args, kwargs) -> int:
    gains = args[0]
    return len(gains) if np.ndim(gains) == 3 else 1


ESTIMATOR_FUNCTIONS = (
    "sphere_sample",
    "estimate_gradient",
    "confidence_bounds",
    "margin",
    "barrier_gradient",
)


def zobarrier_targets():
    """Every boundary the per-layer metrics need, at each module the call
    is looked up from."""
    from zobarrier import harness, oracle, problems, solver, streams

    targets = [
        (
            problems.ProblemSpec,
            "evaluate_all",
            "problems.evaluate_all",
            lambda args, kwargs: _rows(args[1]),
            None,
        ),
        (problems, "simulate_unicycle_batch", "problems.simulate_unicycle_batch", _sim_rows, None),
        (oracle.MeasurementOracle, "measure_base", "oracle.measure_base", None, None),
        (
            oracle.MeasurementOracle,
            "measure_perturbed",
            "oracle.measure_perturbed",
            lambda args, kwargs: _rows(args[2]),
            None,
        ),
        (oracle.MeasurementOracle, "audit", "oracle.audit", None, None),
        (oracle.NoiseModel, "draw", "oracle.noise_draw", None, None),
        (harness, "write_audit_csv", "oracle.write_audit_csv", None, None),
        (solver, "smoothed_gradient", "smoothing.smoothed_gradient", None, None),
        (harness, "run", "solver.run", None, None),
        (harness, "kkt_residuals", "solver.kkt_residuals", None, None),
        (
            harness,
            "run_trial",
            "harness.run_trial",
            None,
            lambda args, kwargs: args[2] if len(args) > 2 else kwargs["trial"],
        ),
        (harness, "write_trace_csv", "harness.write_trace_csv", None, None),
        (harness, "run_experiment", "harness.run_experiment", None, None),
    ]
    for module in (streams, oracle, solver):
        targets.append((module, "substream", "streams.substream", None, None))
    for fn in ESTIMATOR_FUNCTIONS:
        targets.append((solver, fn, f"estimator.{fn}", None, None))
    return targets


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced run_experiment call.

    `*_s` metrics are self times unless the name says otherwise:
    oracle.measure_s, oracle.audit_s, oracle.audit_csv_s, solver.run_s,
    solver.residuals_s and harness.trial_s_p50 are whole-span times.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[str, int] = {}
    size: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    trial_spans = []
    for name, s, e, n, st in zip(tracer.names, tracer.starts, tracer.ends, tracer.sizes, selfs):
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + n
        total[name] = total.get(name, 0.0) + (e - s)
        own[name] = own.get(name, 0.0) + st
        if name == "harness.run_trial":
            trial_spans.append(e - s)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def o(*names):
        return sum(own.get(n, 0.0) for n in names)

    measure = ("oracle.measure_base", "oracle.measure_perturbed")
    estimator = tuple(f"estimator.{fn}" for fn in ESTIMATOR_FUNCTIONS)
    eval_rows = size.get("problems.evaluate_all", 0)
    sim_rows = size.get("problems.simulate_unicycle_batch", 0)
    points = size.get("oracle.measure_base", 0) + size.get("oracle.measure_perturbed", 0)
    return {
        "problems.eval_calls": c("problems.evaluate_all"),
        "problems.eval_rows": eval_rows,
        "problems.rows_per_call": eval_rows / max(c("problems.evaluate_all"), 1),
        "problems.eval_s": o("problems.evaluate_all"),
        "problems.sim_calls": c("problems.simulate_unicycle_batch"),
        "problems.sim_s": o("problems.simulate_unicycle_batch"),
        "problems.sim_us_per_row": 1e6 * o("problems.simulate_unicycle_batch") / max(sim_rows, 1),
        "oracle.measure_calls": c(*measure),
        "oracle.measure_s": t(*measure),
        "oracle.self_s": o(*measure),
        "oracle.self_us_per_point": 1e6 * o(*measure) / max(points, 1),
        "oracle.noise_calls": c("oracle.noise_draw"),
        "oracle.noise_s": o("oracle.noise_draw"),
        "oracle.audit_s": t("oracle.audit"),
        "oracle.audit_points": points,
        "oracle.audit_csv_s": t("oracle.write_audit_csv"),
        "streams.substream_calls": c("streams.substream"),
        "streams.substream_s": o("streams.substream"),
        "estimator.calls": c(*estimator),
        "estimator.s": o(*estimator),
        "solver.run_s": t("solver.run"),
        "solver.self_s": o("solver.run"),
        "solver.residuals_s": t("solver.kkt_residuals"),
        "smoothing.calls": c("smoothing.smoothed_gradient"),
        "smoothing.s": o("smoothing.smoothed_gradient"),
        "harness.trial_s_p50": statistics.median(trial_spans) if trial_spans else 0.0,
        "harness.trace_csv_s": o("harness.write_trace_csv"),
        "harness.self_s": o("harness.run_experiment", "harness.run_trial"),
        "trace.span_count": len(tracer.names),
    }
