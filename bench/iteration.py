"""The solver loop's cost per iteration, step by step, for two source trees.

One `solver.run` iteration measures at x_k, forms the confidence bounds
and the margin, reads its directions, measures at the displaced points,
assembles the barrier-gradient estimate, then steps and records. For
each workload and source tree a fresh interpreter (PYTHONPATH set to the
tree) runs trial 0 of the workload REPS times as it is, for the loop's
whole cost (loop_us), and REPS times with each step wrapped in a timer:

    measure_base      MeasurementOracle.measure_base
    bounds_margin     estimator.confidence_bounds, then estimator.margin
                      (the max of the bounds and the adaptive reach
                      count in step_record)
    directions        MeasurementOracle.directions
    measure_perturbed MeasurementOracle.measure_perturbed
    barrier_estimate  solver.barrier_estimate
    step_record       the rest of `solver.run`: the gradient norm, step
                      weight, record and step, the start check, and the
                      run's one-off setup and output draw, less the
                      final `audit()` call and less the timers' own
                      cost, calibrated on an empty function

A third run per rep splits each oracle measurement, `measure_base` and
`measure_perturbed` alike, into four parts, with hooks on the oracle's
own calls:

    evaluation        problem.evaluate_all
    log               MeasurementOracle._log_rows, truth writes included
    noise             from the start of NoiseModel.draw to the return of
                      the measurement: the draw and the add
    checks            the rest: the checks of the query, of the
                      directions and of the true values, and the budget
                      charge, less the hooks' calibrated cost

A fourth run per rep times the tail of one trial, as
`harness.run_experiment` runs it with trials = 1, in milliseconds:

    trial_ms          harness.run_trial and both CSV writes
    solver_ms         solver.run within it
    tail_ms           the trial less the solver run: the ground-truth
                      pass, the final objective, the residuals and both
                      CSV writes
    pass_ms           harness.audit_trial (0 in a tree without it, whose
                      truth reads are spread over run_trial and
                      write_trace_csv)
    pass_pct          pass_ms as a percentage of trial_ms
    trace_csv_ms      harness.write_trace_csv
    audit_csv_ms      harness.write_audit_csv
    residuals_ms      harness.kkt_residuals

Each step figure is microseconds per iteration, the median over REPS runs in a
worker and then the median, quartiles (q1, q3), min and max over ROUNDS
workers, so that a reader can tell a change from drift between workers;
the rounds alternate which tree runs first so that a drift in host speed
reaches each alike, and each run is rescaled by perfbench's reference
loop, timed in the same worker before and after it, to perfbench's
reference host speed (raw times on a shared host swing up to 2x within
minutes). BLAS and OpenMP threads are pinned to 1, as in perfbench. Then
each tree runs each workload once more through `harness.run_experiment`,
and the script checks that the trace and audit CSVs of every trial are
byte-equal across the trees (exit 1 if not).

    python3 bench/iteration.py [--src [LABEL=]DIR ...] [--out BENCH_iteration.json]

With no --src, the `src` directory of this checkout is measured. To
compare two commits, check the other one out elsewhere and pass both,
e.g. `--src before=../parent/src --src after=src`.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import filecmp
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import trees

ROOT = trees.ROOT
PERFBENCH = trees.perfbench("workloads").WORKLOADS
WORKLOADS = {w: PERFBENCH[w] for w in ("linear-ball-demo", "unicycle-paper")}
SEED = 20261019
ROUNDS = 7
REPS = 5
# Times are rescaled to a host on which perfbench's reference loop takes
# this long, as perfbench reports them.
REFERENCE_S = trees.perfbench("run").REFERENCE_S
STEPS = (
    "measure_base",
    "bounds_margin",
    "directions",
    "measure_perturbed",
    "barrier_estimate",
    "step_record",
)
PARTS = ("evaluation", "log", "noise", "checks")
# The tail's parts: each the harness function timed for it.
TAIL_CALLS = {
    "pass_ms": "audit_trial",
    "trace_csv_ms": "write_trace_csv",
    "audit_csv_ms": "write_audit_csv",
    "residuals_ms": "kkt_residuals",
}
SPLIT = tuple(f"{m}.{part}" for m in ("measure_base", "measure_perturbed") for part in PARTS)


def _config(workload: str, output_dir):
    from zobarrier import harness

    return harness.config_from_mapping(WORKLOADS[workload].config(SEED, output_dir))


def _timed(spent: dict, step: str, fn):
    """fn, adding its wall time to spent[step] and counting the call."""

    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[step] += time.perf_counter() - t0
            spent["calls"] += 1

    return call


@contextlib.contextmanager
def step_timers(spent: dict):
    """Wrap the solver's steps in timers adding to `spent` while inside;
    the oracle's measurements, directions and audit are wrapped per oracle."""
    from zobarrier import solver

    real = {name: getattr(solver, name) for name in ("confidence_bounds", "margin")}
    for name, fn in real.items():
        setattr(solver, name, _timed(spent, "bounds_margin", fn))
    real["barrier_estimate"] = solver.barrier_estimate
    solver.barrier_estimate = _timed(spent, "barrier_estimate", real["barrier_estimate"])
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(solver, name, fn)


def oracle_split(o, spent: dict, overhead: float) -> None:
    """Wrap oracle o's measurements so that each adds its parts (PARTS) to
    spent["<measurement>.<part>"]; `checks` leaves out the cost of the
    hooks inside, `overhead` seconds a call each."""
    now = time.perf_counter
    marks = {}

    def hook(name, fn):
        end = name + "_end"

        def call(*args, **kwargs):
            marks[name] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                marks[end] = now()

        return call

    def measurement(name, fn):
        def call(*args, **kwargs):
            marks.clear()
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                total = now() - t0
                parts = dict.fromkeys(PARTS, 0.0)
                if "evaluate_end" in marks:
                    parts["evaluation"] = marks["evaluate_end"] - marks["evaluate"]
                if "log_end" in marks:
                    parts["log"] = marks["log_end"] - marks["log"]
                if "draw" in marks:
                    parts["noise"] = t0 + total - marks["draw"]
                hooks = sum(key.endswith("_end") for key in marks)
                parts["checks"] = total - sum(parts.values()) - hooks * overhead
                for part, seconds in parts.items():
                    spent[f"{name}.{part}"] += seconds

        return call

    problem = copy.copy(o.problem)
    problem.evaluate_all = hook("evaluate", o.problem.evaluate_all)
    o.problem = problem
    object.__setattr__(o.noise, "draw", hook("draw", o.noise.draw))
    o._log_rows = hook("log", o._log_rows)
    o.measure_base = measurement("measure_base", o.measure_base)
    o.measure_perturbed = measurement("measure_perturbed", o.measure_perturbed)


def trial_tail(cfg) -> dict:
    """Seconds of one trial of cfg (trials = 1) as `harness.run_experiment`
    runs it, by part: run_trial, the solver run and each TAIL_CALLS function
    the tree has, each timed where harness looks it up."""
    from zobarrier import harness

    spent = dict.fromkeys(("run_trial", "run", *TAIL_CALLS.values(), "calls"), 0.0)
    real = {name: getattr(harness, name) for name in spent if hasattr(harness, name)}
    for name, fn in real.items():
        setattr(harness, name, _timed(spent, name, fn))
    try:
        with tempfile.TemporaryDirectory(prefix="zobarrier-iteration-") as tmp:
            cfg = copy.copy(cfg)
            cfg.trials, cfg.output_dir = 1, Path(tmp)
            harness.run_experiment(cfg)
    finally:
        for name, fn in real.items():
            setattr(harness, name, fn)
    return spent


def worker(workload: str) -> dict:
    """Microseconds per iteration of trial 0's `solver.run`, as
    `harness.run_trial` sets it up: the whole run, and each step, each
    run rescaled to the reference host speed."""
    from zobarrier import harness, solver
    from zobarrier.oracle import MeasurementOracle, NoiseModel

    reference_block = trees.perfbench("worker").reference_block
    cfg = _config(workload, "unused")
    problem = harness.build_problem(cfg.problem_name, cfg.problem_options)

    def oracle():
        noise = NoiseModel(cfg.noise_kind, problem.noise_sigma, master_seed=cfg.base_seed)
        return MeasurementOracle(problem, noise, budget_cap=cfg.budget_cap)

    def once(spent=None, split=None):
        """Seconds per iteration of one run; with `spent`, the oracle's
        measurements, directions and audit are timed into it; with `split`,
        the measurements' parts (oracle_split)."""
        o = oracle()
        if spent is not None:
            o.measure_base = _timed(spent, "measure_base", o.measure_base)
            o.measure_perturbed = _timed(spent, "measure_perturbed", o.measure_perturbed)
            o.audit = _timed(spent, "audit", o.audit)
            o.directions = _timed(spent, "directions", o.directions)
        if split is not None:
            oracle_split(o, split, overhead)
        t0 = time.perf_counter()
        result = solver.run(problem, cfg.algo, o)
        return (time.perf_counter() - t0) / len(result.trace), len(result.trace)

    # A timer's cost outside its own window, per call: on an empty function.
    probe = {"empty": 0.0, "calls": 0}
    empty = _timed(probe, "empty", lambda: None)
    t0 = time.perf_counter()
    for _ in range(100_000):
        empty()
    overhead = (time.perf_counter() - t0 - probe["empty"]) / 100_000

    once()  # warm caches and lazy imports
    loop, per_step = [], {step: [] for step in (*STEPS, *SPLIT)}
    tails = []
    reference = reference_block()
    for _ in range(REPS):  # untimed, step-timed and split runs alternate
        seconds = once()[0]
        spent = dict.fromkeys((*STEPS, "audit", "calls"), 0.0)
        with step_timers(spent):
            timed_seconds, iterations = once(spent)
        split = dict.fromkeys(SPLIT, 0.0)
        once(split=split)
        tail = trial_tail(cfg)
        before, reference = reference, reference_block()
        scale = REFERENCE_S / ((before + reference) / 2)
        loop.append(seconds * scale)
        rest = timed_seconds * iterations - spent["audit"] - spent["calls"] * overhead
        spent["step_record"] = rest - sum(spent[step] for step in STEPS[:-1])
        for step in STEPS:
            per_step[step].append(spent[step] / iterations * scale)
        for key in SPLIT:
            per_step[key].append(split[key] / iterations * scale)
        trial = tail["run_trial"] + tail["write_trace_csv"] + tail["write_audit_csv"]
        ms = 1e3 * scale
        tails.append({
            "trial_ms": trial * ms,
            "solver_ms": tail["run"] * ms,
            "tail_ms": (trial - tail["run"]) * ms,
            "pass_pct": 100.0 * tail["audit_trial"] / trial,
            **{key: tail[name] * ms for key, name in TAIL_CALLS.items()},
        })
    us = {"loop_us": loop, **per_step}
    return {
        **{key: statistics.median(values) * 1e6 for key, values in us.items()},
        **{key: statistics.median(t[key] for t in tails) for key in tails[0]},
        "timer_overhead_us": overhead * 1e6,
    }


def write_outputs(workload: str, output_dir: str) -> None:
    from zobarrier import harness

    harness.run_experiment(_config(workload, output_dir))


def csvs_equal(dirs: list[Path]) -> dict:
    """Per output file name: whether every tree wrote it alike."""
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    if any(sorted(p.name for p in d.glob("*.csv")) != names for d in dirs[1:]):
        return {"file names": False}
    return {
        name: all(filecmp.cmp(dirs[0] / name, d / name, shallow=False) for d in dirs[1:])
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=trees.source, action="append", help=trees.SRC_HELP)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_iteration.json")
    parser.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        kind, workload, *rest = args.worker
        print(json.dumps(worker(workload) if kind == "steps" else write_outputs(workload, *rest)))
        return 0
    sources = dict(args.src or [("src", trees.checked(ROOT / "src"))])
    samples = {w: {label: [] for label in sources} for w in WORKLOADS}
    for _, pairs in trees.rounds(ROUNDS, sources):
        for workload in WORKLOADS:
            for label, src in pairs:
                samples[workload][label].append(trees.run_worker(__file__, src, "steps", workload))

    results, identical = {}, {}
    with tempfile.TemporaryDirectory(prefix="zobarrier-iteration-") as tmp:
        for workload in WORKLOADS:
            results[workload] = {}
            for label, rows in samples[workload].items():
                results[workload][label] = {
                    key: trees.summary([row[key] for row in rows], 2) for key in rows[0]
                }
                print(f"{workload} {label}: {results[workload][label]}", flush=True)
            dirs = []
            for i, src in enumerate(sources.values()):
                dirs.append(Path(tmp) / f"{workload}-{i}")
                trees.run_worker(__file__, src, "outputs", workload, str(dirs[-1]))
            identical[workload] = csvs_equal(dirs)
            print(f"{workload} trace and audit CSVs equal: {identical[workload]}", flush=True)
    same = all(all(v.values()) for v in identical.values())
    report = {
        "what": "microseconds per solver.run iteration: the whole loop untimed per step "
        "(loop_us), then each step with a timer around it, then each oracle measurement "
        "split into evaluation, log, noise and checks; and milliseconds per trial of its "
        "tail, the trial less its solver run, by part (*_ms, pass_pct; see the script's "
        "docstring)",
        **trees.header(__file__, "--src", sources),
        "workloads": {
            w: {**m.mapping, "base_seed": SEED, "trial": 0} for w, m in WORKLOADS.items()
        },
        "timing": f"median of {REPS} runs per worker, then median, q1, q3, min and max over "
        f"{ROUNDS} fresh workers per source and workload, rounds alternating which tree runs "
        f"first; each run rescaled by perfbench's reference loop to a host where it takes "
        f"{REFERENCE_S} s (timer_overhead_us is raw); BLAS/OpenMP threads pinned to 1",
        "results": results,
        "csvs_byte_equal": identical,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
