"""One measured process for the benchmark.

Imports zobarrier from this checkout's `src/`, parses one workload's
config with `harness.config_from_mapping` and builds its problem (the
set-up time), then calls `harness.run_experiment` repeatedly until
`--seconds` have passed (at least twice, so reruns can be compared) and
prints one JSON report on stdout. A fixed reference loop is timed before
each repetition and after the last, so the caller can tell the program's
speed from the host's. With `--trace 1` every call into the package's
modules is recorded as a span and reduced to per-layer metrics.

    python3 perfbench/worker.py --workload linear-ball-demo --seed 7 \
        --seconds 10 --trace 0 --out perfbench/_out/demo
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Reference-loop timings per block; one block runs before each repetition
# of run_experiment and one after the last.
REFERENCE_SAMPLES = 3


def import_harness():
    """zobarrier.harness from this checkout, never from an installed copy."""
    package = ROOT / "src" / "zobarrier"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no zobarrier source at {package}")
    sys.path.insert(0, str(package.parent))
    import zobarrier
    from zobarrier import harness

    if Path(zobarrier.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"zobarrier imported from {zobarrier.__file__}, not {package}")
    return harness


def reference_s() -> float:
    """Time of a fixed piece of work that calls no zobarrier code, in the mix
    the package spends its time on: small numpy calls, float repr and CSV
    rows. How long it takes tracks how fast the host runs this process now."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.linspace(1.0, 2.0, 96).reshape(16, 6)
    writer = csv.writer(io.StringIO())
    for _ in range(500):
        a = a / np.linalg.norm(a, axis=1)[:, None] + 1e-3
        writer.writerow([repr(float(v)) for v in a[0]])
    return time.perf_counter() - t0


def reference_block() -> float:
    return statistics.median(reference_s() for _ in range(REFERENCE_SAMPLES))


def trial_files(out: Path, trial: int) -> tuple[Path, Path]:
    return out / f"trial{trial:03d}_trace.csv", out / f"trial{trial:03d}_audit.csv"


def trial_digest(out: Path, trial: int) -> str:
    h = hashlib.sha256()
    for path in trial_files(out, trial):
        h.update(path.read_bytes())
    return h.hexdigest()


def check_trial(t, workload) -> list[str]:
    """Why trial summary `t` fails the workload's output checks, if it does."""
    problems = []
    if t.halted_reason is not None:
        problems.append(f"halted: {t.halted_reason}")
    if t.violation_count != 0:
        problems.append(f"{t.violation_count} audited points violate a constraint")
    if t.iterations != workload.iterations:
        problems.append(f"{t.iterations} iterations, expected {workload.iterations}")
    if t.total_directions != workload.samples * workload.iterations:
        problems.append(
            f"{t.total_directions} directions, expected {workload.samples * workload.iterations}"
        )
    return problems


def positive_weight_rows(trace_csv: Path) -> int:
    with open(trace_csv, newline="") as fh:
        return sum(float(row["weight"]) > 0.0 for row in csv.DictReader(fh))


def output_extras(summary, out: Path, layers: dict) -> dict:
    """Per-layer metrics read from the run's summary and output files."""
    iterations = sum(t.iterations for t in summary.trials)
    audits = [trial_files(out, t.trial)[1] for t in summary.trials]
    traces = [trial_files(out, t.trial)[0] for t in summary.trials]
    return {
        "oracle.scalar_calls": sum(t.total_scalar_calls for t in summary.trials),
        "oracle.audit_csv_bytes": sum(p.stat().st_size for p in audits),
        "solver.iterations": iterations,
        "solver.self_us_per_iter": 1e6 * layers["solver.self_s"] / max(iterations, 1),
        "solver.step_ratio": sum(positive_weight_rows(p) for p in traces) / max(iterations, 1),
        "harness.output_bytes": sum(p.stat().st_size for p in out.iterdir()),
    }


def measure(harness, cfg, workload, seconds: float, tracer=None) -> dict:
    """Repeat run_experiment within `seconds` (at least twice) and check
    every trial of every repetition."""
    if tracer is not None:
        from tracer import layer_metrics  # numpy-importing; kept out of set-up timing
    out = cfg.output_dir
    run_s, ref_s, layer_runs, failures = [], [], [], []
    first_digests: list[str] | None = None
    attempted = failed = violations = 0
    iterations = 0
    objective = None
    deadline = time.perf_counter() + seconds
    # Stop before a repetition that would likely run past the deadline.
    while len(run_s) < 2 or time.perf_counter() + run_s[-1] <= deadline:
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.reset()
        ref_s.append(reference_block())
        attempted += cfg.trials
        t0 = time.perf_counter()
        try:
            summary = harness.run_experiment(cfg)
        except Exception:  # a raising run fails all its trials; report, do not retry
            traceback.print_exc()
            failed += cfg.trials
            failures.append(f"repetition {len(run_s) + 1}: run_experiment raised")
            break
        run_s.append(time.perf_counter() - t0)
        digests = [trial_digest(out, t.trial) for t in summary.trials]
        if first_digests is None:
            first_digests = digests
            iterations = sum(t.iterations for t in summary.trials)
            objective = summary.aggregate["objective_median"]
        for t, digest in zip(summary.trials, digests):
            problems = check_trial(t, workload)
            if digest != first_digests[t.trial]:
                problems.append("trace/audit digest differs from the first repetition")
            if problems:
                failed += 1
                failures.append(f"repetition {len(run_s)} trial {t.trial}: {'; '.join(problems)}")
        if summary.aggregate["objective_median"] != objective:
            failures.append(f"repetition {len(run_s)}: objective_median changed")
        violations += summary.aggregate["total_violations"]
        if tracer is not None:
            layers = layer_metrics(tracer)
            layers.update(output_extras(summary, out, layers))
            layer_runs.append(layers)
    ref_s.append(reference_block())
    shutil.rmtree(out, ignore_errors=True)
    report = {
        "run_s": run_s,
        "ref_s": ref_s,
        "iterations": iterations,
        "objective_median": objective,
        "violations": violations,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": hashlib.sha256("".join(first_digests or []).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layer_runs:
        report["layers"] = {
            k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]
        }
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="with --trace 1, write the last run's spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    harness = import_harness()
    workload = WORKLOADS[args.workload]
    cfg = harness.config_from_mapping(workload.config(args.seed, args.out))
    harness.build_problem(cfg.problem_name, cfg.problem_options)
    report = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        report["ref_s"] = [reference_block()]

    if not args.setup_only:
        if args.trace:
            from tracer import Tracer, zobarrier_targets

            tracer = Tracer()
            with tracer.installed(zobarrier_targets()):
                report.update(measure(harness, cfg, workload, args.seconds, tracer))
            if args.spans is not None:
                tracer.write_csv(args.spans)
        else:
            report.update(measure(harness, cfg, workload, args.seconds))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
