"""Minor page faults and peak memory of `harness.run_experiment`, by phase,
for one or more source trees.

For each workload and source tree a fresh interpreter (PYTHONPATH set to
the tree) runs the workload through `harness.run_experiment`, as
perfbench does, WARMUP + REPS times at a fixed seed. `ru_minflt` of the
process (getrusage RUSAGE_SELF) is read around each phase:

    trial           harness.run_trial: the solver run and its audit
    audit_csv       harness.write_audit_csv
    trace_csv       harness.write_trace_csv
    run_experiment  the whole call, which also holds the three above
    helpers         the forked trial processes of the call, all together
                    (RUSAGE_CHILDREN)

A minor fault is a page the process touched for the first time since it
was mapped: each block of 128 KiB or more that the run allocates (the
mmap threshold `run_experiment` pins) costs one per 4 KiB page it uses.
The first three phases count the calling process's trials only; on a
multi-trial workload the helpers run the rest. Each figure is the
median over the REPS runs of a worker (the WARMUP runs are not counted),
then over ROUNDS workers; `maxrss_mb` is the worker's peak resident size
after all its runs, as perfbench's peak_rss_mb reads it. Rounds run the
trees in alternating order. Each worker hashes the CSVs of its last run,
and the script checks that every tree wrote the same bytes (exit 1 if
not).

    python3 bench/allocation.py [--src [LABEL=]DIR ...] [--out BENCH_allocation.json]

With no --src, the `src` directory of this checkout is measured. To
compare two commits, check the other one out elsewhere and pass both,
e.g. `--src before=../parent/src --src after=src`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from simulator import machine

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("linear-ball-demo", "smooth-2con-wide", "unicycle-paper")
SEED = 20261019
ROUNDS = 5
WARMUP = 1
REPS = 3
PHASES = ("trial", "audit_csv", "trace_csv", "run_experiment", "helpers")
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def source(arg: str) -> tuple[str, Path]:
    label, _, path = arg.rpartition("=")
    return label or path, Path(path).resolve()


def minflt(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_minflt


def worker(workload: str, out: Path) -> dict:
    """Median faults per run_experiment call of each phase, the peak
    resident size, and a digest of the last run's CSVs."""
    from zobarrier import harness

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS as PERFBENCH

    cfg = harness.config_from_mapping(PERFBENCH[workload].config(SEED, out))
    faults = dict.fromkeys(PHASES, 0)

    def counted(phase: str, fn):
        def call(*args, **kwargs):
            before = minflt()
            try:
                return fn(*args, **kwargs)
            finally:
                faults[phase] += minflt() - before

        return call

    for phase, name in (
        ("trial", "run_trial"),
        ("audit_csv", "write_audit_csv"),
        ("trace_csv", "write_trace_csv"),
    ):
        setattr(harness, name, counted(phase, getattr(harness, name)))
    runs = []
    for rep in range(WARMUP + REPS):
        shutil.rmtree(out, ignore_errors=True)
        faults.update(dict.fromkeys(PHASES, 0))
        own, helpers = minflt(), minflt(resource.RUSAGE_CHILDREN)
        harness.run_experiment(cfg)
        faults["run_experiment"] = minflt() - own
        faults["helpers"] = minflt(resource.RUSAGE_CHILDREN) - helpers
        if rep >= WARMUP:
            runs.append(dict(faults))
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        **{phase: statistics.median(run[phase] for run in runs) for phase in PHASES},
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
    }


def run_worker(src: Path, workload: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), **{name: "1" for name in THREADS}}
    with tempfile.TemporaryDirectory(prefix="zobarrier-allocation-") as tmp:
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", workload, str(Path(tmp) / "out")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", type=source, action="append", help="[LABEL=]DIR holding the zobarrier package"
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_allocation.json")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        import zobarrier

        tree = Path(os.environ["PYTHONPATH"]).resolve()
        if Path(zobarrier.__file__).resolve().parents[1] != tree:
            raise SystemExit(f"zobarrier imported from {zobarrier.__file__}, not {tree}")
        print(json.dumps(worker(args.worker[0], Path(args.worker[1]))))
        return 0
    sources = dict(args.src or [("src", ROOT / "src")])
    samples = {w: {label: [] for label in sources} for w in WORKLOADS}
    for r in range(ROUNDS):
        order = list(sources.items())
        for workload in WORKLOADS:
            for label, src in order[:: 1 if r % 2 == 0 else -1]:
                samples[workload][label].append(run_worker(src, workload))
        print(f"round {r + 1}/{ROUNDS} done", flush=True)

    results, identical = {}, {}
    for workload, by_label in samples.items():
        results[workload] = {}
        for label, rows in by_label.items():
            results[workload][label] = {
                key: {
                    "median": round(statistics.median(row[key] for row in rows), 2),
                    "min": round(min(row[key] for row in rows), 2),
                    "max": round(max(row[key] for row in rows), 2),
                }
                for key in (*PHASES, "maxrss_mb")
            }
            print(f"{workload} {label}: {results[workload][label]}", flush=True)
        digests = {row["digest"] for rows in by_label.values() for row in rows}
        identical[workload] = len(digests) == 1
    report = {
        "what": "minor page faults (ru_minflt) per harness.run_experiment call, by phase, and "
        "peak resident size; see the script's docstring for the phases",
        "command": "python3 bench/allocation.py "
        + " ".join(f"--src {label}=DIR" for label in sources),
        "machine": machine(),
        "workloads": {w: {"perfbench_workload": w, "base_seed": SEED} for w in WORKLOADS},
        "counting": f"each phase: median over {REPS} runs per worker after {WARMUP} uncounted, "
        f"then median, min and max over {ROUNDS} fresh workers per source and workload, "
        "rounds alternating the order of the sources; trial, audit_csv and trace_csv count the "
        "calling process's trials only; BLAS/OpenMP threads pinned to 1",
        "results": results,
        "csvs_byte_equal": identical,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(identical.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
