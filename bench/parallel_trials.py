"""Wall time of `zobarrier run configs/unicycle-paper.yaml` (20 trials x 500
iterations), the paper preset as the CLI runs it.

For each source tree given with --src, a round runs the command once in a
fresh interpreter with PYTHONPATH set to it, timed wall to wall,
interpreter start included. The last source is also run pinned to one CPU
(`os.sched_setaffinity` in the child process, before it starts Python), so
it runs every trial in one process. The report gives the median, minimum
and maximum of each over RUNS rounds. The rounds alternate between the
variants, so a change in host speed reaches all of them alike; one untimed
round first writes the bytecode caches. BLAS and OpenMP threads are pinned
to 1, as in perfbench. Every run's output directory is compared with the
first variant's: trace and audit CSVs byte for byte, summary.json as JSON
without the per-trial `wall_time`.

    python3 bench/parallel_trials.py [--src [LABEL=]DIR ...] [--out BENCH_parallel_trials.json]

With no --src, the `src` directory of this checkout is measured. To
compare two commits, check the other one out elsewhere and pass both,
e.g. `--src before=../parent/src --src after=src`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from cold_start import THREADS, source
from simulator import machine

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "unicycle-paper.yaml"
RUNS = 5


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def one_run(src: Path, pinned: bool, out: Path) -> float:
    """Wall seconds of one `zobarrier run`, writing under `out`."""
    shutil.rmtree(out, ignore_errors=True)
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "ZOBARRIER_OUTPUT_DIR": str(out),
        **{name: "1" for name in THREADS},
    }
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "zobarrier", "run", str(CONFIG)],
        env=env,
        capture_output=True,
        check=True,
        preexec_fn=pin_to_one_cpu if pinned else None,
    )
    return time.perf_counter() - t0


def outputs(out: Path) -> dict:
    """File name -> contents; summary.json parsed, less each trial's wall_time."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.name == "summary.json":
            summary = json.loads(path.read_text())
            for trial in summary["trials"]:
                trial.pop("wall_time")
            files[path.name] = summary
        elif path.is_file():
            files[path.name] = path.read_bytes()
    return files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", type=source, action="append", help="[LABEL=]DIR holding the zobarrier package"
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_parallel_trials.json")
    args = parser.parse_args()
    sources = dict(args.src or [("src", ROOT / "src")])
    last = list(sources)[-1]
    variants = {label: (src, False) for label, src in sources.items()}
    variants[f"{last}, pinned to 1 CPU"] = (sources[last], True)

    samples = {label: [] for label in variants}
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="zobarrier-parallel-") as tmp:
        reference = None
        for timed in [False] + [True] * RUNS:
            for label, (src, pinned) in variants.items():
                out = Path(tmp) / "out"
                wall = one_run(src, pinned, out)
                files = outputs(out)
                if reference is None:
                    reference = files
                elif files != reference:
                    mismatches.append(label)
                if timed:
                    samples[label].append(wall)
                    print(f"{label}: {wall:.2f} s", flush=True)

    results = {
        label: {
            "wall_s_median": round(statistics.median(walls), 3),
            "wall_s_min": round(min(walls), 3),
            "wall_s_max": round(max(walls), 3),
        }
        for label, walls in samples.items()
    }
    first = results[list(sources)[0]]["wall_s_median"]
    for label, row in results.items():
        row["speedup_vs_first"] = round(first / row["wall_s_median"], 3)
        print(f"{label}: median {row['wall_s_median']:.2f} s ({row['speedup_vs_first']:.2f}x)")
    print("outputs identical" if not mismatches else f"outputs differ: {sorted(set(mismatches))}")
    report = {
        "what": "wall time of `python -m zobarrier run configs/unicycle-paper.yaml` "
        "(20 trials x 500 iterations), interpreter start included",
        "command": "python3 bench/parallel_trials.py "
        + " ".join(f"--src {label}=DIR" for label in sources),
        "machine": {**machine(), "usable_cpus": len(os.sched_getaffinity(0))},
        "timing": f"median of {RUNS} rounds per variant, rounds alternating between variants "
        "after one untimed round; BLAS/OpenMP threads pinned to 1",
        "outputs_identical": not mismatches,
        "outputs_compared": "every trace and audit CSV byte for byte, and summary.json "
        "without per-trial wall_time, against the first variant's first run",
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
