"""Wall time of `zobarrier run configs/unicycle-paper.yaml` (20 trials x 500
iterations), the paper preset as the CLI runs it.

For each source tree given with --src, a round runs the command once in a
fresh interpreter with PYTHONPATH set to it, timed wall to wall,
interpreter start included, and rescaled to perfbench's reference host
speed by perfbench's reference loop timed just before and just after it
(`trees.at_reference_speed`). The last source is also run pinned to one CPU
(`os.sched_setaffinity` in the child process, before it starts Python), so
it runs every trial in one process. The report gives the median,
quartiles, minimum and maximum of each over RUNS rounds. The rounds
alternate which variant runs first, so a change in host speed reaches all
of them alike; one untimed round first writes the bytecode caches. BLAS
and OpenMP threads are pinned to 1, as in perfbench. Every run's output
directory is compared with the first variant's: trace and audit CSVs
byte for byte, summary.json as JSON without the per-trial `wall_time`.

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
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import trees

ROOT = trees.ROOT
CONFIG = ROOT / "configs" / "unicycle-paper.yaml"
RUNS = 5


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def one_run(src: Path, pinned: bool, out: Path) -> float:
    """Wall seconds of one `zobarrier run`, writing under `out`."""
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "zobarrier", "run", str(CONFIG)],
        env=trees.environment(src, ZOBARRIER_OUTPUT_DIR=str(out)),
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
    parser.add_argument("--src", type=trees.source, action="append", help=trees.SRC_HELP)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_parallel_trials.json")
    args = parser.parse_args()
    sources = dict(args.src or [("src", trees.checked(ROOT / "src"))])
    last = list(sources)[-1]
    variants = {label: (src, False) for label, src in sources.items()}
    variants[f"{last}, pinned to 1 CPU"] = (sources[last], True)

    samples = {label: [] for label in variants}
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="zobarrier-parallel-") as tmp:
        reference = None
        for r, pairs in trees.rounds(1 + RUNS, variants):
            for label, (src, pinned) in pairs:
                out = Path(tmp) / "out"
                wall, scale = trees.at_reference_speed(lambda: one_run(src, pinned, out))
                wall *= scale
                files = outputs(out)
                if reference is None:
                    reference = files
                elif files != reference:
                    mismatches.append(label)
                if r > 0:
                    samples[label].append(wall)
                    print(f"{label}: {wall:.2f} s", flush=True)

    results = {label: trees.summary(walls, 3) for label, walls in samples.items()}
    first = results[list(sources)[0]]["median"]
    for label, row in results.items():
        row["speedup_vs_first"] = round(first / row["median"], 3)
        print(f"{label}: median {row['median']:.2f} s ({row['speedup_vs_first']:.2f}x)")
    print("outputs identical" if not mismatches else f"outputs differ: {sorted(set(mismatches))}")
    report = {
        "what": "wall time of `python -m zobarrier run configs/unicycle-paper.yaml` "
        "(20 trials x 500 iterations), interpreter start included, at perfbench's "
        "reference host speed",
        **trees.header(__file__, "--src", sources),
        "timing": f"median, quartiles, min and max of {RUNS} rounds per variant, rounds "
        "alternating which tree runs first after one untimed round; BLAS/OpenMP threads "
        "pinned to 1",
        "outputs_identical": not mismatches,
        "outputs_compared": "every trace and audit CSV byte for byte, and summary.json "
        "without per-trial wall_time, against the first variant's first run",
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
