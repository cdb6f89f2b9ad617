"""Cold start: what a fresh `zobarrier` process pays before its first step.

For each source tree given with --src, a round starts two fresh
interpreters with PYTHONPATH set to it. The first times `import
zobarrier` and reads ru_maxrss right after it; the second is
`python -m zobarrier presets`, timed wall to wall, interpreter start
included. Both times are rescaled to perfbench's reference host speed by
perfbench's reference loop timed just before and just after the round
(`trees.at_reference_speed`). The report summarizes each over RUNS
rounds. The rounds alternate which tree runs first, so a change in host
speed reaches all of them alike; one untimed round first writes the
bytecode caches. BLAS and OpenMP threads are pinned to 1, as in
perfbench.

    python3 bench/cold_start.py [--src [LABEL=]DIR ...] [--out BENCH_cold_start.json]

With no --src, the `src` directory of this checkout is measured. To
compare two commits, check the other one out elsewhere and pass both,
e.g. `--src before=../parent/src --src after=src`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import trees

ROOT = trees.ROOT
RUNS = 15
IMPORT_PROBE = (
    "import resource, time\n"
    "t0 = time.perf_counter()\n"
    "import zobarrier\n"
    "dt = time.perf_counter() - t0\n"
    "print(dt, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def one_round(src: Path) -> tuple[float, float, float]:
    """(import seconds, ru_maxrss MB after the import, presets wall seconds)."""
    env = trees.environment(src)
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    import_s, maxrss_kb = probe.stdout.split()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "zobarrier", "presets"], env=env, capture_output=True, check=True
    )
    presets_s = time.perf_counter() - t0
    return float(import_s), int(maxrss_kb) / 1024, presets_s


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=trees.source, action="append", help=trees.SRC_HELP)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cold_start.json")
    args = parser.parse_args()
    sources = dict(args.src or [("src", trees.checked(ROOT / "src"))])

    samples = {label: [] for label in sources}
    for r, pairs in trees.rounds(1 + RUNS, sources):
        for label, src in pairs:
            (import_s, maxrss_mb, presets_s), scale = trees.at_reference_speed(
                lambda: one_round(src)
            )
            if r > 0:
                samples[label].append((import_s * scale, maxrss_mb, presets_s * scale))

    results = {}
    for label, rows in samples.items():
        import_s, maxrss_mb, presets_s = zip(*rows)
        results[label] = {
            "import_s": trees.summary(import_s, 4),
            "maxrss_after_import_mb": trees.summary(maxrss_mb, 1),
            "presets_wall_s": trees.summary(presets_s, 4),
        }
        medians = (f"{key} {stats['median']}" for key, stats in results[label].items())
        print(f"{label} medians: {', '.join(medians)}", flush=True)
    report = {
        "what": "fresh-interpreter cost of `import zobarrier` (time, ru_maxrss after it) "
        "and wall time of `python -m zobarrier presets`, both times at perfbench's "
        "reference host speed",
        **trees.header(__file__, "--src", sources),
        "timing": f"median, quartiles, min and max of {RUNS} fresh interpreters per source, "
        "rounds alternating which tree runs first after one untimed round; BLAS/OpenMP "
        "threads pinned to 1",
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
