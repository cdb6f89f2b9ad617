"""Cold start: what a fresh `zobarrier` process pays before its first step.

For each source tree given with --src, a round starts two fresh
interpreters with PYTHONPATH set to it. The first times `import
zobarrier` and reads ru_maxrss right after it; the second is
`python -m zobarrier presets`, timed wall to wall, interpreter start
included. The report gives the median of each over RUNS rounds. The
rounds alternate between the source trees, so a change in host speed
reaches all of them alike; one untimed round first writes the bytecode
caches. BLAS and OpenMP threads are pinned to 1, as in perfbench.

    python3 bench/cold_start.py [--src [LABEL=]DIR ...] [--out BENCH_cold_start.json]

With no --src, the `src` directory of this checkout is measured. To
compare two commits, check the other one out elsewhere and pass both,
e.g. `--src before=../parent/src --src after=src`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from simulator import machine

ROOT = Path(__file__).resolve().parent.parent
RUNS = 15
IMPORT_PROBE = (
    "import resource, time\n"
    "t0 = time.perf_counter()\n"
    "import zobarrier\n"
    "dt = time.perf_counter() - t0\n"
    "print(dt, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def source(arg: str) -> tuple[str, Path]:
    label, _, path = arg.rpartition("=")
    return label or path, Path(path).resolve()


def one_round(src: Path) -> tuple[float, float, float]:
    """(import seconds, ru_maxrss MB after the import, presets wall seconds)."""
    env = {**os.environ, "PYTHONPATH": str(src), **{name: "1" for name in THREADS}}
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
    parser.add_argument(
        "--src", type=source, action="append", help="[LABEL=]DIR holding the zobarrier package"
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cold_start.json")
    args = parser.parse_args()
    sources = dict(args.src or [("src", ROOT / "src")])

    for src in sources.values():
        one_round(src)
    samples = {label: [] for label in sources}
    for _ in range(RUNS):
        for label, src in sources.items():
            samples[label].append(one_round(src))

    results = {}
    for label, rows in samples.items():
        import_s, maxrss_mb, presets_s = (statistics.median(col) for col in zip(*rows))
        results[label] = {
            "import_s": round(import_s, 4),
            "maxrss_after_import_mb": round(maxrss_mb, 1),
            "presets_wall_s": round(presets_s, 4),
        }
        print(
            f"{label}: import zobarrier {import_s:.3f} s, ru_maxrss {maxrss_mb:.1f} MB, "
            f"zobarrier presets {presets_s:.3f} s",
            flush=True,
        )
    report = {
        "what": "fresh-interpreter cost of `import zobarrier` (time, ru_maxrss after it) "
        "and wall time of `python -m zobarrier presets`",
        "command": "python3 bench/cold_start.py "
        + " ".join(f"--src {label}=DIR" for label in sources),
        "machine": {**machine(), "scipy": metadata.version("scipy")},
        "timing": f"median of {RUNS} fresh interpreters per source, rounds alternating between "
        "sources after one untimed round; BLAS/OpenMP threads pinned to 1",
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
