"""What the bench scripts share: the source trees they compare and how each
is run, the order of the rounds, the host's speed, the summary of a sample
and the machine.

A tree is given as `[LABEL=]DIR`: `--src` names a directory holding the
`zobarrier` package, `--root` a checkout whose `src` holds it. Each is
checked when the arguments are parsed: a fresh interpreter with the
tree's environment (PYTHONPATH set to it, BLAS/OpenMP pinned to one
thread, as in perfbench) must import `zobarrier` from it, so that a
mistyped path cannot silently measure an installed copy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SRC_HELP = "[LABEL=]DIR holding the zobarrier package"
ROOT_HELP = "[LABEL=]DIR holding src and tests"


def environment(src: Path, **extra: str) -> dict:
    """The environment of a process that runs tree `src`."""
    return {**os.environ, "PYTHONPATH": str(src), **{name: "1" for name in THREADS}, **extra}


def checked(src: Path) -> Path:
    """src, once a fresh interpreter with its environment imports zobarrier
    from it; argparse.ArgumentTypeError if not."""
    proc = subprocess.run(
        [sys.executable, "-c", "import zobarrier; print(zobarrier.__file__)"],
        env=environment(src),
        capture_output=True,
        text=True,
    )
    found = proc.stdout.strip()
    if proc.returncode != 0 or Path(found).resolve().parents[1] != src:
        raise argparse.ArgumentTypeError(
            f"{src}: zobarrier imported from {found}" if found else f"{src}: no zobarrier package"
        )
    return src


def _split(arg: str) -> tuple[str, Path]:
    label, _, path = arg.rpartition("=")
    return label or path, Path(path).resolve()


def source(arg: str) -> tuple[str, Path]:
    """(label, directory) of a `--src [LABEL=]DIR`, checked."""
    label, src = _split(arg)
    return label, checked(src)


def root(arg: str) -> tuple[str, Path]:
    """(label, checkout) of a `--root [LABEL=]DIR`, its `src` checked."""
    label, path = _split(arg)
    checked(path / "src")
    return label, path


def run_worker(script: str, src: Path, *args: str):
    """The JSON that `script --worker *args` prints when run by tree `src`."""
    proc = subprocess.run(
        [sys.executable, script, "--worker", *args],
        env=environment(src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def rounds(count: int, trees: dict):
    """(r, round r's (label, tree) pairs) for r in range(count): as given in
    even rounds, reversed in odd ones, so that a drift in host speed reaches
    each tree alike. Prints each round's order as it starts."""
    for r in range(count):
        pairs = list(trees.items())[:: 1 if r % 2 == 0 else -1]
        print(f"round {r + 1}/{count}: {'; '.join(label for label, _ in pairs)}", flush=True)
        yield r, pairs


def summary(values, digits: int) -> dict:
    """Median, inclusive quartiles (within the data's range), min and max."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    stats = {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}
    return {key: round(value, digits) for key, value in stats.items()}


def perfbench(module: str):
    """perfbench's `module` (run, worker or workloads) from this checkout."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(module)


def at_reference_speed(timed):
    """(timed(), factor): the factor takes the times measured during timed()
    to perfbench's reference host speed, as perfbench/run.py rescales a
    repetition, by perfbench's reference block timed in this process just
    before and just after: 2 * REFERENCE_S / (before + after)."""
    reference_block = perfbench("worker").reference_block
    before = reference_block()
    result = timed()
    return result, 2 * perfbench("run").REFERENCE_S / (before + reference_block())


def machine() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu": cpu,
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def header(script: str, flag: str, trees: dict) -> dict:
    """A report's `command` and `machine` entries."""
    args = " ".join(f"{flag} {label}=DIR" for label in trees)
    return {"command": f"python3 bench/{Path(script).name} {args}", "machine": machine()}
