"""Per-call cost of the two unicycle simulator kernels, by batch size.

Times `problems._simulate_rows` (per-row Python floats) and
`problems._simulate_vectorized` (one numpy step per time step) on the
unicycle-paper geometry at fixed batch sizes, with gains drawn from a
fixed seed inside the preset's search box. "before" is the vectorized
kernel alone, which was the simulator's only path before the per-row
kernel existed; "after" is `simulate_unicycle_batch`, which picks a
kernel by batch size. Every size also checks that both kernels return
byte-identical trajectories. The JSON names the machine and justifies
the dispatch threshold: the per-row kernel must win at every size up to
it, and the largest such size is reported as the measured crossover.

    PYTHONPATH=src python3 bench/simulator.py [--out BENCH_simulator.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from zobarrier import problems  # noqa: E402

SIZES = (1, 7, 8, 16, 24, 32, 48, 64, 160, 1600)
SEED = 20261018
ROUNDS = 9
ROUND_S = 0.05


def per_call_ms(kernels, gains, cfg) -> list[float]:
    """Per-call time of each kernel: the median over ROUNDS of the mean
    time per call in a round of at least ROUND_S. The kernels' rounds
    alternate, so a change in host speed reaches all of them alike."""
    calls = []
    for fn in kernels:
        fn(gains, cfg)
        t0 = time.perf_counter()
        fn(gains, cfg)
        calls.append(max(1, int(ROUND_S / max(time.perf_counter() - t0, 1e-9))))
    rounds = [[] for _ in kernels]
    for _ in range(ROUNDS):
        for fn, n, times in zip(kernels, calls, rounds):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(gains, cfg)
            times.append((time.perf_counter() - t0) / n)
    return [1e3 * statistics.median(times) for times in rounds]


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_simulator.json")
    args = parser.parse_args()

    cfg = problems.UnicycleConfig(error_feedback=True)
    rng = np.random.default_rng(SEED)
    x0 = cfg.initial_gain.ravel()
    rows = []
    for size in SIZES:
        gains = (x0 + rng.uniform(-0.15, 0.15, size=(size, 6))).reshape(size, 2, 3)
        same = (
            problems._simulate_rows(gains, cfg).tobytes()
            == problems._simulate_vectorized(gains, cfg).tobytes()
        )
        row_ms, vec_ms = per_call_ms(
            (problems._simulate_rows, problems._simulate_vectorized), gains, cfg
        )
        rows.append(
            {
                "batch": size,
                "rows_kernel_ms": round(row_ms, 4),
                "vectorized_kernel_ms": round(vec_ms, 4),
                "rows_speedup": round(vec_ms / row_ms, 2),
                "bitwise_equal": same,
            }
        )
        print(f"B={size:5d}  rows {row_ms:8.3f} ms  vectorized {vec_ms:8.3f} ms  "
              f"x{vec_ms / row_ms:5.2f}  equal={same}", flush=True)

    threshold = problems._ROW_KERNEL_MAX_ROWS
    crossover = 0  # largest size up to which the per-row kernel wins at every size
    for r in rows:
        if r["rows_speedup"] <= 1.0:
            break
        crossover = r["batch"]
    dispatched = [
        {
            "batch": r["batch"],
            "kernel": "rows" if r["batch"] <= threshold else "vectorized",
            "before_ms": r["vectorized_kernel_ms"],
            "after_ms": r["rows_kernel_ms"] if r["batch"] <= threshold else r["vectorized_kernel_ms"],
        }
        for r in rows
    ]
    report = {
        "what": "unicycle simulator per-call time by batch size (horizon 30, "
        "unicycle-paper geometry, error feedback)",
        "command": "PYTHONPATH=src python3 bench/simulator.py",
        "machine": machine(),
        "seed": SEED,
        "timing": f"median of {ROUNDS} rounds of >= {ROUND_S} s, mean per call in each round; "
        "the two kernels' rounds alternate",
        "kernels": rows,
        "threshold": {
            "row_kernel_max_rows": threshold,
            "largest_size_rows_kernel_wins_up_to": crossover,
            "rule": "the per-row kernel wins at every measured size up to the threshold, "
            "and the threshold sits below the measured crossover so that a slower "
            "interpreter or a faster numpy shifts the crossover without inverting the choice",
            "holds": crossover >= threshold,
        },
        "before_after": dispatched,
        "all_bitwise_equal": all(r["bitwise_equal"] for r in rows),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
