"""Per-call cost of the two unicycle evaluation paths, by batch size.

Times `problems._evaluate_rows` (per-row Python floats, writing the
(P, T+1) evaluation table itself) and `problems._evaluate_vectorized`
(one numpy simulation step per time step, then numpy reductions to the
table) on the unicycle-paper geometry at fixed batch sizes, with gains
drawn from a fixed seed inside the preset's search box. "before" is the
vectorized path alone; "after" is what the unicycle `eval_all` runs,
which picks a path by batch size. Every size also checks that both paths
return byte-identical tables. The JSON names the machine and justifies
the dispatch threshold: the per-row kernel must win at every size up to
it, and the largest such size is reported as the measured crossover.
It also justifies the vectorized path's block size: a BLOCK_BATCH-row
batch (the Monte-Carlo residual's) is timed and its `tracemalloc` peak
measured at each block size in BLOCKS, the last being one block, and
every block size must return the one-block table byte for byte.

    python3 bench/simulator.py [--out BENCH_simulator.json]

Run as a script it puts this checkout's `src` first on `sys.path`;
imported (other bench scripts take `machine` from it) it changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 7, 8, 16, 24, 32, 48, 64, 160, 1600)
SEED = 20261018
ROUNDS = 9
ROUND_S = 0.05
BLOCK_BATCH = 2048
BLOCKS = (256, 512, 1024, 2048)


def per_call_ms(kernels, points, cfg) -> list[float]:
    """Per-call time of each kernel: the median over ROUNDS of the mean
    time per call in a round of at least ROUND_S. The kernels' rounds
    alternate, so a change in host speed reaches all of them alike."""
    calls = []
    for fn in kernels:
        fn(points, cfg)
        t0 = time.perf_counter()
        fn(points, cfg)
        calls.append(max(1, int(ROUND_S / max(time.perf_counter() - t0, 1e-9))))
    rounds = [[] for _ in kernels]
    for _ in range(ROUNDS):
        for fn, n, times in zip(kernels, calls, rounds):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(points, cfg)
            times.append((time.perf_counter() - t0) / n)
    return [1e3 * statistics.median(times) for times in rounds]


def block_sizes(problems, points, cfg) -> list[dict]:
    """Per-call time, `tracemalloc` peak and one-block equality of
    `_evaluate_vectorized` on `points` at each block size in BLOCKS."""
    chosen = problems._BLOCK_ROWS

    def at(block):
        def evaluate(points, cfg):
            problems._BLOCK_ROWS = block
            return problems._evaluate_vectorized(points, cfg)

        return evaluate

    kernels = [at(block) for block in BLOCKS]
    one_block = kernels[-1](points, cfg).tobytes()
    rows = []
    try:
        for block, evaluate, ms in zip(BLOCKS, kernels, per_call_ms(kernels, points, cfg)):
            same = evaluate(points, cfg).tobytes() == one_block
            tracemalloc.start()
            evaluate(points, cfg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rows.append(
                {
                    "block_rows": block,
                    "ms": round(ms, 4),
                    "tracemalloc_peak_mb": round(peak / 1e6, 3),
                    "bitwise_equal_one_block": same,
                }
            )
            print(f"block={block:5d}  {ms:8.3f} ms  peak {peak / 1e6:6.3f} MB  equal={same}",
                  flush=True)
    finally:
        problems._BLOCK_ROWS = chosen
    return rows


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
    from zobarrier import problems

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_simulator.json")
    args = parser.parse_args()

    cfg = problems.UnicycleConfig(error_feedback=True)
    rng = np.random.default_rng(SEED)
    x0 = cfg.initial_gain.ravel()
    rows = []
    for size in SIZES:
        points = x0 + rng.uniform(-0.15, 0.15, size=(size, 6))
        same = (
            problems._evaluate_rows(points, cfg).tobytes()
            == problems._evaluate_vectorized(points, cfg).tobytes()
        )
        row_ms, vec_ms = per_call_ms(
            (problems._evaluate_rows, problems._evaluate_vectorized), points, cfg
        )
        rows.append(
            {
                "batch": size,
                "rows_kernel_ms": round(row_ms, 4),
                "vectorized_ms": round(vec_ms, 4),
                "rows_speedup": round(vec_ms / row_ms, 2),
                "bitwise_equal": same,
            }
        )
        print(f"B={size:5d}  rows {row_ms:8.3f} ms  vectorized {vec_ms:8.3f} ms  "
              f"x{vec_ms / row_ms:5.2f}  equal={same}", flush=True)

    points = x0 + rng.uniform(-0.15, 0.15, size=(BLOCK_BATCH, 6))
    blocks = block_sizes(problems, points, cfg)
    table_mb = BLOCK_BATCH * (cfg.horizon + 1) * 8 / 1e6

    threshold = problems._ROW_KERNEL_MAX_ROWS
    crossover = 0  # largest size up to which the per-row kernel wins at every size
    for r in rows:
        if r["rows_speedup"] <= 1.0:
            break
        crossover = r["batch"]
    dispatched = [
        {
            "batch": r["batch"],
            "path": "rows" if r["batch"] <= threshold else "vectorized",
            "before_ms": r["vectorized_ms"],
            "after_ms": r["rows_kernel_ms"] if r["batch"] <= threshold else r["vectorized_ms"],
        }
        for r in rows
    ]
    report = {
        "what": "unicycle evaluation table per-call time by batch size (horizon 30, "
        "unicycle-paper geometry, error feedback)",
        "command": "python3 bench/simulator.py",
        "machine": machine(),
        "seed": SEED,
        "timing": f"median of {ROUNDS} rounds of >= {ROUND_S} s, mean per call in each round; "
        "the two paths' (and the block sizes') rounds alternate; the tracemalloc peak is of "
        "one call after a warm one",
        "paths": rows,
        "threshold": {
            "row_kernel_max_rows": threshold,
            "largest_size_rows_kernel_wins_up_to": crossover,
            "rule": "the per-row kernel wins at every measured size up to the threshold, "
            "and the threshold sits below the measured crossover so that a slower "
            "interpreter or a faster numpy shifts the crossover without inverting the choice",
            "holds": crossover >= threshold,
        },
        "before_after": dispatched,
        "blocks": {
            "batch": BLOCK_BATCH,
            "table_mb": round(table_mb, 3),
            "block_rows": problems._BLOCK_ROWS,
            "sizes": blocks,
            "rule": "the vectorized path simulates block_rows rows at a time; at that block "
            "the batch's tracemalloc peak stays under the table plus 1 MB",
            "holds": any(
                r["block_rows"] == problems._BLOCK_ROWS
                and r["tracemalloc_peak_mb"] < table_mb + 1.0
                for r in blocks
            ),
        },
        "all_bitwise_equal": all(r["bitwise_equal"] for r in rows)
        and all(r["bitwise_equal_one_block"] for r in blocks),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
