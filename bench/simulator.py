"""Per-call cost of the two unicycle evaluation paths, by batch size, for
one or more source trees.

Times `problems._evaluate_rows` (per-row Python floats, writing the
(P, T+1) evaluation table itself) and `problems._evaluate_vectorized`
(numpy over all rows, one time step at a time) on the unicycle-paper
geometry at fixed batch sizes, with gains drawn from a fixed seed inside
the preset's search box. A round runs each tree once in a fresh
interpreter (PYTHONPATH set to the tree), timing both paths at every
size; the rounds alternate which tree runs first, so a change in host
speed reaches all of them alike, and each size's times are rescaled by
perfbench's reference loop, timed in the same interpreter before and
after them, to perfbench's reference host speed. Each tree's figure is
the median over the rounds, with its quartiles, min and max. Each size
also checks that both paths return byte-identical tables, and that
every tree returns the same bytes.
"eval_all_ms" is what the unicycle `eval_all` runs, which picks a path by
batch size. The JSON names the machine and justifies the dispatch
threshold of the last tree: the per-row kernel must win at every size up
to it, and the largest such size is reported as the measured crossover.
It also justifies the last tree's block size: a BLOCK_BATCH-row batch is
timed and its `tracemalloc` peak measured at each block size in BLOCKS,
the last being one block, and every block size must return the one-block
table byte for byte.

    python3 bench/simulator.py [--src [LABEL=]DIR ...] [--out BENCH_simulator.json]

With no --src, the `src` directory of this checkout is measured. To
compare two commits, check the other one out elsewhere and pass both,
e.g. `--src before=../parent/src --src after=src`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import trees

ROOT = trees.ROOT
SIZES = (1, 7, 8, 16, 24, 32, 48, 64, 160, 1600, 2048)
SEED = 20261018
ROUNDS = 9
ROUND_S = 0.05
BLOCK_BATCH = 8192
BLOCKS = (512, 1024, 2048, 4096, 8192)
# Times are rescaled to a host on which perfbench's reference loop takes
# this long, as perfbench reports them.
REFERENCE_S = trees.perfbench("run").REFERENCE_S


def per_call_ms(kernels, points, cfg, rounds: int) -> list[float]:
    """Per-call time of each kernel: the median over `rounds` of the mean
    time per call in a round of at least ROUND_S. The kernels' rounds
    alternate, so a change in host speed reaches all of them alike."""
    calls = []
    for fn in kernels:
        fn(points, cfg)
        t0 = time.perf_counter()
        fn(points, cfg)
        calls.append(max(1, int(ROUND_S / max(time.perf_counter() - t0, 1e-9))))
    times = [[] for _ in kernels]
    for _ in range(rounds):
        for fn, n, kernel_times in zip(kernels, calls, times):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(points, cfg)
            kernel_times.append((time.perf_counter() - t0) / n)
    return [1e3 * statistics.median(kernel_times) for kernel_times in times]


def gains(cfg, rng, size):
    return cfg.initial_gain.ravel() + rng.uniform(-0.15, 0.15, size=(size, 6))


def paper_config():
    """The UnicycleConfig of the unicycle-paper preset's problem section, so
    that every tree times the problem its preset runs."""
    from zobarrier import harness, problems

    fields = {f.name for f in dataclasses.fields(problems.UnicycleConfig)}
    section = harness.PRESETS["unicycle-paper"]["problem"]
    return problems.UnicycleConfig(**{k: v for k, v in section.items() if k in fields})


def paths_round() -> list[dict]:
    """One round in this interpreter: both paths' time per call at every
    size, rescaled to the reference host speed, their byte equality and a
    digest of the table."""
    from zobarrier import problems

    reference_block = trees.perfbench("worker").reference_block
    cfg = paper_config()
    rng = np.random.default_rng(SEED)
    rows = []
    reference = reference_block()
    for size in SIZES:
        points = gains(cfg, rng, size)
        table = problems._evaluate_vectorized(points, cfg).tobytes()
        kernels = (problems._evaluate_rows, problems._evaluate_vectorized)
        row_ms, vec_ms = per_call_ms(kernels, points, cfg, rounds=1)
        before, reference = reference, reference_block()
        scale = REFERENCE_S / ((before + reference) / 2)
        row_ms, vec_ms = row_ms * scale, vec_ms * scale
        rows.append(
            {
                "batch": size,
                "rows_kernel_ms": row_ms,
                "vectorized_ms": vec_ms,
                "eval_all_ms": row_ms if size <= problems._ROW_KERNEL_MAX_ROWS else vec_ms,
                "bitwise_equal": problems._evaluate_rows(points, cfg).tobytes() == table,
                "table_sha256": hashlib.sha256(table).hexdigest(),
            }
        )
    return rows


def block_sizes() -> dict:
    """Per-call time, `tracemalloc` peak and one-block equality of
    `_evaluate_vectorized` on a BLOCK_BATCH-row batch at each block size in
    BLOCKS, and the constants of the tree."""
    from zobarrier import problems

    cfg = paper_config()
    points = gains(cfg, np.random.default_rng(SEED + 1), BLOCK_BATCH)
    chosen = problems._BLOCK_ROWS

    def at(block):
        def evaluate(points, cfg):
            problems._BLOCK_ROWS = block
            return problems._evaluate_vectorized(points, cfg)

        return evaluate

    kernels = [at(block) for block in BLOCKS]
    one_block = kernels[-1](points, cfg).tobytes()
    sizes = []
    try:
        for block, evaluate, ms in zip(BLOCKS, kernels, per_call_ms(kernels, points, cfg, ROUNDS)):
            same = evaluate(points, cfg).tobytes() == one_block
            tracemalloc.start()
            evaluate(points, cfg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            sizes.append(
                {
                    "block_rows": block,
                    "ms": round(ms, 4),
                    "tracemalloc_peak_mb": round(peak / 1e6, 3),
                    "bitwise_equal_one_block": same,
                }
            )
    finally:
        problems._BLOCK_ROWS = chosen
    return {
        "block_rows": chosen,
        "row_kernel_max_rows": problems._ROW_KERNEL_MAX_ROWS,
        "table_mb": round(BLOCK_BATCH * (cfg.horizon + 1) * 8 / 1e6, 3),
        "sizes": sizes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=trees.source, action="append", help=trees.SRC_HELP)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_simulator.json")
    parser.add_argument("--worker", choices=("paths", "blocks"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(paths_round() if args.worker == "paths" else block_sizes()))
        return 0

    sources = dict(args.src or [("src", trees.checked(ROOT / "src"))])
    rounds = {label: [] for label in sources}
    for _, pairs in trees.rounds(ROUNDS, sources):
        for label, src in pairs:
            rounds[label].append(trees.run_worker(__file__, src, "paths"))
    last = list(sources)[-1]
    blocks = trees.run_worker(__file__, sources[last], "blocks")

    paths = []
    for i, size in enumerate(SIZES):
        row = {"batch": size}
        for label, samples in rounds.items():
            at_size = [sample[i] for sample in samples]
            row[label] = {
                key: trees.summary([s[key] for s in at_size], 4)
                for key in ("rows_kernel_ms", "vectorized_ms", "eval_all_ms")
            }
            row[label]["rows_speedup"] = round(
                row[label]["vectorized_ms"]["median"] / row[label]["rows_kernel_ms"]["median"], 2
            )
        row["bitwise_equal"] = all(s[i]["bitwise_equal"] for v in rounds.values() for s in v)
        row["tables_equal_across_trees"] = (
            len({s[i]["table_sha256"] for v in rounds.values() for s in v}) == 1
        )
        if len(sources) > 1:
            first = list(sources)[0]
            row["eval_all_after_over_before"] = round(
                row[last]["eval_all_ms"]["median"] / row[first]["eval_all_ms"]["median"], 3
            )
        paths.append(row)
        print(json.dumps(row), flush=True)

    threshold = blocks["row_kernel_max_rows"]
    crossover = 0  # largest size up to which the per-row kernel wins at every size
    for row in paths:
        if row[last]["rows_speedup"] <= 1.0:
            break
        crossover = row["batch"]
    table_mb = blocks["table_mb"]
    fits = [b["block_rows"] for b in blocks["sizes"] if b["tracemalloc_peak_mb"] < table_mb + 1.0]
    for b in blocks["sizes"]:
        print(json.dumps(b), flush=True)
    report = {
        "what": "unicycle evaluation table per-call time by batch size (horizon 30, "
        "the unicycle-paper preset's problem), for each source tree",
        **trees.header(__file__, "--src", sources),
        "seed": SEED,
        "timing": f"per tree and size, the median, quartiles, min and max over {ROUNDS} fresh "
        f"interpreters of the mean time per call over >= {ROUND_S} s, rescaled by perfbench's "
        f"reference loop to a host where it takes {REFERENCE_S} s, the rounds alternating "
        "which tree runs first; the block sizes are timed unscaled in one interpreter of the last "
        f"tree, median of {ROUNDS} alternating rounds, and the tracemalloc peak is of one call "
        "after a warm one; BLAS/OpenMP threads pinned to 1",
        "sources": list(sources),
        "paths": paths,
        "threshold": {
            "tree": last,
            "row_kernel_max_rows": threshold,
            "largest_size_rows_kernel_wins_up_to": crossover,
            "rule": "the per-row kernel wins at every measured size up to the threshold, "
            "and the threshold sits below the measured crossover so that a slower "
            "interpreter or a faster numpy shifts the crossover without inverting the choice",
            "holds": crossover >= threshold,
        },
        "blocks": {
            "tree": last,
            "batch": BLOCK_BATCH,
            "table_mb": table_mb,
            "block_rows": blocks["block_rows"],
            "sizes": blocks["sizes"],
            "rule": "block_rows is the largest measured block at which the batch's tracemalloc "
            "peak stays under the table plus 1 MB",
            "holds": bool(fits) and blocks["block_rows"] == max(fits),
        },
        "all_bitwise_equal": all(row["bitwise_equal"] for row in paths)
        and all(b["bitwise_equal_one_block"] for b in blocks["sizes"]),
        "tables_equal_across_trees": all(row["tables_equal_across_trees"] for row in paths),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if report["all_bitwise_equal"] and report["tables_equal_across_trees"] else 1


if __name__ == "__main__":
    sys.exit(main())
