"""Cost of one iteration's randomness, one stream per table against paged tables.

Each solver iteration draws three tables: the base noise (n, m+1), the
sampling directions (n, d) and the perturbed noise (n, m+1). "before" is
how the package drew them before paging: one `streams.substream` per
table, keyed (seed, DOMAIN_NOISE, k, side) and (seed, DOMAIN_DIRECTIONS,
k). "after" is `NoiseModel.draw` and `solver.direction_pages`, paged by
`streams.TablePages`: the tables of several consecutive iterations come
from one stream, and each iteration is served its rows. A pass draws all three
tables for k = 1..K with a fresh noise model and fresh pages, so the
cost of drawing each page counts. The shapes and K are the three
perfbench workloads': linear-ball-demo (n=16, m+1=2, d=2, K=2000),
unicycle-paper (n=7, m+1=31, d=6, K=500) and smooth-2con-wide (n=2048,
m+1=3, d=2, K=40). Fixed seed and sizes; the before and after rounds
alternate, so a change in host speed reaches both alike.

    PYTHONPATH=src python3 bench/paged_streams.py [--out BENCH_paged_streams.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from simulator import machine  # noqa: E402
from streams import ROUND_S, ROUNDS, alternate  # noqa: E402  (bench/streams.py)

from zobarrier.estimator import sphere_sample  # noqa: E402
from zobarrier.oracle import NoiseModel  # noqa: E402
from zobarrier.solver import direction_pages  # noqa: E402
from zobarrier.streams import (  # noqa: E402
    DOMAIN_DIRECTIONS,
    DOMAIN_NOISE,
    PAGE_VALUES,
    SIDE_BASE,
    SIDE_PERTURBED,
    substream,
)

SEED = 20261019
SIGMA = 0.01
# (workload, n, m + 1, d, K)
WORKLOADS = (
    ("linear-ball-demo", 16, 2, 2, 2000),
    ("unicycle-paper", 7, 31, 6, 500),
    ("smooth-2con-wide", 2048, 3, 2, 40),
)


def before_pass(n: int, m1: int, d: int, iters: int) -> None:
    for k in range(1, iters + 1):
        substream(SEED, DOMAIN_NOISE, k, SIDE_BASE).normal(0.0, SIGMA, size=(n, m1))
        sphere_sample(d, n, substream(SEED, DOMAIN_DIRECTIONS, k))
        substream(SEED, DOMAIN_NOISE, k, SIDE_PERTURBED).normal(0.0, SIGMA, size=(n, m1))


def after_pass(n: int, m1: int, d: int, iters: int) -> None:
    noise = NoiseModel(sigma=SIGMA, master_seed=SEED)
    directions = direction_pages()
    for k in range(1, iters + 1):
        noise.draw(k, SIDE_BASE, n, m1)
        directions.table(SEED, DOMAIN_DIRECTIONS, k, 0, n, d)
        noise.draw(k, SIDE_PERTURBED, n, m1)


def pages(rows: int, cols: int, iters: int) -> int:
    """Pages a pass over k = 1..iters draws for one (rows, cols) table."""
    per_page = max(1, PAGE_VALUES // (rows * cols))
    return len({k // per_page for k in range(1, iters + 1)})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_paged_streams.json")
    args = parser.parse_args()

    rows = []
    for name, n, m1, d, iters in WORKLOADS:
        shape = (n, m1, d, iters)
        per = alternate(
            {
                "before": (lambda: before_pass(*shape), iters),
                "after": (lambda: after_pass(*shape), iters),
            }
        )
        rows.append(
            {
                "workload": name,
                "noise_table": [n, m1],
                "directions_table": [n, d],
                "iterations": iters,
                "before_generators": 3 * iters,
                "after_generators": 2 * pages(n, m1, iters) + pages(n, d, iters),
                "before_us_per_iter": round(1e6 * per["before"], 3),
                "after_us_per_iter": round(1e6 * per["after"], 3),
                "speedup": round(per["before"] / per["after"], 2),
            }
        )
        print(
            f"{name}: before {1e6 * per['before']:.2f} us/iter, "
            f"after {1e6 * per['after']:.2f} us/iter",
            flush=True,
        )

    report = {
        "what": "randomness per solver iteration (base noise, directions, perturbed noise): "
        "one stream per table (before) against paged tables (after)",
        "command": "PYTHONPATH=src python3 bench/paged_streams.py",
        "machine": machine(),
        "seed": SEED,
        "page_values": PAGE_VALUES,
        "timing": f"median of {ROUNDS} rounds of >= {ROUND_S} s, mean per iteration of a "
        "pass over k = 1..K in each round; before and after rounds alternate",
        "workloads": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
