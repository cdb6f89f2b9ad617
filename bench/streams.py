"""Cost of keyed random streams: construction per key and normal draws.

"before" is the stream the package built before this script existed,
`np.random.default_rng(np.random.SeedSequence([seed, *key]))` (PCG64
seeded through SeedSequence hashing); "after" is `streams.substream`, a
Philox4x64-10 generator keyed by (seed, domain) with the rest of the key
in its counter. Construction is timed on the noise keys the oracle
builds, (seed, DOMAIN_NOISE, k, side) for k = 1..KEYS and both sides;
the solver builds three such keys per iteration. Draw throughput is
`normal(0, sigma, shape)` on a live generator at the table shapes the
benchmarks draw: (16, 2) for linear-ball-demo, (7, 31) for
unicycle-paper (horizon 30), (7, 101) for the same at horizon 100 and
(2048, 3) for smooth-2con-wide. Fixed seed and sizes; the before and
after rounds alternate, so a change in host speed reaches both alike.

    PYTHONPATH=src python3 bench/streams.py [--out BENCH_streams.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from simulator import machine  # noqa: E402

from zobarrier.streams import DOMAIN_NOISE, SIDE_BASE, SIDE_PERTURBED, substream  # noqa: E402

SEED = 20261018
KEYS = 500
SHAPES = ((16, 2), (7, 31), (7, 101), (2048, 3))
SIGMA = 0.01
ROUNDS = 9
ROUND_S = 0.05
_MASK64 = (1 << 64) - 1


def seedsequence_pcg64(master_seed: int, *key: int) -> np.random.Generator:
    """The stream construction this benchmark compares against."""
    words = [int(master_seed) & _MASK64]
    words.extend(int(part) & _MASK64 for part in key)
    return np.random.default_rng(np.random.SeedSequence(words))


BUILDERS = {"before": seedsequence_pcg64, "after": substream}
KEY_LIST = [
    (SEED, DOMAIN_NOISE, k, side) for k in range(1, KEYS + 1) for side in (SIDE_BASE, SIDE_PERTURBED)
]


def alternate(tasks: dict) -> dict:
    """Seconds per call of each task: the median over ROUNDS of the mean
    per call in a round of at least ROUND_S, with the tasks' rounds
    alternating."""
    calls = {}
    for name, (fn, _) in tasks.items():
        fn()
        t0 = time.perf_counter()
        fn()
        calls[name] = max(1, int(ROUND_S / max(time.perf_counter() - t0, 1e-9)))
    rounds = {name: [] for name in tasks}
    for _ in range(ROUNDS):
        for name, (fn, per) in tasks.items():
            t0 = time.perf_counter()
            for _ in range(calls[name]):
                fn()
            rounds[name].append((time.perf_counter() - t0) / (calls[name] * per))
    return {name: statistics.median(times) for name, times in rounds.items()}


def build_all(builder):
    return lambda: [builder(*key) for key in KEY_LIST]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_streams.json")
    args = parser.parse_args()

    build = alternate({name: (build_all(fn), len(KEY_LIST)) for name, fn in BUILDERS.items()})
    construction = {f"{name}_us_per_key": round(1e6 * s, 3) for name, s in build.items()}
    construction["speedup"] = round(build["before"] / build["after"], 2)
    print(f"construction: before {1e6 * build['before']:.2f} us/key, "
          f"after {1e6 * build['after']:.2f} us/key", flush=True)

    draws = []
    for shape in SHAPES:
        gens = {name: fn(SEED, DOMAIN_NOISE, 1, SIDE_BASE) for name, fn in BUILDERS.items()}
        per = alternate(
            {name: (lambda g=g: g.normal(0.0, SIGMA, size=shape), 1) for name, g in gens.items()}
        )
        values = shape[0] * shape[1]
        row = {"shape": list(shape), "values": values}
        for name, s in per.items():
            row[f"{name}_us_per_call"] = round(1e6 * s, 3)
            row[f"{name}_ns_per_value"] = round(1e9 * s / values, 3)
        draws.append(row)
        print(f"normal{shape}: before {1e6 * per['before']:.2f} us, "
              f"after {1e6 * per['after']:.2f} us per call", flush=True)

    fresh = substream(SEED, DOMAIN_NOISE, 1, SIDE_BASE).standard_normal(8)
    report = {
        "what": "keyed stream construction per key and normal-draw throughput, "
        "SeedSequence+PCG64 (before) against counter-keyed Philox (after)",
        "command": "PYTHONPATH=src python3 bench/streams.py",
        "machine": machine(),
        "seed": SEED,
        "keys": f"(seed, DOMAIN_NOISE, k, side) for k = 1..{KEYS}, both sides",
        "timing": f"median of {ROUNDS} rounds of >= {ROUND_S} s, mean per call in each round; "
        "before and after rounds alternate",
        "construction": construction,
        "per_iteration_keys": 3,
        "per_iteration_saving_us": round(3e6 * (build["before"] - build["after"]), 2),
        "normal_draws": draws,
        "after_is_pure_function_of_key": bool(
            np.array_equal(fresh, substream(SEED, DOMAIN_NOISE, 1, SIDE_BASE).standard_normal(8))
        ),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
