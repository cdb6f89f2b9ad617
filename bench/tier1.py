"""Wall time of the Tier-1 suite, and of acceptance criterion 5 within it.

For each checkout root given with --root (a directory holding `src` and
`tests`), a round runs the Tier-1 command in that root once, in a fresh
interpreter with PYTHONPATH set to its `src`, timed wall to wall,
interpreter start included, and rescaled to perfbench's reference host
speed by perfbench's reference loop timed just before and just after it
(`trees.at_reference_speed`):

    python -m pytest -q --continue-on-collection-errors -p no:cacheprovider --durations=0

Criterion 5's call time (`check_smoothing_properties` at n_points=100,
n_mc=30,000) is read from pytest's `--durations` report. The report
gives the median, quartiles, minimum and maximum of each over RUNS
rounds. The rounds alternate which root runs first, so a change in host
speed reaches all of them alike; one untimed round first writes the
bytecode caches. BLAS and OpenMP threads are pinned to 1, as in
perfbench. Each root's 12 smoothing statistics are then printed once at
full precision and compared with the first root's.

    python3 bench/tier1.py [--root [LABEL=]DIR ...] [--out BENCH_tier1.json]

With no --root, this checkout is measured. To compare two commits,
check the other one out elsewhere and pass both, e.g. `--root
before=../parent --root after=.`.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import trees

ROOT = trees.ROOT
RUNS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
CRITERION_5 = "tests/test_acceptance.py::test_criterion_05_smoothing_properties"
STATISTICS = (
    "from zobarrier.harness import check_smoothing_properties\n"
    "for c in check_smoothing_properties():\n"
    "    print(c.name, c.passed, c.statistic.hex())\n"
)


def one_round(root: Path) -> tuple[float, float, str]:
    """(Tier-1 wall seconds, criterion 5 call seconds, pytest's counts, e.g. "262 passed")."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1, "--durations=0"],
        cwd=root,
        env=trees.environment(root / "src"),
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - t0
    found = re.search(rf"^([\d.]+)s call\s+{re.escape(CRITERION_5)}$", proc.stdout, re.M)
    if found is None:
        raise SystemExit(f"{root}: no call time for {CRITERION_5}:\n{proc.stdout[-2000:]}")
    summary = proc.stdout.strip().splitlines()[-1].strip("= ")
    return wall, float(found.group(1)), re.sub(r" in [\d.]+s.*$", "", summary)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=trees.root, action="append", help=trees.ROOT_HELP)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tier1.json")
    args = parser.parse_args()
    roots = dict(args.root or [("this checkout", trees.checked(ROOT / "src").parent)])

    samples = {label: [] for label in roots}
    outcomes = {label: set() for label in roots}
    for r, pairs in trees.rounds(1 + RUNS, roots):
        for label, root in pairs:
            (wall, crit5, outcome), scale = trees.at_reference_speed(lambda: one_round(root))
            wall, crit5 = wall * scale, crit5 * scale
            outcomes[label].add(outcome)
            if r > 0:
                samples[label].append((wall, crit5))
                print(f"{label}: Tier-1 {wall:.2f} s, criterion 5 {crit5:.2f} s", flush=True)

    stats = {}
    for label, root in roots.items():
        stats[label] = subprocess.run(
            [sys.executable, "-c", STATISTICS],
            env=trees.environment(root / "src"),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    first = list(roots)[0]
    results = {}
    for label, rows in samples.items():
        walls, crit5s = zip(*rows)
        results[label] = {
            "tier1_wall_s": trees.summary(walls, 3),
            "criterion_5_call_s": trees.summary(crit5s, 3),
            "pytest_outcomes": sorted(outcomes[label]),
            "smoothing_statistics_match_first": stats[label] == stats[first],
        }
    for label, row in results.items():
        base = results[first]
        for key in ("tier1_wall_s", "criterion_5_call_s"):
            row[key]["speedup_vs_first"] = round(base[key]["median"] / row[key]["median"], 3)
        verdict = "match" if row["smoothing_statistics_match_first"] else "DIFFER"
        print(f"{label}: Tier-1 {row['tier1_wall_s']}, criterion 5 {row['criterion_5_call_s']}")
        print(f"{label}: {'; '.join(row['pytest_outcomes'])}, statistics {verdict}", flush=True)
    report = {
        "what": "wall time of the Tier-1 suite (`PYTHONPATH=src python "
        + " ".join(TIER1)
        + "`), interpreter start included, and acceptance criterion 5's call time "
        "from pytest's --durations, both at perfbench's reference host speed",
        **trees.header(__file__, "--root", roots),
        "timing": f"median, quartiles, min and max of {RUNS} rounds per root, rounds "
        "alternating which tree runs first after one untimed round; BLAS/OpenMP threads "
        "pinned to 1",
        "statistics_compared": "criterion 5's 12 statistics (check_smoothing_properties at "
        "its defaults) as float.hex, against the first root's",
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
