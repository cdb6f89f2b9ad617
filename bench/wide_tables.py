"""Cost of the measurement-table reductions and of the audit CSV writer,
before and after they were rewritten column-wise.

Reductions. "before" is the numpy reduction over the short trailing axis
each site used to call; "after" is the package's replacement:
`problems.constraint_max` for `table[:, 1:].max(axis=1)` (the oracle's
audit and the solver's two noisy row maxes), and column additions
(`a[..., 0] + a[..., 1]`, then `+= a[..., 2]` in place for a third) for
`.sum(axis=-1)` over the squared point coordinates in the analytic
evaluators and over the 3 and 2 squared state columns in the unicycle
evaluator.
Shapes are the tables of the benchmark workloads: (1, 3) and (2048, 3)
for smooth-2con-wide, (1, 2) and (16, 2) for linear-ball-demo, (1, 31),
(7, 31) and (64, 31) for unicycle-paper. Where a table has too few rows
for its constraints `constraint_max` calls the numpy reduction itself
(`problems._ROWS_PER_COLUMN_CALL`), so those rows time that choice.
Each row checks that both results are equal bit for bit.

Audit CSV. "before" is the writer this change replaced: per-column
`float_reprs` and one `",".join` per row; "after" is
`oracle.write_audit_csv`, one orjson call and one join per 4096-row
chunk. Both write one trial's audit of each workload (the perfbench
configs) and must write equal bytes.

Fixed seed and sizes; before and after rounds alternate, so a change in
host speed reaches both alike.

    PYTHONPATH=src python3 bench/wide_tables.py [--out BENCH_wide_tables.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from simulator import machine  # noqa: E402
from streams import alternate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from zobarrier import harness  # noqa: E402
from zobarrier.oracle import _TAGS, write_audit_csv  # noqa: E402
from zobarrier.problems import constraint_max  # noqa: E402

SEED = 20261018
# (workload, table shape (rows, m + 1), point dimension d or None for unicycle)
TABLES = (
    ("smooth-2con-wide", (1, 3), 2),
    ("smooth-2con-wide", (2048, 3), 2),
    ("linear-ball-demo", (1, 2), 2),
    ("linear-ball-demo", (16, 2), 2),
    ("unicycle-paper", (1, 31), None),
    ("unicycle-paper", (7, 31), None),
    ("unicycle-paper", (64, 31), None),
)
HORIZON = 30
# Rows where the change may cost at most this much per call.
NO_SLOWDOWN_US = {(7, 31): 1.0, (16, 2): 1.0}


def before_float_reprs(values: np.ndarray) -> list[str]:
    """`repr` of each value of a 1-D array, as the replaced writer formatted it."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(values)
    outside = np.flatnonzero(~(((mag >= 1e-4) & (mag < 1e16)) | (values == 0.0)))
    for i, v in zip(outside.tolist(), values[outside].tolist()):
        out[i] = repr(v)
    return out


def before_row_labels(iterations: np.ndarray, sides: np.ndarray) -> list[str]:
    new_run = (iterations[1:] != iterations[:-1]) | (sides[1:] != sides[:-1])
    starts = np.flatnonzero(np.r_[True, new_run])
    labels = np.array(
        [f"{k},{_TAGS[s]}" for k, s in zip(iterations[starts].tolist(), sides[starts].tolist())],
        dtype=object,
    )
    return np.repeat(labels, np.diff(np.r_[starts, len(iterations)])).tolist()


def before_write_audit_csv(audit, path) -> None:
    """The audit writer this benchmark compares against."""
    dim = audit.points.shape[1]
    header = ["k", "tag"] + [f"x{i}" for i in range(dim)] + ["true_fc", "violated"]
    violated = audit.violated
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(audit), 4096):
            rows = slice(lo, lo + 4096)
            columns = [
                before_row_labels(audit.iterations[rows], audit.sides[rows]),
                *map(before_float_reprs, audit.points[rows].T),
                before_float_reprs(audit.true_max_constraint[rows]),
                map(("0\r\n", "1\r\n").__getitem__, violated[rows].tolist()),
            ]
            fh.write("".join(map(",".join, zip(*columns))))


WRITERS = {"before": before_write_audit_csv, "after": write_audit_csv}


def column_sums(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1)` for 2 or 3 nonnegative columns, as the evaluators
    write it: the first two columns added, the third added in place."""
    total = a[..., 0] + a[..., 1]
    if a.shape[-1] == 3:
        total += a[..., 2]
    return total


def reductions(rng: np.random.Generator, shape: tuple[int, int], dim: int | None) -> list[dict]:
    """before/after per call of each reduction on a table of `shape`."""
    rows = shape[0]
    table = rng.standard_normal(shape)
    cases = {"row_max": (table, lambda t: t[:, 1:].max(axis=1), constraint_max)}
    if dim is None:
        for cols in (3, 2):
            cube = rng.standard_normal((rows, HORIZON, cols)) ** 2
            cases[f"sum_{cols}_state_columns"] = (cube, lambda a: a.sum(axis=2), column_sums)
    else:
        squares = rng.standard_normal((rows, dim)) ** 2
        cases["sum_point_squares"] = (squares, lambda a: a.sum(axis=1), column_sums)
    out = []
    for name, (data, before, after) in cases.items():
        equal = before(data).tobytes() == after(data).tobytes()
        if not equal:
            raise SystemExit(f"{name} at {shape}: before and after differ")
        per = alternate({"before": (lambda: before(data), 1), "after": (lambda: after(data), 1)})
        out.append({
            "reduction": name,
            "input_shape": list(data.shape),
            "before_us": round(1e6 * per["before"], 3),
            "after_us": round(1e6 * per["after"], 3),
            "bitwise_equal": equal,
        })
    return out


def trial_audit(name: str, out: Path):
    cfg = harness.config_from_mapping(WORKLOADS[name].config(SEED, out))
    problem = harness.build_problem(cfg.problem_name, cfg.problem_options)
    result, _ = harness.run_trial(problem, cfg, 0)
    return result.audit


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_wide_tables.json")
    args = parser.parse_args()

    rng = np.random.default_rng(SEED)
    tables = []
    for workload, shape, dim in TABLES:
        rows = reductions(rng, shape, dim)
        for row in rows:
            row["slowdown_bound_us"] = NO_SLOWDOWN_US.get(shape)
            slower = row["after_us"] - row["before_us"]
            if row["slowdown_bound_us"] is not None and slower > row["slowdown_bound_us"]:
                print(f"WARNING: {row['reduction']} at {shape} is {slower:.2f} us slower per call")
        tables.append({"workload": workload, "table_shape": list(shape), "reductions": rows})
        print(f"{workload} {shape}: " + ", ".join(
            f"{r['reduction']} {r['before_us']} -> {r['after_us']} us" for r in rows
        ), flush=True)

    audits = []
    with tempfile.TemporaryDirectory(prefix="zobarrier-wide-") as tmp:
        tmp = Path(tmp)
        for name in ("smooth-2con-wide", "linear-ball-demo", "unicycle-paper"):
            audit = trial_audit(name, tmp / "run")
            paths = {side: tmp / f"{name}-{side}.csv" for side in WRITERS}
            for side, writer in WRITERS.items():
                writer(audit, paths[side])
            if paths["before"].read_bytes() != paths["after"].read_bytes():
                raise SystemExit(f"{name}: the two writers wrote different bytes")
            per = alternate(
                {side: (lambda w=w, p=paths[side]: w(audit, p), 1) for side, w in WRITERS.items()}
            )
            audits.append({
                "workload": name,
                "rows": len(audit),
                "bytes": paths["after"].stat().st_size,
                "bytes_equal": True,
                "before_ms": round(1e3 * per["before"], 2),
                "after_ms": round(1e3 * per["after"], 2),
                "speedup": round(per["before"] / per["after"], 2),
            })
            print(f"{name}: {len(audit)} rows, write_audit_csv {audits[-1]['before_ms']} -> "
                  f"{audits[-1]['after_ms']} ms", flush=True)

    report = {
        "what": "short-axis reductions of measurement tables (numpy reduction before, "
        "column-wise after) and the audit CSV writer (per-row join before, one join per "
        "chunk after)",
        "command": "PYTHONPATH=src python3 bench/wide_tables.py",
        "machine": {**machine(), "orjson": orjson.__version__},
        "seed": SEED,
        "timing": "median of 9 rounds of >= 0.05 s, mean per call in each round; "
        "before and after rounds alternate",
        "tables": tables,
        "audits": audits,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
