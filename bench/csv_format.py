"""Cost of writing the audit CSV: per-value `repr` against bulk formatting.

"before" is the audit writer the package had before bulk formatting:
every float column went through `map(repr, column.tolist())` over the
whole audit at once. "after" is `oracle.write_audit_csv`, which formats
chunks of rows with `float_rows` (orjson's shortest round-trip output
where it equals `repr`, `repr` elsewhere). Both write the audits of
fixed-seed smooth-2con-wide and linear-ball-demo trials (the perfbench
configs), in alternating rounds, and must write equal bytes. The report
also gives the cost per value of `repr` and of `float_rows` on one
audit column, the share of values that fall back to `repr`, and each
writer's tracemalloc peak.

    PYTHONPATH=src python3 bench/csv_format.py [--out BENCH_csv.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import tracemalloc
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
from zobarrier.oracle import _TAGS, float_rows, write_audit_csv  # noqa: E402

SEED = 20261018
WORKLOAD_NAMES = ("smooth-2con-wide", "linear-ball-demo")


def repr_write_audit_csv(audit, path) -> None:
    """The audit writer this benchmark compares against."""
    dim = audit.points.shape[1]
    header = ["k", "tag"] + [f"x{i}" for i in range(dim)] + ["true_fc", "violated"]
    columns = [
        map(str, audit.iterations.tolist()),
        map(_TAGS.__getitem__, audit.sides.tolist()),
        *(map(repr, col) for col in audit.points.T.tolist()),
        map(repr, audit.true_max_constraint.tolist()),
        map(("0\r\n", "1\r\n").__getitem__, audit.violated.tolist()),
    ]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(",".join, zip(*columns)))


WRITERS = {"before": repr_write_audit_csv, "after": write_audit_csv}


def trial_audit(name: str, out: Path):
    cfg = harness.config_from_mapping(WORKLOADS[name].config(SEED, out))
    problem = harness.build_problem(cfg.problem_name, cfg.problem_options)
    result, _ = harness.run_trial(problem, cfg, 0)
    return result.audit


def traced_peak(writer, audit, path) -> int:
    tracemalloc.start()
    try:
        writer(audit, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fallback_share(values: np.ndarray) -> float:
    """Share of values that `float_rows` formats with `repr`."""
    mag = np.abs(values)
    return float(np.mean(~(((mag >= 1e-4) & (mag < 1e16)) | (values == 0.0))))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_csv.json")
    args = parser.parse_args()

    rows = []
    column_report = None
    with tempfile.TemporaryDirectory(prefix="zobarrier-csv-") as tmp:
        tmp = Path(tmp)
        for name in WORKLOAD_NAMES:
            audit = trial_audit(name, tmp / "run")
            paths = {side: tmp / f"{name}-{side}.csv" for side in WRITERS}
            for side, writer in WRITERS.items():
                writer(audit, paths[side])
            identical = paths["before"].read_bytes() == paths["after"].read_bytes()
            if not identical:
                raise SystemExit(f"{name}: the two writers wrote different bytes")
            per = alternate(
                {side: (lambda w=w, p=paths[side]: w(audit, p), 1) for side, w in WRITERS.items()}
            )
            floats = np.concatenate([audit.points.ravel(), audit.true_max_constraint])
            row = {
                "workload": name,
                "rows": len(audit),
                "float_values": int(floats.size),
                "bytes": paths["after"].stat().st_size,
                "bytes_equal": identical,
                "fallback_share": round(fallback_share(floats), 6),
            }
            for side, s in per.items():
                row[f"{side}_ms"] = round(1e3 * s, 2)
                row[f"{side}_tracemalloc_peak_mb"] = round(
                    traced_peak(WRITERS[side], audit, paths[side]) / 1e6, 2
                )
            row["speedup"] = round(per["before"] / per["after"], 2)
            rows.append(row)
            print(f"{name}: {len(audit)} rows, before {row['before_ms']} ms, "
                  f"after {row['after_ms']} ms", flush=True)

            if column_report is None:
                column = np.ascontiguousarray(audit.points[:, 0])
                fmt = alternate({
                    "repr": (lambda: list(map(repr, column.tolist())), column.size),
                    "float_rows": (lambda: float_rows(column[:, None]), column.size),
                })
                column_report = {
                    "values": int(column.size),
                    "what": f"{name} audit column x0",
                    "repr_ns_per_value": round(1e9 * fmt["repr"], 1),
                    "float_rows_ns_per_value": round(1e9 * fmt["float_rows"], 1),
                    "fallback_share": round(fallback_share(column), 6),
                }

    report = {
        "what": "audit CSV writer, per-value repr over whole columns (before) against "
        "float_rows over chunks of rows (after)",
        "command": "PYTHONPATH=src python3 bench/csv_format.py",
        "machine": {**machine(), "orjson": orjson.__version__},
        "seed": SEED,
        "timing": "median of 9 rounds of >= 0.05 s, mean per call in each round; "
        "before and after rounds alternate",
        "column": column_report,
        "audits": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
