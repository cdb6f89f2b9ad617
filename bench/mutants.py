"""Mutation check of the safety-critical formulas.

Each mutant is a one-line change to a formula the safety argument rests
on, stored as a (file, old, new) triple. For each one the script copies
`src/` and `tests/` to a temporary directory, applies the change there
and runs the Tier-1 suite on the copy; the suite must fail, and the
first failing test is printed. The unmutated copy runs first and must
pass, so a failure is the mutant's doing. Exits 1 if any mutant
survives, 2 if the unmutated suite fails. The repository itself is
never modified.

    python3 bench/mutants.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import trees

ROOT = trees.ROOT

MUTANTS = {
    "step-bound-without-2": (
        "src/zobarrier/solver.py",
        "min(alpha_hat / (2.0 * lipschitz * k ** (2.0 / 5.0)),",
        "min(alpha_hat / (lipschitz * k ** (2.0 / 5.0)),",
    ),
    "no-confidence-inflation": (
        "src/zobarrier/estimator.py",
        "return np.add.reduce(cons, 0) / n + inflation",
        "return np.add.reduce(cons, 0) / n",
    ),
    # The one margin rule alpha = -(M + reach), refused unless positive; the
    # radius policy picks the reach: nu*L fixed, min(eta, -M/2) adaptive.
    "margin-without-nu-L": (
        "src/zobarrier/estimator.py",
        "alpha = -(max_fhat + reach)\n    if",
        "alpha = -max_fhat\n    if",
    ),
    "margin-accepts-nan": (
        "src/zobarrier/estimator.py",
        "if not alpha > 0.0:",
        "if alpha <= 0.0:",
    ),
    # The same rule certifies the start: iteration 1 halts unless alpha > 0.
    "margin-accepts-non-positive": (
        "src/zobarrier/estimator.py",
        "if not alpha > 0.0:",
        "if alpha != alpha:",
    ),
    "adaptive-reach-without-half": (
        "src/zobarrier/solver.py",
        "reach = min(cfg.eta, -max_fhat / 2.0)",
        "reach = min(cfg.eta, -max_fhat)",
    ),
    # The certificate's multipliers put mass eta / alpha_R on the argmax of
    # the bounds, split across exact ties.
    "multipliers-not-split-across-ties": (
        "src/zobarrier/solver.py",
        "lam[maximizers] = lam_scalar / np.count_nonzero(maximizers)",
        "lam[maximizers] = lam_scalar",
    ),
    "no-union-bound": (
        "src/zobarrier/solver.py",
        "delta_bar = cfg.delta / (2 * K + 1)",
        "delta_bar = cfg.delta",
    ),
    # The audit CSV is the safety record: orjson's output is kept only where
    # it equals `repr` byte for byte.
    "float-reprs-lower-bound-1e-5": (
        "src/zobarrier/oracle.py",
        "(mag >= 1e-4)",
        "(mag >= 1e-5)",
    ),
    "float-reprs-upper-bound-1e17": (
        "src/zobarrier/oracle.py",
        "(mag < 1e16)",
        "(mag < 1e17)",
    ),
    # Audit rows are the queries in the order they were made: perturbed
    # row j of iteration k is x_k + nu_k * s_j. The mutant writes each
    # measurement's rows into the log reversed, each point with its truth.
    "audit-perturbed-rows-reversed": (
        "src/zobarrier/oracle.py",
        "= iteration, side, points\n",
        "= iteration, side, points[::-1]\n        true_vals = true_vals[::-1]\n",
    ),
    # The CSV writers take every row, a chunk of rows at a time: a chunk
    # that stops one row short drops the last row of each chunk.
    "csv-chunk-drops-its-last-row": (
        "src/zobarrier/oracle.py",
        "rows = slice(lo, lo + step)",
        "rows = slice(lo, lo + step - 1)",
    ),
    # The audit's max-constraint reads every constraint column: a point
    # that violates only the last constraint is still flagged. (A
    # one-constraint table is its own truth row and never reaches this line.)
    "audit-max-skips-last-constraint": (
        "src/zobarrier/oracle.py",
        "constraint_max(true_vals, out=truth[lo:hi, 1])",
        "constraint_max(true_vals[:, :-1], out=truth[lo:hi, 1])",
    ),
    # The trace's truth columns are the audit's base rows: iteration k's
    # base measurement queried x_k. Every other row is a perturbed one.
    "trace-truth-from-perturbed-rows": (
        "src/zobarrier/harness.py",
        "audit.sides == SIDE_BASE",
        "audit.sides != SIDE_BASE",
    ),
    # The pass counts a step as a containment failure past alpha_k / (2 L k^(2/5)):
    # without the 2, a step up to twice its bound goes uncounted.
    "containment-bound-without-2": (
        "src/zobarrier/harness.py",
        "bounds = alphas / (2.0 * problem.lipschitz * ks ** (2.0 / 5.0))",
        "bounds = alphas / (problem.lipschitz * ks ** (2.0 / 5.0))",
    ),
    # The fork map: a helper runs share w of the items (w, w + W, ...), the
    # results come back in item order, and the lowest-index error is raised.
    # No output may depend on how many processes ran the items.
    "helper-runs-the-wrong-trials": (
        "src/zobarrier/harness.py",
        "done, error = share(w)",
        "done, error = share(w - 1)",
    ),
    "map-results-out-of-item-order": (
        "src/zobarrier/harness.py",
        "return [reports[i % workers][0][i // workers] for i in range(len(items))]",
        "return [result for done, _ in reports for result in done]",
    ),
    "map-raises-the-highest-index-error": (
        "src/zobarrier/harness.py",
        "raise min(errors, key=lambda error: error[0])[1]",
        "raise max(errors, key=lambda error: error[0])[1]",
    ),
    # Observations exist only at feasible points: an infeasible query ends
    # the trial.
    "unsafe-query-not-raised": (
        "src/zobarrier/oracle.py",
        "if np.count_nonzero(truth[:, 1] > 0.0):",
        "if False:",
    ),
    # Every other refusal of the oracle: true values must be finite, the
    # query point of the problem's dimension, and it and the displaced
    # points finite.
    "non-finite-true-values-not-raised": (
        "src/zobarrier/oracle.py",
        "if np.count_nonzero(np.isfinite(true_vals)) < true_vals.size:",
        "if False:",
    ),
    "wrong-length-query-point-accepted": (
        "src/zobarrier/oracle.py",
        "if x.shape != (self.problem.dim,):",
        "if False:",
    ),
    "non-finite-query-point-accepted": (
        "src/zobarrier/oracle.py",
        "if not all(map(math.isfinite, points.ravel().tolist())):",
        "if False:",
    ),
    "non-finite-displaced-points-accepted": (
        "src/zobarrier/oracle.py",
        "if np.count_nonzero(np.isfinite(points)) < points.size:\n"
        '            raise ContractViolationError("query points must be finite")',
        'if False:\n            raise ContractViolationError("query points must be finite")',
    ),
    # The oracle measures only along the table it served last, compared by
    # identity; it refuses to serve an empty table.
    "served-table-identity-dropped": (
        "src/zobarrier/oracle.py",
        "if directions is not self._served:",
        "if False:",
    ),
    "served-table-compared-by-value": (
        "src/zobarrier/oracle.py",
        "if directions is not self._served:",
        "if not np.array_equal(directions, self._served):",
    ),
    "empty-direction-table-accepted": (
        "src/zobarrier/oracle.py",
        "if n < 1:\n            raise ContractViolationError(\"need n >= 1 directions\")",
        "if n < 0:\n            raise ContractViolationError(\"need n >= 1 directions\")",
    ),
    # Every page, of noise or of directions, is built over an immutable
    # buffer that no caller can make writable.
    "pages-on-owned-arrays": (
        "src/zobarrier/streams.py",
        "values = np.frombuffer(values.tobytes()).reshape(values.shape)",
        "values.flags.writeable = False",
    ),
    # The unicycle's small batches are evaluated row by row in Python floats,
    # bit for bit as the vectorized path: the constraint subtracts the sum
    # of the two squares, each step feeds back the error of the state it
    # just reached, and a row whose state stops being finite falls through
    # to the vectorized path, which raises the error and its step.
    "row-kernel-constraint-reassociated": (
        "src/zobarrier/problems.py",
        "append(r2 - (px * px + py * py))",
        "append(r2 - px * px - py * py)",
    ),
    "row-kernel-feeds-back-the-pre-update-error": (
        "src/zobarrier/problems.py",
        "                a = th + half\n"
        "                x = x + ds * cos(a)\n"
        "                y = y + ds * sin(a)\n"
        "                th = th + dt * w\n"
        "                ex, ey, et = x - gx, y - gy, th - gt\n",
        "                a = th + half\n"
        "                ex, ey, et = x - gx, y - gy, th - gt\n"
        "                x = x + ds * cos(a)\n"
        "                y = y + ds * sin(a)\n"
        "                th = th + dt * w\n",
    ),
    # Each row's objective is the running sum of its T goal terms over T,
    # on either path.
    "row-kernel-goal-sum-keeps-the-last-step": (
        "src/zobarrier/problems.py",
        "goal_sum += (ex * ex + ey * ey) + et * et",
        "goal_sum = (ex * ex + ey * ey) + et * et",
    ),
    "in-place-goal-sum-keeps-the-last-step": (
        "src/zobarrier/problems.py",
        "goal_sum += np.add(np.add(sq[0], sq[1], out=sq[0]), sq[2], out=sq[0])",
        "goal_sum = np.add(np.add(sq[0], sq[1], out=sq[0]), sq[2], out=sq[0])",
    ),
    "row-kernel-divergence-not-raised": (
        "src/zobarrier/problems.py",
        "if not math.isfinite(x + y + th + a0 + a1 + a2 + b0 + b1 + b2):",
        "if False:",
    ),
    # Larger batches run the in-place loop, where sinc(half) = sin(half) / half:
    # a zero turn rate takes sin(eps) / eps = 1, not 0 / 0.
    "sinc-zero-substitution-dropped": (
        "src/zobarrier/problems.py",
        "np.copyto(half, eps, where=np.equal(half, 0.0, out=zero))",
        "np.equal(half, 0.0, out=zero)",
    ),
    # The loop runs in blocks of rows: every block writes its rows of the
    # table, and a diverged block has the whole batch simulated again, so
    # the error is one block's: the smallest first bad step.
    "last-partial-block-dropped": (
        "src/zobarrier/problems.py",
        "for lo in range(0, P, _BLOCK_ROWS):",
        "for lo in range(0, P - P % _BLOCK_ROWS or P, _BLOCK_ROWS):",
    ),
    "divergence-step-from-the-first-failing-block": (
        "src/zobarrier/problems.py",
        "the batch raises its first bad step\n        simulate_unicycle_batch(gains, cfg)",
        "the batch raises its first bad step\n        raise",
    ),
    # Each iteration reads its own slot of a page of noise or directions:
    # reusing the first slot repeats one table across the page.
    "page-slot-dropped": (
        "src/zobarrier/streams.py",
        "return self._page[slot * rows : (slot + 1) * rows]",
        "return self._page[:rows]",
    ),
    # Base and perturbed noise come from streams tagged by side: without the
    # side, both sides of an iteration draw the same noise.
    "stream-tag-without-side": (
        "src/zobarrier/streams.py",
        "rng = substream(master_seed, domain, page, side + 2 * rows * cols)",
        "rng = substream(master_seed, domain, page, 2 * rows * cols)",
    ),
}


def tier1(copy: Path) -> tuple[int, float, str]:
    """Exit code, wall time and the first failing test's id (or "") of
    Tier-1 on a copy; stops at the first failure."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"],
        cwd=copy,
        env=trees.environment(copy / "src"),
        capture_output=True,
        text=True,
    )
    # pytest's short summary names each failure: "FAILED <id> - <message>".
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    first = failed[0].split(" - ")[0].split(" ", 1)[1] if failed else ""
    return proc.returncode, time.perf_counter() - t0, first


def make_copy(dest: Path, mutant: tuple[str, str, str] | None) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out", "_out")
    # tests/test_bench_trees.py imports every bench script, and they import perfbench.
    for part in ("src", "tests", "bench", "perfbench", "configs", "README.md", "pyproject.toml"):
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=ignore)
        else:
            shutil.copy2(src, dest / part)
    if mutant is not None:
        rel, old, new = mutant
        path = dest / rel
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{rel}: expected exactly one {old!r}")
        path.write_text(text.replace(old, new))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="zobarrier-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        make_copy(clean, None)
        code, wall, first = tier1(clean)
        print(f"unmutated: exit {code} in {wall:.0f} s {first}".rstrip(), flush=True)
        if code != 0:
            return 2
        survivors = []
        for name, mutant in MUTANTS.items():
            copy = Path(tmp) / name
            make_copy(copy, mutant)
            code, wall, first = tier1(copy)
            verdict = f"killed by {first or '?'}" if code != 0 else "SURVIVED"
            print(f"{name}: {verdict} (exit {code} in {wall:.0f} s)", flush=True)
            if code == 0:
                survivors.append(name)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
