"""Self-tests of the benchmark: span arithmetic, tracing that changes no
output, and BENCHMARK.json agreeing with what run.py prints.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from tracer import Tracer, layer_metrics, self_times, zobarrier_targets
from workloads import WORKLOADS, layer_target

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_time_subtracts_the_union_of_child_intervals():
    # 0 root [0, 10]: children 1 and 3
    # 1 a [1, 4]: child 2 [2, 3]
    # 3 b [5, 9]: children 4 [5, 7] and 5 [6, 8] overlap, covering [5, 8]
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    parents = [-1, 0, 1, 0, 3, 3]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    # A child outside its parent's interval only counts where they overlap.
    assert self_times([0.0, 1.5], [2.0, 3.0], [-1, 0]) == [1.5, 1.5]


def test_layer_metrics_on_a_synthetic_span_tree():
    t = Tracer()
    spans = [  # name, start, end, parent, trial, size
        ("harness.run_experiment", 0.0, 10.0, -1, -1, 1),
        ("harness.run_trial", 0.5, 9.5, 0, 0, 1),
        ("solver.run", 1.0, 8.0, 1, 0, 1),
        ("oracle.measure_base", 1.0, 2.0, 2, 0, 1),
        ("problems.evaluate_all", 1.2, 1.5, 3, 0, 1),
        ("oracle.noise_draw", 1.5, 1.9, 3, 0, 1),
        ("streams.substream", 1.5, 1.6, 5, 0, 1),
        ("oracle.measure_perturbed", 3.0, 6.0, 2, 0, 16),
        ("problems.evaluate_all", 3.0, 4.0, 7, 0, 16),
        ("problems.simulate_unicycle_batch", 3.0, 3.5, 8, 0, 16),
        ("oracle.write_audit_csv", 8.5, 9.0, 1, 0, 1),
    ]
    for name, s, e, p, trial, size in spans:
        t.names.append(name)
        t.starts.append(s)
        t.ends.append(e)
        t.parents.append(p)
        t.trials.append(trial)
        t.sizes.append(size)
    m = layer_metrics(t)
    assert m["oracle.measure_calls"] == 2
    assert m["oracle.measure_s"] == pytest.approx(4.0)
    # measure_base: 1.0 - eval 0.3 - draw 0.4; measure_perturbed: 3.0 - eval 1.0
    assert m["oracle.self_s"] == pytest.approx(0.3 + 2.0)
    assert m["oracle.audit_points"] == 17
    assert m["oracle.self_us_per_point"] == pytest.approx(1e6 * 2.3 / 17)
    assert m["oracle.noise_s"] == pytest.approx(0.3)
    assert m["streams.substream_s"] == pytest.approx(0.1)
    assert m["problems.eval_s"] == pytest.approx(0.3 + 0.5)
    assert m["problems.eval_rows"] == 17
    assert m["problems.rows_per_call"] == pytest.approx(8.5)
    assert m["problems.sim_s"] == pytest.approx(0.5)
    assert m["problems.sim_us_per_row"] == pytest.approx(1e6 * 0.5 / 16)
    assert m["solver.run_s"] == pytest.approx(7.0)
    assert m["solver.self_s"] == pytest.approx(7.0 - 1.0 - 3.0)
    assert m["oracle.audit_csv_s"] == pytest.approx(0.5)
    # run_experiment 10 - trial 9 = 1; run_trial 9 - solver 7 - csv 0.5 = 1.5
    assert m["harness.self_s"] == pytest.approx(2.5)
    assert m["harness.trial_s_p50"] == pytest.approx(9.0)
    assert m["trace.span_count"] == len(spans)


def test_tracer_links_parents_and_trials():
    t = Tracer()
    inner = t.wrap("inner", lambda x: x + 1, size=lambda args, kwargs: args[0])
    outer = t.wrap(
        "outer", lambda trial: inner(trial) + inner(2), trial_of=lambda args, kwargs: args[0]
    )
    assert outer(5) == 9
    assert t.names == ["outer", "inner", "inner"]
    assert t.parents == [-1, 0, 0]
    assert t.trials == [5, 5, 5]
    assert t.sizes == [1, 5, 2]
    assert all(e >= s for s, e in zip(t.starts, t.ends))


def _small(name: str, mapping: dict, iterations: int):
    w = WORKLOADS[name]
    return dataclasses.replace(w, mapping={**w.mapping, **mapping}, iterations=iterations)


@pytest.mark.parametrize(
    "workload",
    [
        _small("unicycle-paper", {"algo": {"max_iters": 6}, "residual_mc": 64}, 6),
        _small("smooth-2con-wide", {}, 40),
        _small("linear-ball-demo", {"algo": {"max_iters": 40}, "trials": 2}, 40),
    ],
    ids=lambda w: w.name,
)
def test_traced_run_gives_the_untraced_digest(workload, tmp_path):
    harness = worker.import_harness()
    cfg = harness.config_from_mapping(workload.config(3, tmp_path / "out"))
    plain = worker.measure(harness, cfg, workload, seconds=0)
    originals = {t[:2]: vars(t[0])[t[1]] for t in zobarrier_targets()}
    tracer = Tracer()
    with tracer.installed(zobarrier_targets()):
        traced = worker.measure(harness, cfg, workload, seconds=0, tracer=tracer)
    assert {t[:2]: vars(t[0])[t[1]] for t in zobarrier_targets()} == originals
    for report in (plain, traced):
        assert report["failures"] == [] and report["failed"] == 0
        assert len(report["run_s"]) == 2
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    iterations = cfg.trials * workload.iterations
    assert layers["solver.iterations"] == iterations
    assert layers["oracle.measure_calls"] == 2 * iterations
    assert layers["oracle.audit_points"] == iterations * (1 + workload.samples)
    assert layers["estimator.calls"] >= 5 * iterations
    assert layers["streams.substream_calls"] >= 3 * iterations
    assert layers["problems.eval_calls"] > 2 * iterations
    unicycle = workload.name == "unicycle-paper"
    assert (layers["problems.sim_calls"] > 0) == unicycle
    assert (layers["smoothing.calls"] > 0) == unicycle


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: run.END_TO_END[n] for n in run.BOUNDED
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for name in run.PER_LAYER:
        layer_target(name)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear-ball-demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
