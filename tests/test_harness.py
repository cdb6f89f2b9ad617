import csv
import ctypes
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from test_solver import ball_config, diverge_beyond_problem
from zobarrier import cli, harness
from zobarrier.errors import (
    ConfigError,
    ContractViolationError,
    MarginExhaustedError,
    UnknownSuiteError,
    ZobarrierError,
)
from zobarrier.harness import (
    PRESETS,
    PropertyCheck,
    build_problem,
    check_smoothing_properties,
    config_from_mapping,
    expand_preset,
    run_experiment,
    run_trial,
    verify_properties,
    write_trace_csv,
)
from zobarrier.oracle import _CSV_CHUNK_VALUES, MeasurementOracle

BASE_CONFIG = {
    "problem": {"name": "linear-ball", "noise_sigma": 0.02},
    "algo": {
        "eta": 0.05,
        "max_iters": 40,
        "n_policy": "fixed",
        "n_fixed": 6,
        "nu_policy": "adaptive",
    },
    "trials": 2,
    "base_seed": 3,
    "output_dir": "out",
    "residual_mc": 0,
}


def config_data(tmp_path, **overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE_CONFIG.items()}
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    data["output_dir"] = str(tmp_path / data["output_dir"])
    return data


def make_config(tmp_path, **overrides):
    return config_from_mapping(config_data(tmp_path, **overrides))


# -- config parsing ----------------------------------------------------------


def test_missing_problem_section():
    with pytest.raises(ConfigError, match="problem"):
        config_from_mapping({"algo": {"eta": 0.1, "max_iters": 1}})


def test_unknown_algo_key():
    with pytest.raises(ConfigError, match="algo"):
        config_from_mapping(
            {
                "problem": {"name": "linear-ball"},
                "algo": {"eta": 0.1, "max_iters": 1, "step": 2},
            }
        )


def test_invalid_algo_value():
    with pytest.raises(ConfigError, match="algo"):
        config_from_mapping(
            {"problem": {"name": "linear-ball"}, "algo": {"eta": -1.0, "max_iters": 1}}
        )


def test_unknown_problem_name():
    with pytest.raises(ConfigError, match="problem.name"):
        config_from_mapping({"problem": {"name": "mystery"}, "algo": {"eta": 0.1, "max_iters": 1}})


def test_unknown_problem_option():
    with pytest.raises(ConfigError, match="problem"):
        build_problem("linear-ball", {"horizon": 10})


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_mapping(
            {
                "problem": {"name": "linear-ball"},
                "algo": {"eta": 0.1, "max_iters": 1},
                "bogus": 1,
            }
        )


def test_unknown_emit_flag():
    with pytest.raises(ConfigError, match="emit"):
        config_from_mapping(
            {
                "problem": {"name": "linear-ball"},
                "algo": {"eta": 0.1, "max_iters": 1},
                "emit": {"pdf": True},
            }
        )


NAN, INF = yaml.safe_load("[.nan, .inf]")

MALFORMED = {
    "budget_cap-not-a-number": {"budget_cap": "abc"},
    "residual_mc-not-a-number": {"residual_mc": "x"},
    "residual_mc-negative": {"residual_mc": -5},
    "budget_cap-zero": {"budget_cap": 0},
    "plan-not-a-mapping": {"plan": 3},
    "plan-misspelt-key": {"plan": {"d_f_estimat": 2}},
    "plan-negative-gap": {"plan": {"d_f_estimate": -1}},
    "analytic-noise_sigma-not-a-number": {"problem": {"noise_sigma": "abc"}},
    "algo-max_iters-fractional": {"algo": {"max_iters": 2.5}},
    "algo-n_fixed-fractional": {"algo": {"n_fixed": 2.5}},
    "algo-n_cap-fractional": {"algo": {"n_cap": 2.5}},
    # YAML reads `yes` and `true` as booleans, which are not counts.
    "algo-max_iters-yes": {"algo": yaml.safe_load("max_iters: yes")},
    "trials-true": yaml.safe_load("trials: true"),
    # Nor are they numbers: True would otherwise be read as 1.0.
    "algo-eta-yes": {"algo": yaml.safe_load("eta: yes")},
    "unicycle-lipschitz-true": {"problem": {"name": "unicycle", "lipschitz": True}},
    "plan-d_f_estimate-true": {"plan": yaml.safe_load("d_f_estimate: true")},
    "plan-d_f_estimate-text": {"plan": yaml.safe_load("d_f_estimate: 1e-4")},
    "algo-seed-set-per-trial": {"algo": {"seed": 123}},
    "algo-margin_policy-freeze": {"algo": {"margin_policy": "freeze"}},
    "noise_kind-unknown": {"noise_kind": "bogus"},
    "noise_kind-none": {"noise_kind": "none"},
    "unicycle-misspelt-key": {"problem": {"name": "unicycle", "horizonn": 3}},
    # Goal-error feedback is the unicycle's only controller.
    "unicycle-error_feedback": {"problem": {"name": "unicycle", "error_feedback": True}},
    "unicycle-horizon-fractional": {"problem": {"name": "unicycle", "horizon": 2.5}},
    # A unicycle state has 3 values and the obstacle center 2.
    "unicycle-start-short": {"problem": {"name": "unicycle", "start": [0.0, 0.0]}},
    "unicycle-goal-short": {"problem": {"name": "unicycle", "goal": [4.0, 4.0]}},
    "unicycle-start-scalar": {"problem": {"name": "unicycle", "start": 1.0}},
    "unicycle-obstacle_center-long": {
        "problem": {"name": "unicycle", "obstacle_center": [2.0, 2.0, 1.0]}
    },
    # Non-finite floats, written as YAML spells them.
    "algo-eta-nan": {"algo": {"eta": NAN}},
    "algo-eta-inf": {"algo": {"eta": INF}},
    "algo-C_override-nan": {"algo": {"C_override": NAN}},
    "algo-C_override-inf": {"algo": {"C_override": INF}},
    "analytic-noise_sigma-nan": {"problem": {"noise_sigma": NAN}},
    "analytic-noise_sigma-inf": {"problem": {"noise_sigma": INF}},
    "unicycle-noise_sigma-nan": {"problem": {"name": "unicycle", "noise_sigma": NAN}},
    "unicycle-lipschitz-inf": {"problem": {"name": "unicycle", "lipschitz": INF}},
    "unicycle-grad_lower-nan": {"problem": {"name": "unicycle", "grad_lower": NAN}},
    "unicycle-dt-nan": {"problem": {"name": "unicycle", "dt": NAN}},
    "unicycle-dt-inf": {"problem": {"name": "unicycle", "dt": INF}},
    "unicycle-obstacle_radius-inf": {"problem": {"name": "unicycle", "obstacle_radius": INF}},
    "unicycle-start-inf": {"problem": {"name": "unicycle", "start": [0.0, -INF, 0.0]}},
    "unicycle-goal-nan": {"problem": {"name": "unicycle", "goal": [NAN, 4.0, 0.0]}},
    "unicycle-obstacle_center-nan": {
        "problem": {"name": "unicycle", "obstacle_center": [2.0, NAN]}
    },
    "unicycle-initial_gain-nan": {
        "problem": {"name": "unicycle", "initial_gain": [[-0.05, NAN, 0.0], [0.0, 0.0, -0.2]]}
    },
    "unicycle-lipschitz-nan": {"problem": {"name": "unicycle", "lipschitz": NAN}},
    "unicycle-grad_lower-inf": {"problem": {"name": "unicycle", "grad_lower": INF}},
    "unicycle-v_max-nan": {"problem": {"name": "unicycle", "v_max": NAN}},
    "unicycle-omega_max-nan": {"problem": {"name": "unicycle", "omega_max": NAN}},
    "plan-nan-gap": {"plan": {"d_f_estimate": NAN}},
    "plan-inf-gap": {"plan": {"d_f_estimate": INF}},
}


# What the error line of some MALFORMED cases says, naming the key.
MALFORMED_MESSAGES = {
    "algo-eta-yes": "algo.eta: True is a boolean, not a number",
    "unicycle-lipschitz-true": "problem.lipschitz: True is a boolean, not a number",
    "plan-d_f_estimate-true": "plan.d_f_estimate must be a number, got True",
    "plan-d_f_estimate-text": "plan.d_f_estimate must be a number, got '1e-4'",
    "unicycle-horizon-fractional": "horizon must be an integer >= 1, got 2.5",
    "unicycle-error_feedback": "unknown problem key(s) ['error_feedback']",
    "unicycle-start-short": "start must be 3 numbers, got [0.0, 0.0]",
    "unicycle-goal-short": "goal must be 3 numbers, got [4.0, 4.0]",
    "unicycle-start-scalar": "start must be 3 numbers, got 1.0",
    "unicycle-obstacle_center-long": "obstacle_center must be 2 numbers, got [2.0, 2.0, 1.0]",
}


@pytest.mark.parametrize("case", list(MALFORMED), ids=list(MALFORMED))
def test_malformed_value_is_config_error(tmp_path, capsys, case):
    data = config_data(tmp_path, **MALFORMED[case])
    with pytest.raises(ConfigError):
        config_from_mapping(data)
    path = write_yaml(tmp_path, data)
    for command in ("run", "plan"):
        assert cli.main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert MALFORMED_MESSAGES.get(case, "") in err


def test_an_audit_log_too_large_for_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # The log's allocation fails as numpy's does for a log too large for the
    # host, without asking the host for the memory: `zobarrier run` ends with
    # one error line naming the rows, and no traceback.
    def no_memory(oracle, rows):
        raise MemoryError(f"Unable to allocate {rows} rows")

    monkeypatch.setattr(MeasurementOracle, "_fit", no_memory)
    data = config_data(tmp_path, preset="linear-ball-demo", trials=1, algo={"max_iters": 5})
    assert cli.main(["run", write_yaml(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err == "error: no memory for max_iters x (n + 1) = 5 x 7 audit rows\n"


def test_the_one_margin_policy_is_read_and_ignored(tmp_path):
    # A run always halts when its margin is gone; `margin_policy: halt`, that
    # policy's old name, still parses, and any other value is an unknown key.
    halt = config_from_mapping(config_data(tmp_path, algo={"margin_policy": "halt"}))
    assert halt.algo == config_from_mapping(config_data(tmp_path)).algo


def test_a_number_yaml_reads_as_text_is_refused_by_its_key(tmp_path, capsys):
    # YAML reads 1e-4 as text: a float needs a dot and a signed exponent.
    path = tmp_path / "text.yaml"
    path.write_text("problem: {name: linear-ball, noise_sigma: 1e-4}\nalgo: {eta: 0.05}\n")
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: problem.noise_sigma: '1e-4' ") and err.count("\n") == 1
    assert "1.0e-4" in err


def test_numpy_integers_are_accepted(tmp_path):
    i = np.int64
    cfg = make_config(
        tmp_path,
        trials=i(2),
        base_seed=i(3),
        residual_mc=i(0),
        budget_cap=i(10_000),
        algo={"max_iters": i(40), "n_fixed": i(6), "n_cap": i(64)},
    )
    values = (cfg.trials, cfg.base_seed, cfg.residual_mc, cfg.budget_cap)
    values += (cfg.algo.max_iters, cfg.algo.n_fixed, cfg.algo.n_cap)
    assert values == (2, 3, 0, 10_000, 40, 6, 64)
    assert all(type(v) is int for v in values)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_config_parses_and_plans(path, capsys):
    assert cli._load_config(str(path)).label == path.stem
    assert cli.main(["plan", str(path)]) == 0
    assert "sample bound" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_parses_and_plans(tmp_path, capsys, name):
    cfg = config_from_mapping({"preset": name})
    assert cfg.label == name and cfg.trials == PRESETS[name]["trials"]
    path = write_yaml(tmp_path, {"preset": name, "output_dir": str(tmp_path / "out")})
    assert cli.main(["plan", path]) == 0
    assert "sample bound" in capsys.readouterr().out


def test_preset_expansion_and_override():
    merged = expand_preset({"preset": "unicycle-paper", "trials": 3, "algo": {"n_fixed": 9}})
    assert merged["trials"] == 3
    assert merged["algo"]["max_iters"] == 500
    assert merged["algo"]["n_fixed"] == 9
    assert merged["problem"]["name"] == "unicycle"
    with pytest.raises(ConfigError, match="preset"):
        expand_preset({"preset": "nope"})


def test_preset_parses_into_config():
    cfg = config_from_mapping({"preset": "unicycle-paper", "trials": 1})
    assert cfg.problem_name == "unicycle"
    assert cfg.algo.n_fixed == 7
    assert cfg.algo.eta == 0.001
    assert cfg.problem_options["lipschitz"] == 40.0


# -- experiment execution ----------------------------------------------------


def test_run_experiment_files_and_summary(tmp_path):
    cfg = make_config(tmp_path)
    summary = run_experiment(cfg)
    assert len(summary.trials) == 2
    for t, trial in enumerate(summary.trials):
        assert trial.seed == cfg.base_seed + t
        assert trial.iterations == 40
        assert (cfg.output_dir / f"trial{t:03d}_trace.csv").exists()
        assert (cfg.output_dir / f"trial{t:03d}_audit.csv").exists()
    # Trace CSV has one row per recorded iteration plus the header.
    lines = (cfg.output_dir / "trial000_trace.csv").read_text().splitlines()
    assert len(lines) == 40 + 1
    assert lines[0].split(",")[:3] == ["k", "x0", "x1"]
    # Aggregate statistics recompute from the per-trial entries.
    finals = [t.final_objective for t in summary.trials]
    assert summary.aggregate["objective_median"] == float(np.median(finals))
    assert summary.aggregate["total_violations"] == sum(
        t.violation_count for t in summary.trials
    )


def test_summary_json_round_trip(tmp_path):
    cfg = make_config(tmp_path)
    summary = run_experiment(cfg)
    saved = json.loads((cfg.output_dir / "summary.json").read_text())
    assert saved == dataclasses.asdict(summary)


def test_budget_cap_halts_every_trial_with_partial_output(tmp_path):
    # 24 scalar calls per iteration (n = 6, m + 1 = 2): cap 100 runs out at k = 5.
    cfg = make_config(tmp_path, budget_cap=100)
    summary = run_experiment(cfg)
    assert [(t.iterations, t.halted_reason, t.halted_at) for t in summary.trials] == [
        (4, "budget-exhausted", 5)
    ] * 2
    saved = json.loads((cfg.output_dir / "summary.json").read_text())
    assert [t["halted_at"] for t in saved["trials"]] == [5, 5]
    for t in range(2):
        audit = (cfg.output_dir / f"trial{t:03d}_audit.csv").read_text()
        assert audit.count("\n") == 1 + 4 * (1 + 6)


def test_infeasible_query_ends_the_trial(tmp_path, capsys):
    # L = 2 is far below the constraints' true slope (about 40), so
    # iteration 13's perturbed points leave the feasible set. The oracle
    # refuses them: the trial halts with no certificate, the audit keeps
    # the flagged rows and the CLI reports a run failure.
    data = {
        "preset": "unicycle-paper",
        "problem": {"lipschitz": 2.0, "grad_lower": 0.01},
        "algo": {"eta": 0.05, "max_iters": 300},
        "trials": 1,
        "base_seed": 2027,
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["run", write_yaml(tmp_path, data)]) == 2
    assert "flagged trials (halted): 0 unsafe-query at k=13\n" in capsys.readouterr().out
    trial = json.loads((tmp_path / "out" / "summary.json").read_text())["trials"][0]
    assert (trial["halted_reason"], trial["halted_at"]) == ("unsafe-query", 13)
    assert trial["iterations"] == 12 and trial["x_r"] is None
    assert trial["violation_count"] > 0
    rows = (tmp_path / "out" / "trial000_audit.csv").read_text().splitlines()[1:]
    assert all(r.startswith("13,") for r in rows if r.endswith(",1"))


def test_an_uncertifiable_start_loses_no_trial(tmp_path, capsys):
    # Under sigma = 100 no trial's start is certifiably feasible: each halts
    # at iteration 1's margin, and the run still writes every trial's CSVs
    # and the summary.
    data = {
        "preset": "linear-ball-demo",
        "trials": 3,
        "problem": {"name": "linear-ball", "noise_sigma": 100.0},
        "algo": {"max_iters": 20},
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["run", write_yaml(tmp_path, data)]) == 2
    flagged = ", ".join(f"{t} margin-exhausted at k=1" for t in range(3))
    assert f"flagged trials (halted): {flagged}\n" in capsys.readouterr().out
    trials = json.loads((tmp_path / "out" / "summary.json").read_text())["trials"]
    assert [(t["halted_reason"], t["halted_at"], t["iterations"]) for t in trials] == [
        ("margin-exhausted", 1, 0)
    ] * 3
    for t in range(3):
        trace = (tmp_path / "out" / f"trial{t:03d}_trace.csv").read_text()
        audit = (tmp_path / "out" / f"trial{t:03d}_audit.csv").read_text()
        assert trace.count("\n") == 1
        assert audit.splitlines()[1:] == ["1,base,0.0,0.0,-1.0,0"]


def test_halted_trials_are_not_objective_results(tmp_path, capsys):
    # Halted trials stay out of the objective median, min and max. At
    # sigma = 100 every trial halts at k = 1, so there is no objective
    # result: the aggregate is null and `zobarrier run` prints no objective
    # number. At sigma = 0.7 trial 1 of 4 halts, and the others are the result.
    data = {
        "preset": "linear-ball-demo",
        "trials": 3,
        "problem": {"name": "linear-ball", "noise_sigma": 100.0},
        "algo": {"max_iters": 20},
        "output_dir": str(tmp_path / "all"),
    }
    assert cli.main(["run", write_yaml(tmp_path, data)]) == 2
    assert "objective" not in capsys.readouterr().out
    aggregate = json.loads((tmp_path / "all" / "summary.json").read_text())["aggregate"]
    assert [aggregate[f"objective_{k}"] for k in ("median", "min", "max")] == [None] * 3
    data.update(trials=4, problem={"name": "linear-ball", "noise_sigma": 0.7})
    summary = run_experiment(config_from_mapping(dict(data, output_dir=str(tmp_path / "some"))))
    assert [t.halted_reason is None for t in summary.trials] == [True, False, True, True]
    finals = [summary.trials[t].final_objective for t in (0, 2, 3)]
    assert [summary.aggregate[f"objective_{k}"] for k in ("median", "min", "max")] == [
        float(np.median(finals)), min(finals), max(finals)
    ]
    with_halted = finals + [summary.trials[1].final_objective]
    assert float(np.median(finals)) != float(np.median(with_halted))


def test_empty_audit_csv_keeps_coordinate_columns(tmp_path):
    # A cap of 1 halts before the first query, so the audit has no rows;
    # its header still names one column per coordinate.
    cfg = config_from_mapping(
        {"preset": "linear-ball-demo", "budget_cap": 1, "trials": 1, "output_dir": str(tmp_path)}
    )
    summary = run_experiment(cfg)
    assert summary.trials[0].halted_reason == "budget-exhausted"
    audit = (tmp_path / "trial000_audit.csv").read_bytes()
    assert audit == b"k,tag,x0,x1,true_fc,violated\r\n"


def test_reruns_byte_identical(tmp_path):
    cfg_a = make_config(tmp_path / "a")
    cfg_b = make_config(tmp_path / "b")
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("trial000_trace.csv", "trial001_trace.csv", "trial000_audit.csv"):
        assert (cfg_a.output_dir / name).read_bytes() == (
            cfg_b.output_dir / name
        ).read_bytes()


def test_zero_iteration_trial(tmp_path):
    cfg = make_config(tmp_path, algo={"max_iters": 0}, trials=1)
    summary = run_experiment(cfg)
    trial = summary.trials[0]
    assert trial.iterations == 0
    assert trial.x_r is None
    # Final equals the initial objective: nothing moved.
    assert trial.final_objective == 0.0
    assert (cfg.output_dir / "trial000_trace.csv").read_text().count("\n") == 1


def test_residual_fields_populated(tmp_path):
    cfg = make_config(tmp_path, residual_mc=512, trials=1)
    summary = run_experiment(cfg)
    trial = summary.trials[0]
    assert trial.residual_feasibility is not None
    assert trial.residual_feasibility < 0.0  # truly feasible output
    assert trial.residual_stationarity is not None


def legacy_trace_csv(result, problem, path):
    """The per-row csv.writer serialization the columnar writer replaces."""
    values = problem.evaluate_all(np.stack([r.x for r in result.trace]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["k"]
            + [f"x{i}" for i in range(problem.dim)]
            + ["alpha_hat", "g_norm", "gamma_k", "weight", "true_objective", "true_max_constraint"]
        )
        for rec, row in zip(result.trace, values):
            w.writerow(
                [rec.k]
                + [repr(float(v)) for v in rec.x]
                + [repr(float(v)) for v in (rec.alpha_hat, rec.g_norm, rec.gamma, rec.weight)]
                + [repr(float(row[0])), repr(float(row[1:].max()))]
            )


def test_trace_csv_matches_csv_writer_bytes(tmp_path):
    cfg = make_config(tmp_path, algo={"max_iters": 12})
    problem = build_problem(cfg.problem_name, cfg.problem_options)
    result, _ = run_trial(problem, cfg, 0)
    # A NaN value must take `repr`'s spelling too.
    result.trace[-1] = dataclasses.replace(result.trace[-1], k=10**12, alpha_hat=float("nan"))
    write_trace_csv(result, tmp_path / "columnar.csv")
    legacy_trace_csv(result, problem, tmp_path / "legacy.csv")
    got = (tmp_path / "columnar.csv").read_bytes()
    assert got == (tmp_path / "legacy.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + 12 and b",nan," in got


def test_a_trace_csv_of_several_chunks_matches_csv_writer_bytes(tmp_path):
    # The trace is written a chunk of rows at a time, as the audit is:
    # max(1, _CSV_CHUNK_VALUES // fields) rows, with d + 6 float fields.
    chunk = max(1, _CSV_CHUNK_VALUES // (2 + 6))
    cfg = make_config(tmp_path, algo={"max_iters": 2 * chunk + 5, "n_fixed": 2})
    problem = build_problem(cfg.problem_name, cfg.problem_options)
    result, _ = run_trial(problem, cfg, 0)
    assert len(result.trace) == 2 * chunk + 5
    # A NaN as the first value of the second chunk.
    result.trace[chunk] = dataclasses.replace(result.trace[chunk], alpha_hat=float("nan"))
    write_trace_csv(result, tmp_path / "columnar.csv")
    legacy_trace_csv(result, problem, tmp_path / "legacy.csv")
    got = (tmp_path / "columnar.csv").read_bytes()
    assert got == (tmp_path / "legacy.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + 2 * chunk + 5
    line = got.split(b"\r\n")[1 + chunk]
    assert line.startswith(b"%d," % (chunk + 1)) and b",nan," in line


def test_trace_csv_refuses_a_trace_the_audit_does_not_cover(tmp_path):
    # Trace truth is read from the audit's base rows, one per iteration:
    # a record past them has no recorded truth.
    cfg = make_config(tmp_path, algo={"max_iters": 3})
    result, _ = run_trial(build_problem(cfg.problem_name, cfg.problem_options), cfg, 0)
    result.trace.append(dataclasses.replace(result.trace[-1], k=4))
    with pytest.raises(ContractViolationError):
        write_trace_csv(result, tmp_path / "trace.csv")


def test_audit_csv_contents(tmp_path):
    cfg = make_config(tmp_path, trials=1, algo={"max_iters": 3})
    run_experiment(cfg)
    lines = (cfg.output_dir / "trial000_audit.csv").read_text().splitlines()
    assert lines[0] == "k,tag,x0,x1,true_fc,violated"
    # One row per audited point: (1 base + n perturbed) per iteration.
    assert len(lines) == 1 + 3 * (1 + 6)
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[1] in ("base", "perturbed")
        assert float(fields[4]) < 0.0 and fields[5] == "0"


def test_diverged_base_point_leaves_the_final_objective_unknown(tmp_path, monkeypatch):
    # Seeds 1 and 4 halt "diverged" with x_final itself past the point where
    # the evaluator raises, so the final objective is unknown (NaN, as the
    # audit records a diverged chunk); the other trials and summary.json
    # are kept. Every trial halted, so the objective aggregates are null.
    problem = diverge_beyond_problem()
    monkeypatch.setattr(harness, "build_problem", lambda name, options: problem)
    cfg = harness.ExperimentConfig(
        problem_name=problem.name,
        problem_options={},
        algo=ball_config(max_iters=300),
        trials=5,
        base_seed=1,
        output_dir=tmp_path,
        residual_mc=0,
    )
    summary = run_experiment(cfg)
    assert {t.halted_reason for t in summary.trials} == {"diverged"}
    unknown = [t.seed for t in summary.trials if math.isnan(t.final_objective)]
    assert unknown == [1, 4]
    for t in summary.trials:
        # best_objective is the best known one: the trace's truth, all finite.
        with open(tmp_path / f"trial{t.trial:03d}_trace.csv", newline="") as fh:
            truth = [float(row["true_objective"]) for row in csv.DictReader(fh)]
        assert t.best_objective == min(truth + [t.final_objective] * (t.seed not in unknown))
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert math.isnan(saved["trials"][0]["final_objective"])
    assert all(saved["aggregate"][k] is None for k in ("objective_median", "objective_min"))


# -- parallel trials ---------------------------------------------------------


def with_cpus(monkeypatch, count):
    """Make `count` CPUs usable, so a map over `count` or more items forks
    count - 1 helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def without_wall_time(summary):
    data = dataclasses.asdict(summary)
    for trial in data["trials"]:
        trial.pop("wall_time")
    return data


def test_trials_are_the_same_in_one_process_and_in_two(tmp_path, monkeypatch):
    runs = {}
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        cfg = make_config(tmp_path / f"cpus{cpus}", trials=3)
        runs[cpus] = (run_experiment(cfg), cfg.output_dir)
        assert_no_children()
    (serial, serial_dir), (parallel, parallel_dir) = runs[1], runs[2]
    assert [t.trial for t in parallel.trials] == [0, 1, 2]
    assert without_wall_time(parallel) == without_wall_time(serial)
    names = sorted(p.name for p in serial_dir.iterdir())
    assert names == sorted(p.name for p in parallel_dir.iterdir())
    assert len(names) == 2 * 3 + 1
    for name in names:
        if name != "summary.json":
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()


def test_the_smoothing_suite_is_the_same_in_one_process_and_in_two(monkeypatch):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(None)  # the child's copy of the list is its own
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    runs = {}
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        runs[cpus] = check_smoothing_properties(n_points=3, n_mc=500)
        assert len(forks) == cpus - 1
        assert_no_children()
    benchmarks = ("linear-ball", "quadratic-halfspace", "smooth-2con", "sphere-quadratic")
    properties = ("value-bias", "gradient-norm", "gradient-lipschitz")
    assert [c.name for c in runs[2]] == [
        f"smoothing/{bench}/{prop}" for bench in benchmarks for prop in properties
    ]
    assert runs[2] == runs[1]
    assert [c.statistic.hex() for c in runs[2]] == [c.statistic.hex() for c in runs[1]]


def test_a_process_with_other_threads_forks_nothing(tmp_path, monkeypatch):
    # A forked child would hold only the forking thread, so any lock the
    # other thread held would stay locked in it.
    with_cpus(monkeypatch, 2)

    def fork():
        raise AssertionError("forked with another thread running")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        summary = run_experiment(make_config(tmp_path))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert [t.trial for t in summary.trials] == [0, 1]
    assert not thread.is_alive()


# Runs a small experiment, frees an 8 MiB block, then prints how many bytes
# glibc mapped for a 1 MiB block.
MMAP_PROBE = """
import ctypes, json, sys
from zobarrier.harness import config_from_mapping, run_experiment

class MallInfo2(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_size_t)
        for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
        )
    ]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = MallInfo2
run_experiment(config_from_mapping(json.loads(sys.argv[1])))
big = bytearray(8 << 20)
del big
mapped = mallinfo2().hblkhd
block = bytearray(1 << 20)
print(mallinfo2().hblkhd - mapped)
"""


def test_after_a_run_a_freed_large_block_moves_no_later_block_onto_the_heap(tmp_path):
    # glibc's dynamic threshold would serve the 1 MiB block from the heap
    # once an 8 MiB mapped block was freed; a pinned threshold maps it. The
    # probe runs in a fresh interpreter, whose heap holds only the run's
    # blocks: a free hole that earlier tests left could serve the block
    # from the heap whatever the threshold.
    try:
        ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs glibc's mallinfo2")
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
    config = json.dumps(config_data(tmp_path, trials=1))
    proc = subprocess.run(
        [sys.executable, "-c", MMAP_PROBE, config], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 1 << 20


def fail_trials(monkeypatch, errors):
    """Make run_trial raise errors[t] for each trial t in `errors`."""
    real = harness.run_trial

    def run_trial(problem, cfg, trial):
        if trial in errors:
            raise errors[trial]
        return real(problem, cfg, trial)

    monkeypatch.setattr(harness, "run_trial", run_trial)


def test_an_error_in_a_helper_reaches_the_caller(tmp_path, monkeypatch):
    # With two processes the caller runs trials 0 and 2, a helper trial 1.
    with_cpus(monkeypatch, 2)
    fail_trials(monkeypatch, {1: MarginExhaustedError(0.25)})
    cfg = make_config(tmp_path, trials=3)
    with pytest.raises(MarginExhaustedError) as raised:
        run_experiment(cfg)
    assert str(raised.value) == str(MarginExhaustedError(0.25))
    assert raised.value.fhat_c_nu == 0.25
    assert not (cfg.output_dir / "summary.json").exists()
    assert_no_children()


def test_the_lowest_numbered_failing_trial_is_raised(tmp_path, monkeypatch):
    # Trial 2 fails in the caller's share, trial 1 in the helper's.
    with_cpus(monkeypatch, 2)
    fail_trials(
        monkeypatch, {1: ContractViolationError("trial one"), 2: ConfigError("trial two")}
    )
    cfg = make_config(tmp_path, trials=3)
    with pytest.raises(ContractViolationError, match="^trial one$"):
        run_experiment(cfg)
    assert not (cfg.output_dir / "summary.json").exists()
    assert_no_children()


class TwoPartError(Exception):
    """Pickles, but unpickling calls it with one argument and fails."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def test_an_error_pickle_cannot_carry_crosses_as_its_traceback(tmp_path, monkeypatch):
    class LocalError(Exception):  # a class defined in a function does not pickle
        pass

    with_cpus(monkeypatch, 2)
    fail_trials(monkeypatch, {1: LocalError("not picklable")})
    cfg = make_config(tmp_path, trials=2)
    message = r"^item 1: Traceback[\s\S]*LocalError: not picklable$"
    with pytest.raises(ZobarrierError, match=message):
        run_experiment(cfg)
    assert not (cfg.output_dir / "summary.json").exists()
    assert_no_children()


def test_a_helper_without_a_readable_report_fails_the_run(tmp_path, monkeypatch):
    with_cpus(monkeypatch, 2)
    fail_trials(monkeypatch, {1: TwoPartError("two", "parts")})
    cfg = make_config(tmp_path, trials=2)
    with pytest.raises(ZobarrierError, match=r"^helper \d+ ended without a readable report$"):
        run_experiment(cfg)
    assert not (cfg.output_dir / "summary.json").exists()
    assert_no_children()


# -- verification suites -----------------------------------------------------


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        verify_properties("not-a-suite")


def test_coverage_suite_passes():
    checks = verify_properties("coverage", repeats=2000)
    assert all(c.passed for c in checks)


# -- CLI ---------------------------------------------------------------------


def write_yaml(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def cli_config(tmp_path):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE_CONFIG.items()}
    data["output_dir"] = str(tmp_path / "out")
    data["trials"] = 1
    data["algo"]["max_iters"] = 10
    return write_yaml(tmp_path, data)


def test_cli_run(tmp_path, capsys):
    assert cli.main(["run", cli_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "objective median" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_run_missing_config(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.yaml")]) == 1


def test_cli_run_invalid_config(tmp_path):
    path = write_yaml(tmp_path, {"problem": {"name": "linear-ball"}})
    assert cli.main(["run", path]) == 1


def test_cli_usage_error():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1


def test_cli_presets(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_cli_plan(tmp_path, capsys):
    assert cli.main(["plan", cli_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sample bound" in out
    assert "iteration bound terms" in out


def test_cli_verify_pass(capsys):
    assert cli.main(["verify", "coverage"]) == 0
    assert "PASS coverage/upper-bound" in capsys.readouterr().out


def test_cli_verify_unknown_suite():
    assert cli.main(["verify", "not-a-suite"]) == 1


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    from zobarrier import harness

    monkeypatch.setitem(
        harness.SUITES,
        "always-fail",
        lambda **kw: [PropertyCheck("always-fail/check", False, 1.0, 0.0)],
    )
    assert cli.main(["verify", "always-fail"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cli_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ZOBARRIER_OUTPUT_DIR", str(tmp_path / "redirected"))
    assert cli.main(["run", cli_config(tmp_path)]) == 0
    assert (tmp_path / "redirected" / "out" / "summary.json").exists()
