import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from zobarrier import cli
from zobarrier.errors import ConfigError, UnknownSuiteError
from zobarrier.harness import (
    PRESETS,
    PropertyCheck,
    build_problem,
    config_from_mapping,
    expand_preset,
    run_experiment,
    run_trial,
    verify_properties,
    write_trace_csv,
)

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
    "algo-seed-set-per-trial": {"algo": {"seed": 123}},
    "noise_kind-unknown": {"noise_kind": "bogus"},
    "noise_kind-none": {"noise_kind": "none"},
    "unicycle-misspelt-key": {"problem": {"name": "unicycle", "horizonn": 3}},
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
    "unicycle-box_halfwidth-nan": {"problem": {"name": "unicycle", "box_halfwidth": NAN}},
    "unicycle-box_halfwidth-inf": {"problem": {"name": "unicycle", "box_halfwidth": INF}},
    "unicycle-v_max-nan": {"problem": {"name": "unicycle", "v_max": NAN}},
    "unicycle-omega_max-nan": {"problem": {"name": "unicycle", "omega_max": NAN}},
    "plan-nan-gap": {"plan": {"d_f_estimate": NAN}},
    "plan-inf-gap": {"plan": {"d_f_estimate": INF}},
}


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_value_is_config_error(tmp_path, capsys, overrides):
    data = config_data(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        config_from_mapping(data)
    path = write_yaml(tmp_path, data)
    for command in ("run", "plan"):
        assert cli.main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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
    assert saved == summary.to_dict()


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
    # A frozen iterate records alpha_hat = nan.
    result.trace.append(dataclasses.replace(result.trace[-1], k=10**12, alpha_hat=float("nan")))
    write_trace_csv(result, problem, tmp_path / "columnar.csv")
    legacy_trace_csv(result, problem, tmp_path / "legacy.csv")
    got = (tmp_path / "columnar.csv").read_bytes()
    assert got == (tmp_path / "legacy.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + 13 and b",nan," in got


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
