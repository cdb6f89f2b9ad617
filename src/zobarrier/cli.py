"""Command-line front end.

Subcommands:
  run <config.yaml>    execute a seeded experiment, persist outputs
  verify <suite>       run a named property-verification suite
  presets              list built-in config presets
  plan <config.yaml>   print sample-count and iteration-count estimates

Exit codes: 0 success, 1 usage/config error, 2 run failure, 3 property
failure. The ZOBARRIER_OUTPUT_DIR environment variable overrides the
configured output directory.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import yaml

from . import harness, solver
from .errors import ConfigError, UnknownSuiteError, ZobarrierError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2
EXIT_PROPERTY_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this harness reserves
    # 2 for run failures and uses 1 for usage problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(path: str) -> harness.ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    cfg = harness.config_from_mapping(raw or {})
    override = os.environ.get(harness.ENV_OUTPUT_DIR)
    if override:
        cfg.output_dir = Path(override) / cfg.output_dir.name
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    summary = harness.run_experiment(cfg)
    agg = summary.aggregate
    print(f"{summary.label}: {agg['trials']} trial(s) -> {cfg.output_dir}")
    if agg["objective_median"] is not None:  # None when every trial halted
        print(
            f"  objective median={agg['objective_median']:.6g} "
            f"min={agg['objective_min']:.6g} max={agg['objective_max']:.6g}"
        )
    print(f"  ground-truth constraint violations: {agg['total_violations']}")
    if agg["total_containment_failures"]:
        print(f"  steps past their containment bound: {agg['total_containment_failures']}")
    halted = [t for t in summary.trials if t.halted_reason]
    if halted:
        reasons = ", ".join(f"{t.trial} {t.halted_reason} at k={t.halted_at}" for t in halted)
        print(f"  flagged trials (halted): {reasons}")
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = harness.verify_properties(args.suite, seed=args.seed)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: statistic={check.statistic:.6g} "
            f"threshold={check.threshold:.6g}"
            + (f" ({check.detail})" if check.detail else "")
        )
        failures += 0 if check.passed else 1
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FAILURE


def _cmd_presets(_args) -> int:
    for name in sorted(harness.PRESETS):
        preset = harness.PRESETS[name]
        algo = preset["algo"]
        print(
            f"{name}: problem={preset['problem']['name']} eta={algo['eta']} "
            f"K={algo['max_iters']} trials={preset['trials']}"
        )
    return EXIT_OK


def _cmd_plan(args) -> int:
    cfg = _load_config(args.config)
    problem = harness.build_problem(cfg.problem_name, cfg.problem_options)
    algo = cfg.algo
    C, nu, sig, n_req = solver.sample_bound(problem, algo)
    d_f = cfg.plan.get("d_f_estimate", 1.0)
    plan = solver.plan_iterations(algo.eta, problem.lipschitz, C, problem.dim, d_f)
    print(f"problem={problem.name} d={problem.dim} m={problem.num_constraints}")
    print(f"C={C:.6g} nu(fixed)={nu:.6g} Sigma={sig:.6g}")
    print(f"sample bound n_k={n_req} (configured cap {algo.n_cap})")
    print(
        "iteration bound terms: "
        f"gap={plan['term_gap']:.4g} dimension={plan['term_dimension']:.4g} "
        f"log={plan['term_log']:.4g} -> K>={plan['K_required']} "
        f"(d_f_estimate={d_f})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zobarrier", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="YAML config file")
    p_run.set_defaults(func=_cmd_run)
    p_verify = sub.add_parser("verify", help="run a property-verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(sorted(harness.SUITES))}")
    p_verify.add_argument("--seed", type=int, default=20260809)
    p_verify.set_defaults(func=_cmd_verify)
    p_presets = sub.add_parser("presets", help="list built-in presets")
    p_presets.set_defaults(func=_cmd_presets)
    p_plan = sub.add_parser("plan", help="print sample/iteration count estimates")
    p_plan.add_argument("config", help="YAML config file")
    p_plan.set_defaults(func=_cmd_plan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (ConfigError, UnknownSuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZobarrierError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
