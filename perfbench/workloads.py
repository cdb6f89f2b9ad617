"""The benchmark's workloads: harness configs, the output shape each trial
must have, why each workload exists, and which end-to-end metric each
layer's metrics should move on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mapping: dict  # config_from_mapping input, minus base_seed and output_dir
    iterations: int  # K: every trial must record this many iterations
    samples: int  # n: every trial must sample n * K directions

    def config(self, seed: int, output_dir) -> dict:
        return {**self.mapping, "base_seed": seed, "output_dir": str(output_dir)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="unicycle-paper",
            why=(
                "Paper preset, 2 trials: ~85% of run_s is the unicycle simulator at a fixed "
                "cost per call; problems.* and smoothing.* move run_s here; simulator and "
                "lockstep-trial gains show only here."
            ),
            mapping={"preset": "unicycle-paper", "trials": 2},
            iterations=500,
            samples=7,
        ),
        Workload(
            name="smooth-2con-wide",
            why=(
                "smooth-2con at n=2048, K=40, 1 trial: ~82k audited points per trial; "
                "oracle.* audit bookkeeping, sort and CSV move run_s and peak_rss_mb here; "
                "columnar-audit gains show here."
            ),
            mapping={
                "problem": {"name": "smooth-2con", "noise_sigma": 0.01},
                "algo": {
                    "eta": 0.3,
                    "delta": 0.1,
                    "max_iters": 40,
                    "n_policy": "theoretical",
                    "n_cap": 2048,
                    "nu_policy": "fixed",
                    "margin_policy": "halt",
                },
                "trials": 1,
            },
            iterations=40,
            samples=2048,
        ),
        Workload(
            name="linear-ball-demo",
            why=(
                "linear-ball preset (n=16, K=2000), 1 trial: per-iteration Python overhead; "
                "streams.*, estimator.*, solver.* move iters_per_s here; added per-call cost "
                "shows as a loss here."
            ),
            mapping={"preset": "linear-ball-demo", "trials": 1},
            iterations=2000,
            samples=16,
        ),
    )
}

# Layer metric prefix -> (end-to-end metric it should move, workloads where
# it should move it). Elsewhere the prediction for that layer is no change.
LAYER_TARGETS = {
    "problems.": ("run_s", ("unicycle-paper",)),
    "smoothing.": ("run_s", ("unicycle-paper",)),
    "oracle.": ("run_s, peak_rss_mb", ("smooth-2con-wide",)),
    "streams.": ("iters_per_s", ("linear-ball-demo",)),
    "estimator.": ("iters_per_s", ("linear-ball-demo",)),
    "solver.": ("iters_per_s", ("linear-ball-demo",)),
    "harness.": ("run_s", ("linear-ball-demo", "smooth-2con-wide")),
    "trace.": ("none: tracing cost", ()),
}


def layer_target(metric: str) -> str:
    for prefix, (e2e, names) in LAYER_TARGETS.items():
        if metric.startswith(prefix):
            return f"{e2e} on {', '.join(names)}" if names else e2e
    raise KeyError(metric)
