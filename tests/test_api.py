"""The public API and the README's library example stay in step."""

import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import zobarrier

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in zobarrier.__all__ if not hasattr(zobarrier, name)]
    assert missing == []
    assert len(set(zobarrier.__all__)) == len(zobarrier.__all__)


# Constructor arguments of the errors that take more than a message.
ERROR_ARGS = {
    "DivergedTrajectoryError": [(3,), (3, "simulated state overflowed at step 3")],
    "MarginExhaustedError": [(0.5,)],
}


def test_package_errors_survive_pickling():
    # A trial's error crosses a pipe from the process that ran it.
    names = [
        name
        for name in zobarrier.__all__
        if isinstance(getattr(zobarrier, name), type)
        and issubclass(getattr(zobarrier, name), zobarrier.ZobarrierError)
    ]
    assert len(names) == 10
    for name in names:
        cls = getattr(zobarrier, name)
        for args in ERROR_ARGS.get(name, [("a message",)]):
            error = cls(*args)
            back = pickle.loads(pickle.dumps(error))
            assert type(back) is cls
            assert str(back) == str(error)
            assert vars(back) == vars(error)


def test_readme_library_usage_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library usage") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    # The last two prints are the ground-truth pass's containment and violation counts.
    assert lines[-2:] == ["0", "0"]


def test_run_path_does_not_import_scipy(tmp_path):
    """scipy.stats costs about 1 s of start-up; only the output-law suite
    imports it. A fresh interpreter shows what the run path loads."""
    script = textwrap.dedent(
        f"""
        import sys
        from zobarrier import cli
        from zobarrier.harness import check_output_law, config_from_mapping, run_experiment

        assert cli.main(["presets"]) == 0
        cfg = config_from_mapping(
            {{"preset": "linear-ball-demo", "trials": 1, "algo": {{"max_iters": 3}},
              "output_dir": {str(tmp_path)!r}}}
        )
        assert run_experiment(cfg).trials[0].iterations == 3
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)[:5]
        assert not {{"multiprocessing", "concurrent"}} & {{m.split(".")[0] for m in sys.modules}}
        assert all(check.passed for check in check_output_law(draws=1000))
        assert "scipy" in sys.modules
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
