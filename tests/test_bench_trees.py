"""The bench scripts' shared harness, `bench/trees.py`: round order, the
check of each tree, and that every script imports alongside the others."""

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_trees", BENCH / "trees.py")
trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trees)


@pytest.mark.parametrize("labels", [("a", "b"), ("a", "b", "c")])
def test_rounds_alternate_which_tree_runs_first(labels, capsys):
    given = {label: Path(label) for label in labels}
    seen = [[label for label, _ in pairs] for _, pairs in trees.rounds(4, given)]
    assert seen == [list(labels), list(labels[::-1])] * 2
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == f"round 2/4: {'; '.join(labels[::-1])}"


def test_a_directory_without_the_package_is_refused(tmp_path):
    with pytest.raises(argparse.ArgumentTypeError, match="zobarrier"):
        trees.source(f"empty={tmp_path}")
    with pytest.raises(argparse.ArgumentTypeError, match="zobarrier"):
        trees.root(str(tmp_path))
    src = trees.ROOT / "src"
    assert trees.source(f"this={src}") == ("this", src)


def test_every_bench_script_imports_alongside_the_others():
    names = sorted(p.stem for p in BENCH.glob("*.py"))
    script = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import {', '.join(names)}"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
