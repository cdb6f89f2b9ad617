"""The public API and the README's library example stay in step."""

import re
from pathlib import Path

import zobarrier

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in zobarrier.__all__ if not hasattr(zobarrier, name)]
    assert missing == []
    assert len(set(zobarrier.__all__)) == len(zobarrier.__all__)


def test_readme_library_usage_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library usage") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    # The last print is result.audit.violation_count.
    assert lines[-1] == "0"
