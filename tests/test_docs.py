"""README's library quickstart runs as written, so that a removed or renamed
public name fails the suite instead of going stale in the README."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})
    assert "lambda@0.1" in capsys.readouterr().out
