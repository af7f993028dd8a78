"""README's library example runs as written against ``sample_data/``."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The first python block under README's ``## Library`` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_readme_library_example_runs_on_sample_data(monkeypatch):
    monkeypatch.chdir(ROOT)  # the example names sample_data/ relative to the checkout
    exec(compile(library_example(), "README.md (## Library)", "exec"), {})
