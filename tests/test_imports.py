"""What each part of the checkout imports, read from its syntax trees.

Every ``import`` and ``from ... import`` counts, also inside functions, by
its top-level module name; a relative import is the package's own. The
package runs on the standard library alone, the scripts in ``tools/`` add
only perfbench's modules, and the tests add only ``tvmood``, their own
modules and the ``test`` extra of ``pyproject.toml``, each of whose names is
imported somewhere.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDLIB = sys.stdlib_module_names


def imported(directory: Path) -> dict[str, set[str]]:
    """Each top-level module name imported under ``directory``, with its files."""
    names: dict[str, set[str]] = {}
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                names.setdefault(module.partition(".")[0], set()).add(path.name)
    return names


def outside(names: dict[str, set[str]], allowed: set[str]) -> dict[str, list[str]]:
    return {name: sorted(files) for name, files in names.items() if name not in allowed}


def extra_names() -> list[str]:
    """The import names in ``pyproject.toml``'s ``test`` extra (a regex: 3.10
    has no ``tomllib``)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    entries = re.search(r"^test = \[(.*)\]$", text, re.M)[1]
    return [name.lower().replace("-", "_") for name in re.findall(r'"([\w.-]+)', entries)]


def own_modules(directory: Path) -> set[str]:
    return {path.stem for path in directory.glob("*.py")}


def test_the_package_imports_only_the_standard_library():
    assert outside(imported(ROOT / "src" / "tvmood"), STDLIB | {"tvmood"}) == {}


def test_tools_import_only_the_standard_library_and_perfbench():
    allowed = STDLIB | own_modules(ROOT / "perfbench")
    assert outside(imported(ROOT / "tools"), allowed) == {}


def test_tests_import_only_the_package_their_modules_and_the_test_extra():
    extra = extra_names()
    names = imported(ROOT / "tests")
    allowed = STDLIB | {"tvmood"} | own_modules(ROOT / "tests") | set(extra)
    assert outside(names, allowed) == {}
    assert [name for name in extra if name not in names] == []
