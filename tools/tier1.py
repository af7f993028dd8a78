"""Tier-1 tests under each given interpreter, with CI's flags.

Usage, from the root of a checkout, under an interpreter that has the
``test`` extra of ``pyproject.toml`` installed:

    python3 tools/tier1.py python3.10 python3.11 python3.12 python3.13

The other interpreters need no test packages of their own. The script links
the running interpreter's copies of the extra's distributions, and of what
they require unconditionally, into a temporary directory: each top-level
package and module with its ``*.dist-info`` (hypothesis's pytest plugin is
found through its entry point, so ``_hypothesis_*.py`` come too). Every one
of them must be pure Python. An interpreter before 3.11 also needs ``tomli``
and ``exceptiongroup``, which pytest requires only there: when it has neither
``tomllib`` nor ``tomli``, its own pip's vendored ``tomli`` is linked; when it
has neither the builtin ``ExceptionGroup`` nor the package, a stand-in is
written (see ``STAND_IN``).

Each interpreter then runs ``-X dev -W error::ResourceWarning -m pytest -q
--continue-on-collection-errors`` from the checkout, as CI does, with ``src``
and the links on ``PYTHONPATH``. Byte code, pytest's temporary directories
and hypothesis's example database go to the temporary directory, and pytest's
cache is off, so the run writes nothing into the checkout or into any
interpreter's tree. One summary line per interpreter closes the run, which
exits 1 when any interpreter failed or could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ["-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# what an interpreter lacks before 3.11; run under the interpreter itself
PROBE = """
import builtins, importlib.util, json, sys
pip = importlib.util.find_spec("pip")
print(json.dumps({
    "version": sys.version.split()[0],
    "tomli": bool(importlib.util.find_spec("tomllib") or importlib.util.find_spec("tomli")),
    "exceptiongroup": hasattr(builtins, "ExceptionGroup")
                      or bool(importlib.util.find_spec("exceptiongroup")),
    "pip": pip.submodule_search_locations[0] if pip else None,
}))
"""

STAND_IN = '''"""A stand-in for the exceptiongroup backport, written by tools/tier1.py.

It holds only the names pytest and hypothesis import before Python 3.11; it
is not the backport, and pytest or hypothesis raises a group only on a failure.
"""

import types


class BaseExceptionGroup(BaseException):
    __class_getitem__ = classmethod(types.GenericAlias)

    def __init__(self, message, exceptions):
        super().__init__(message, exceptions)
        self.message, self.exceptions = message, tuple(exceptions)


class ExceptionGroup(BaseExceptionGroup, Exception):
    pass
'''


def extra_names() -> list[str]:
    """The names in ``pyproject.toml``'s ``test`` extra."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.findall(r'"([\w.-]+)', re.search(r"^test = \[(.*)\]$", text, re.M)[1])


def link_packages(target: Path) -> None:
    """Link the extra's distributions and their unconditional requirements."""
    pending, seen = extra_names(), set()
    while pending:
        name = pending.pop()
        if name.lower() in seen:
            continue
        seen.add(name.lower())
        dist = importlib.metadata.distribution(name)
        files = dist.files or []
        if not files or any(f.suffix in (".so", ".pyd") for f in files):
            sys.exit(f"tier1: {name} is not a pure-Python distribution with a file list")
        for top in {f.parts[0] for f in files} - {"..", "__pycache__"}:
            (target / top).symlink_to(dist.locate_file(top))
        pending += [re.match(r"[\w.-]+", req)[0] for req in dist.requires or [] if ";" not in req]


def run(python: str, base: Path, shared: Path, index: int) -> tuple[bool, str]:
    """Run tier-1 under ``python``; the verdict and pytest's last line."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(base / "pycache"),
           "HYPOTHESIS_STORAGE_DIRECTORY": str(base / "hypothesis")}
    env.pop("PYTHONPATH", None)
    try:
        probe = json.loads(subprocess.run([python, "-c", PROBE], env=env, check=True,
                                          capture_output=True, text=True).stdout)
    except (OSError, subprocess.CalledProcessError) as exc:
        return False, f"{python}: could not run ({exc})"
    extra = base / f"extra-{index}"
    extra.mkdir()
    if not probe["tomli"]:
        vendored = Path(probe["pip"] or "") / "_vendor" / "tomli"
        if not vendored.is_dir():
            return False, f"{python}: Python {probe['version']} has no tomllib, tomli or pip's tomli"
        (extra / "tomli").symlink_to(vendored)
    if not probe["exceptiongroup"]:
        (extra / "exceptiongroup.py").write_text(STAND_IN, encoding="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(map(str, (ROOT / "src", shared, extra)))
    print(f"== {python} (Python {probe['version']})", flush=True)
    command = [python, *FLAGS, f"--basetemp={base / f'pytest-{index}'}"]
    last = ""
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            last = line.strip() or last
    return proc.returncode == 0, f"{python} (Python {probe['version']}): {last}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("python", nargs="+", help="an interpreter to run tier-1 under")
    args = parser.parse_args()
    summaries, failed = [], False
    with tempfile.TemporaryDirectory(prefix="tier1-") as tmp:
        base = Path(tmp)
        shared = base / "site"
        shared.mkdir()
        link_packages(shared)
        for index, python in enumerate(args.python):
            ok, summary = run(python, base, shared, index)
            failed |= not ok
            summaries.append(f"{'ok  ' if ok else 'FAIL'} {summary}")
    print("\n".join(summaries))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
