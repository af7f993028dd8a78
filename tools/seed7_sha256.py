"""The sha256 of every output of perfbench's three workloads at seed 7.

Usage, from the root of a checkout:

    python3 tools/seed7_sha256.py --check   # recompute and diff the checked-in list
    python3 tools/seed7_sha256.py --write   # rewrite the list

The inputs come from perfbench's own planners (``plan_scan_text``,
``plan_cv_counts`` and ``plan_cv_gauss_wide`` in ``perfbench/run.py``),
written to a temporary directory. Each full-size command then runs once, in
a fresh ``python -m tvmood.cli`` process on the checkout's ``src``. The list,
``tests/golden/seed7.sha256``, holds one ``<sha256>  <workload>/<file>`` line
per output: scan-text's four CSVs, cv-counts' two report pairs and
``synth.jsonl``, and cv-gauss-wide's report pair. The golden CLI files are
too small to show a change in a last bit; these outputs are not.

``--check`` prints a diff and exits 1 when a line differs; a command that
fails stops the run with its message. A change that moves one of these
bytes rewrites the list and says which byte moved and why, as for the
golden files.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "tests" / "golden" / "seed7.sha256"
SEED = 7

sys.dont_write_bytecode = True  # keep perfbench/ free of caches, as its run.py does
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402


def digests(temp: Path) -> list[str]:
    """``<sha256>  <workload>/<file>`` for each output, in workload and command order."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(temp / "pycache"))
    lines = []
    for name, plan_workload in perfbench.WORKLOADS.items():
        work = temp / name
        work.mkdir()
        for command in plan_workload(SEED, work).commands["full"]:
            done = subprocess.run([sys.executable, "-m", "tvmood.cli", *command.args],
                                  cwd=work, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{name}: tvmood {command.args[0]} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
            for path in command.outputs:
                lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"rewrite {LIST.relative_to(ROOT)}")
    mode.add_argument("--check", action="store_true", help=f"diff against {LIST.relative_to(ROOT)}")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="seed7-") as temp:
        lines = digests(Path(temp))
    if args.write:
        LIST.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} lines to {LIST.relative_to(ROOT)}")
        return 0
    expected = LIST.read_text(encoding="utf-8").splitlines()
    if lines != expected:
        for line in difflib.unified_diff(expected, lines, str(LIST.relative_to(ROOT)),
                                         "this checkout", lineterm=""):
            print(line)
        return 1
    print(f"all {len(lines)} outputs match {LIST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
