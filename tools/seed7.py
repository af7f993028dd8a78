"""Byte identity and garbage collections of perfbench's three workloads at seed 7.

Usage, from the root of a checkout:

    python3 tools/seed7.py --check   # recompute and diff the checked-in list
    python3 tools/seed7.py --write   # rewrite the list

Perfbench's planners (``WORKLOADS`` in ``perfbench/run.py``) write the
inputs to a temporary directory. Each workload's ``lexicon-validate`` and
full-size commands then run once, each in a fresh process on the
checkout's ``src`` that calls ``tvmood.cli.main`` under a ``gc.callbacks``
hook. A table line per command shows the collections per generation that
started inside ``main``, their CPU time, ``main``'s and their share of it.
The list, ``tests/golden/seed7.sha256``, holds a
``<sha256>  <workload>/<file>`` line per output: the golden CLI files are
too small to show a change in a last bit; these 11 outputs are not.

A command that fails, or exits 0 without writing an output, stops the run
with a one-line message. Otherwise both verdicts are printed, and the run
exits 1 when ``--check`` finds a line that differs (it prints the diff) or
when a collection ran inside any command: ``main`` pauses automatic
collection, so any is a regression. A change that moves one of these bytes
rewrites the list and says which byte moved and why, as for the golden
files.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
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

# argv: the stats path, then the command's arguments
CHILD = """
import gc, json, sys, time
import tvmood.cli

collections, spent, started = [0, 0, 0], [0.0], [0.0]

def count(phase, info):
    if phase == "start":
        started[0] = time.process_time()
    else:
        collections[info["generation"]] += 1
        spent[0] += time.process_time() - started[0]

began = time.process_time()
gc.callbacks.append(count)
status = tvmood.cli.main(sys.argv[2:])
gc.callbacks.remove(count)
main_s = time.process_time() - began
with open(sys.argv[1], "w", encoding="utf-8") as out:
    json.dump({"collections": collections, "gc_s": spent[0], "main_s": main_s}, out)
sys.exit(status)
"""


def run(temp: Path) -> tuple[list[str], int]:
    """Print each command's collections; return the digest lines, in workload
    and command order, and the number of collections."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(temp / "pycache"))
    stats_path = temp / "stats.json"
    lines, collected = [], 0
    print(f"{'workload':14} {'command':22} {'gen0':>5} {'gen1':>5} {'gen2':>5} "
          f"{'gc_ms':>7} {'main_ms':>8} {'share':>6}")
    for name, plan_workload in perfbench.WORKLOADS.items():
        work = temp / name
        work.mkdir()
        plan = plan_workload(SEED, work)
        for command in [plan.validate, *plan.commands["full"]]:
            done = subprocess.run([sys.executable, "-c", CHILD, str(stats_path), *command.args],
                                  cwd=work, env=env, capture_output=True, text=True)
            failed = f"{name}: tvmood {command.args[0]} exited {done.returncode}"
            if done.returncode != 0:
                sys.exit(f"{failed}: {done.stderr.strip()}")
            for path in command.outputs:
                if not path.is_file():
                    sys.exit(f"{failed}: it wrote no {path.name}")
                lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            gens = stats["collections"]
            collected += sum(gens)
            share = stats["gc_s"] / stats["main_s"] if stats["main_s"] else 0.0
            print(f"{name:14} {command.metric:22} {gens[0]:5} {gens[1]:5} {gens[2]:5} "
                  f"{1e3 * stats['gc_s']:7.1f} {1e3 * stats['main_s']:8.1f} {share:6.1%}")
    return lines, collected


def main() -> int:
    name = LIST.relative_to(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"rewrite {name}")
    mode.add_argument("--check", action="store_true", help=f"diff against {name}")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="seed7-") as temp:
        lines, collected = run(Path(temp))
    differs = False
    if args.write:
        LIST.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} lines to {name}")
    else:
        expected = LIST.read_text(encoding="utf-8").splitlines()
        differs = lines != expected
        print("\n".join(difflib.unified_diff(expected, lines, str(name), "this checkout", lineterm=""))
              if differs else f"all {len(lines)} outputs match {name}")
    if collected:
        print(f"{collected} collections ran inside tvmood.cli.main, which pauses them")
    else:
        print("no collection ran inside tvmood.cli.main")
    return int(differs or collected > 0)


if __name__ == "__main__":
    sys.exit(main())
