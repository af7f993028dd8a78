"""Cyclic garbage collections inside each command of perfbench's workloads at seed 7.

Usage, from the root of a checkout:

    python3 tools/gc_share.py

The inputs come from perfbench's own planners (``plan_scan_text``,
``plan_cv_counts`` and ``plan_cv_gauss_wide`` in ``perfbench/run.py``),
written to a temporary directory. Each workload's ``lexicon-validate`` and
full-size commands then run once, each in a fresh process on the checkout's
``src``. That process imports ``tvmood.cli``, hooks ``gc.callbacks`` and
calls ``tvmood.cli.main`` with the command's arguments; the hook counts
the collections per generation that start while ``main`` runs, and the CPU
time between each one's start and stop. Imports are not counted.

One line per command shows the collections per generation, their CPU
time, the CPU time of ``main`` and the collections' share of it. The run
exits 1 when a command fails, or when a collection ran inside any command:
``main`` pauses automatic collection, so any is a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def main() -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    collected = 0
    print(f"{'workload':14} {'command':22} {'gen0':>5} {'gen1':>5} {'gen2':>5} "
          f"{'gc_ms':>7} {'main_ms':>8} {'share':>6}")
    with tempfile.TemporaryDirectory(prefix="gc-share-") as temp:
        env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(Path(temp) / "pycache"))
        stats_path = Path(temp) / "stats.json"
        for name, plan_workload in perfbench.WORKLOADS.items():
            work = Path(temp) / name
            work.mkdir()
            plan = plan_workload(SEED, work)
            for command in [plan.validate, *plan.commands["full"]]:
                done = subprocess.run(
                    [sys.executable, "-c", CHILD, str(stats_path), *command.args],
                    cwd=work, env=env, capture_output=True, text=True,
                )
                if done.returncode != 0:
                    sys.exit(f"{name}: tvmood {command.args[0]} exited {done.returncode}: "
                             f"{done.stderr.strip()}")
                stats = json.loads(stats_path.read_text(encoding="utf-8"))
                gens = stats["collections"]
                collected += sum(gens)
                share = stats["gc_s"] / stats["main_s"] if stats["main_s"] else 0.0
                print(f"{name:14} {command.metric:22} {gens[0]:5} {gens[1]:5} {gens[2]:5} "
                      f"{1e3 * stats['gc_s']:7.1f} {1e3 * stats['main_s']:8.1f} {share:6.1%}")
    if collected:
        print(f"{collected} collections ran inside tvmood.cli.main, which pauses them")
        return 1
    print("no collection ran inside tvmood.cli.main")
    return 0


if __name__ == "__main__":
    sys.exit(main())
