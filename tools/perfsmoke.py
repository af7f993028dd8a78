"""One-second perfbench run of each workload, untraced and traced.

Usage, from the root of a checkout:

    python3 tools/perfsmoke.py

Each workload runs at ``--seed 1 --seconds 1``, once with ``--trace 0`` and
once with ``--trace 1``, each in its own process: under ``--workload all``, a
workload's peak_rss_mb would carry the harness peak of the workloads before
it. perfbench exits 0 even when a command fails its check; its last stdout
line is the workload's result JSON, so this reads that. A run passes when it
is ``correct`` with ``failed == 0`` and, traced, every layer of ``LAYERS``
reads above 0. The run stops at the first failure, with one line on stderr
that names the workload, the trace setting and any layer at 0, and exits 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench traces functions by name, and a layer it no longer finds reads 0,
# so under --trace 1 a renamed or no longer called layer below fails the run.
# run_cv makes its multinomial fold models from per-fold class counts and no
# longer calls train_multinomial, so classify.train_multinomial_s (and its
# scale_exp) reads 0 in cv-counts and is not checked; nor are
# affect.score_channel_s and corpus.load_s, which scan-text no longer runs
LAYERS = {
    "scan-text": ("lexicon.parse_s", "affect.score_counts_s", "affect.score_windows_s",
                  "affect.series_to_csv_s", "features.extract_meta_s", "features.to_csv_s"),
    "cv-counts": ("classify.predict_multinomial_s", "evaluation.run_cv_vsm_multinomial_s",
                  "features.extract_meta_s", "classify.train_gaussian_meta_s",
                  "classify.predict_gaussian_meta_s", "evaluation.auc_s",
                  "evaluation.report_render_s", "features.extract_vsm_s",
                  "evaluation.folds_s", "evaluation.run_cv_meta_gaussian_s",
                  "lexicon.parse_s"),
    "cv-gauss-wide": ("classify.train_gaussian_counts_s",
                      "classify.predict_gaussian_counts_s",
                      "evaluation.run_cv_vsm_gaussian_s"),
}


def main() -> int:
    for workload, layers in LAYERS.items():
        for trace in ("0", "1"):
            failed = f"{workload} --trace {trace} smoke run failed"
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            print(done.stdout, end="", flush=True)
            if done.returncode != 0:
                sys.exit(f"{failed}: perfbench exited {done.returncode}")
            try:
                result = json.loads(done.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                sys.exit(f"{failed}: the last stdout line is not the result JSON")
            metrics = result["metrics"]
            zero = [name for name in layers if trace == "1"
                    and not metrics.get(name, {"value": 0})["value"] > 0]
            if not (result["correct"] is True and result["failed"] == 0 and not zero):
                sys.exit(f"{failed}; correct {result['correct']}, failed {result['failed']}, "
                         f"layers at 0: {zero}")
    print(f"all {2 * len(LAYERS)} perfbench smoke runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
