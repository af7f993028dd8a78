"""Memory pins: each command holds what its output needs, never the corpus.

Each test runs the command through ``cli.main`` under ``tracemalloc`` in a
fresh interpreter, on small generated corpora, so that nothing the rest of
the test suite allocated or frees can fall in the measured window. Rows
written as they are read keep the peak flat in the corpus size;
``evaluate`` keeps one labeled row per document, so its peak grows by
about one row per document.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from datetime import datetime, timedelta, timezone

import pytest

import tvmood

VOCABULARY = [f"t{i:04d}" for i in range(2000)]
LEXICON_WORDS = VOCABULARY[:400]  # about a fifth of each document's terms match
START = datetime(2013, 1, 7, tzinfo=timezone.utc)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 400-word lexicon and text corpora of 150, 200, 600 and 1,000
    documents of 150 tokens, two genres on four channels, one document
    every 7 hours; and the ``hourly`` corpus of 1,000 such documents, one
    every hour, so six a day on each channel."""
    directory = tmp_path_factory.mktemp("memory")
    rng = random.Random(2013)
    lexicon = directory / "lexicon.csv"
    rows = ["word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd"]
    for word in LEXICON_WORDS:
        v, a, d = (round(rng.uniform(1, 9), 2) for _ in range(3))
        rows.append(f"{word},{v},1.0,{a},1.0,{d},1.0")
    lexicon.write_text("\n".join(rows) + "\n", encoding="utf-8")
    corpora = {}
    for name, size, hours in [(150, 150, 7), (200, 200, 7), (600, 600, 7), (1000, 1000, 7),
                              ("hourly", 1000, 1)]:
        lines = []
        for i in range(size):
            record = {
                "id": f"doc-{i:05d}",
                "channel": f"ch{i % 4}",
                "timestamp": (START + timedelta(hours=hours * i)).strftime("%Y-%m-%dT%H:%M:%SZ"),
                "genre": ("comedy", "news")[i % 2],
                "text": " ".join(rng.choices(VOCABULARY, k=150)),
            }
            lines.append(json.dumps(record))
        corpora[name] = directory / f"corpus-{name}.jsonl"
        corpora[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lexicon, corpora, directory


PEAK_SCRIPT = """
import contextlib, io, sys, tracemalloc
from tvmood.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])  # warm-up: imports and module caches are not the command's
    tracemalloc.start()
    status = main(sys.argv[1:])
    peak = tracemalloc.get_traced_memory()[1]
print(status, peak)
"""


def peak_bytes(argv):
    """tracemalloc's peak over one run of the command, after a warm-up run,
    in a fresh interpreter that imports this ``tvmood``."""
    source = os.path.dirname(os.path.dirname(tvmood.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PEAK_SCRIPT, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    status, peak = map(int, result.stdout.split())
    assert status == 0
    return peak


def run_peak(inputs, size, command):
    lexicon, corpora, directory = inputs
    out = directory / ("report" if command[0] == "evaluate" else "out.csv")
    argv = [*command, "--lexicon", str(lexicon), "--corpus", str(corpora[size]), "--out", str(out)]
    return peak_bytes(argv)


@pytest.mark.parametrize(
    "command", [["features"], ["score", "--per-document"]], ids=["features", "per-document"]
)
def test_streamed_rows_keep_the_peak_flat_in_the_corpus_size(inputs, command):
    small, large = run_peak(inputs, 150, command), run_peak(inputs, 600, command)
    assert large < 1.3 * small, (small, large)


@pytest.mark.parametrize(
    "rep,limit", [("meta", 3 * 1024), ("vsm", 8 * 1024)], ids=["meta", "vsm"]
)
def test_evaluate_peak_grows_by_one_row_per_document(inputs, rep, limit):
    command = ["evaluate", "--rep", rep, "--folds", "2"]
    small, large = run_peak(inputs, 200, command), run_peak(inputs, 1000, command)
    per_document = (large - small) / 800
    assert per_document < limit, per_document


def test_window_default_origin_peaks_as_an_explicit_one(inputs):
    """Without ``--origin``, ``score --window`` pools per (channel, window)
    from the origin its timestamp pre-pass finds, as it does with the same
    origin given. The hourly corpus has six documents a day on each
    channel, so a pool per (channel, day) would show in the peak."""
    command = ["score", "--window", "4w"]
    default = run_peak(inputs, "hourly", command)
    explicit = run_peak(inputs, "hourly", command + ["--origin", START.strftime("%Y-%m-%d")])
    assert default < 1.05 * explicit, (default, explicit)
