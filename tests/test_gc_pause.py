"""``cli.main`` pauses automatic garbage collection for one command.

The pause is safe only while a command leaves a constant amount of cyclic
garbage, whatever the corpus size: with the collector paused, garbage that
grew with the corpus would grow memory instead. The caller's setting comes
back on every way out of ``main``.
"""

from __future__ import annotations

import gc
import json
import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from tvmood import cli

from conftest import lexicon_csv, random_lexicon

SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"
SAMPLE = str(SAMPLE_DATA / "lexicon.csv")


@pytest.fixture
def gc_enabled_after():
    """Turns automatic collection back on, however a test left it."""
    yield
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-gc-on", "caller-gc-off"])
@pytest.mark.parametrize(
    "argv,outcome",
    [
        (["lexicon-validate", "--lexicon", SAMPLE], 0),
        (["lexicon-validate", "--lexicon", str(SAMPLE_DATA / "no-such-lexicon.csv")], 2),
        (["evaluate", "--lexicon", SAMPLE], SystemExit(2)),
        (["--help"], SystemExit(0)),
    ],
    ids=["exit-0", "exit-2", "usage-error", "help"],
)
def test_main_restores_the_callers_gc_setting(gc_enabled_after, capsys, enabled, argv, outcome):
    (gc.enable if enabled else gc.disable)()
    if isinstance(outcome, SystemExit):
        with pytest.raises(SystemExit) as raised:
            cli.main(argv)
        assert raised.value.code == outcome.code
    else:
        assert cli.main(argv) == outcome
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-gc-on", "caller-gc-off"])
def test_handler_runs_with_gc_paused_and_an_escaping_error_restores_it(
    gc_enabled_after, monkeypatch, enabled
):
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(cli, "cmd_lexicon_validate", handler)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="not a refusal"):
        cli.main(["lexicon-validate", "--lexicon", SAMPLE])
    assert seen == [False]
    assert gc.isenabled() is enabled


SIZE = 30  # documents in the smaller corpus; the larger holds twice as many
START = datetime(2013, 1, 7, tzinfo=timezone.utc)


def _write_inputs(directory, documents):
    """A lexicon of ``documents`` words; a corpus of ``documents`` documents
    over two genres and three channels (every fifth matches no lexicon
    word), as text and as term counts; and a profiles file for as many
    synth documents."""
    rng = random.Random(documents)
    lexicon = random_lexicon(rng, size=documents)
    words = list(lexicon.table)
    lines, counts_lines = [], []
    for i in range(documents):
        tokens = ["zzz", "qqq"] if i % 5 == 4 else rng.choices(words, k=20) + ["zzz"]
        record = {
            "id": f"d{i}", "channel": f"ch{i % 3}", "genre": ("news", "drama")[i % 2],
            "timestamp": (START + timedelta(days=i)).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        lines.append(json.dumps({**record, "text": " ".join(tokens)}))
        counts_lines.append(json.dumps({**record, "term_counts": Counter(tokens)}))
    profiles = [
        {"label": label, "document_count": documents // 2, "target": target}
        for label, target in (("news", [0.2, 0.5, 0.5]), ("drama", [0.8, 0.5, 0.5]))
    ]
    names = ("lexicon", "corpus", "counts", "profiles")
    paths = {name: directory / f"{name}-{documents}" for name in names}
    paths["lexicon"].write_text(lexicon_csv(lexicon), encoding="utf-8")
    paths["corpus"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["counts"].write_text("\n".join(counts_lines) + "\n", encoding="utf-8")
    paths["profiles"].write_text(json.dumps(profiles), encoding="utf-8")
    paths["out"] = directory / f"out-{documents}"
    return {name: str(path) for name, path in paths.items()}


def _corpus(paths, format="text"):
    corpus = paths["corpus" if format == "text" else "counts"]
    return ["--lexicon", paths["lexicon"], "--corpus", corpus, "--format", format]


def _evaluate(paths, format, *flags):
    return ["evaluate", *_corpus(paths, format), "--folds", "2", "--min-genre-support", "1",
            *flags, "--out", paths["out"]]


COMMANDS = {
    "lexicon-validate": lambda p: ["lexicon-validate", "--lexicon", p["lexicon"]],
    "score": lambda p: ["score", *_corpus(p), "--out", p["out"]],
    "score --window": lambda p: ["score", *_corpus(p), "--window", "1w", "--out", p["out"]],
    "score --per-document": lambda p: ["score", *_corpus(p), "--per-document", "--out", p["out"]],
    "features": lambda p: ["features", *_corpus(p), "--out", p["out"]],
    "synth": lambda p: ["synth", "--lexicon", p["lexicon"], "--profiles", p["profiles"],
                        "--out", p["out"]],
    "evaluate --rep vsm": lambda p: _evaluate(p, "text", "--rep", "vsm"),
    "evaluate --rep meta": lambda p: _evaluate(p, "counts", "--rep", "meta"),
    "evaluate --rep vsm --nb gaussian":
        lambda p: _evaluate(p, "counts", "--rep", "vsm", "--nb", "gaussian"),
}


@pytest.fixture(scope="module")
def sized_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gc")
    return {size: _write_inputs(directory, size) for size in (SIZE, 2 * SIZE)}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_leaves_the_same_cyclic_garbage_at_any_corpus_size(sized_inputs, command):
    found = {}
    for size in (SIZE, SIZE, 2 * SIZE):  # the first run fills any cache a command keeps
        gc.collect()
        assert cli.main(COMMANDS[command](sized_inputs[size])) == 0
        found[size] = gc.collect()
    assert found[SIZE] == found[2 * SIZE], (
        f"tvmood {command} left {found[SIZE]} unreachable objects at {SIZE} documents "
        f"and {found[2 * SIZE]} at {2 * SIZE}"
    )
