"""Command-line interface behavior and output files."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import stat
import tempfile
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvmood import cli
from tvmood.affect import score_counts, series_to_csv
from tvmood.cli import _refuse_overwriting_inputs, _write_all, main, parse_window
from tvmood.lexicon import parse_lexicon
from tvmood.synth import GenreProfile, generate

from conftest import T0, lexicon_csv, make_doc, random_lexicon, read_text, to_jsonl
from oracles import default_origin, score_windows_resident

LEXICON_TEXT = """word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd
good,8.0,1.0,5.0,1.0,5.8,1.0
bad,2.0,1.0,5.4,1.0,4.2,1.0
fire,3.4,1.0,8.2,1.0,4.6,1.0
calm,6.6,1.0,1.8,1.0,6.2,1.0
"""


@pytest.fixture
def lexicon_path(tmp_path):
    path = tmp_path / "lexicon.csv"
    path.write_text(LEXICON_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def corpus_path(tmp_path):
    docs = (
        make_doc("a1", {"good": 3, "calm": 1}, channel="e", genre="reality", timestamp=T0),
        make_doc("a2", {"good": 1, "fire": 2}, channel="e", genre="reality", timestamp=T0 + timedelta(weeks=1)),
        make_doc("b1", {"bad": 2, "fire": 3}, channel="cnn", genre="newscast", timestamp=T0 + timedelta(weeks=2)),
        make_doc("b2", {"bad": 1, "fire": 1}, channel="cnn", genre="newscast", timestamp=T0 + timedelta(weeks=3)),
        make_doc("u1", {"xyzzy": 4}, channel="cnn", timestamp=T0),
    )
    path = tmp_path / "corpus.jsonl"
    path.write_text(to_jsonl(docs), encoding="utf-8")
    return str(path)


def test_parse_window():
    assert parse_window("7d") == timedelta(days=7)
    assert parse_window("4w") == timedelta(weeks=4)
    with pytest.raises(ValueError):
        parse_window("4x")
    with pytest.raises(ValueError):
        parse_window("0d")
    with pytest.raises(ValueError, match="--window"):
        parse_window("9999999999d")


def test_lexicon_validate_ok(lexicon_path, capsys):
    assert main(["lexicon-validate", "--lexicon", lexicon_path]) == 0
    out = capsys.readouterr().out
    assert "4 entries" in out
    assert "valence" in out and "dominance" in out


@pytest.mark.parametrize(
    "words,line",
    [
        (["well-being"], "1 entry can never match a text token; first: 'well-being'\n"),
        (["'tis"], "1 entry can never match a text token; first: \"'tis\"\n"),
        (["a_b"], "1 entry can never match a text token; first: 'a_b'\n"),
        (["well-being", "'tis", "a_b"], "3 entries can never match a text token; first: 'well-being'\n"),
    ],
    ids=["hyphen", "apostrophe", "underscore", "all-three"],
)
def test_lexicon_validate_counts_entries_text_never_matches(tmp_path, capsys, words, line):
    """Such entries are kept, since a counts-mode corpus can match them, and
    named on a second line."""
    path = tmp_path / "lexicon.csv"
    path.write_text(LEXICON_TEXT + "".join(f"{w},5,1,5,1,5,1\n" for w in words), encoding="utf-8")
    assert main(["lexicon-validate", "--lexicon", str(path)]) == 0
    first, second = capsys.readouterr().out.splitlines(keepends=True)
    assert first.startswith(f"{4 + len(words)} entries; ") and second == line


def test_lexicon_validate_prints_one_line_when_every_entry_is_a_token(capsys):
    assert main(["lexicon-validate", "--lexicon", str(SAMPLE_DATA / "lexicon.csv")]) == 0
    assert capsys.readouterr().out.count("\n") == 1


def test_lexicon_validate_duplicate(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text(
        LEXICON_TEXT + "GOOD,5,1,5,1,5,1\n", encoding="utf-8"
    )
    assert main(["lexicon-validate", "--lexicon", str(path)]) != 0
    err = capsys.readouterr().err
    assert "good" in err


def test_lexicon_validate_missing_file(tmp_path, capsys):
    assert main(["lexicon-validate", "--lexicon", str(tmp_path / "nope.csv")]) != 0
    assert "error" in capsys.readouterr().err


def test_score_per_channel(lexicon_path, corpus_path, tmp_path, capsys):
    out_path = tmp_path / "scores.csv"
    code = main(
        [
            "score",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("channel,valence,arousal,dominance")
    channels = [line.split(",")[0] for line in lines[1:3]]
    assert channels == ["cnn", "e"]


def test_score_per_document_lists_skipped(lexicon_path, corpus_path, tmp_path):
    out_path = tmp_path / "docs.csv"
    code = main(
        [
            "score",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(out_path),
            "--per-document",
        ]
    )
    assert code == 0
    content = out_path.read_text(encoding="utf-8")
    assert "skipped_id,reason" in content
    assert "u1,no lexicon matches" in content
    data_rows = [
        line for line in content.splitlines()[1:] if line and not line.startswith("skipped")
    ]
    assert any(row.startswith("a1,") for row in data_rows)


def test_score_per_document_row_is_the_score_record(lexicon_path, corpus_path, tmp_path, capsys):
    """A row is the id, the channel and each ``AffectScore`` field's ``repr``,
    in field order."""
    out = tmp_path / "docs.csv"
    argv = ["score", "--lexicon", lexicon_path, "--corpus", corpus_path, "--format", "counts"]
    assert main([*argv, "--out", str(out), "--per-document"]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    lexicon = parse_lexicon(LEXICON_TEXT)
    documents = read_text(Path(corpus_path).read_text(encoding="utf-8"), "counts")
    expected = [
        [doc.id, doc.channel, *map(repr, score_counts(doc.term_counts, lexicon))]
        for doc in documents
        if doc.id != "u1"  # it matches nothing, so it is listed as skipped
    ]
    assert rows[1:1 + len(expected)] == expected and rows[1 + len(expected)] == []
    capsys.readouterr()


def test_score_window_mode(lexicon_path, corpus_path, tmp_path):
    out_path = tmp_path / "series.csv"
    code = main(
        [
            "score",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(out_path),
            "--window", "1w",
        ]
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("channel,window_start")
    assert any(line.startswith("cnn,") for line in lines[1:])
    assert any(line.startswith("e,") for line in lines[1:])


@pytest.mark.parametrize(
    "window_flags,fragment",
    [
        (["--window", "9999999999d"], "--window '9999999999d' is longer than"),
        # more digits than int() converts by default
        (["--window", "9" * 4301 + "d"], f"--window '{'9' * 4301}d' is longer than 999999999 days"),
        (["--window", "\u0667d"], "--window '\u0667d' is not a length such as '7d' or '4w'"),
        (["--window", "99999999d", "--origin", "2030-01-01"], "starts outside the datetime range"),
        (["--window", "1w", "--origin", "nope"], "--origin: Invalid isoformat string: 'nope'"),
    ],
    ids=[
        "window-too-long", "window-of-4301-digits", "window-arabic-indic-digit",
        "window-start-out-of-range", "bad-origin",
    ],
)
def test_score_oversized_window_is_one_line_error(
    lexicon_path, corpus_path, tmp_path, capsys, window_flags, fragment
):
    out = tmp_path / "series.csv"
    argv = ["score", "--lexicon", lexicon_path, "--corpus", corpus_path,
            "--format", "counts", "--out", str(out), *window_flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--per-document", "--window", "1w"], "argument --window: not allowed with argument --per-document"),
        (["--origin", "2013-01-01"], "--origin is only allowed with --window"),
    ],
    ids=["per-document-with-window", "origin-without-window"],
)
def test_score_rejects_flags_it_would_ignore(
    lexicon_path, corpus_path, tmp_path, capsys, flags, message
):
    out = tmp_path / "scores.csv"
    argv = ["score", "--lexicon", lexicon_path, "--corpus", corpus_path,
            "--format", "counts", "--out", str(out), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse flag errors
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@st.composite
def window_corpora(draw):
    """Up to 12 documents on three channels, each at 00:00:00 or 23:59:59 UTC
    of a day within 120 days, so that windows may be gaps; terms come from
    the test lexicon and from outside it, so a document may match nothing."""
    terms = st.sampled_from(["good", "bad", "fire", "calm", "xyzzy", "plugh"])
    docs = []
    for i in range(draw(st.integers(1, 12))):
        moment = T0 + timedelta(
            days=draw(st.integers(0, 120)), seconds=draw(st.sampled_from([0, 86399]))
        )
        counts = draw(st.dictionaries(terms, st.integers(1, 5), min_size=1, max_size=4))
        channel = draw(st.sampled_from(["cnn", "e", "fox"]))
        docs.append(make_doc(f"d{i}", counts, channel=channel, timestamp=moment))
    return tuple(docs)


@settings(max_examples=150, deadline=None)
@given(corpus=window_corpora(), days=st.integers(1, 30))
def test_window_without_origin_equals_resident_reference(corpus, days):
    """Without ``--origin``, the timestamp pre-pass finds the default origin
    and the pooling per (channel, window) writes the bytes of the resident
    per-channel scorer from that origin."""
    lexicon = parse_lexicon(LEXICON_TEXT)
    length = timedelta(days=days)
    origin = default_origin(corpus)
    expected = series_to_csv(
        [score_windows_resident(corpus, channel, lexicon, length, origin)
         for channel in sorted({doc.channel for doc in corpus})]
    )
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: os.path.join(directory, name) for name in ("lex.csv", "c.jsonl", "w.csv")}
        Path(paths["lex.csv"]).write_text(LEXICON_TEXT, encoding="utf-8")
        Path(paths["c.jsonl"]).write_text(to_jsonl(corpus), encoding="utf-8")
        argv = ["score", "--lexicon", paths["lex.csv"], "--corpus", paths["c.jsonl"],
                "--format", "counts", "--window", f"{days}d", "--out", paths["w.csv"]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert Path(paths["w.csv"]).read_text(encoding="utf-8") == expected


def _window_argv(lexicon_path, corpus, out):
    return ["score", "--lexicon", lexicon_path, "--corpus", str(corpus), "--format", "counts",
            "--out", str(out), "--window", "1w"]


def test_score_window_refuses_a_corpus_that_gained_an_earlier_document(
    monkeypatch, lexicon_path, corpus_path, tmp_path, capsys
):
    """The default origin comes from a first pass; a second pass that reads an
    earlier document than the first found would start a window before it."""
    lines = Path(corpus_path).read_text(encoding="utf-8").splitlines(keepends=True)
    early = make_doc("early", {"good": 1}, channel="cnn", timestamp=T0 - timedelta(days=3))
    passes = iter([lines, [*lines, to_jsonl([early])]])
    monkeypatch.setattr(cli, "_lines", lambda args: iter(next(passes)))
    out = tmp_path / "series.csv"
    assert main(_window_argv(lexicon_path, corpus_path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --corpus {corpus_path} ") and err.count("\n") == 1
    assert "--origin" in err
    assert not out.exists()


def test_score_window_reports_the_origin_pass_error_when_the_document_pass_finds_none(
    monkeypatch, lexicon_path, corpus_path, tmp_path, capsys
):
    """The origin pre-pass stops at line 2, then a document pass looks for an
    earlier fault; when that pass finds none, the pre-pass's error stands."""
    lines = Path(corpus_path).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(corpus_path).write_text("".join([lines[0], "not json\n", *lines[1:]]), encoding="utf-8")
    monkeypatch.setattr(cli, "_documents", lambda args: iter(()))
    out = tmp_path / "series.csv"
    assert main(_window_argv(lexicon_path, corpus_path, out)) == 2
    assert capsys.readouterr().err == "error: line 2: invalid JSON (Expecting value)\n"
    assert not out.exists()


def test_score_window_on_a_fifo_needs_origin(lexicon_path, tmp_path, capsys):
    """A FIFO cannot be read twice, so the default origin cannot be found; the
    FIFO is refused before it is opened, so no writer is needed."""
    fifo, out = tmp_path / "corpus.fifo", tmp_path / "series.csv"
    os.mkfifo(fifo)
    assert main(_window_argv(lexicon_path, fifo, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--origin" in err
    assert not out.exists()


def test_score_window_names_a_directory_corpus_with_or_without_origin(lexicon_path, tmp_path, capsys):
    out = tmp_path / "series.csv"
    argv = _window_argv(lexicon_path, tmp_path, out)
    for flags in ([], ["--origin", "2013-01-07"]):
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert not out.exists()


def test_score_window_reads_a_fifo_with_origin(lexicon_path, corpus_path, tmp_path, capsys):
    regular, piped = tmp_path / "regular.csv", tmp_path / "piped.csv"
    assert main(_window_argv(lexicon_path, corpus_path, regular) + ["--origin", "2013-01-07"]) == 0
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=lambda: fifo.write_bytes(Path(corpus_path).read_bytes()), daemon=True
    )
    writer.start()
    try:
        assert main(_window_argv(lexicon_path, fifo, piped) + ["--origin", "2013-01-07"]) == 0
    finally:
        writer.join(timeout=10)
    assert piped.read_bytes() == regular.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "content,message",
    [
        (b'{"id": "a", "channel": "c"}\n', "line 1: missing required field 'timestamp'"),
        (b'{"id": "a", "timestamp": 123}\n', "line 1: missing required field 'channel'"),
        (b'[1, 2]\n', "line 1: record is not a JSON object"),
        (b'{"timestamp": "2013-01-07"\n', "line 1: invalid JSON"),
        (b"[" * 100000 + b"\n", "line 1: invalid JSON"),
    ],
    ids=["no-timestamp", "non-string-timestamp", "not-an-object", "bad-json", "deep-nesting"],
)
def test_score_window_without_origin_reports_a_bad_only_line(
    lexicon_path, tmp_path, capsys, content, message
):
    """The pre-pass finds no timestamp it can read, and the main pass still
    reports the line rather than the missing ``--origin``."""
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "series.csv"
    corpus.write_bytes(content)
    assert main(_window_argv(lexicon_path, corpus, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


def _counts_lines(count):
    """``count`` one-term counts records, 1 to ``count`` days after 2013-01-07."""
    return "".join(
        json.dumps({"id": f"d{i}", "channel": "c", "timestamp": f"{T0 + timedelta(days=i)}",
                    "term_counts": {"good": 1}}) + "\n"
        for i in range(1, count + 1)
    ).encode("utf-8")


@pytest.mark.parametrize(
    "content,message",
    [
        (b"\xff\n", "--corpus {}: 'utf-8' codec can't decode"),
        # past the first block that is decoded, so that documents are read before it
        (_counts_lines(2000) + b"\xff\n", "--corpus {}: 'utf-8' codec can't decode"),
        (b"[]\n" + _counts_lines(2000) + b"\xff\n", "line 1: record is not a JSON object"),
    ],
    ids=["only-line", "after-documents", "after-a-bad-record"],
)
def test_score_window_without_origin_reports_bad_utf8_in_file_order(
    lexicon_path, tmp_path, capsys, content, message
):
    """A byte that is not UTF-8 stops the pre-pass; the main pass reports it,
    named by ``--corpus``, or a bad record it reads before."""
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "series.csv"
    corpus.write_bytes(content)
    assert main(_window_argv(lexicon_path, corpus, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(corpus)) and err.count("\n") == 1, err
    assert not out.exists()


def test_score_window_reports_the_first_fault_in_file_order_with_or_without_origin(
    lexicon_path, tmp_path, capsys
):
    """Line 1 passes the record checks and fails the document's own; line 2
    is not JSON. The default-origin pass stops at line 2, and line 1 is
    still the fault reported, as with ``--origin``."""
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "series.csv"
    record = {"id": "", "channel": "c", "timestamp": "2013-01-07T00:00:00Z", "text": "good"}
    corpus.write_text(json.dumps(record) + "\n{bad json\n", encoding="utf-8")
    argv = ["score", "--lexicon", lexicon_path, "--corpus", str(corpus), "--out", str(out),
            "--window", "1w"]
    for flags in ([], ["--origin", "2013-01-01"]):
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == "error: line 1: document id is empty\n"
    assert not out.exists()


def test_score_window_on_an_empty_corpus_needs_origin(lexicon_path, tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("\n", encoding="utf-8")
    out = tmp_path / "series.csv"
    argv = ["score", "--lexicon", lexicon_path, "--corpus", str(corpus), "--out", str(out),
            "--window", "1w"]
    assert main(argv) == 2
    message = "error: corpus has no documents, so --window needs --origin\n"
    assert capsys.readouterr().err == message and not out.exists()
    assert main(argv + ["--origin", "2013-01-01"]) == 0
    assert out.read_text(encoding="utf-8").count("\n") == 1  # the header alone


def test_score_nothing_matches_is_an_error(lexicon_path, tmp_path, capsys):
    docs = (make_doc("only", {"zzz": 3}, channel="x", timestamp=T0),)
    corpus_file = tmp_path / "unmatched.jsonl"
    corpus_file.write_text(to_jsonl(docs), encoding="utf-8")
    code = main(
        [
            "score",
            "--lexicon", lexicon_path,
            "--corpus", str(corpus_file),
            "--format", "counts",
            "--out", str(tmp_path / "nope.csv"),
        ]
    )
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_features_command(lexicon_path, corpus_path, tmp_path):
    out_path = tmp_path / "features.csv"
    code = main(
        [
            "features",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("id,genre,valence_min")
    assert len(lines) == 6  # header + 5 documents
    unmatched = [line for line in lines if line.startswith("u1,")][0]
    assert ",,," in unmatched  # sentinel affect block serializes empty


def test_synth_command_writes_loadable_corpus(tmp_path, capsys):
    rng = random.Random(17)
    lexicon = random_lexicon(rng, 60)
    lexicon_file = tmp_path / "lex.csv"
    lexicon_file.write_text(lexicon_csv(lexicon), encoding="utf-8")
    profiles = [
        {"label": "up", "document_count": 4, "bias": 1.0, "target": [0.8, 0.5, 0.5], "token_range": [10, 20]},
        {"label": "down", "document_count": 3, "bias": 1.0, "target": [0.2, 0.5, 0.5], "token_range": [10, 20]},
    ]
    profiles_file = tmp_path / "profiles.json"
    profiles_file.write_text(json.dumps(profiles), encoding="utf-8")
    out_path = tmp_path / "synth.jsonl"
    code = main(
        [
            "synth",
            "--lexicon", str(lexicon_file),
            "--profiles", str(profiles_file),
            "--out", str(out_path),
            "--seed", "5",
        ]
    )
    assert code == 0
    assert "wrote 7 documents" in capsys.readouterr().out
    corpus = read_text(out_path.read_text(encoding="utf-8"), mode="counts")
    assert len(corpus) == 7
    assert {doc.genre for doc in corpus} == {"up", "down"}


def test_evaluate_command(tmp_path, capsys):
    rng = random.Random(19)
    lexicon = random_lexicon(rng, 80)
    lexicon_file = tmp_path / "lex.csv"
    lexicon_file.write_text(lexicon_csv(lexicon), encoding="utf-8")
    profiles = [
        GenreProfile("up", 25, 1.0, (0.8, 0.5, 0.5), (20, 40)),
        GenreProfile("down", 22, 1.0, (0.2, 0.5, 0.5), (20, 40)),
        GenreProfile("tiny", 3, 1.0, (0.5, 0.5, 0.5), (20, 40)),
    ]
    corpus = tuple(generate(profiles, lexicon, seed=23))
    corpus_file = tmp_path / "corpus.jsonl"
    corpus_file.write_text(to_jsonl(corpus), encoding="utf-8")

    out_prefix = tmp_path / "report"
    code = main(
        [
            "evaluate",
            "--lexicon", str(lexicon_file),
            "--corpus", str(corpus_file),
            "--format", "counts",
            "--out", str(out_prefix),
            "--rep", "vsm",
            "--folds", "5",
            "--seed", "42",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "weighted_average" in out

    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    # the tiny genre falls under the default support threshold of 20
    assert [c["label"] for c in payload["classes"]] == ["down", "up"]
    assert payload["config"]["representation"] == "vsm"
    assert payload["config"]["model"] == "multinomial"
    csv_lines = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "genre,tp_rate,fp_rate,auc"
    assert csv_lines[-1].startswith("weighted_average,")


def test_evaluate_config_echo_differs_by_variant(tmp_path):
    rng = random.Random(29)
    lexicon = random_lexicon(rng, 60)
    lexicon_file = tmp_path / "lex.csv"
    lexicon_file.write_text(lexicon_csv(lexicon), encoding="utf-8")
    profiles = [
        GenreProfile("up", 21, 1.0, (0.8, 0.5, 0.5), (15, 30)),
        GenreProfile("down", 21, 1.0, (0.2, 0.5, 0.5), (15, 30)),
    ]
    corpus_file = tmp_path / "corpus.jsonl"
    corpus_file.write_text(
        to_jsonl(generate(profiles, lexicon, seed=31)), encoding="utf-8"
    )

    for variant in ("multinomial", "gaussian"):
        code = main(
            [
                "evaluate",
                "--lexicon", str(lexicon_file),
                "--corpus", str(corpus_file),
                "--format", "counts",
                "--out", str(tmp_path / f"rep-{variant}"),
                "--rep", "vsm",
                "--nb", variant,
            ]
        )
        assert code == 0
        payload = json.loads(
            (tmp_path / f"rep-{variant}.json").read_text(encoding="utf-8")
        )
        assert payload["config"]["model"] == variant


def test_evaluate_rejects_meta_multinomial(tmp_path, capsys, lexicon_path, corpus_path):
    code = main(
        [
            "evaluate",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(tmp_path / "r"),
            "--rep", "meta",
            "--nb", "multinomial",
            "--min-genre-support", "1",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rep meta --nb multinomial: ") and err.count("\n") == 1
    assert "gaussian" in err
    assert not any(tmp_path.glob("r.*"))


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_evaluate_rejects_non_finite_alpha(tmp_path, capsys, lexicon_path, corpus_path, alpha):
    code = main(
        [
            "evaluate",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(tmp_path / "r"),
            "--folds", "2",
            "--min-genre-support", "1",
            f"--alpha={alpha}",  # argparse reads a bare "-inf" as an option
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--alpha" in err
    assert not (tmp_path / "r.json").exists()


# every command that reads a corpus and writes files, with the flags it needs
# on a tiny corpus; evaluate writes <out>.json and <out>.csv
WRITERS = [
    ["features"],
    ["score", "--per-document"],
    ["score"],
    ["score", "--window", "1w"],
    ["evaluate", "--folds", "2", "--min-genre-support", "1"],
]
WRITER_IDS = ["features", "per-document", "channels", "window", "evaluate"]


def _outputs(command, tmp_path):
    """The ``--out`` value of a command and the files it writes."""
    if command[0] == "evaluate":
        return tmp_path / "out", [tmp_path / "out.json", tmp_path / "out.csv"]
    return tmp_path / "out.csv", [tmp_path / "out.csv"]


@pytest.mark.parametrize("command", WRITERS, ids=WRITER_IDS)
def test_unencodable_output_keeps_the_old_file(tmp_path, capsys, lexicon_path, command):
    corpus = tmp_path / "corpus.jsonl"
    # JSON escapes a lone surrogate; writing it as UTF-8 fails. Only the
    # evaluate CSV holds the genre, which the JSON report escapes too.
    docs = [
        make_doc(f"{name}\ud800", {"good": 1}, channel="c\ud800", genre="g\ud800", timestamp=T0)
        for name in ("x", "y")
    ] + [make_doc(name, {"bad": 1}, channel="c", genre="h", timestamp=T0) for name in ("a", "b")]
    corpus.write_text(to_jsonl(docs), encoding="utf-8")
    out, outputs = _outputs(command, tmp_path)
    for path in outputs:
        path.write_bytes(b"old bytes\n")
    argv = [*command, "--lexicon", lexicon_path, "--corpus", str(corpus), "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "surrogates not allowed" in err and err.count("\n") == 1
    assert all(path.read_bytes() == b"old bytes\n" for path in outputs)
    expected = ["corpus.jsonl", "lexicon.csv", *(path.name for path in outputs)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


@pytest.mark.parametrize("target", ["file", "fifo"])
@pytest.mark.parametrize("command", WRITERS, ids=WRITER_IDS)
def test_bad_last_record_writes_nothing(tmp_path, capsys, lexicon_path, corpus_path, command, target):
    """Rows are written as the documents are read, yet a bad last record
    leaves every old output as it was, no temporary, and a FIFO unwritten."""
    lines = Path(corpus_path).read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines + ['{"id": "late", "channel": "cnn"}']) + "\n", encoding="utf-8")
    out, outputs = _outputs(command, tmp_path)
    for path in outputs:
        path.write_bytes(b"old bytes\n")
    received = []
    if target == "fifo":
        outputs[0].unlink()
        os.mkfifo(outputs[0])
        reader = threading.Thread(
            target=lambda: received.append(outputs[0].read_bytes()), daemon=True
        )
        reader.start()
    argv = [*command, "--lexicon", lexicon_path, "--corpus", str(bad), "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 2
    message = f"error: line {len(lines) + 1}: missing required field 'timestamp'\n"
    assert capsys.readouterr().err == message
    if target == "fifo":
        reader.join(timeout=0.5)
        if reader.is_alive():  # still waiting for a writer: let it read end-of-file
            os.close(os.open(outputs[0], os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
        assert received == [b""]
        assert stat.S_ISFIFO(os.stat(outputs[0]).st_mode)
    regular = outputs[1:] if target == "fifo" else outputs
    assert all(path.read_bytes() == b"old bytes\n" for path in regular)
    expected = ["corpus.jsonl", "bad.jsonl", "lexicon.csv", *(path.name for path in outputs)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)


EVALUATE = ["evaluate", "--folds", "2", "--min-genre-support", "1"]


@pytest.mark.parametrize(
    "command,out,refused,flag",
    [
        (["features"], "corpus.json", "corpus.json", "--corpus"),
        (["features"], "lexicon.csv", "lexicon.csv", "--lexicon"),
        (["score", "--per-document"], "lexicon.csv", "lexicon.csv", "--lexicon"),
        (["score"], "corpus.json", "corpus.json", "--corpus"),
        (["score", "--window", "1w"], "corpus.json", "corpus.json", "--corpus"),
        (EVALUATE, "corpus.json", "corpus.json", "--corpus"),
        (EVALUATE, "lexicon", "lexicon.csv", "--lexicon"),  # its CSV report
        (["synth"], "profiles.json", "profiles.json", "--profiles"),
        (["synth"], "lexicon.csv", "lexicon.csv", "--lexicon"),
        (["score"], "link.csv", "link.csv", "--corpus"),  # a symlink to the corpus
    ],
    ids=[
        "features-corpus", "features-lexicon", "per-document", "channels", "window",
        "evaluate-json", "evaluate-csv", "synth-profiles", "synth-lexicon", "symlink",
    ],
)
def test_an_output_that_is_an_input_is_refused(
    tmp_path, capsys, lexicon_path, corpus_path, command, out, refused, flag
):
    """Before anything is read or written: the inputs keep their bytes, and
    no temporary is left."""
    corpus = Path(corpus_path).rename(tmp_path / "corpus.json")
    profiles = tmp_path / "profiles.json"
    profiles.write_text(
        json.dumps([{"label": "up", "document_count": 2, "target": [0.8, 0.5, 0.5]}]),
        encoding="utf-8",
    )
    os.symlink(corpus, tmp_path / "link.csv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv = [*command, "--lexicon", lexicon_path, "--out", str(tmp_path / out)]
    if command[0] == "synth":
        argv += ["--profiles", str(profiles)]
    else:
        argv += ["--corpus", str(corpus), "--format", "counts"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --out {tmp_path / refused} is the {flag} file\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_an_output_fifo_or_device_is_not_refused(tmp_path):
    """Only a regular file is refused: ``/dev/stdin`` and ``/dev/stdout``
    may be one terminal."""
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    for path in (fifo, os.devnull):
        args = argparse.Namespace(command="score", lexicon=path, corpus=path, out=path)
        assert _refuse_overwriting_inputs(args) is None


def test_write_all_writes_a_fifo_in_place(tmp_path):
    fifo, regular = tmp_path / "fifo", tmp_path / "out.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        with _write_all(str(fifo), str(regular)) as (to_fifo, to_file):
            to_fifo.write("through the pipe \u00e9\n")
            to_file.write("file\n")
    finally:
        reader.join(timeout=10)
    assert received == ["through the pipe \u00e9\n".encode("utf-8")]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)  # written, not replaced
    assert regular.read_text(encoding="utf-8") == "file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "out.csv"]


def test_evaluate_failed_write_leaves_no_report(tmp_path, capsys, lexicon_path, corpus_path):
    (tmp_path / "r.csv").mkdir()
    code = main(
        [
            "evaluate",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(tmp_path / "r"),
            "--folds", "2",
            "--min-genre-support", "1",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "r.csv" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "lexicon.csv", "r.csv"]
    assert not any((tmp_path / "r.csv").iterdir())


def test_write_all_writes_every_output_or_none(tmp_path):
    first, second = str(tmp_path / "a.json"), str(tmp_path / "a.csv")
    def write_all(outputs):
        with _write_all(*outputs) as handles:
            for handle, content in zip(handles, outputs.values()):
                handle.write(content)

    write_all({first: "old\n", second: "old\n"})
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails while writing
        write_all({first: "new\n", second: "bad \udc80\n"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json"]
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == "old\n"
    write_all({first: "new\n", second: "new\n"})
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "new\n"


def test_evaluate_empty_after_filter(tmp_path, capsys, lexicon_path, corpus_path):
    code = main(
        [
            "evaluate",
            "--lexicon", lexicon_path,
            "--corpus", corpus_path,
            "--format", "counts",
            "--out", str(tmp_path / "r"),
            "--min-genre-support", "50",
        ]
    )
    assert code == 2
    message = "--min-genre-support 50: fewer than two genres have that support"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "lexicon.csv"]


def test_evaluate_folds_above_the_smallest_support_is_one_line_error(
    tmp_path, capsys, lexicon_path, corpus_path
):
    out = tmp_path / "r"
    argv = ["evaluate", "--lexicon", lexicon_path, "--corpus", corpus_path, "--format", "counts",
            "--folds", "3", "--min-genre-support", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --folds 3 exceeds the smallest genre support, 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "lexicon.csv"]


def test_out_in_a_missing_directory_names_the_target(tmp_path, capsys, lexicon_path, corpus_path):
    """The message names the --out path, not the temporary beside it."""
    out = tmp_path / "missing" / "features.csv"
    argv = ["features", "--lexicon", lexicon_path, "--corpus", corpus_path, "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "lexicon.csv"]


@pytest.mark.parametrize(
    "command",
    [["features"], ["evaluate", "--folds", "2", "--min-genre-support", "1"]],
    ids=["features", "evaluate"],
)
def test_empty_genre_is_one_line_error_naming_its_line(tmp_path, capsys, lexicon_path, command):
    """Half of 40 records have ``"genre": ""``: no command reads that as a
    genre called "" or as an unlabeled document."""
    lines = [
        json.dumps({
            "id": f"d{i:02d}",
            "channel": "cnn",
            "timestamp": "2013-01-07T00:00:00Z",
            "genre": ("news", "")[i % 2],
            "term_counts": {("good", "bad")[i % 2]: 1},
        })
        for i in range(40)
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, outputs = _outputs(command, tmp_path)
    argv = [*command, "--lexicon", lexicon_path, "--corpus", str(corpus), "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 2: document 'd01': genre is empty\n"
    assert not any(path.exists() for path in outputs)


def test_over_long_count_is_one_line_error_naming_its_line(tmp_path, capsys, lexicon_path, corpus_path):
    # json.loads refuses an integer of more than 4,300 digits with a plain ValueError
    big = ('{"id":"big","channel":"cnn","timestamp":"2013-01-07T00:00:00Z",'
           '"term_counts":{"fire":' + "9" * 5000 + "}}")
    lines = Path(corpus_path).read_text(encoding="utf-8").splitlines()
    corpus = tmp_path / "big.jsonl"
    corpus.write_text("\n".join([lines[0], big, *lines[1:]]) + "\n", encoding="utf-8")
    out = tmp_path / "features.csv"
    argv = ["features", "--lexicon", lexicon_path, "--corpus", str(corpus), "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid JSON (") and err.count("\n") == 1, err
    assert not out.exists()


def test_lexicon_validate_rejects_non_finite_sd(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text(LEXICON_TEXT.splitlines()[0] + "\njoy,5,nan,5,inf,5,1\n", encoding="utf-8")
    assert main(["lexicon-validate", "--lexicon", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "profile,fragment",
    [
        ("not an object", "profile 1: not a JSON object"),
        ({"document_count": 3, "target": [0.8, 0.5, 0.5]}, "profile 1: missing required field 'label'"),
        (
            {"label": "x", "document_count": "3", "target": [0.8, 0.5, 0.5]},
            "profile 1: document_count must be an integer, got '3'",
        ),
        (
            {"label": "a", "document_count": 3, "target": [0.5, 0.5, 0.5], "bais": 0.2},
            "profile 1: unknown field 'bais'\n",
        ),
    ],
    ids=["not-object", "missing-label", "string-count", "misspelled-bias"],
)
def test_synth_rejects_malformed_profile(tmp_path, capsys, lexicon_path, profile, fragment):
    good = {"label": "up", "document_count": 2, "target": [0.8, 0.5, 0.5]}
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps([good, profile]), encoding="utf-8")
    out = tmp_path / "synth.jsonl"
    argv = ["synth", "--lexicon", lexicon_path, "--profiles", str(profiles), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}") and err.count("\n") == 1
    assert not out.exists()


def test_repeated_keys_end_in_exit_2_naming_the_key(tmp_path, capsys, lexicon_path):
    # json would keep the last value of each: id "b" and fire: 2
    corpus = tmp_path / "repeated.jsonl"
    corpus.write_text(
        '{"id":"a","channel":"c","timestamp":"2013-01-07T00:00:00Z","id":"b",'
        '"term_counts":{"fire":1,"fire":2}}\n',
        encoding="utf-8",
    )
    out = tmp_path / "scores.csv"
    argv = ["score", "--lexicon", lexicon_path, "--corpus", str(corpus), "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 1: invalid JSON (repeated key 'fire')\n"
    assert not out.exists()
    profiles = tmp_path / "profiles.json"
    profiles.write_text(
        '[{"label": "up", "document_count": 2, "target": [0.8, 0.5, 0.5], "label": "down"}]',
        encoding="utf-8",
    )
    out = tmp_path / "synth.jsonl"
    argv = ["synth", "--lexicon", lexicon_path, "--profiles", str(profiles), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --profiles {profiles}: repeated key 'label'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "data,fragment",
    [
        (b"[" * 100000, "maximum recursion depth exceeded"),
        (b"[1, ]", "Expecting value: line 1 column 5 (char 4)"),
        (b"\xff[]", "'utf-8' codec can't decode byte 0xff"),
        (b"{}", "the file must hold a JSON array"),
        (b"[]", "the file holds no profiles"),
    ],
    ids=["deep-nesting", "bad-json", "bad-utf8", "not-array", "no-profiles"],
)
def test_synth_unreadable_profiles_name_the_flag(tmp_path, capsys, lexicon_path, data, fragment):
    profiles = tmp_path / "profiles.json"
    profiles.write_bytes(data)
    out = tmp_path / "synth.jsonl"
    argv = ["synth", "--lexicon", lexicon_path, "--profiles", str(profiles), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --profiles {profiles}: {fragment}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,where",
    [
        pytest.param("lexicon-validate", "--lexicon", "own-line", id="lexicon-validate---lexicon"),
        *(pytest.param(command, flag, "own-line", id=f"{command}-{flag}")
          for command in ("score", "features", "evaluate")
          for flag in ("--lexicon", "--corpus")),
        # the corpus is read while the outputs are made: the pass is covered to its end
        *(pytest.param(command, "--corpus", "last-record", id=f"{command}---corpus-last-record")
          for command in ("score", "features", "evaluate")),
    ],
)
def test_undecodable_input_names_its_flag(
    tmp_path, capsys, lexicon_path, corpus_path, command, flag, where
):
    files = {"--lexicon": lexicon_path, "--corpus": corpus_path}
    bad = tmp_path / "bad.txt"
    data = Path(files[flag]).read_bytes()
    if where == "own-line":
        bad.write_bytes(data + b"\xff\n")
    else:  # inside the id of the last record
        head, last = data.rstrip(b"\n").rsplit(b"\n", 1)
        assert last.startswith(b'{"id":"u1"')
        bad.write_bytes(head + b"\n" + last.replace(b'"u1"', b'"u\xff1"') + b"\n")
    files[flag] = str(bad)
    argv = [command, "--lexicon", files["--lexicon"]]
    if command != "lexicon-validate":
        argv += ["--corpus", files["--corpus"], "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--folds", "2", "--min-genre-support", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {bad}: 'utf-8' codec can't decode byte 0xff in position ")
    assert err.count("\n") == 1
    assert not any(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "start,fragment",
    [
        ("9999-12-31", "--start 9999-12-31T00:00:00Z: the document timestamps run past"),
        ("nope", "--start: Invalid isoformat string: 'nope'"),
        ("0001-01-01T00:00:00+01:00", "--start: timestamp '0001-01-01T00:00:00+01:00' is outside"),
    ],
    ids=["start-out-of-range", "bad-start", "start-offset-out-of-range"],
)
def test_synth_bad_start_is_one_line_error(tmp_path, capsys, lexicon_path, start, fragment):
    profiles = tmp_path / "profiles.json"
    profiles.write_text(
        json.dumps([{"label": "up", "document_count": 2, "target": [0.8, 0.5, 0.5]}]),
        encoding="utf-8",
    )
    out = tmp_path / "synth.jsonl"
    argv = ["synth", "--lexicon", lexicon_path, "--profiles", str(profiles), "--out", str(out)]
    assert main([*argv, "--start", start]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}") and err.count("\n") == 1
    assert not out.exists()


def test_synth_before_year_1000_writes_a_corpus_that_features_reads(tmp_path, lexicon_path):
    # the year was written without its leading zero, so features refused line 1
    profiles = tmp_path / "profiles.json"
    profiles.write_text(
        json.dumps([{"label": "up", "document_count": 2, "target": [0.8, 0.5, 0.5]}]),
        encoding="utf-8",
    )
    corpus = tmp_path / "synth.jsonl"
    argv = ["synth", "--lexicon", lexicon_path, "--profiles", str(profiles), "--out", str(corpus)]
    assert main([*argv, "--start", "0999-01-01"]) == 0
    lines = corpus.read_text(encoding="utf-8").splitlines()
    timestamps = [json.loads(line)["timestamp"] for line in lines]
    assert timestamps[0] == "0999-01-01T00:00:00Z"
    out = tmp_path / "features.csv"
    argv = ["features", "--lexicon", lexicon_path, "--corpus", str(corpus), "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + len(timestamps) == 3


@pytest.mark.parametrize(
    "flags,fragment",
    [
        (["--lexicon", "L", "--folds", "abc"], "--folds"),
        ([], "--lexicon"),
        (["--lexicon", "L", "--alpha", "-inf"], "--alpha"),
        (["--lexicon", "L", "--folds", "1"], "--folds: must be at least 2, got 1"),
        (["--lexicon", "L", "--min-genre-support", "0"], "--min-genre-support: must be at least 1"),
    ],
    ids=["bad-folds", "missing-lexicon", "negative-inf-alpha", "one-fold", "zero-support"],
)
def test_flag_errors_are_one_line(capsys, flags, fragment):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--corpus", "C", "--out", "R", *flags])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


@pytest.mark.parametrize("command", ["score", "features"])
def test_seed_is_refused_where_nothing_is_random(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--lexicon", "L", "--corpus", "C", "--out", "O", "--seed", "1"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --seed 1\n"


SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"

_timestamps = st.one_of(
    st.sampled_from(["2013-01-01", "2013-1-7", "9999-12-31", "0001-01-01", "nope", ""]),
    st.datetimes(
        timezones=st.sampled_from(
            [None, timezone.utc, timezone(timedelta(hours=14)), timezone(timedelta(hours=-12))]
        )
    ).map(datetime.isoformat),
    st.text(max_size=30),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_records = st.fixed_dictionaries(
    {
        "id": st.text(max_size=8) | _json_values,
        # a line on a sample channel far from 2013 would add millions of gap windows
        "channel": st.text(max_size=8).filter(lambda c: c not in {"cnn", "e", "toon"})
        | _json_values,
        "timestamp": _timestamps | _json_values,
    },
    optional={
        "genre": st.sampled_from(["newscast", "reality", ""]) | _json_values,
        "text": st.text(max_size=60) | _json_values,
        "term_counts": st.dictionaries(
            st.text(max_size=6), st.integers(-2, 5) | st.sampled_from([2**53, 2**53 + 1, 10**400])
        )
        | _json_values,
    },
).map(json.dumps)


_SAMPLE_LEXICON = (SAMPLE_DATA / "lexicon.csv").read_text(encoding="utf-8").splitlines()
_lexicon_cells = st.sampled_from(["5", "-1", "0", "nan", "inf", "1e400", "x", "", " joy ", "JOY"])
_lexicon_lines = st.lists(_lexicon_cells | st.text(max_size=5), min_size=5, max_size=9).map(",".join)


@st.composite
def _lexicon_bytes(draw):
    """The sample lexicon with one drawn line put in or put in place of one
    of its lines, or arbitrary bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    lines = list(_SAMPLE_LEXICON)
    index = draw(st.integers(0, len(lines)))
    lines[index:index + draw(st.integers(0, 1))] = [draw(_lexicon_lines | st.text(max_size=20))]
    return ("\n".join(lines) + "\n").encode("utf-8")


_SAMPLE_PROFILES = json.loads((SAMPLE_DATA / "profiles.json").read_text(encoding="utf-8"))
# small sizes only: a drawn profile of 10**9 documents is valid and would take hours
_profile_fields = {
    "document_count": st.integers(-2, 40) | _json_values.filter(lambda v: type(v) is not int),
    "token_range": st.lists(st.integers(-2, 90), max_size=3) | st.sampled_from(["30", [30.5, 80]]),
}


@st.composite
def _profile_bytes(draw):
    """The sample profiles with one item, or one field of an item, replaced
    by a drawn JSON value, or arbitrary bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    profiles = [dict(item) for item in _SAMPLE_PROFILES]
    index = draw(st.integers(0, len(profiles) - 1))
    if draw(st.booleans()):
        profiles[index] = draw(_json_values)  # too short a key to name document_count
    else:
        key = draw(st.sampled_from(sorted(profiles[index])) | st.text(max_size=6))
        profiles[index][key] = draw(_profile_fields.get(key, _json_values))
    return json.dumps(profiles).encode("utf-8")


@st.composite
def cli_cases(draw):
    """A subcommand, drawn flag values with known-good replacements, any
    other flags, one corpus line to append to ``sample_data/``, None for
    the sample lexicon or the bytes of a drawn one, and for ``synth`` None
    for the sample profiles or the bytes of drawn ones.

    With ``--format=counts`` among the other flags, the sample corpus is
    read as term counts."""
    command = draw(st.sampled_from(["score", "synth", "evaluate"]))
    corpus_format = draw(st.sampled_from([[], ["--format=counts"]]))
    if command == "score":
        window = st.sampled_from(["1d", "1w", "0d", "9999999999d", "99999999d", "1x", ""])
        window |= st.from_regex(r"[0-9]{1,12}[dwDW]", fullmatch=True) | st.text(max_size=12)
        drawn = {"--window": draw(window), "--origin": draw(_timestamps)}
        good, other = {"--window": "1w", "--origin": "2013-01-01"}, corpus_format
    elif command == "synth":
        drawn, good, other = {"--start": draw(_timestamps)}, {"--start": "2013-01-01"}, []
    else:
        count = st.integers(-2, 14).map(str) | st.text(max_size=4)
        alpha = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-300", "1e308", "abc"])
        drawn = {
            "--folds": draw(count),
            "--alpha": draw(alpha | st.floats().map(repr) | st.text(max_size=6)),
            "--min-genre-support": draw(count),
        }
        good = {"--folds": "2", "--alpha": "1", "--min-genre-support": "1"}
        variants = [[], ["--rep=meta"], ["--nb=gaussian"], ["--rep=meta", "--nb=multinomial"]]
        other = draw(st.sampled_from(variants)) + corpus_format
    lexicon = draw(st.none() | _lexicon_bytes())
    profiles = draw(st.none() | _profile_bytes()) if command == "synth" else None
    return command, drawn, good, other, draw(_records | st.text(max_size=80)), lexicon, profiles


def _run_sample(command, flags, line, lexicon=None, profiles=None):
    """``main`` on sample_data with one line, text or bytes, appended to the
    corpus, and on the ``lexicon`` and ``profiles`` bytes when given: (exit,
    stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_path = SAMPLE_DATA / "lexicon.csv"
        if lexicon is not None:
            lexicon_path = Path(tmp) / "lexicon.csv"
            lexicon_path.write_bytes(lexicon)
        profiles_path = SAMPLE_DATA / "profiles.json"
        if profiles is not None:
            profiles_path = Path(tmp) / "profiles.json"
            profiles_path.write_bytes(profiles)
        corpus = Path(tmp) / "corpus.jsonl"
        sample = SAMPLE_DATA / "corpus.jsonl"
        if "--format=counts" in flags:
            sample_lines = to_jsonl(read_text(sample.read_text(encoding="utf-8"), "text"))
        else:
            sample_lines = sample.read_text(encoding="utf-8")
        if isinstance(line, str):
            line = line.encode("utf-8")
        corpus.write_bytes(sample_lines.encode("utf-8") + line + b"\n")
        argv = [command, "--lexicon", str(lexicon_path), "--out", f"{tmp}/out"]
        if command == "synth":
            argv += ["--profiles", str(profiles_path)]
        else:
            argv += ["--corpus", str(corpus)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv + flags)
            except SystemExit as exc:  # argparse flag errors
                code = exc.code
    return code, stderr.getvalue()


@settings(deadline=None)
@given(cli_cases())
@example(("synth", {"--start": "9999-12-31"}, {"--start": "2013-01-01"}, [], "", None, None))
@example(("synth", {"--start": "nope"}, {"--start": "2013-01-01"}, [], "", None, None))
@example(  # JSON nested too deeply for the decoder
    ("synth", {"--start": "2013-01-01"}, {"--start": "2013-01-01"}, [], "", None, b"[" * 100000)
)
@example(  # no profiles at all
    ("synth", {"--start": "2013-01-01"}, {"--start": "2013-01-01"}, [], "", None, b"[]")
)
@example(("score", {"--window": "1w", "--origin": "nope"}, {"--window": "1w"}, [], "", None, None))
@example(("score", {"--window": "1w"}, {"--window": "1w"}, [], "", b"\xff", None))
@example(("score", {"--window": "1w"}, {"--window": "1w"}, [], b"\xff", None, None))
@example(  # a field over the csv module's size limit
    ("score", {"--window": "1w"}, {"--window": "1w"}, [], "",
     (_SAMPLE_LEXICON[0] + "\n" + "a" * 140000 + ",5,1,5,1,5,1\n").encode("utf-8"), None)
)
@example(
    (
        "evaluate",
        {"--folds": "2", "--alpha": "1", "--min-genre-support": "1"},
        {"--folds": "2", "--alpha": "1", "--min-genre-support": "1"},
        ["--format=counts"],
        json.dumps({"id": "big", "channel": "x", "timestamp": "2013-01-01",
                    "genre": "newscast", "term_counts": {"fire": 10**400}}),
        None,
        None,
    )
)
@example(
    (
        "evaluate",
        {"--folds": "2", "--alpha": "1e308", "--min-genre-support": "1"},
        {"--folds": "2", "--alpha": "1", "--min-genre-support": "1"},
        [],
        "",
        None,
        None,
    )
)
@example(  # a classifier variant the representation refuses
    (
        "evaluate",
        {"--folds": "2", "--alpha": "1", "--min-genre-support": "1"},
        {"--folds": "2", "--alpha": "1", "--min-genre-support": "1"},
        ["--rep=meta", "--nb=multinomial"],
        "",
        None,
        None,
    )
)
def test_cli_boundary_ends_in_exit_0_or_one_error_line(case):
    """Every case ends in exit 0, or in exit 2 with exactly one stderr line.

    When the same case with known-good values for the drawn flags succeeds,
    the drawn values caused the error, and its line names one of them.
    """
    command, drawn, good, other, line, lexicon, profiles = case
    flags = [f"{k}={v}" for k, v in drawn.items()] + other
    code, err = _run_sample(command, flags, line, lexicon, profiles)
    if code == 0:
        assert err == ""
        return
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    if "codec can't decode" in err:  # a file that is not UTF-8 is named by its flag
        assert err.startswith(("error: --lexicon ", "error: --corpus ", "error: --profiles ")), err
    good_flags = [f"{k}={v}" for k, v in good.items()] + other
    if _run_sample(command, good_flags, line, lexicon, profiles)[0] == 0:
        assert any(flag in err for flag in drawn), err
