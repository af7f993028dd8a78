"""Command-line interface behavior and output files."""

from __future__ import annotations

import contextlib
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

from tvmood.cli import _write_all, main, parse_window
from tvmood.corpus import Corpus, corpus_to_jsonl, load_corpus_file
from tvmood.lexicon import serialize_lexicon
from tvmood.synth import GenreProfile, generate

from conftest import T0, make_doc, random_lexicon

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
    path.write_text(corpus_to_jsonl(Corpus(docs)), encoding="utf-8")
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
        (["--window", "99999999d", "--origin", "2030-01-01"], "starts outside the datetime range"),
        (["--window", "1w", "--origin", "nope"], "--origin: Invalid isoformat string: 'nope'"),
    ],
    ids=["window-too-long", "window-start-out-of-range", "bad-origin"],
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
    corpus_file.write_text(corpus_to_jsonl(Corpus(docs)), encoding="utf-8")
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
    lexicon_file.write_text(serialize_lexicon(lexicon), encoding="utf-8")
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
    from tvmood.corpus import load_corpus_file

    corpus = load_corpus_file(str(out_path), mode="counts")
    assert len(corpus) == 7
    assert corpus.label_set == {"up", "down"}


def test_evaluate_command(tmp_path, capsys):
    rng = random.Random(19)
    lexicon = random_lexicon(rng, 80)
    lexicon_file = tmp_path / "lex.csv"
    lexicon_file.write_text(serialize_lexicon(lexicon), encoding="utf-8")
    profiles = [
        GenreProfile("up", 25, 1.0, (0.8, 0.5, 0.5), (20, 40)),
        GenreProfile("down", 22, 1.0, (0.2, 0.5, 0.5), (20, 40)),
        GenreProfile("tiny", 3, 1.0, (0.5, 0.5, 0.5), (20, 40)),
    ]
    corpus = generate(profiles, lexicon, seed=23)
    corpus_file = tmp_path / "corpus.jsonl"
    corpus_file.write_text(corpus_to_jsonl(corpus), encoding="utf-8")

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
    lexicon_file.write_text(serialize_lexicon(lexicon), encoding="utf-8")
    profiles = [
        GenreProfile("up", 21, 1.0, (0.8, 0.5, 0.5), (15, 30)),
        GenreProfile("down", 21, 1.0, (0.2, 0.5, 0.5), (15, 30)),
    ]
    corpus_file = tmp_path / "corpus.jsonl"
    corpus_file.write_text(
        corpus_to_jsonl(generate(profiles, lexicon, seed=31)), encoding="utf-8"
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
    assert code != 0
    assert "gaussian" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command", [["features"], ["score", "--per-document"]], ids=["features", "per-document"]
)
def test_unencodable_output_keeps_the_old_file(tmp_path, capsys, lexicon_path, command):
    corpus = tmp_path / "corpus.jsonl"
    lone_surrogate = make_doc("x\ud800", {"good": 1}, timestamp=T0)  # JSON escapes it
    corpus.write_text(corpus_to_jsonl(Corpus((lone_surrogate,))), encoding="utf-8")
    out = tmp_path / "out.csv"
    out.write_bytes(b"old bytes\n")
    argv = [*command, "--lexicon", lexicon_path, "--corpus", str(corpus), "--format", "counts"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "surrogates not allowed" in err and err.count("\n") == 1
    assert out.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "lexicon.csv", "out.csv"]


def test_write_all_writes_a_fifo_in_place(tmp_path):
    fifo, regular = tmp_path / "fifo", tmp_path / "out.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        _write_all({str(fifo): "through the pipe \u00e9\n", str(regular): "file\n"})
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
    _write_all({first: "old\n", second: "old\n"})
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate fails while writing
        _write_all({first: "new\n", second: "bad \udc80\n"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json"]
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == "old\n"
    _write_all({first: "new\n", second: "new\n"})
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
    assert code != 0
    assert "support" in capsys.readouterr().err


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
        ({"label": "x", "document_count": "3", "target": [0.8, 0.5, 0.5]}, "profile 1: field 'document_count'"),
    ],
    ids=["not-object", "missing-label", "string-count"],
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


@pytest.mark.parametrize(
    "data,fragment",
    [
        (b"[" * 100000, "maximum recursion depth exceeded"),
        (b"[1, ]", "Expecting value: line 1 column 5 (char 4)"),
        (b"\xff[]", "'utf-8' codec can't decode byte 0xff"),
        (b"{}", "the file must hold a JSON array"),
    ],
    ids=["deep-nesting", "bad-json", "bad-utf8", "not-array"],
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
    "command,flag",
    [
        ("lexicon-validate", "--lexicon"),
        *((command, flag) for command in ("score", "features", "evaluate")
          for flag in ("--lexicon", "--corpus")),
    ],
)
def test_undecodable_input_names_its_flag(tmp_path, capsys, lexicon_path, corpus_path, command, flag):
    files = {"--lexicon": lexicon_path, "--corpus": corpus_path}
    bad = tmp_path / "bad.txt"
    bad.write_bytes(Path(files[flag]).read_bytes() + b"\xff\n")
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
        other = draw(st.sampled_from([[], ["--rep=meta"], ["--nb=gaussian"]])) + corpus_format
    lexicon = draw(st.none() | _lexicon_bytes())
    profiles = draw(st.none() | _profile_bytes()) if command == "synth" else None
    return command, drawn, good, other, draw(_records | st.text(max_size=80)), lexicon, profiles


def _run_sample(command, flags, line, lexicon=None, profiles=None):
    """``main`` on sample_data with one line appended to the corpus, and on
    the ``lexicon`` and ``profiles`` bytes when given: (exit, stderr)."""
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
            sample_lines = corpus_to_jsonl(load_corpus_file(str(sample), "text"))
        else:
            sample_lines = sample.read_text(encoding="utf-8")
        corpus.write_text(sample_lines + line + "\n", encoding="utf-8")
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
@example(("score", {"--window": "1w", "--origin": "nope"}, {"--window": "1w"}, [], "", None, None))
@example(("score", {"--window": "1w"}, {"--window": "1w"}, [], "", b"\xff", None))
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
