"""Tokenization, term counting, corpus loading, and genre filtering."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tvmood.corpus import (
    CorpusError,
    Document,
    count_terms,
    document_to_jsonl,
    filter_min_genre_support,
    format_timestamp,
    parse_timestamp,
    read_documents,
    tokenize,
)
from tvmood.evaluation import LabeledRow, run_cv

from conftest import T0, checked_copy, make_doc, read_text, to_jsonl
from oracles import tokenize as oracle_tokenize


def record(doc_id="a", channel="cnn", timestamp="2013-01-07T12:00:00Z", **extra):
    data = {"id": doc_id, "channel": channel, "timestamp": timestamp, **extra}
    return json.dumps(data)


def test_tokenize_hand_cases():
    assert tokenize("Breaking News: FIRE downtown!") == [
        "breaking",
        "news",
        "fire",
        "downtown",
    ]
    assert tokenize("") == []
    assert tokenize("don't DON'T") == ["don't", "don't"]


def test_tokenize_strips_wrapping_apostrophes_and_separators():
    assert tokenize("'quoted' text") == ["quoted", "text"]
    assert tokenize("''") == []
    assert tokenize("a_b c-d e2e") == ["a", "b", "c", "d", "e2e"]
    assert tokenize("a''b") == ["a''b"]
    assert tokenize("'''x'''") == ["x"]
    assert tokenize("rock'n'roll") == ["rock'n'roll"]
    assert tokenize("_'a'_") == ["a"]


# Characters where a tokenizer can slip: apostrophes (ASCII and typographic),
# underscores, digits, combining marks, a superscript digit, and letters whose
# lowercase form is longer (U+0130), unchanged (U+00DF) or of another case
# class (U+212A KELVIN SIGN, U+01C5 titlecase DZ).
_TRICKY = st.sampled_from(
    ["'", "'", "'", "_", "_", "0", "9", "a", " ", "\u2019", "\u0301", "\u0307",
     "\u00b2", "\u0130", "\u00df", "\u212a", "\u01c5"]
)


# ASCII text takes tokenize's translate-and-split branch, other text the
# regex; st.text() seldom draws a string that is all ASCII
_ASCII = st.sampled_from(["'", "'", "_", "0", "9", " ", "\t", "\n", "\x00", "\x7f"])


@given(st.text() | st.text(alphabet=_ASCII | st.characters(max_codepoint=127)))
@example("")
@example("\u212aelvin's 'K' 'n'")  # KELVIN SIGN lowers to an ASCII "k"
@example("Caf\u00e9 don\u2019t 'rock'n'roll'_x")  # ASCII beside U+00E9 and U+2019
def test_tokenize_equals_strip_oracle(text):
    assert tokenize(text) == oracle_tokenize(text)


@given(st.text(alphabet=st.one_of(_TRICKY, _TRICKY, _TRICKY, st.characters()), max_size=40))
def test_tokenize_equals_strip_oracle_on_tricky_alphabet(text):
    assert tokenize(text) == oracle_tokenize(text)


@given(st.text(max_size=80))
def test_tokenize_never_emits_uppercase_or_empty(text):
    for token in tokenize(text):
        assert token
        assert token == token.lower()
        assert not any(c.isspace() for c in token)


@given(st.lists(st.sampled_from(["a", "b", "c", "don't"]), max_size=30))
def test_count_terms_total_matches_input_length(tokens):
    counts, total = count_terms(tokens)
    assert total == len(tokens)
    assert sum(counts.values()) == total
    assert all(count >= 1 for count in counts.values())


def test_count_terms_hand_cases():
    assert count_terms(["a", "b", "a"]) == ({"a": 2, "b": 1}, 3)
    assert count_terms([]) == ({}, 0)
    assert count_terms(["x"] * 1000) == ({"x": 1000}, 1000)


def test_parse_timestamp_variants():
    expected = datetime(2013, 1, 7, 12, 0, 0, tzinfo=timezone.utc)
    assert parse_timestamp("2013-01-07T12:00:00Z") == expected
    assert parse_timestamp("2013-01-07T12:00:00+00:00") == expected
    assert parse_timestamp("2013-01-07T13:00:00+01:00") == expected
    assert parse_timestamp("2013-01-07T12:00:00") == expected
    assert parse_timestamp("2013-01-07T12:00:00.750Z") == expected


# (timestamp, its UTC reading, or None when it is refused). The accepted forms
# are those datetime.fromisoformat takes on Python 3.10; some refused ones are
# taken by it on 3.11 and later, so a corpus read alike only on some versions.
TIMESTAMP_FORMS = [
    ("2013-01-07", "2013-01-07T00:00:00+00:00"),
    ("2013-01-07T12", "2013-01-07T12:00:00+00:00"),
    ("2013-01-07T12:30", "2013-01-07T12:30:00+00:00"),
    ("2013-01-07T12:30:45", "2013-01-07T12:30:45+00:00"),
    (" 2013-01-07 12:30:45 ", "2013-01-07T12:30:45+00:00"),
    ("2013-01-07x12:30", "2013-01-07T12:30:00+00:00"),
    ("2013-01-07T12:30:45.123", "2013-01-07T12:30:45+00:00"),
    ("2013-01-07T12:30:45.123456", "2013-01-07T12:30:45+00:00"),
    ("2013-01-07T12:30:45:123", "2013-01-07T12:30:45+00:00"),
    ("2013-01-07T12.500", "2013-01-07T12:00:00+00:00"),
    ("2013-01-07T12:30:45Z", "2013-01-07T12:30:45+00:00"),
    ("2013-01-07T12:30:45z", "2013-01-07T12:30:45+00:00"),
    ("2013-01-07T12:30:45+01:00", "2013-01-07T11:30:45+00:00"),
    ("2013-01-07T12:30:45-01:30", "2013-01-07T14:00:45+00:00"),
    ("2013-01-07T12:30:45+01:00:30", "2013-01-07T11:30:15+00:00"),
    ("2013-01-07T12:30:45+01:00:30:500000", "2013-01-07T11:30:14+00:00"),
    ("2013-01-07T12:30:45.250000-00:00:00.750000", "2013-01-07T12:30:46+00:00"),
    ("2013-01-07T12:30:45.123+01:00", "2013-01-07T11:30:45+00:00"),
    ("2013-01-07T12:30:45 +01:00", "2013-01-07T11:30:45+00:00"),
    ("2013-01-07T12:00+00:60", "2013-01-07T11:00:00+00:00"),
    ("0001-01-01T00:00:00-01:00", "0001-01-01T01:00:00+00:00"),
    ("20130101T000000", None),
    ("2013-W01-1", None),
    ("2013-001", None),
    ("2013-01-07T12:00:00.5+00:00", None),
    ("2013-01-07T12:00:00,123+00:00", None),
    ("2013-01-07T12:30:45.1234", None),
    ("2013-01-07T1230", None),
    ("2013-01-07T12:00+0100", None),
    ("2013-01-07T12:00+01", None),
    ("2013-01-07T12:30:45.123 +01:00", None),
    ("2013-01-07T12:30:45\u00e9+01:00", None),
    ("2013-01-07T12:00:00+01:00Z", None),
    ("2013-1-7", None),
    ("\uff12\uff10\uff11\uff13-01-07", None),
    ("2013-01-07T", None),
    ("2013-01-07T24:00", None),
    ("2013-02-30", None),
    ("2013-01-07T12:00+24:00", None),
    ("9999-12-31T23:59:59-01:00", None),
    ("nope", None),
    ("", None),
]


@pytest.mark.parametrize("text, utc", TIMESTAMP_FORMS)
def test_parse_timestamp_forms(text, utc):
    if utc is None:
        with pytest.raises(ValueError):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text).isoformat() == utc


_TIMESPEC_KEEPS = {
    "hours": dict(minute=0, second=0, microsecond=0),
    "minutes": dict(second=0, microsecond=0),
    "seconds": dict(microsecond=0),
    "milliseconds": {},
    "microseconds": {},
}


@given(
    st.datetimes(
        timezones=st.none()
        | st.builds(timezone, st.timedeltas(timedelta(hours=-23.9), timedelta(hours=23.9)))
    ),
    st.sampled_from(sorted(_TIMESPEC_KEEPS)),
    st.characters(),
)
def test_parse_timestamp_reads_what_isoformat_writes(moment, timespec, sep):
    text = moment.isoformat(sep, timespec)
    written = moment.replace(**_TIMESPEC_KEEPS[timespec])
    if timespec == "milliseconds":
        written = written.replace(microsecond=written.microsecond // 1000 * 1000)
    offset = written.utcoffset() or timedelta(0)
    try:
        expected = (written.replace(tzinfo=timezone.utc) - offset).replace(microsecond=0)
    except OverflowError:  # the offset moves it out of the datetime range
        with pytest.raises(ValueError):
            parse_timestamp(text)
        return
    assert parse_timestamp(text) == expected


def test_format_timestamp_always_writes_four_year_digits():
    # strftime's %Y wrote "1-01-01T00:00:00Z", which parse_timestamp refuses
    assert format_timestamp(datetime(1, 1, 1, tzinfo=timezone.utc)) == "0001-01-01T00:00:00Z"
    assert format_timestamp(datetime(999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)) == (
        "0999-12-31T23:59:59Z"
    )
    assert format_timestamp(datetime(2013, 1, 7, 13, 0, 0, 750000, timezone(timedelta(hours=1)))) == (
        "2013-01-07T12:00:00Z"
    )


@given(st.datetimes(timezones=st.just(timezone.utc)))
def test_parse_timestamp_reads_what_format_timestamp_writes(moment):
    assert parse_timestamp(format_timestamp(moment)) == moment.replace(microsecond=0)


def test_load_text_mode_happy_path():
    lines = [
        record("a", text="Good news today"),
        record("b", channel="fox", text="BAD bad fire", genre="newscast"),
    ]
    corpus = read_text("\n".join(lines), mode="text")
    assert len(corpus) == 2
    first, second = corpus
    assert first.term_counts == {"good": 1, "news": 1, "today": 1}
    assert first.genre is None
    assert second.term_counts == {"bad": 2, "fire": 1}
    assert second.total_tokens == 3
    assert {doc.genre for doc in corpus if doc.genre is not None} == {"newscast"}
    assert sorted({doc.channel for doc in corpus}) == ["cnn", "fox"]


def test_load_counts_mode_lowercases_and_merges():
    line = record("a", term_counts={"Fire": 2, "fire": 3, "Calm": 1})
    [doc] = read_text(line, mode="counts")
    assert doc.term_counts == {"fire": 5, "calm": 1}
    assert doc.total_tokens == 6


def test_load_duplicate_id_names_id():
    lines = [record("b", text="x"), record("a", text="x"), "", "", record("a", text="y")]
    with pytest.raises(CorpusError, match=r"^duplicate document id 'a' at lines 2 and 5$"):
        read_text("\n".join(lines), mode="text")


@pytest.mark.parametrize(
    "line, key",
    [
        (
            '{"id":"a","channel":"c","timestamp":"2013-01-07T00:00:00Z","id":"b",'
            '"term_counts":{}}',
            "id",
        ),
        # an inner object is decoded, and refused, before the record holding it
        (
            '{"id":"a","channel":"c","timestamp":"2013-01-07T00:00:00Z","id":"b",'
            '"term_counts":{"fire":1,"fire":2}}',
            "fire",
        ),
    ],
    ids=["record", "term-counts"],
)
def test_read_documents_refuses_a_repeated_key_naming_line_and_key(line, key):
    lines = [record("z", term_counts={"fire": 1}), line]
    with pytest.raises(CorpusError, match=rf"^line 2: invalid JSON \(repeated key '{key}'\)$"):
        list(read_documents(lines, "counts"))


def test_read_documents_yields_each_document_before_reading_on():
    lines = iter([record("a", text="Good news"), "not json"])
    documents = read_documents(lines, "text")
    noon = T0 + timedelta(hours=12)
    assert next(documents) == Document.from_text("a", "cnn", "Good news", None, noon)
    assert next(lines) == "not json"  # the reader has not taken the second line yet
    bad = read_documents([record("a", text="Good news"), "not json"], "text")
    assert next(bad).id == "a"
    with pytest.raises(CorpusError, match="^line 2: invalid JSON"):
        next(bad)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ('{"channel":"cnn","timestamp":"2013-01-07T00:00:00Z","text":"x"}', "'id'"),
        ('{"id":"a","timestamp":"2013-01-07T00:00:00Z","text":"x"}', "'channel'"),
        ('{"id":"a","channel":"cnn","text":"x"}', "'timestamp'"),
        (record("a"), "'text'"),
        ('{"id":"a","channel":"c","timestamp":"nope","text":"x"}', "timestamp"),
        ("not json", "JSON"),
        ("[1,2]", "object"),
    ],
)
def test_load_malformed_records_report_line_number(line, fragment):
    lines = [record("ok", text="fine"), line]
    with pytest.raises(CorpusError) as excinfo:
        read_text("\n".join(lines), mode="text")
    message = str(excinfo.value)
    assert "line 2" in message
    assert fragment in message


def test_load_rejects_both_text_and_counts():
    line = record("a", text="x", term_counts={"x": 1})
    with pytest.raises(CorpusError, match="both"):
        read_text(line, mode="text")


def test_load_counts_mode_rejects_non_positive_counts():
    for bad in (0, -2, 1.5, "3"):
        line = record("a", term_counts={"fire": bad})
        with pytest.raises(CorpusError, match="line 1"):
            read_text(line, mode="counts")


def test_counts_above_2_to_the_53_are_rejected_naming_line_and_term():
    [doc] = read_text(record("a", term_counts={"fire": 2**53}), mode="counts")
    assert doc.term_counts == {"fire": 2**53} and float(doc.total_tokens) == 2**53
    for bad in (2**53 + 1, 10**400):
        line = record("a", term_counts={"calm": 1, "fire": bad})
        with pytest.raises(CorpusError) as excinfo:
            read_text(line, mode="counts")
        assert str(excinfo.value) == (
            f"line 1: document 'a': term 'fire' has count {bad!r}, which is more than 2**53"
        )


class _Count(int):
    """An int subclass other than bool: a valid count."""


@pytest.mark.parametrize("bad", [True, 1.5, 0, -3, "2"], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda counts: Document("a", "cnn", counts),
        lambda counts: Document.from_counts("a", "cnn", counts),
    ],
    ids=["Document", "from_counts"],
)
def test_bad_count_is_rejected_naming_the_term(build, bad):
    with pytest.raises(ValueError) as excinfo:
        build({"calm": 1, "fire": bad, "win": 2})
    assert str(excinfo.value) == (
        f"document 'a': term 'fire' has count {bad!r}, which is not a positive integer"
    )


def test_int_subclass_counts_are_accepted():
    doc = Document("a", "cnn", {"fire": _Count(2), "calm": 1})
    assert doc.term_counts == {"fire": 2, "calm": 1}
    merged = Document.from_counts("a", "cnn", {"Fire": _Count(2), "fire": _Count(1)})
    assert merged.term_counts == {"fire": 3} and merged.total_tokens == 3


def test_load_document_errors_carry_line_number():
    with pytest.raises(CorpusError, match=r"^line 2: document id is empty$"):
        read_text("\n".join([record("ok", text="x"), record("", text="y")]), mode="text")
    with pytest.raises(CorpusError) as excinfo:
        read_text('{"id":"a","channel":"c","timestamp":"2013-01-07T00:00:00Z",'
                    '"term_counts":{"fire":1e3}}', mode="counts")
    message = str(excinfo.value)
    assert message.startswith("line 1: ") and "not a positive integer" in message
    assert "1000.0" in message and "non-positive" not in message


@pytest.mark.parametrize("mode,body", [("text", "text"), ("counts", "term_counts")])
def test_empty_genre_is_rejected_naming_its_line(mode, body):
    """An empty genre is no genre at all, not a class called ""."""
    content = "fire" if mode == "text" else {"fire": 1}
    lines = [record("a", genre="news", **{body: content}), record("b", genre="", **{body: content})]
    with pytest.raises(CorpusError, match=r"^line 2: document 'b': genre is empty$"):
        read_text("\n".join(lines), mode=mode)


@pytest.mark.parametrize("mode,body", [("text", "text"), ("counts", "term_counts")])
def test_empty_channel_is_rejected_naming_its_line(mode, body):
    content = "joy joy" if mode == "text" else {"joy": 2}
    with pytest.raises(CorpusError, match=r"^line 1: document 'a': channel is empty$"):
        read_text(record("a", channel="", **{body: content}), mode=mode)


def test_load_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        read_text("", mode="tokens")


def test_load_skips_blank_lines():
    text = record("a", text="x") + "\n\n" + record("b", text="y") + "\n"
    assert len(read_text(text, mode="text")) == 2


def test_text_and_file_sources_split_lines_alike(tmp_path):
    # JSON allows a raw U+2028 in a string; str.splitlines() would break the line there
    first = record("a", text="joy fire").replace("joy fire", "joy\u2028fire")
    text = first + "\r\n" + record("b", text="calm") + "\r\n"
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as handle:
        from_file = list(read_documents(handle, "text"))
    assert read_text(text, "text") == from_file
    assert [doc.term_counts for doc in from_file] == [{"joy": 1, "fire": 1}, {"calm": 1}]


def test_document_validation():
    with pytest.raises(ValueError, match="count"):
        Document("a", "cnn", {"x": 0})
    # total_tokens is derived, and exact where a float sum would round
    doc = Document.from_counts("a", "cnn", {"a": 2**53, "b": 1})
    assert doc.total_tokens == 9007199254740993 and type(doc.total_tokens) is int
    assert Document("a", "cnn", {"x": 2}).total_tokens == 2
    with pytest.raises(AttributeError):
        doc.total_tokens = 1
    with pytest.raises(ValueError, match="naive"):
        Document("a", "cnn", {"x": 1}, timestamp=datetime(2013, 1, 7))
    with pytest.raises(ValueError, match="id"):
        Document("", "cnn", {"x": 1})
    with pytest.raises(ValueError, match=r"^document 'a': channel is empty$"):
        Document("a", "", {"x": 1})
    with pytest.raises(ValueError, match=r"^document 'a': genre is empty$"):
        Document("a", "cnn", {"x": 1}, "")
    with pytest.raises(ValueError, match=r"^document 'a': term 'Fire' is not lowercase$"):
        Document("a", "cnn", {"calm": 1, "Fire": 2, "WIN": 1})


@given(st.dictionaries(st.text("aAbB", min_size=1, max_size=2), st.integers(1, 2**53), max_size=6))
def test_from_counts_total_is_the_exact_sum_of_the_given_counts(counts):
    """Merging case never changes the total, and no float rounds it."""
    merged: dict[str, int] = {}
    for term, count in counts.items():
        merged[term.lower()] = merged.get(term.lower(), 0) + count
    if max(merged.values(), default=0) > 2**53:
        with pytest.raises(ValueError, match="more than 2\\*\\*53"):
            Document.from_counts("a", "cnn", counts)
        return
    doc = Document.from_counts("a", "cnn", counts)
    assert type(doc.total_tokens) is int and doc.total_tokens == sum(counts.values())
    [read] = read_text(record("a", term_counts=counts), "counts")
    assert read.total_tokens == doc.total_tokens


@given(st.text("ab C'.\u00e9", max_size=40))
def test_from_text_total_is_the_token_count(text):
    doc = Document.from_text("a", "cnn", text)
    assert type(doc.total_tokens) is int and doc.total_tokens == len(tokenize(text))
    [read] = read_text(record("a", text=text), "text")
    assert read.total_tokens == doc.total_tokens


def test_document_from_text_equals_checked_construction():
    doc = Document.from_text("a", "cnn", "Fire, fire and CALM's calm", "news", T0)
    assert list(doc.term_counts.items()) == [("fire", 2), ("and", 1), ("calm's", 1), ("calm", 1)]
    assert doc == Document("a", "cnn", dict(doc.term_counts), "news", T0)
    lowercase = Document.from_counts("b", "cnn", {"fire": 2, "calm": 1}, "news", T0)
    assert lowercase == Document("b", "cnn", {"fire": 2, "calm": 1}, "news", T0)
    assert Document.from_text("b", "cnn", "").total_tokens == 0
    with pytest.raises(ValueError, match="^document id is empty$"):
        Document.from_text("", "cnn", "fire")


def test_loaded_and_filtered_corpora_equal_checked_construction():
    text = "\n".join(
        [
            record("a", text="Fire, fire and CALM's calm", genre="news"),
            record("b", channel="fox", timestamp="2013-01-07T13:30:00+01:00", text=""),
            record("c", text="calm", genre="news"),
            record("d", text="rare words", genre="rare"),
        ]
    )
    loaded = read_text(text, "text")
    assert loaded == checked_copy(loaded)
    counts = read_text(to_jsonl(loaded), "counts")
    assert counts == checked_copy(counts) == loaded
    merged = read_text(record("m", term_counts={"Fire": 2, "fire": 1, "calm": 4}), "counts")
    assert merged == checked_copy(merged)
    filtered = filter_min_genre_support(loaded, 2)
    assert filtered == [loaded[0], loaded[2]]  # the loaded documents, kept


def test_document_from_counts_merges_case():
    doc = Document.from_counts("a", "cnn", {"Fire": 2, "fire": 1})
    assert doc.term_counts == {"fire": 3}
    assert doc.total_tokens == 3
    # lowercase counts are kept as given, in a copy of the map
    counts = {"fire": 2, "calm": 1}
    doc = Document.from_counts("b", "cnn", counts)
    assert list(doc.term_counts.items()) == [("fire", 2), ("calm", 1)]
    assert doc.term_counts is not counts and doc.total_tokens == 3
    # merged counts are checked again; a bad count is named before an empty id
    with pytest.raises(ValueError, match=r"^document 'c': term 'fire' has count 9007199254740993, "):
        Document.from_counts("c", "cnn", {"FIRE": 2**53, "fire": 1})
    for counts in ({"fire": 0}, {"Fire": 1, "fire": "2"}):
        with pytest.raises(ValueError, match=r"^document '': term 'fire' has count "):
            Document.from_counts("", "cnn", counts)


def test_corpus_rejects_duplicate_ids():
    # rows built by hand skip read_documents' check; the fold assignment keeps one
    ids_and_genres = [("b", "x"), ("a", "x"), ("c", "y"), ("a", "y")]
    rows = [LabeledRow(doc_id, genre, [1.0]) for doc_id, genre in ids_and_genres]
    with pytest.raises(ValueError, match=r"^id 'a' occurs more than once$"):
        run_cv(rows, k=2, seed=1)


def test_filter_min_genre_support_threshold():
    docs = [make_doc(f"x{i}", {"t": 1}, genre="x") for i in range(25)]
    docs += [make_doc(f"y{i}", {"t": 1}, genre="y") for i in range(10)]
    docs += [make_doc("u0", {"t": 1})]
    filtered = filter_min_genre_support(docs, 20)
    assert {doc.genre for doc in filtered} == {"x"}
    assert len(filtered) == 25

    assert len(filter_min_genre_support(docs, 1)) == 35  # unlabeled still dropped
    assert filter_min_genre_support(filtered, 20) == filtered  # idempotent


def test_filter_keeps_published_genre_distribution():
    sizes = {"animated": 120, "documentary": 65, "horror": 24, "newscast": 41, "reality": 93}
    docs = [
        make_doc(f"{genre}{i}", {"t": 1}, genre=genre)
        for genre, size in sizes.items()
        for i in range(size)
    ]
    filtered = filter_min_genre_support(docs, 20)
    assert len(filtered) == 343
    assert {doc.genre for doc in filtered} == set(sizes)


def test_filter_rejects_bad_threshold():
    with pytest.raises(ValueError):
        filter_min_genre_support((), 0)


def test_filter_preserves_order():
    docs = [
        make_doc("a", {"t": 1}, genre="g"),
        make_doc("b", {"t": 1}, genre="rare"),
        make_doc("c", {"t": 1}, genre="g"),
    ]
    filtered = filter_min_genre_support(docs, 2)
    assert [doc.id for doc in filtered] == ["a", "c"]


def test_jsonl_round_trip_and_determinism():
    docs = (
        make_doc("a", {"fire": 2, "calm": 1}, genre="newscast", timestamp=T0),
        make_doc("b", {"win": 4}, channel="fox", timestamp=T0),
    )
    text = to_jsonl(docs)
    assert to_jsonl(docs) == text
    assert read_text(text, mode="counts") == list(docs)


def test_jsonl_requires_timestamps():
    with pytest.raises(CorpusError, match="timestamp"):
        document_to_jsonl(make_doc("a", {"x": 1}))
