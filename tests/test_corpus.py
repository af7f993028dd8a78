"""Tokenization, term counting, corpus loading, and genre filtering."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tvmood.corpus import (
    Corpus,
    CorpusError,
    Document,
    corpus_to_jsonl,
    count_terms,
    filter_min_genre_support,
    load_corpus,
    load_corpus_file,
    parse_timestamp,
    read_documents,
    tokenize,
)

from conftest import T0, checked_copy, make_doc
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


def test_load_text_mode_happy_path():
    lines = [
        record("a", text="Good news today"),
        record("b", channel="fox", text="BAD bad fire", genre="newscast"),
    ]
    corpus = load_corpus("\n".join(lines), mode="text")
    assert len(corpus) == 2
    first, second = corpus.documents
    assert first.term_counts == {"good": 1, "news": 1, "today": 1}
    assert first.genre is None
    assert second.term_counts == {"bad": 2, "fire": 1}
    assert second.total_tokens == 3
    assert corpus.label_set == {"newscast"}
    assert corpus.channels() == ["cnn", "fox"]


def test_load_counts_mode_lowercases_and_merges():
    line = record("a", term_counts={"Fire": 2, "fire": 3, "Calm": 1})
    corpus = load_corpus(line, mode="counts")
    assert corpus.documents[0].term_counts == {"fire": 5, "calm": 1}
    assert corpus.documents[0].total_tokens == 6


def test_load_duplicate_id_names_id():
    lines = [record("b", text="x"), record("a", text="x"), "", "", record("a", text="y")]
    with pytest.raises(CorpusError, match=r"^duplicate document id 'a' at lines 2 and 5$"):
        load_corpus("\n".join(lines), mode="text")


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
        load_corpus("\n".join(lines), mode="text")
    message = str(excinfo.value)
    assert "line 2" in message
    assert fragment in message


def test_load_rejects_both_text_and_counts():
    line = record("a", text="x", term_counts={"x": 1})
    with pytest.raises(CorpusError, match="both"):
        load_corpus(line, mode="text")


def test_load_counts_mode_rejects_non_positive_counts():
    for bad in (0, -2, 1.5, "3"):
        line = record("a", term_counts={"fire": bad})
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(line, mode="counts")


def test_counts_above_2_to_the_53_are_rejected_naming_line_and_term():
    doc = load_corpus(record("a", term_counts={"fire": 2**53}), mode="counts").documents[0]
    assert doc.term_counts == {"fire": 2**53} and float(doc.total_tokens) == 2**53
    for bad in (2**53 + 1, 10**400):
        line = record("a", term_counts={"calm": 1, "fire": bad})
        with pytest.raises(CorpusError) as excinfo:
            load_corpus(line, mode="counts")
        assert str(excinfo.value) == (
            f"line 1: document 'a': term 'fire' has count {bad!r}, which is more than 2**53"
        )


class _Count(int):
    """An int subclass other than bool: a valid count."""


@pytest.mark.parametrize("bad", [True, 1.5, 0, -3, "2"], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda counts: Document("a", "cnn", counts, 3),
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
    doc = Document("a", "cnn", {"fire": _Count(2), "calm": 1}, 3)
    assert doc.term_counts == {"fire": 2, "calm": 1}
    merged = Document.from_counts("a", "cnn", {"Fire": _Count(2), "fire": _Count(1)})
    assert merged.term_counts == {"fire": 3} and merged.total_tokens == 3


def test_load_document_errors_carry_line_number():
    with pytest.raises(CorpusError, match=r"^line 2: document id is empty$"):
        load_corpus("\n".join([record("ok", text="x"), record("", text="y")]), mode="text")
    with pytest.raises(CorpusError) as excinfo:
        load_corpus('{"id":"a","channel":"c","timestamp":"2013-01-07T00:00:00Z",'
                    '"term_counts":{"fire":1e3}}', mode="counts")
    message = str(excinfo.value)
    assert message.startswith("line 1: ") and "not a positive integer" in message
    assert "1000.0" in message and "non-positive" not in message


def test_load_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        load_corpus("", mode="tokens")


def test_load_skips_blank_lines():
    text = record("a", text="x") + "\n\n" + record("b", text="y") + "\n"
    assert len(load_corpus(text, mode="text")) == 2


def test_text_and_file_sources_split_lines_alike(tmp_path):
    # JSON allows a raw U+2028 in a string; str.splitlines() would break the line there
    first = record("a", text="joy fire").replace("joy fire", "joy\u2028fire")
    text = first + "\r\n" + record("b", text="calm") + "\r\n"
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    from_file = load_corpus_file(str(path), "text")
    assert load_corpus(text, "text") == from_file
    assert [doc.term_counts for doc in from_file.documents] == [{"joy": 1, "fire": 1}, {"calm": 1}]


def test_document_validation():
    with pytest.raises(ValueError, match="count"):
        Document("a", "cnn", {"x": 0}, 0)
    with pytest.raises(ValueError, match="total_tokens"):
        Document("a", "cnn", {"x": 2}, 3)
    with pytest.raises(ValueError, match="naive"):
        Document("a", "cnn", {"x": 1}, 1, timestamp=datetime(2013, 1, 7))
    with pytest.raises(ValueError, match="id"):
        Document("", "cnn", {"x": 1}, 1)
    with pytest.raises(ValueError, match=r"^document 'a': term 'Fire' is not lowercase$"):
        Document("a", "cnn", {"calm": 1, "Fire": 2, "WIN": 1}, 4)


def test_document_from_text_equals_checked_construction():
    doc = Document.from_text("a", "cnn", "Fire, fire and CALM's calm", "news", T0)
    assert list(doc.term_counts.items()) == [("fire", 2), ("and", 1), ("calm's", 1), ("calm", 1)]
    assert doc == Document("a", "cnn", dict(doc.term_counts), 5, "news", T0)
    lowercase = Document.from_counts("b", "cnn", {"fire": 2, "calm": 1}, "news", T0)
    assert lowercase == Document("b", "cnn", {"fire": 2, "calm": 1}, 3, "news", T0)
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
    loaded = load_corpus(text, "text")
    assert loaded == checked_copy(loaded) and type(loaded.documents) is tuple
    counts = load_corpus(corpus_to_jsonl(loaded), "counts")
    assert counts == checked_copy(counts) == loaded
    merged = load_corpus(record("m", term_counts={"Fire": 2, "fire": 1, "calm": 4}), "counts")
    assert merged == checked_copy(merged)
    filtered = filter_min_genre_support(loaded, 2)
    assert [doc.id for doc in filtered.documents] == ["a", "c"]
    assert filtered == checked_copy(filtered) and type(filtered.documents) is tuple


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
    doc = make_doc("a", {"x": 1})
    with pytest.raises(CorpusError, match="'a'"):
        Corpus((doc, make_doc("a", {"y": 1})))


def test_filter_min_genre_support_threshold():
    docs = [make_doc(f"x{i}", {"t": 1}, genre="x") for i in range(25)]
    docs += [make_doc(f"y{i}", {"t": 1}, genre="y") for i in range(10)]
    docs += [make_doc("u0", {"t": 1})]
    corpus = Corpus(tuple(docs))
    filtered = filter_min_genre_support(corpus, 20)
    assert filtered.label_set == {"x"}
    assert len(filtered) == 25

    assert len(filter_min_genre_support(corpus, 1)) == 35  # unlabeled still dropped
    assert filter_min_genre_support(filtered, 20) == filtered  # idempotent


def test_filter_keeps_published_genre_distribution():
    sizes = {"animated": 120, "documentary": 65, "horror": 24, "newscast": 41, "reality": 93}
    docs = [
        make_doc(f"{genre}{i}", {"t": 1}, genre=genre)
        for genre, size in sizes.items()
        for i in range(size)
    ]
    corpus = Corpus(tuple(docs))
    filtered = filter_min_genre_support(corpus, 20)
    assert len(filtered) == 343
    assert filtered.label_set == set(sizes)


def test_filter_rejects_bad_threshold():
    with pytest.raises(ValueError):
        filter_min_genre_support(Corpus(()), 0)


def test_filter_preserves_order():
    docs = [
        make_doc("a", {"t": 1}, genre="g"),
        make_doc("b", {"t": 1}, genre="rare"),
        make_doc("c", {"t": 1}, genre="g"),
    ]
    filtered = filter_min_genre_support(Corpus(tuple(docs)), 2)
    assert [doc.id for doc in filtered.documents] == ["a", "c"]


def test_jsonl_round_trip_and_determinism():
    docs = (
        make_doc("a", {"fire": 2, "calm": 1}, genre="newscast", timestamp=T0),
        make_doc("b", {"win": 4}, channel="fox", timestamp=T0),
    )
    corpus = Corpus(docs)
    text = corpus_to_jsonl(corpus)
    assert corpus_to_jsonl(corpus) == text
    reloaded = load_corpus(text, mode="counts")
    assert reloaded == corpus


def test_jsonl_requires_timestamps():
    corpus = Corpus((make_doc("a", {"x": 1}),))
    with pytest.raises(CorpusError, match="timestamp"):
        corpus_to_jsonl(corpus)
