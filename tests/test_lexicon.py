"""Lexicon parsing, normalization, and the word table."""

from __future__ import annotations

import io
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvmood.lexicon import (
    AffectLexicon,
    LexiconError,
    normalize_rating,
    normalize_sd,
    parse_lexicon,
    serialize_lexicon,
)

from oracles import parse_lexicon_rows

HEADER = "word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd"


def lexicon_text(*rows: str) -> str:
    return "\n".join([HEADER, *rows]) + "\n"


def test_normalize_rating_endpoints_and_midpoint():
    assert normalize_rating(1.0) == 0.0
    assert normalize_rating(9.0) == 1.0
    assert normalize_rating(5.0) == 0.5


@pytest.mark.parametrize("raw", [0.0, 0.999, 9.001, -3.0, 100.0])
def test_normalize_rating_rejects_out_of_range(raw):
    with pytest.raises(LexiconError) as excinfo:
        normalize_rating(raw)
    assert repr(raw) in str(excinfo.value)


@given(st.floats(min_value=1.0, max_value=9.0))
def test_normalize_rating_is_affine(raw):
    # two-point interpolation through the endpoints reproduces the map exactly
    slope = (normalize_rating(9.0) - normalize_rating(1.0)) / 8.0
    assert normalize_rating(raw) == (raw - 1.0) * slope


@given(st.floats(min_value=1.0, max_value=9.0), st.floats(min_value=0.0, max_value=4.0))
def test_normalize_rating_is_strictly_increasing(raw, delta):
    bumped = raw + delta
    if bumped > raw and bumped <= 9.0:
        assert normalize_rating(bumped) > normalize_rating(raw)


def test_normalize_sd_scales_without_offset():
    assert normalize_sd(1.02) == 1.02 / 8
    assert normalize_sd(0.0) == 0.0
    with pytest.raises(LexiconError):
        normalize_sd(-0.1)


@pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
def test_non_finite_sd_is_rejected(raw):
    with pytest.raises(LexiconError):
        normalize_sd(raw)
    with pytest.raises(ValueError):
        AffectLexicon({"joy": (0.5, 0.5, 0.5)}, {"joy": (raw, 0.1, 0.1)})
    with pytest.raises(LexiconError, match="line 2"):
        parse_lexicon(lexicon_text(f"joy,5,{raw},5,1,5,1"))


@pytest.mark.parametrize(
    "table, sds, message",
    [
        ({"Joy": (0.5,) * 3}, {"Joy": (0.1,) * 3}, "word 'Joy' is not lowercase"),
        ({"big joy": (0.5,) * 3}, {"big joy": (0.1,) * 3}, "word 'big joy' contains whitespace"),
        ({"": (0.5,) * 3}, {"": (0.1,) * 3}, "word is empty"),
        (
            {"joy": (0.5, 1.5, 0.5)},
            {"joy": (0.1,) * 3},
            r"word 'joy': means \(0.5, 1.5, 0.5\) are not three finite values in \[0, 1\]",
        ),
        (
            {"joy": (0.5, 0.5)},
            {"joy": (0.1,) * 3},
            r"word 'joy': means \(0.5, 0.5\) are not three finite values in \[0, 1\]",
        ),
        ({"joy": (0.5,) * 3}, {"fun": (0.1,) * 3}, "the mean and sd tables hold different words"),
    ],
)
def test_direct_construction_checks_every_word_and_value(table, sds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AffectLexicon(table, sds)


def test_parsed_lexicon_equals_checked_construction():
    lexicon = parse_lexicon(lexicon_text("joy,8.21,1.02,5.98,2.54,7.00,1.80", "Fire,2,1,8,1,5,1"))
    assert AffectLexicon(dict(lexicon.table), dict(lexicon.sds)) == lexicon


def test_parse_single_row_hand_values():
    lexicon = parse_lexicon(lexicon_text("joy,8.21,1.02,5.98,2.54,7.00,1.80"))
    means = lexicon.table.get("joy")
    assert means is not None
    sds = lexicon.sds["joy"]
    assert math.isclose(means[0], 0.90125, abs_tol=1e-12)
    assert math.isclose(sds[0], 0.1275, abs_tol=1e-12)
    assert math.isclose(means[1], 0.6225, abs_tol=1e-12)
    assert math.isclose(sds[1], 0.3175, abs_tol=1e-12)
    assert math.isclose(means[2], 0.75, abs_tol=1e-12)
    assert math.isclose(sds[2], 0.225, abs_tol=1e-12)
    # the maps are exact in binary arithmetic, not just close
    assert means[0] == (8.21 - 1.0) / 8.0
    assert sds[0] == 1.02 / 8.0


def test_parse_lowercases_words():
    lexicon = parse_lexicon(lexicon_text("JoY,5,1,5,1,5,1"))
    assert lexicon.table.get("joy") is not None
    assert lexicon.table.get("JOY".lower()) == lexicon.table.get("joy")
    assert list(lexicon.table) == ["joy"]


def test_parse_duplicate_word_names_word_and_lines():
    text = lexicon_text("joy,5,1,5,1,5,1", "calm,6,1,6,1,6,1", "JOY,7,1,7,1,7,1")
    with pytest.raises(LexiconError) as excinfo:
        parse_lexicon(text)
    message = str(excinfo.value)
    assert "'joy'" in message
    assert "2" in message and "4" in message


def test_parse_header_only_is_an_error():
    with pytest.raises(LexiconError, match="no entries"):
        parse_lexicon(HEADER + "\n")


def test_parse_empty_input_is_an_error():
    with pytest.raises(LexiconError, match="header"):
        parse_lexicon("")


def test_parse_rejects_wrong_header():
    with pytest.raises(LexiconError, match="header"):
        parse_lexicon("word,v,a,d\njoy,5,5,5\n")


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("joy,5,1,5,1,5", "7 columns"),
        ("joy,abc,1,5,1,5,1", "non-numeric"),
        ("joy,15,1,5,1,5,1", "[1, 9]"),
        ("joy,5,-1,5,1,5,1", "negative"),
        ("jo y,5,1,5,1,5,1", "whitespace"),
        (",5,1,5,1,5,1", "empty"),
    ],
)
def test_parse_malformed_rows_report_line_number(row, fragment):
    with pytest.raises(LexiconError) as excinfo:
        parse_lexicon(lexicon_text("calm,6,1,6,1,6,1", row))
    message = str(excinfo.value)
    assert "line 3" in message
    assert fragment in message


@pytest.mark.parametrize(
    "rows,message",
    [
        (['"a\nb",5,1,5,1,5,1', "joy,15,1,5,1,5,1"], "line 2: word 'a\\nb' contains whitespace"),
        (['calm,"5\n",1,5,1,5,1', "joy,15,1,5,1,5,1"], "line 4: rating 15.0 is outside the [1, 9] scale"),
        (
            ["joy,5,1,5,1,5,1", '"calm\n",6,1,6,1,6,1', "JOY,7,1,7,1,7,1"],
            "duplicate word 'joy' at lines 2 and 5",
        ),
    ],
    ids=["quoted-word", "quoted-rating", "duplicate"],
)
def test_errors_name_the_file_line_where_a_row_starts(rows, message):
    """A quoted field may span lines; text and a file read the same way."""
    text = lexicon_text(*rows)
    for source in (text, io.StringIO(text, newline="")):
        with pytest.raises(LexiconError) as excinfo:
            parse_lexicon(source)
        assert str(excinfo.value) == message


def test_parse_accepts_blank_lines():
    lexicon = parse_lexicon(lexicon_text("joy,5,1,5,1,5,1", "", "calm,6,1,6,1,6,1"))
    assert len(lexicon) == 2


def test_lookup_miss_and_empty():
    lexicon = parse_lexicon(lexicon_text("joy,5,1,5,1,5,1"))
    assert lexicon.table.get("xyzzy") is None
    assert AffectLexicon({}, {}).table.get("joy") is None
    assert "JOY".lower() in lexicon.table and "xyzzy" not in lexicon.table
    # the case-folding lookup and membership test are gone: callers lowercase
    assert not hasattr(lexicon, "lookup")
    with pytest.raises(TypeError):
        operator.contains(lexicon, "joy")


words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz'", min_size=1, max_size=10)
raw_means = st.floats(min_value=1.0, max_value=9.0)
raw_sds = st.floats(min_value=0.0, max_value=4.0)
raw_rows = st.tuples(raw_means, raw_sds, raw_means, raw_sds, raw_means, raw_sds)


@settings(max_examples=60)
@given(st.dictionaries(words, raw_rows, min_size=1, max_size=8))
def test_round_trip_is_identity(table):
    rows = [
        f"{word},{v},{vs},{a},{as_},{d},{ds}"
        for word, (v, vs, a, as_, d, ds) in table.items()
    ]
    first = parse_lexicon(lexicon_text(*rows))
    second = parse_lexicon(serialize_lexicon(first))
    assert second == first


@settings(max_examples=60)
@given(st.dictionaries(words, raw_rows, min_size=1, max_size=8))
def test_parsed_entries_satisfy_invariants(table):
    rows = [
        f"{word},{v},{vs},{a},{as_},{d},{ds}"
        for word, (v, vs, a, as_, d, ds) in table.items()
    ]
    lexicon = parse_lexicon(lexicon_text(*rows))
    assert len(lexicon) == len(table)
    assert lexicon.sds.keys() == lexicon.table.keys()
    for word, means in lexicon.table.items():
        assert word and not any(c.isspace() for c in word)
        assert word == word.lower()
        assert all(0.0 <= mean <= 1.0 for mean in means)
        assert all(sd >= 0.0 for sd in lexicon.sds[word])


_good_cells = (
    st.sampled_from(["joy", "JOY", "calm", " Calm "]) | st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    st.floats(1.0, 9.0).map(repr) | st.sampled_from(["1", "9", " 3 ", "1.2_5"]),
    st.floats(0.0, 4.0).map(repr) | st.sampled_from(["0", "-0.0", "1e308"]),
)
_bad_cells = (
    st.sampled_from(["", "  ", "jo y", "x\ty", "x\u00a0y"]),
    st.sampled_from(["0.999", "9.001", "1e300", "-3", "nan", "inf", "-inf", "abc", ""]),
    st.sampled_from(["-5e-324", "-0.1", "nan", "inf", "-inf", "x", ""]),
)


def _parse_outcome(source):
    """The parsed tables by repr, or the error message."""
    try:
        lexicon = parse_lexicon(source)
    except LexiconError as exc:
        return str(exc)
    return repr(lexicon.table), repr(lexicon.sds)


@st.composite
def lexicon_files(draw):
    """Lexicon CSV text: valid rows, some with one drawn bad cell, some
    with 6 or 8 columns, and blank lines mixed in."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kinds = [0] + [1, 2] * 3  # word, then mean and sd per dimension
        row = [draw(_good_cells[kind]) for kind in kinds]
        if draw(st.integers(0, 3)) == 0:
            column = draw(st.integers(0, 6))
            row[column] = draw(_bad_cells[kinds[column]])
        arity = draw(st.sampled_from([7] * 10 + [6, 8]))
        lines.append(",".join(row[:arity] + ["1"] * (arity - 7)))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    return lexicon_text(*lines)


@settings(max_examples=400)
@given(lexicon_files())
@example(lexicon_text("joy,5,1,5,1,5,1", "calm,6,1,6,1,6,1"))
@example(lexicon_text("joy,5,-5e-324,5,1,5,1"))
@example(lexicon_text("joy,5,1,nan,1,5,1", "calm,6,-1,6,1,6,1", "JOY,1,1,1,1,1,1"))
@example(lexicon_text("joy,5,1,5,1,5,1", "", "JOY,5,1,5,1,5"))
# many rows: a clean file, and a fault or a duplicate far into the file
@example(lexicon_text(*[f"w{i},5,1,5,1,5,1" for i in range(300)]))
@example(lexicon_text(*[f"w{i},5,1,{9.5 if i == 200 else 5},1,5,1" for i in range(300)]))
@example(lexicon_text(*[f"w{i},5,1,5,1,5,1" for i in range(300)], "W7,5,1,5,1,5,1"))
def test_parse_matches_row_by_row_reference(text):
    """The parser gives the reference's table, or its error, also from a file."""
    assert _parse_outcome(io.StringIO(text, newline="")) == _parse_outcome(text)
    try:
        table, sds = parse_lexicon_rows(text)
    except LexiconError as exc:
        with pytest.raises(LexiconError) as excinfo:
            parse_lexicon(text)
        assert str(excinfo.value) == str(exc)
        return
    lexicon = parse_lexicon(text)
    # repr tells -0.0 from 0.0 and keeps the word order
    assert repr(lexicon.table) == repr(table)
    assert repr(lexicon.sds) == repr(sds)
