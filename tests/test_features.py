"""Meta-feature and term-count representations."""

from __future__ import annotations

import io
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvmood.affect import NoSignalError, score_counts
from tvmood.features import (
    FEATURE_NAMES,
    _weighted_median,
    extract_meta,
    extract_vsm,
    features_to_csv,
)

from conftest import make_doc, make_lexicon, random_counts, random_lexicon
from oracles import expansion_stats, weighted_median_walk

DIMENSIONS = ("valence", "arousal", "dominance")


def dimension(row, dim):
    """The (min, max, mean, sd, median) slots of one affect dimension."""
    start = 5 * DIMENSIONS.index(dim)
    return row[start : start + 5]


def test_extract_meta_hand_case():
    lexicon = make_lexicon(
        {"fun": (0.8, 0.6, 0.7), "dark": (0.2, 0.4, 0.3)}
    )
    doc = make_doc("d", {"fun": 2, "dark": 1, "xyzzy": 1})
    row = extract_meta(doc, lexicon)
    assert row[0] == pytest.approx(0.2, abs=1e-15)  # valence min
    assert row[1] == pytest.approx(0.8, abs=1e-15)  # valence max
    assert row[2] == pytest.approx(0.6, abs=1e-15)  # valence mean
    assert row[4] == pytest.approx(0.8, abs=1e-15)  # valence median
    assert row[3] == pytest.approx(math.sqrt(0.24 / 3), abs=1e-12)  # valence sd
    assert row[7] == pytest.approx((2 * 0.6 + 0.4) / 3, abs=1e-12)  # arousal mean
    assert row[15:] == [4.0, 3.0, 2.0, 2.0]


def test_extract_meta_singleton():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    row = extract_meta(make_doc("d", {"w": 1}), lexicon)
    for dim in DIMENSIONS:
        low, high, mean, sd, median = dimension(row, dim)
        assert low == high == mean == median == 0.5
        assert sd == 0.0


def test_extract_meta_no_matches_uses_sentinel():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    row = extract_meta(make_doc("d", {"xyzzy": 3}), lexicon)
    assert row[:15] == [None] * 15
    assert row[15:] == [3.0, 1.0, 0.0, 3.0]


def test_extract_meta_matches_expansion_oracle():
    rng = random.Random(31)
    lexicon = random_lexicon(rng, 40)
    vocabulary = lexicon.words() + ["miss1", "miss2"]
    for trial in range(200):
        counts = random_counts(rng, vocabulary, max_terms=9)
        row = extract_meta(make_doc(f"d{trial}", counts), lexicon)
        for dim in DIMENSIONS:
            expected = expansion_stats(counts, lexicon, dim)
            low, high, mean, sd, median = dimension(row, dim)
            if expected is None:
                assert low is high is mean is sd is median is None
                continue
            assert low == pytest.approx(expected["min"], abs=1e-12)
            assert high == pytest.approx(expected["max"], abs=1e-12)
            assert mean == pytest.approx(expected["mean"], abs=1e-12)
            assert sd == pytest.approx(expected["sd"], abs=1e-12)
            assert median == expected["median"]


# values on the grid of normalized lexicon ratings, often tied (k/800 for a
# raw rating 1 + k/100); counts up to the largest one a document may hold
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 4), st.integers(0, 800)).map(lambda k: k / 800),
            st.one_of(st.integers(1, 9), st.integers(1, 2**53)),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_weighted_median_equals_sorted_pair_walk(pairs):
    values, counts = zip(*pairs)
    values, counts = tuple(values), list(counts)
    total = sum(counts)
    median = _weighted_median(values, counts, total)
    assert repr(median) == repr(weighted_median_walk(values, counts, total))


def test_extract_meta_mean_agrees_with_score_counts():
    rng = random.Random(37)
    lexicon = random_lexicon(rng, 30)
    vocabulary = lexicon.words() + ["missx"]
    for trial in range(100):
        counts = random_counts(rng, vocabulary)
        row = extract_meta(make_doc(f"d{trial}", counts), lexicon)
        try:
            score = score_counts(counts, lexicon)
        except NoSignalError:
            assert row[2] is None
            continue
        assert row[2] == score.valence
        assert row[7] == score.arousal
        assert row[12] == score.dominance
        assert row[17] == score.matched_distinct_terms


def test_extract_meta_invariants_hold():
    rng = random.Random(41)
    lexicon = random_lexicon(rng, 30)
    for trial in range(100):
        counts = random_counts(rng, lexicon.words())
        doc = make_doc(f"d{trial}", counts)
        row = extract_meta(doc, lexicon)
        for dim in DIMENSIONS:
            low, high, mean, _, median = dimension(row, dim)
            assert low <= median <= high
            assert low <= mean <= high
        num_words, num_unique_words, num_unique_anew_words, max_word_frequency = row[15:]
        assert num_unique_anew_words <= num_unique_words <= num_words
        assert max_word_frequency <= num_words


def test_extract_vsm_restricts_to_lexicon(small_lexicon):
    doc = make_doc("d", {"good": 3, "xyzzy": 1})
    assert extract_vsm(doc, small_lexicon) == {"good": 3}

    assert extract_vsm(make_doc("d2", {"zzz": 2}), small_lexicon) == {}

    counts = {"good": 2, "bad": 5}
    assert extract_vsm(make_doc("d3", counts), small_lexicon) == counts


def test_extract_vsm_rows_share_one_key_object_per_term(small_lexicon):
    """Rows kept side by side hold one string per term, not one per document."""
    first, second = ("".join(["go", "od"]) for _ in range(2))
    assert first is not second
    [a], [b] = (extract_vsm(make_doc(f"d{i}", {term: 1}), small_lexicon)
                for i, term in enumerate((first, second)))
    assert a is b


def test_extract_vsm_total_bounded_by_document_total(small_lexicon):
    rng = random.Random(43)
    vocabulary = small_lexicon.words() + ["m1", "m2", "m3"]
    for trial in range(50):
        counts = random_counts(rng, vocabulary, max_terms=6)
        doc = make_doc(f"d{trial}", counts)
        vector = extract_vsm(doc, small_lexicon)
        assert sum(vector.values()) <= doc.total_tokens
        assert all(term.lower() in small_lexicon.table for term in vector)


def test_extract_meta_singleton_layout():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    row = extract_meta(make_doc("d", {"w": 1}), lexicon)
    assert row == [0.5, 0.5, 0.5, 0.0, 0.5] * 3 + [1.0, 1.0, 1.0, 1.0]
    assert len(row) == len(FEATURE_NAMES) == 19


def test_extract_meta_is_deterministic_and_order_independent():
    lexicon = make_lexicon({"a": (0.3, 0.4, 0.5), "b": (0.7, 0.6, 0.5)})
    forward = make_doc("d", {"a": 2, "b": 3})
    backward = make_doc("d", {"b": 3, "a": 2})
    assert extract_meta(forward, lexicon) == extract_meta(backward, lexicon)


def test_extract_meta_keeps_missing_slots():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    row = extract_meta(make_doc("d", {"xyzzy": 3}), lexicon)
    assert row[:15] == [None] * 15
    assert row[15:] == [3.0, 1.0, 0.0, 3.0]


def test_features_csv_layout(small_lexicon):
    docs = (
        make_doc("a", {"good": 2}, genre="newscast"),
        make_doc("b", {"xyzzy": 1}),
    )
    buffer = io.StringIO()
    assert features_to_csv(docs, small_lexicon, buffer) == 2
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "id,genre," + ",".join(FEATURE_NAMES)
    first = lines[1].split(",")
    assert first[0] == "a" and first[1] == "newscast"
    assert float(first[2]) == 0.875
    assert first[-4:] == ["2", "1", "1", "2"]
    second = lines[2].split(",")
    assert second[1] == ""  # unlabeled genre
    assert second[2:17] == [""] * 15  # sentinel affect block
    assert second[-4:] == ["1", "1", "0", "1"]


def test_extract_meta_keeps_the_stylistic_counts_as_ints():
    lexicon = make_lexicon({"a": (0.5, 0.5, 0.5)})
    row = extract_meta(make_doc("d", {"a": 2**53, "b": 1}), lexicon)
    assert row[15:] == [2**53 + 1, 2, 1, 2**53]
    assert all(type(n) is int for n in row[15:])


def test_features_csv_writes_a_total_past_2_53_exactly():
    """float(2**53 + 1) is 2**53; the CSV keeps the true token count."""
    lexicon = make_lexicon({"a": (0.5, 0.5, 0.5)})
    buffer = io.StringIO()
    assert features_to_csv([make_doc("d", {"a": 2**53, "b": 1})], lexicon, buffer) == 1
    fields = buffer.getvalue().splitlines()[1].split(",")
    assert fields[2 + FEATURE_NAMES.index("num_words")] == "9007199254740993"
    assert fields[-4:] == ["9007199254740993", "2", "1", "9007199254740992"]
