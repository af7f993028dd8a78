"""Weighted affect scoring: documents, channels, time windows."""

from __future__ import annotations

import random
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmood.affect import (
    SERIES_CSV_HEADER,
    NoSignalError,
    match_stats,
    score_channel,
    score_counts,
    score_windows,
    series_to_csv,
)
from tvmood.corpus import Corpus

from conftest import T0, make_doc, make_lexicon, random_counts, random_lexicon, weekly_docs
from oracles import expansion_stats, match_stats_lookup

WEEK = timedelta(weeks=1)


def test_score_single_term_equals_its_value():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    score, _ = score_counts({"w": 5}, lexicon)
    assert (score.valence, score.arousal, score.dominance) == (0.5, 0.5, 0.5)
    assert score.matched_distinct_terms == 1
    assert score.matched_token_total == 5


def test_score_weighted_mean_hand_case(small_lexicon):
    score, _ = score_counts({"good": 3, "bad": 1}, small_lexicon)
    assert score.valence == pytest.approx(0.6875, abs=1e-15)
    assert score.matched_distinct_terms == 2
    assert score.matched_token_total == 4


def test_score_no_matches_raises(small_lexicon):
    with pytest.raises(NoSignalError):
        score_counts({"xyzzy": 7}, small_lexicon)


def test_score_is_scale_invariant(small_lexicon):
    counts = {"good": 3, "bad": 1, "fire": 2}
    base, _ = score_counts(counts, small_lexicon)
    for k in (2, 5, 17):
        scaled, _ = score_counts({t: c * k for t, c in counts.items()}, small_lexicon)
        assert scaled.valence == pytest.approx(base.valence, abs=1e-12)
        assert scaled.arousal == pytest.approx(base.arousal, abs=1e-12)
        assert scaled.dominance == pytest.approx(base.dominance, abs=1e-12)


def test_score_stays_within_matched_value_range():
    rng = random.Random(7)
    lexicon = random_lexicon(rng, 40)
    vocabulary = lexicon.words()
    for _ in range(200):
        counts = random_counts(rng, vocabulary)
        score, _ = score_counts(counts, lexicon)
        for d, dim in enumerate(("valence", "arousal", "dominance")):
            values = [lexicon.table.get(t.lower())[d] for t in counts]
            assert min(values) - 1e-12 <= getattr(score, dim) <= max(values) + 1e-12


def test_score_matches_expansion_oracle():
    rng = random.Random(11)
    lexicon = random_lexicon(rng, 50)
    vocabulary = lexicon.words() + [f"miss{i}" for i in range(10)]
    for _ in range(300):
        counts = random_counts(rng, vocabulary, max_terms=12)
        expected = expansion_stats(counts, lexicon, "valence")
        if expected is None:
            with pytest.raises(NoSignalError):
                score_counts(counts, lexicon)
            continue
        score, spread = score_counts(counts, lexicon)
        for dim in ("valence", "arousal", "dominance"):
            stats = expansion_stats(counts, lexicon, dim)
            assert getattr(score, dim) == pytest.approx(stats["mean"], abs=1e-12)
            assert getattr(spread, dim) == pytest.approx(stats["sd"], abs=1e-12)


def test_channel_single_document_matches_score_counts(small_lexicon):
    counts = {"good": 3, "fire": 1}
    corpus = Corpus((make_doc("a", counts, channel="cnn"),))
    pooled_score, pooled_spread = score_channel(corpus, "cnn", small_lexicon)
    direct_score, direct_spread = score_counts(counts, small_lexicon)
    assert pooled_score == direct_score
    assert pooled_spread == direct_spread


def test_channel_two_disjoint_documents_hand_case():
    lexicon = make_lexicon({"a": (0.2, 0.5, 0.5), "b": (0.8, 0.5, 0.5)})
    corpus = Corpus(
        (
            make_doc("d1", {"a": 1}, channel="cnn"),
            make_doc("d2", {"b": 1}, channel="cnn"),
        )
    )
    score, spread = score_channel(corpus, "cnn", lexicon)
    assert score.valence == pytest.approx(0.5, abs=1e-15)
    assert spread.valence == pytest.approx(0.3, abs=1e-15)


def test_channel_zero_variance():
    lexicon = make_lexicon({"a": (0.7, 0.7, 0.7), "b": (0.7, 0.7, 0.7)})
    corpus = Corpus(
        (
            make_doc("d1", {"a": 2}, channel="cnn"),
            make_doc("d2", {"b": 3}, channel="cnn"),
        )
    )
    score, spread = score_channel(corpus, "cnn", lexicon)
    assert score.valence == pytest.approx(0.7, abs=1e-15)
    assert spread.valence == 0.0


def test_channel_unknown_or_unmatched_raises(small_lexicon):
    corpus = Corpus((make_doc("a", {"xyzzy": 2}, channel="cnn"),))
    with pytest.raises(NoSignalError):
        score_channel(corpus, "nope", small_lexicon)
    with pytest.raises(NoSignalError):
        score_channel(corpus, "cnn", small_lexicon)


def test_channel_pooling_equals_summed_count_maps():
    rng = random.Random(23)
    lexicon = random_lexicon(rng, 30)
    vocabulary = lexicon.words()
    for trial in range(40):
        doc_counts = [
            random_counts(rng, vocabulary, max_terms=6)
            for _ in range(rng.randint(1, 5))
        ]
        corpus = Corpus(
            tuple(
                make_doc(f"d{trial}-{i}", counts, channel="ch")
                for i, counts in enumerate(doc_counts)
            )
        )
        pooled = Counter()
        for counts in doc_counts:
            pooled.update(counts)
        channel_score, _ = score_channel(corpus, "ch", lexicon)
        assert channel_score == score_counts(dict(pooled), lexicon)[0]


def test_windows_thirteen_four_week_periods(small_lexicon):
    corpus = weekly_docs(52, {"good": 2, "fire": 1})
    series = score_windows(corpus, "cnn", small_lexicon, 4 * WEEK, T0)
    assert len(series.points) == 13
    assert not any(point.is_gap for point in series.points)
    assert series.points[0].start == T0
    assert series.points[-1].start == T0 + 48 * WEEK


def test_windows_single_document_equals_its_score(small_lexicon):
    counts = {"good": 3, "bad": 1}
    corpus = Corpus((make_doc("a", counts, channel="cnn", timestamp=T0),))
    series = score_windows(corpus, "cnn", small_lexicon, 4 * WEEK, T0)
    assert len(series.points) == 1
    assert series.points[0].score == score_counts(counts, small_lexicon)[0]


def test_windows_emit_gap_for_empty_window(small_lexicon):
    docs = (
        make_doc("a", {"good": 1}, channel="cnn", timestamp=T0),
        make_doc("b", {"bad": 1}, channel="cnn", timestamp=T0 + 9 * WEEK),
    )
    series = score_windows(Corpus(docs), "cnn", small_lexicon, 4 * WEEK, T0)
    assert [point.is_gap for point in series.points] == [False, True, False]


def test_windows_emit_gap_for_unmatched_window(small_lexicon):
    docs = (
        make_doc("a", {"good": 1}, channel="cnn", timestamp=T0),
        make_doc("b", {"xyzzy": 4}, channel="cnn", timestamp=T0 + 5 * WEEK),
    )
    series = score_windows(Corpus(docs), "cnn", small_lexicon, 4 * WEEK, T0)
    assert [point.is_gap for point in series.points] == [False, True]


def test_windows_empty_channel_returns_empty_series(small_lexicon):
    corpus = Corpus((make_doc("a", {"good": 1}, channel="cnn", timestamp=T0),))
    series = score_windows(corpus, "fox", small_lexicon, 4 * WEEK, T0)
    assert series.points == ()


def test_windows_document_before_origin(small_lexicon):
    docs = (make_doc("a", {"good": 1}, channel="cnn", timestamp=T0 - 2 * WEEK),)
    series = score_windows(Corpus(docs), "cnn", small_lexicon, 4 * WEEK, T0)
    assert len(series.points) == 1
    assert series.points[0].start == T0 - 4 * WEEK


def test_windows_require_timestamps(small_lexicon):
    corpus = Corpus((make_doc("a", {"good": 1}, channel="cnn"),))
    with pytest.raises(ValueError, match="timestamp"):
        score_windows(corpus, "cnn", small_lexicon, 4 * WEEK, T0)


def test_windows_reject_non_positive_length(small_lexicon):
    corpus = weekly_docs(2, {"good": 1})
    with pytest.raises(ValueError):
        score_windows(corpus, "cnn", small_lexicon, timedelta(0), T0)


def test_series_csv_layout(small_lexicon):
    docs = (
        make_doc("a", {"good": 4}, channel="cnn", timestamp=T0),
        make_doc("b", {"xyzzy": 1}, channel="cnn", timestamp=T0 + 5 * WEEK),
    )
    series = score_windows(Corpus(docs), "cnn", small_lexicon, 4 * WEEK, T0)
    lines = series_to_csv([series]).splitlines()
    assert lines[0] == ",".join(SERIES_CSV_HEADER)
    scored = lines[1].split(",")
    assert scored[0] == "cnn"
    assert scored[1] == "2013-01-07T00:00:00Z"
    assert float(scored[2]) == 0.875
    assert scored[8] == "4"
    gap = lines[2].split(",")
    assert gap[1] == "2013-02-04T00:00:00Z"
    assert gap[2:] == [""] * 7


def test_score_is_order_independent(small_lexicon):
    forward = {"good": 3, "bad": 1, "fire": 2}
    backward = dict(reversed(list(forward.items())))
    assert score_counts(forward, small_lexicon) == score_counts(backward, small_lexicon)


_terms = st.text(alphabet="abcdef", min_size=1, max_size=3)
_means = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 0.1, 0.7, 5e-324])


@settings(max_examples=300)
@given(
    st.dictionaries(_terms, st.tuples(_means, _means, _means), max_size=30),
    st.dictionaries(_terms, st.integers(1, 9) | st.integers(1, 2**53), max_size=40),
)
def test_match_stats_equals_lookup_loop_bit_for_bit(means, counts):
    """Matching against the table finds the reference's matches, in map
    order, and the same statistics, compared through ``repr``."""
    lexicon = make_lexicon(means)
    expected = match_stats_lookup(counts, lexicon)
    stats = match_stats(counts, lexicon)
    if expected is None:
        assert stats is None
        return
    assert repr((stats.score, stats.spread)) == repr((expected.score, expected.spread))
    assert repr((stats.low, stats.high)) == repr((expected.low, expected.high))
    assert repr(stats.counts) == repr(expected.counts)
    assert repr([list(column) for column in stats.values]) == repr(list(expected.values))
