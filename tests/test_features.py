"""Meta-feature and term-count representations."""

from __future__ import annotations

import math
import random

import pytest

from tvmood.affect import NoSignalError, score_counts
from tvmood.corpus import Corpus
from tvmood.features import (
    FEATURE_NAMES,
    extract_meta,
    extract_vsm,
    features_to_csv,
    fuse,
)

from conftest import make_doc, make_lexicon, random_counts, random_lexicon
from oracles import expansion_stats


def test_extract_meta_hand_case():
    lexicon = make_lexicon(
        {"fun": (0.8, 0.6, 0.7), "dark": (0.2, 0.4, 0.3)}
    )
    doc = make_doc("d", {"fun": 2, "dark": 1, "xyzzy": 1})
    meta = extract_meta(doc, lexicon)
    assert meta.valence.min == pytest.approx(0.2, abs=1e-15)
    assert meta.valence.max == pytest.approx(0.8, abs=1e-15)
    assert meta.valence.mean == pytest.approx(0.6, abs=1e-15)
    assert meta.valence.median == pytest.approx(0.8, abs=1e-15)
    assert meta.valence.sd == pytest.approx(math.sqrt(0.24 / 3), abs=1e-12)
    assert meta.arousal.mean == pytest.approx((2 * 0.6 + 0.4) / 3, abs=1e-12)
    assert meta.num_words == 4
    assert meta.num_unique_words == 3
    assert meta.num_unique_anew_words == 2
    assert meta.max_word_frequency == 2


def test_extract_meta_singleton():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    meta = extract_meta(make_doc("d", {"w": 1}), lexicon)
    for stats in (meta.valence, meta.arousal, meta.dominance):
        assert stats.min == stats.max == stats.mean == stats.median == 0.5
        assert stats.sd == 0.0


def test_extract_meta_no_matches_uses_sentinel():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    meta = extract_meta(make_doc("d", {"xyzzy": 3}), lexicon)
    assert meta.valence is None and meta.arousal is None and meta.dominance is None
    assert meta.num_words == 3
    assert meta.num_unique_words == 1
    assert meta.num_unique_anew_words == 0
    assert meta.max_word_frequency == 3


def test_extract_meta_matches_expansion_oracle():
    rng = random.Random(31)
    lexicon = random_lexicon(rng, 40)
    vocabulary = lexicon.words() + ["miss1", "miss2"]
    for trial in range(200):
        counts = random_counts(rng, vocabulary, max_terms=9)
        meta = extract_meta(make_doc(f"d{trial}", counts), lexicon)
        for dim in ("valence", "arousal", "dominance"):
            expected = expansion_stats(counts, lexicon, dim)
            stats = getattr(meta, dim)
            if expected is None:
                assert stats is None
                continue
            assert stats.min == pytest.approx(expected["min"], abs=1e-12)
            assert stats.max == pytest.approx(expected["max"], abs=1e-12)
            assert stats.mean == pytest.approx(expected["mean"], abs=1e-12)
            assert stats.sd == pytest.approx(expected["sd"], abs=1e-12)
            assert stats.median == expected["median"]


def test_extract_meta_mean_agrees_with_score_counts():
    rng = random.Random(37)
    lexicon = random_lexicon(rng, 30)
    vocabulary = lexicon.words() + ["missx"]
    for trial in range(100):
        counts = random_counts(rng, vocabulary)
        meta = extract_meta(make_doc(f"d{trial}", counts), lexicon)
        try:
            score, _ = score_counts(counts, lexicon)
        except NoSignalError:
            assert meta.valence is None
            continue
        assert meta.valence.mean == score.valence
        assert meta.arousal.mean == score.arousal
        assert meta.dominance.mean == score.dominance
        assert meta.num_unique_anew_words == score.matched_distinct_terms


def test_extract_meta_invariants_hold():
    rng = random.Random(41)
    lexicon = random_lexicon(rng, 30)
    for trial in range(100):
        counts = random_counts(rng, lexicon.words())
        doc = make_doc(f"d{trial}", counts)
        meta = extract_meta(doc, lexicon)
        for stats in (meta.valence, meta.arousal, meta.dominance):
            assert stats.min <= stats.median <= stats.max
            assert stats.min <= stats.mean <= stats.max
        assert meta.num_unique_anew_words <= meta.num_unique_words <= meta.num_words
        assert meta.max_word_frequency <= meta.num_words


def test_extract_vsm_restricts_to_lexicon(small_lexicon):
    doc = make_doc("d", {"good": 3, "xyzzy": 1})
    assert extract_vsm(doc, small_lexicon) == {"good": 3}

    assert extract_vsm(make_doc("d2", {"zzz": 2}), small_lexicon) == {}

    counts = {"good": 2, "bad": 5}
    assert extract_vsm(make_doc("d3", counts), small_lexicon) == counts


def test_extract_vsm_total_bounded_by_document_total(small_lexicon):
    rng = random.Random(43)
    vocabulary = small_lexicon.words() + ["m1", "m2", "m3"]
    for trial in range(50):
        counts = random_counts(rng, vocabulary, max_terms=6)
        doc = make_doc(f"d{trial}", counts)
        vector = extract_vsm(doc, small_lexicon)
        assert sum(vector.values()) <= doc.total_tokens
        assert all(term in small_lexicon for term in vector)


def test_fuse_singleton_layout():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    dense = fuse(extract_meta(make_doc("d", {"w": 1}), lexicon))
    assert dense == [0.5, 0.5, 0.5, 0.0, 0.5] * 3 + [1.0, 1.0, 1.0, 1.0]
    assert len(dense) == len(FEATURE_NAMES) == 19


def test_fuse_is_deterministic_and_order_independent():
    lexicon = make_lexicon({"a": (0.3, 0.4, 0.5), "b": (0.7, 0.6, 0.5)})
    forward = make_doc("d", {"a": 2, "b": 3})
    backward = make_doc("d", {"b": 3, "a": 2})
    assert fuse(extract_meta(forward, lexicon)) == fuse(extract_meta(backward, lexicon))


def test_fuse_keeps_missing_slots():
    lexicon = make_lexicon({"w": (0.5, 0.5, 0.5)})
    dense = fuse(extract_meta(make_doc("d", {"xyzzy": 3}), lexicon))
    assert dense[:15] == [None] * 15
    assert dense[15:] == [3.0, 1.0, 0.0, 3.0]


def test_features_csv_layout(small_lexicon):
    corpus = Corpus(
        (
            make_doc("a", {"good": 2}, genre="newscast"),
            make_doc("b", {"xyzzy": 1}),
        )
    )
    lines = features_to_csv(corpus, small_lexicon).splitlines()
    assert lines[0] == "id,genre," + ",".join(FEATURE_NAMES)
    first = lines[1].split(",")
    assert first[0] == "a" and first[1] == "newscast"
    assert float(first[2]) == 0.875
    assert first[-4:] == ["2", "1", "1", "2"]
    second = lines[2].split(",")
    assert second[1] == ""  # unlabeled genre
    assert second[2:17] == [""] * 15  # sentinel affect block
    assert second[-4:] == ["1", "1", "0", "1"]
