"""Synthetic corpus generation."""

from __future__ import annotations

import random
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmood.affect import score_counts
from tvmood.corpus import corpus_to_jsonl, load_corpus
from tvmood.synth import GenreProfile, generate

from conftest import T0, checked_copy, random_lexicon
from oracles import generate_per_token


def test_generate_cardinality_and_labels():
    rng = random.Random(1)
    lexicon = random_lexicon(rng, 50)
    profile = GenreProfile("toons", 5, 1.0, (0.5, 0.5, 0.5), (10, 20))
    corpus = generate([profile], lexicon, seed=3)
    assert len(corpus) == 5
    assert all(doc.genre == "toons" for doc in corpus.documents)
    assert all(doc.channel == "toons" for doc in corpus.documents)
    assert all(10 <= doc.total_tokens <= 20 for doc in corpus.documents)


def test_generate_is_deterministic():
    rng = random.Random(2)
    lexicon = random_lexicon(rng, 50)
    profiles = [
        GenreProfile("a", 4, 0.8, (0.3, 0.5, 0.5), (10, 30)),
        GenreProfile("b", 3, 0.8, (0.7, 0.5, 0.5), (10, 30)),
    ]
    first = generate(profiles, lexicon, seed=99)
    second = generate(profiles, lexicon, seed=99)
    assert first == second
    assert corpus_to_jsonl(first) == corpus_to_jsonl(second)
    different = generate(profiles, lexicon, seed=100)
    assert corpus_to_jsonl(different) != corpus_to_jsonl(first)


def test_generate_separates_valence_groups():
    rng = random.Random(4)
    lexicon = random_lexicon(rng, 80)
    profiles = [
        GenreProfile("lowv", 8, 1.0, (0.2, 0.5, 0.5), (30, 60)),
        GenreProfile("highv", 8, 1.0, (0.8, 0.5, 0.5), (30, 60)),
    ]
    for seed in range(10):
        corpus = generate(profiles, lexicon, seed=seed)
        means = {}
        for genre in ("lowv", "highv"):
            scores = [
                score_counts(doc.term_counts, lexicon)[0].valence
                for doc in corpus.documents
                if doc.genre == genre
            ]
            means[genre] = sum(scores) / len(scores)
        assert means["lowv"] < means["highv"]


def test_generate_timestamps_are_evenly_spaced():
    rng = random.Random(5)
    lexicon = random_lexicon(rng, 40)
    profile = GenreProfile("g", 6, 1.0, (0.5, 0.5, 0.5), (5, 9))
    corpus = generate([profile], lexicon, seed=0, start=T0, spacing=timedelta(hours=6))
    stamps = [doc.timestamp for doc in corpus.documents]
    assert stamps[0] == T0
    deltas = {b - a for a, b in zip(stamps, stamps[1:])}
    assert deltas == {timedelta(hours=6)}


def test_generate_output_is_loadable_and_valid():
    rng = random.Random(6)
    lexicon = random_lexicon(rng, 40)
    profiles = [
        GenreProfile("x", 4, 0.7, (0.4, 0.5, 0.5), (10, 15), channel="chx"),
        GenreProfile("y", 4, 0.7, (0.6, 0.5, 0.5), (10, 15), channel="chy"),
    ]
    corpus = generate(profiles, lexicon, seed=12)
    assert corpus == checked_copy(corpus) and type(corpus.documents) is tuple
    reloaded = load_corpus(corpus_to_jsonl(corpus), mode="counts")
    assert reloaded == corpus
    assert reloaded.label_set == {"x", "y"}
    assert reloaded.channels() == ["chx", "chy"]
    for doc in reloaded.documents:
        assert doc.total_tokens == sum(doc.term_counts.values())
        assert all(count >= 1 for count in doc.term_counts.values())


def test_generate_empty_band_names_profile():
    rng = random.Random(7)
    lexicon = random_lexicon(rng, 30)
    # shift every word's valence into [0, 0.5]; a 0.95 target has no words
    words = {word: (means[0] / 2, 0.5, 0.5) for word, means in lexicon.table.items()}
    from conftest import make_lexicon

    narrow = make_lexicon(words)
    profile = GenreProfile("ghost", 2, 1.0, (0.95, 0.5, 0.5), (5, 10))
    with pytest.raises(ValueError, match="ghost"):
        generate([profile], narrow, seed=1)


def test_generate_input_validation():
    rng = random.Random(8)
    lexicon = random_lexicon(rng, 10)
    with pytest.raises(ValueError, match="profiles"):
        generate([], lexicon, seed=1)
    from tvmood.lexicon import AffectLexicon

    with pytest.raises(ValueError, match="lexicon"):
        generate(
            [GenreProfile("g", 1, 1.0, (0.5, 0.5, 0.5), (5, 5))],
            AffectLexicon({}, {}),
            seed=1,
        )
    with pytest.raises(ValueError):
        GenreProfile("g", 0, 1.0, (0.5, 0.5, 0.5), (5, 5))
    with pytest.raises(ValueError):
        GenreProfile("g", 1, 1.5, (0.5, 0.5, 0.5), (5, 5))
    with pytest.raises(ValueError):
        GenreProfile("g", 1, 1.0, (0.5, 0.5, 0.5), (5, 4))


def test_generate_bias_zero_uses_shared_pool():
    rng = random.Random(9)
    lexicon = random_lexicon(rng, 60)
    profiles = [
        GenreProfile("a", 10, 0.0, (0.1, 0.5, 0.5), (50, 80)),
        GenreProfile("b", 10, 0.0, (0.9, 0.5, 0.5), (50, 80)),
    ]
    corpus = generate(profiles, lexicon, seed=21)
    pooled = Counter()
    for doc in corpus.documents:
        pooled.update(doc.term_counts)
    # with no bias both genres draw from the whole lexicon
    assert len(pooled) > 30


@st.composite
def synth_problems(draw, bias):
    """A random lexicon, one to three profiles of the given bias, and a seed.

    Each profile targets the valence of a lexicon word, so its pool is not empty.
    """
    lexicon = random_lexicon(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(5, 60)))
    valences = [means[0] for means in lexicon.table.values()]
    profiles = []
    for index in range(draw(st.integers(1, 3))):
        low = draw(st.integers(1, 40))
        profiles.append(
            GenreProfile(
                f"g{index}",
                draw(st.integers(1, 4)),
                draw(bias),
                (draw(st.sampled_from(valences)), 0.5, 0.5),
                (low, low + draw(st.integers(0, 40))),
                channel=draw(st.sampled_from([None, "shared"])),
            )
        )
    return profiles, lexicon, draw(st.integers(0, 2**64))


@pytest.mark.parametrize(
    "bias", [st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)], ids=["bias0", "bias1", "mixed"]
)
@settings(max_examples=40)
@given(data=st.data())
def test_generate_equals_per_token_counter_loop(bias, data):
    profiles, lexicon, seed = data.draw(synth_problems(bias))
    corpus = generate(profiles, lexicon, seed)
    reference = generate_per_token(profiles, lexicon, seed)
    assert corpus == checked_copy(corpus)  # the trusted path holds the checked invariants
    assert corpus_to_jsonl(corpus) == corpus_to_jsonl(reference)
    assert [list(doc.term_counts.items()) for doc in corpus.documents] == [
        list(doc.term_counts.items()) for doc in reference.documents
    ]
