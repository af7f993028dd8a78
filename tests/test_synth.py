"""Synthetic corpus generation."""

from __future__ import annotations

import random
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmood.affect import score_counts
from tvmood.synth import VALENCE_BAND, GenreProfile, generate

from conftest import T0, checked_copy, make_lexicon, random_lexicon, read_text, to_jsonl
from oracles import generate_per_token


def test_generate_cardinality_and_labels():
    rng = random.Random(1)
    lexicon = random_lexicon(rng, 50)
    profile = GenreProfile("toons", 5, 1.0, (0.5, 0.5, 0.5), (10, 20))
    corpus = tuple(generate([profile], lexicon, seed=3))
    assert len(corpus) == 5
    assert all(doc.genre == "toons" for doc in corpus)
    assert all(doc.channel == "toons" for doc in corpus)
    assert all(10 <= doc.total_tokens <= 20 for doc in corpus)


def test_generate_is_deterministic():
    rng = random.Random(2)
    lexicon = random_lexicon(rng, 50)
    profiles = [
        GenreProfile("a", 4, 0.8, (0.3, 0.5, 0.5), (10, 30)),
        GenreProfile("b", 3, 0.8, (0.7, 0.5, 0.5), (10, 30)),
    ]
    first = tuple(generate(profiles, lexicon, seed=99))
    second = tuple(generate(profiles, lexicon, seed=99))
    assert first == second
    assert to_jsonl(first) == to_jsonl(second)
    different = tuple(generate(profiles, lexicon, seed=100))
    assert to_jsonl(different) != to_jsonl(first)


def test_generate_separates_valence_groups():
    rng = random.Random(4)
    lexicon = random_lexicon(rng, 80)
    profiles = [
        GenreProfile("lowv", 8, 1.0, (0.2, 0.5, 0.5), (30, 60)),
        GenreProfile("highv", 8, 1.0, (0.8, 0.5, 0.5), (30, 60)),
    ]
    for seed in range(10):
        corpus = tuple(generate(profiles, lexicon, seed=seed))
        means = {}
        for genre in ("lowv", "highv"):
            scores = [
                score_counts(doc.term_counts, lexicon).valence
                for doc in corpus
                if doc.genre == genre
            ]
            means[genre] = sum(scores) / len(scores)
        assert means["lowv"] < means["highv"]


def test_generate_timestamps_are_evenly_spaced():
    rng = random.Random(5)
    lexicon = random_lexicon(rng, 40)
    profile = GenreProfile("g", 6, 1.0, (0.5, 0.5, 0.5), (5, 9))
    documents = generate([profile], lexicon, seed=0, start=T0)
    stamps = [doc.timestamp for doc in documents]
    assert stamps[0] == T0
    deltas = {b - a for a, b in zip(stamps, stamps[1:])}
    assert deltas == {timedelta(days=1)}


def test_generate_output_is_loadable_and_valid():
    rng = random.Random(6)
    lexicon = random_lexicon(rng, 40)
    profiles = [
        GenreProfile("x", 4, 0.7, (0.4, 0.5, 0.5), (10, 15), channel="chx"),
        GenreProfile("y", 4, 0.7, (0.6, 0.5, 0.5), (10, 15), channel="chy"),
    ]
    corpus = list(generate(profiles, lexicon, seed=12))
    assert corpus == checked_copy(corpus)
    reloaded = read_text(to_jsonl(corpus), mode="counts")
    assert reloaded == corpus
    assert {doc.genre for doc in reloaded} == {"x", "y"}
    assert sorted({doc.channel for doc in reloaded}) == ["chx", "chy"]
    for doc in reloaded:
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
            AffectLexicon({}),
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
    corpus = tuple(generate(profiles, lexicon, seed=21))
    pooled = Counter()
    for doc in corpus:
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
    assert_equals_per_token(*data.draw(synth_problems(bias)))


def assert_equals_per_token(profiles, lexicon, seed):
    """``generate`` equals the ``rng.choice`` reference in bytes and term order."""
    corpus = list(generate(profiles, lexicon, seed))
    reference = generate_per_token(profiles, lexicon, seed)
    assert corpus == checked_copy(corpus)  # the trusted path holds the checked invariants
    assert to_jsonl(corpus) == to_jsonl(reference)
    assert [list(doc.term_counts.items()) for doc in corpus] == [
        list(doc.term_counts.items()) for doc in reference
    ]


# n.bit_length() and (n - 1).bit_length() differ only when n is 1 or a power of two
@pytest.mark.parametrize("size", [1, 2, 4, 5, 255, 256, 257])
@pytest.mark.parametrize("background", [0, 3], ids=["pool-is-lexicon", "plus-3-words"])
def test_generate_equals_per_token_on_edge_pool_sizes(size, background):
    """Exactly ``size`` words lie within the band of valence 0.5; with no
    background words the shared pool holds the same ``size`` words."""
    words = {f"in{i:03d}": (0.45 + 0.1 * i / size, 0.5, 0.5) for i in range(size)}
    words.update({f"out{i}": (0.9 + 0.01 * i, 0.5, 0.5) for i in range(background)})
    lexicon = make_lexicon(words)
    assert sum(abs(means[0] - 0.5) <= VALENCE_BAND for means in lexicon.table.values()) == size
    profiles = [
        GenreProfile("mixed", 6, 0.5, (0.5, 0.5, 0.5), (20, 40)),
        GenreProfile("own", 3, 1.0, (0.5, 0.5, 0.5), (1, 9)),
        GenreProfile("shared", 3, 0.0, (0.5, 0.5, 0.5), (1, 9)),
    ]
    for seed in (0, 1, 2**40 + 3):
        assert_equals_per_token(profiles, lexicon, seed)


@pytest.mark.parametrize(
    "field, value",
    [
        ("label", 7),
        ("document_count", 2.5),
        ("document_count", True),
        ("bias", "0.5"),
        ("bias", True),
        ("target", (0.5, "0.5", 0.5)),
        ("target", (0.5, False, 0.5)),
        ("target", (0.5, 0.5)),
        ("token_range", (1.5, 3.0)),
        ("token_range", (True, 3)),
        ("token_range", (1, 3, 5)),
        ("token_range", 3),
        ("channel", 7),
    ],
)
def test_profile_rejects_values_of_the_wrong_type(field, value):
    fields = dict(label="g", document_count=2, bias=0.5, target=(0.5, 0.5, 0.5), token_range=(1, 3))
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be "):
        GenreProfile(**fields)


def test_profile_accepts_int_bias_and_target():
    lexicon = random_lexicon(random.Random(10), 40)
    profile = GenreProfile("g", 2, 1, (0, 0, 1), (1, 3))
    exact = GenreProfile("g", 2, 1.0, (0.0, 0.0, 1.0), (1, 3))
    assert to_jsonl(generate([profile], lexicon, seed=5)) == to_jsonl(
        generate([exact], lexicon, seed=5)
    )
