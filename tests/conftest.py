"""Shared builders for synthetic lexicons and corpora."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from tvmood.corpus import Corpus, Document
from tvmood.lexicon import AffectLexicon

UTC = timezone.utc
T0 = datetime(2013, 1, 7, tzinfo=UTC)


def make_lexicon(words: dict[str, tuple[float, float, float]], sd: float = 0.05) -> AffectLexicon:
    """Lexicon from normalized (valence, arousal, dominance) means."""
    return AffectLexicon(dict(words), {word: (sd, sd, sd) for word in words})


def random_lexicon(rng: random.Random, size: int = 60) -> AffectLexicon:
    """Lexicon with uniformly random normalized ratings."""
    words = {
        f"w{i:03d}": (rng.random(), rng.random(), rng.random()) for i in range(size)
    }
    return make_lexicon(words)


def random_counts(
    rng: random.Random,
    vocabulary: list[str],
    max_terms: int = 10,
    max_count: int = 9,
) -> dict[str, int]:
    terms = rng.sample(vocabulary, rng.randint(1, min(max_terms, len(vocabulary))))
    return {term: rng.randint(1, max_count) for term in terms}


def make_doc(
    doc_id: str,
    counts: dict[str, int],
    channel: str = "ch",
    genre: str | None = None,
    timestamp: datetime | None = None,
) -> Document:
    return Document(
        id=doc_id,
        channel=channel,
        term_counts=counts,
        total_tokens=sum(counts.values()),
        genre=genre,
        timestamp=timestamp,
    )


def checked_copy(corpus: Corpus) -> Corpus:
    """``corpus`` rebuilt through the fully checked constructors, from a list."""
    return Corpus(
        [
            Document(d.id, d.channel, dict(d.term_counts), d.total_tokens, d.genre, d.timestamp)
            for d in corpus.documents
        ]
    )


def weekly_docs(count: int, counts: dict[str, int], channel: str = "cnn") -> Corpus:
    docs = tuple(
        make_doc(f"wk{i:02d}", dict(counts), channel, timestamp=T0 + timedelta(weeks=i))
        for i in range(count)
    )
    return Corpus(docs)


@pytest.fixture
def small_lexicon() -> AffectLexicon:
    return make_lexicon(
        {
            "good": (0.875, 0.5, 0.6),
            "bad": (0.125, 0.55, 0.4),
            "fire": (0.3, 0.9, 0.45),
            "calm": (0.7, 0.1, 0.65),
            "win": (0.9, 0.7, 0.85),
        }
    )
