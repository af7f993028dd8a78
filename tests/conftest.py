"""Shared builders for synthetic lexicons and corpora."""

from __future__ import annotations

import csv
import io
import random
from datetime import datetime, timedelta, timezone
from typing import Iterable

import pytest

from tvmood.corpus import Document, document_to_jsonl, read_documents
from tvmood.evaluation import EvalReport, labeled_rows, run_cv
from tvmood.lexicon import LEXICON_HEADER, RAW_MIN, RAW_SPAN, AffectLexicon

UTC = timezone.utc
T0 = datetime(2013, 1, 7, tzinfo=UTC)


def make_lexicon(words: dict[str, tuple[float, float, float]]) -> AffectLexicon:
    """Lexicon from normalized (valence, arousal, dominance) means."""
    return AffectLexicon(dict(words))


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
        genre=genre,
        timestamp=timestamp,
    )


def checked_copy(documents: Iterable[Document]) -> list[Document]:
    """``documents`` rebuilt through the fully checked constructor."""
    return [
        Document(d.id, d.channel, dict(d.term_counts), d.genre, d.timestamp)
        for d in documents
    ]


def read_text(text: str, mode: str) -> list[Document]:
    """``read_documents`` over ``text``, split into lines as a file is split."""
    return list(read_documents(io.StringIO(text, newline=None), mode))


def to_jsonl(documents: Iterable[Document]) -> str:
    """The JSON-lines text of ``documents``, one ``document_to_jsonl`` line each."""
    return "".join(map(document_to_jsonl, documents))


def lexicon_csv(lexicon: AffectLexicon) -> str:
    """Render a lexicon back to CSV text on the raw [1, 9] scale.

    ``parse_lexicon(lexicon_csv(lex))`` reproduces ``lex`` exactly: the
    scale maps are affine with a power-of-two slope, so no precision is lost
    in either direction. A lexicon keeps no standard deviations, so each
    is written as 0.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(LEXICON_HEADER)
    for word, means in lexicon.table.items():
        fields = [word]
        for mean in means:
            fields += (repr(mean * RAW_SPAN + RAW_MIN), "0.0")
        writer.writerow(fields)
    return buffer.getvalue()


def cross_validate(
    documents: Iterable[Document], lexicon: AffectLexicon, representation: str, **kwargs
) -> EvalReport:
    """``run_cv`` on the documents' labeled rows of the given representation."""
    rows = list(labeled_rows(documents, lexicon, representation))
    return run_cv(rows, **kwargs)


def weekly_docs(count: int, counts: dict[str, int], channel: str = "cnn") -> tuple[Document, ...]:
    return tuple(
        make_doc(f"wk{i:02d}", dict(counts), channel, timestamp=T0 + timedelta(weeks=i))
        for i in range(count)
    )


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
