"""Classifier input representations: per-document summary statistics and
lexicon-restricted term-count vectors.

The summary representation carries five statistics (min, max, mean, sd,
median) per affect dimension plus four stylistic counts, nineteen features
in all. Statistics are computed over the frequency-weighted multiset of
matched-term values: a term counted three times contributes its lexicon
value three times. Min, max, mean and sd come from
:func:`tvmood.affect.match_stats`, so the mean agrees exactly with
:func:`tvmood.affect.score_counts`; the sd is the weighted population sd,
and the median is the weighted median (lower-middle element when the total
weight is even). A document with no lexicon matches gets missing values for
all fifteen affect statistics; the stylistic counts are always present.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional

from .affect import DIMENSIONS, match_stats
from .corpus import Corpus, Document
from .lexicon import AffectLexicon

# Canonical feature order for dense vectors and CSV export.
FEATURE_NAMES = (
    "valence_min",
    "valence_max",
    "valence_mean",
    "valence_sd",
    "valence_median",
    "arousal_min",
    "arousal_max",
    "arousal_mean",
    "arousal_sd",
    "arousal_median",
    "dominance_min",
    "dominance_max",
    "dominance_mean",
    "dominance_sd",
    "dominance_median",
    "num_words",
    "num_unique_words",
    "num_unique_anew_words",
    "max_word_frequency",
)

# Sparse term -> count map restricted to the lexicon vocabulary.
VsmVector = dict[str, int]


@dataclass(frozen=True, slots=True)
class DimensionStats:
    """Weighted summary statistics of one affect dimension."""

    min: float
    max: float
    mean: float
    sd: float
    median: float


@dataclass(frozen=True, slots=True)
class MetaFeatureVector:
    """The nineteen-feature document summary.

    The three affect slots are None when the document shares no term with
    the lexicon.
    """

    valence: Optional[DimensionStats]
    arousal: Optional[DimensionStats]
    dominance: Optional[DimensionStats]
    num_words: int
    num_unique_words: int
    num_unique_anew_words: int
    max_word_frequency: int


def _weighted_median(values: list[float], counts: list[int], total: int) -> float:
    """Weighted median: the element at 1-based position ceil(total/2) of the
    expanded multiset, i.e. the lower-middle element for even totals."""
    target = (total + 1) // 2
    accumulated = 0
    for value, count in sorted(zip(values, counts)):
        accumulated += count
        if accumulated >= target:
            break
    return value


def extract_meta(doc: Document, lexicon: AffectLexicon) -> MetaFeatureVector:
    """Build the summary-statistics representation of one document."""
    stats = match_stats(doc.term_counts, lexicon)
    dims: list[Optional[DimensionStats]] = [None, None, None]
    if stats is not None:
        total = stats.score.matched_token_total
        for d, dim in enumerate(DIMENSIONS):
            dims[d] = DimensionStats(
                stats.low[d],
                stats.high[d],
                getattr(stats.score, dim),
                getattr(stats.spread, dim),
                _weighted_median(stats.values[d], stats.counts, total),
            )
    return MetaFeatureVector(
        *dims,
        num_words=doc.total_tokens,
        num_unique_words=len(doc.term_counts),
        num_unique_anew_words=0 if stats is None else len(stats.counts),
        max_word_frequency=max(doc.term_counts.values(), default=0),
    )


def extract_vsm(doc: Document, lexicon: AffectLexicon) -> VsmVector:
    """Restrict the document's term counts to the lexicon vocabulary."""
    return {
        term: count for term, count in doc.term_counts.items() if term in lexicon
    }


def fuse(meta: MetaFeatureVector) -> list[Optional[float]]:
    """Flatten a summary vector into the canonical 19-slot dense layout.

    Order: valence (min, max, mean, sd, median), then arousal, then
    dominance, then the four stylistic counts. Missing affect statistics
    stay None so classifiers can skip them.
    """
    dense: list[Optional[float]] = []
    for stats in (meta.valence, meta.arousal, meta.dominance):
        if stats is None:
            dense.extend([None] * 5)
        else:
            dense.extend([stats.min, stats.max, stats.mean, stats.sd, stats.median])
    dense.extend(
        [
            float(meta.num_words),
            float(meta.num_unique_words),
            float(meta.num_unique_anew_words),
            float(meta.max_word_frequency),
        ]
    )
    return dense


def features_to_csv(corpus: Corpus, lexicon: AffectLexicon) -> str:
    """Feature-matrix CSV: ``id,genre`` plus the 19 canonical features.

    Missing values (affect statistics of unmatched documents, absent genre)
    serialize as empty fields.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("id", "genre") + FEATURE_NAMES)
    for doc in corpus.documents:
        dense = fuse(extract_meta(doc, lexicon))
        row = [doc.id, doc.genre if doc.genre is not None else ""]
        for index, value in enumerate(dense):
            if value is None:
                row.append("")
            elif index >= 15:
                row.append(str(int(value)))
            else:
                row.append(repr(value))
        writer.writerow(row)
    return buffer.getvalue()
