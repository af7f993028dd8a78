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
import sys
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Optional, TextIO

from .affect import DIMENSIONS, match_stats
from .corpus import Document
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


def _weighted_median(values: tuple[float, ...], counts: list[int], total: int) -> float:
    """Weighted median: the element at 1-based position ceil(total/2) of the
    expanded multiset, i.e. the lower-middle element for even totals."""
    order = sorted(range(len(values)), key=values.__getitem__)
    running = list(accumulate(map(counts.__getitem__, order)))
    return values[order[bisect_left(running, (total + 1) // 2)]]


def extract_meta(doc: Document, lexicon: AffectLexicon) -> list[Optional[float]]:
    """The document's 19-slot summary row, in ``FEATURE_NAMES`` order.

    Min, max, mean, sd and median of valence, then arousal, then dominance;
    these fifteen slots are None when the document shares no term with the
    lexicon, so classifiers can skip them. Then the four stylistic counts,
    as ints.
    """
    stats = match_stats(doc.term_counts, lexicon)
    row: list[Optional[float]] = [None] * 15
    if stats is not None:
        row, score = [], stats.score
        for d in range(len(DIMENSIONS)):  # the score holds the means, then the sds
            median = _weighted_median(stats.values[d], stats.counts, score.matched_token_total)
            row += (stats.low[d], stats.high[d], score[d], score[3 + d], median)
    counts = doc.term_counts.values()
    matched = 0 if stats is None else len(stats.counts)
    return row + [doc.total_tokens, len(counts), matched, max(counts, default=0)]


def extract_vsm(doc: Document, lexicon: AffectLexicon) -> VsmVector:
    """Restrict the document's term counts to the lexicon vocabulary.

    Keys are interned, so rows kept side by side share one string per term.
    """
    table = lexicon.table
    intern = sys.intern
    return {intern(term): count for term, count in doc.term_counts.items() if term in table}


def features_to_csv(documents: Iterable[Document], lexicon: AffectLexicon, out: TextIO) -> int:
    """Write the feature-matrix CSV, ``id,genre`` plus the 19 canonical
    features, one row as each document is read; return the row count.

    Missing values (affect statistics of unmatched documents, absent genre)
    serialize as empty fields.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("id", "genre") + FEATURE_NAMES)
    rows = 0
    for doc in documents:
        row = extract_meta(doc, lexicon)
        writer.writerow([doc.id, doc.genre, *row])
        rows += 1
    return rows
