"""Frequency-weighted affect scoring for documents, channels, and time windows.

Every score is a weighted mean over the terms a text shares with the
lexicon: each matched term contributes its lexicon mean once per
occurrence. Channel and window scores pool term counts across documents
first and score the pooled map, so longer documents weigh more. Each score
also carries each dimension's sd: the weighted population standard
deviation of the term-value distribution (divide by total matched tokens,
not n-1).
Pooling takes one pass over the documents and keeps only the pooled
counts, never a document.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import sys
from datetime import datetime, timedelta
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional, TypeVar

from .corpus import Document, check_counts, count_total, format_timestamp
from .lexicon import AffectLexicon
from .record import Record

DIMENSIONS = ("valence", "arousal", "dominance")

K = TypeVar("K", bound=Hashable)


class NoSignalError(ValueError):
    """No token matched the lexicon, so the weighted mean is undefined."""


class AffectScore(NamedTuple):
    """Weighted-mean affect of one text, channel, or window: the three means,
    their weighted population sds, then the match counts, in the column
    order of the ``score`` CSV."""

    valence: float
    arousal: float
    dominance: float
    valence_sd: float
    arousal_sd: float
    dominance_sd: float
    matched_distinct_terms: int
    matched_token_total: int


# the value columns of every score CSV: the three means, then the three sds
VALUE_COLUMNS = AffectScore._fields[:6]

SERIES_CSV_HEADER = ("channel", "window_start", *VALUE_COLUMNS, "matched_tokens")


class SeriesPoint(NamedTuple):
    """One window of an affect series; ``score is None`` marks a gap."""

    start: datetime
    score: Optional[AffectScore]

    @property
    def is_gap(self) -> bool:
        return self.score is None


class AffectSeries(Record):
    """One channel's windows, strictly ordered by start."""

    _fields = ("channel", "window_length", "points")
    __slots__ = _fields

    def __init__(
        self, channel: str, window_length: timedelta, points: tuple[SeriesPoint, ...]
    ) -> None:
        super().__init__(channel, window_length, points)
        starts = [point.start for point in self.points]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("series points must be strictly ordered by start")


class MatchStats(NamedTuple):
    """The lexicon terms one term map matches, and their weighted statistics.

    ``counts[i]`` is the count of the i-th matched term (in map order) and
    ``values[d][i]`` its lexicon mean on dimension ``DIMENSIONS[d]``;
    ``low`` and ``high`` hold each dimension's smallest and largest value.
    """

    counts: list[int]
    values: tuple[tuple[float, ...], ...]
    low: tuple[float, ...]
    high: tuple[float, ...]
    score: AffectScore


def match_stats(
    term_counts: Mapping[str, int], lexicon: AffectLexicon
) -> Optional[MatchStats]:
    """Frequency-weighted statistics of the terms a map shares with the lexicon.

    Terms must be lowercase, as a :class:`~tvmood.corpus.Document` keeps
    them: one membership pass over the lexicon's table finds the matches.
    Each dimension's mean is sum(count * value) / sum(count) and its sd the
    weighted population sd, both summed exactly with ``math.fsum``; the
    total is :func:`~tvmood.corpus.count_total`.
    Returns None when no term matches.
    """
    table = lexicon.table
    matched = [term for term in term_counts if term in table]
    if not matched:
        return None
    counts = list(map(term_counts.__getitem__, matched))
    values = tuple(zip(*map(table.__getitem__, matched)))
    total = count_total(counts)
    low = tuple(map(min, values))
    high = tuple(map(max, values))
    means = []
    sds = []
    for column, lo, hi in zip(values, low, high):
        mean = math.fsum(map(operator.mul, counts, column)) / total
        # the true mean lies within the matched value range; clamp float dust
        mean = min(max(mean, lo), hi)
        deviations = [value - mean for value in column]
        squares = map(operator.mul, counts, map(operator.mul, deviations, deviations))
        variance = math.fsum(squares) / total
        means.append(mean)
        sds.append(math.sqrt(variance) if variance > 0 else 0.0)
    return MatchStats(counts, values, low, high, AffectScore(*means, *sds, len(counts), total))


def _pool_matched(
    documents: Iterable[Document], lexicon: AffectLexicon, key: Callable[[Document], K]
) -> dict[K, dict[str, int]]:
    """One pass: the counts of the lexicon's terms, pooled per ``key(document)``.

    Every key gets a pool, also when none of its terms match; no other term
    is kept, since no other term can match. Terms are interned, so the pools
    share one string per term and keep no document's strings alive.
    """
    table = lexicon.table
    intern = sys.intern
    pools: dict[K, dict[str, int]] = {}
    for doc in documents:
        pool = pools.get(slot := key(doc))
        if pool is None:
            pool = pools[slot] = {}
        for term, count in doc.term_counts.items():
            if term in table:
                term = intern(term)
                pool[term] = pool.get(term, 0) + count
    return pools


def score_counts(term_counts: Mapping[str, int], lexicon: AffectLexicon) -> AffectScore:
    """Score one term-count map: its means, their weighted sds and its match counts.

    For each dimension the mean is sum(count * lexicon mean) / sum(count)
    over the terms present in both the map and the lexicon. The map must
    meet :func:`~tvmood.corpus.check_counts`' contract, whose ValueError
    names a bad count's term. Raises :class:`NoSignalError` when nothing
    matches.
    """
    check_counts(term_counts)
    stats = match_stats(term_counts, lexicon)
    if stats is None:
        raise NoSignalError("no term matched the lexicon")
    return stats.score


def pool_channels(
    documents: Iterable[Document], lexicon: AffectLexicon
) -> dict[str, dict[str, int]]:
    """Each channel's matched term counts, pooled in one pass, in sorted
    channel order.

    A channel is scored by :func:`score_counts` of its pool, so a channel
    score is not an average of per-document scores: documents contribute in
    proportion to their matched token counts. A channel whose documents
    match nothing gets an empty pool.
    """
    pools = _pool_matched(documents, lexicon, lambda doc: doc.channel)
    return dict(sorted(pools.items()))


def _timestamp(doc: Document) -> datetime:
    if doc.timestamp is None:
        raise ValueError(
            f"document {doc.id!r} has no timestamp; windowed scoring requires one"
        )
    return doc.timestamp


def score_windows(
    documents: Iterable[Document],
    lexicon: AffectLexicon,
    window_length: timedelta,
    origin: datetime,
) -> list[AffectSeries]:
    """Score every channel over consecutive half-open time windows, in one pass.

    Documents are pooled per (channel, window index) into windows
    ``[origin + k*length, origin + (k+1)*length)`` and each occupied window
    is scored from its pooled counts. Windows between a channel's first and
    last occupied ones that have no documents, or no lexicon matches,
    appear as gap points rather than fabricated values. Series come in
    sorted channel order, one per channel that has documents. ``origin``
    must be timezone-aware, as every document timestamp is.
    """
    if window_length <= timedelta(0):
        raise ValueError("window_length must be positive")
    if origin.tzinfo is None:
        raise ValueError("origin is naive")
    pools = _pool_matched(
        documents, lexicon, lambda doc: (doc.channel, (_timestamp(doc) - origin) // window_length)
    )
    indices: dict[str, list[int]] = {}
    for channel, index in pools:
        indices.setdefault(channel, []).append(index)
    series = []
    for channel in sorted(indices):
        points = []
        for index in range(min(indices[channel]), max(indices[channel]) + 1):
            try:
                start = origin + index * window_length
            except OverflowError:
                raise ValueError(
                    f"channel {channel!r}: window {index} from origin "
                    f"{format_timestamp(origin)} starts outside the datetime range"
                ) from None
            stats = match_stats(pools.get((channel, index), {}), lexicon)
            points.append(SeriesPoint(start, None if stats is None else stats.score))
        series.append(AffectSeries(channel, window_length, tuple(points)))
    return series


def series_to_csv(series_list: list[AffectSeries]) -> str:
    """Render affect series as CSV, the values as exact ``repr`` fields; gap
    windows emit empty value fields."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SERIES_CSV_HEADER)
    for series in series_list:
        for point in series.points:
            score = point.score
            values = [None] * 7 if score is None else [*score[:6], score.matched_token_total]
            writer.writerow([series.channel, format_timestamp(point.start), *values])
    return buffer.getvalue()
