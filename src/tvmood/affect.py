"""Frequency-weighted affect scoring for documents, channels, and time windows.

Every score is a weighted mean over the terms a text shares with the
lexicon: each matched term contributes its lexicon mean once per
occurrence. Channel and window scores pool term counts across documents
first and score the pooled map, so longer documents weigh more, and the
reported spread is the weighted population standard deviation of the
term-value distribution (divide by total matched tokens, not n-1).
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Mapping, Optional

from .corpus import Corpus, format_timestamp
from .lexicon import AffectLexicon

DIMENSIONS = ("valence", "arousal", "dominance")

SERIES_CSV_HEADER = (
    "channel",
    "window_start",
    "valence",
    "arousal",
    "dominance",
    "valence_sd",
    "arousal_sd",
    "dominance_sd",
    "matched_tokens",
)


class NoSignalError(ValueError):
    """No token matched the lexicon, so the weighted mean is undefined."""


@dataclass(frozen=True, slots=True)
class AffectScore:
    """Weighted-mean affect of one text, channel, or window."""

    valence: float
    arousal: float
    dominance: float
    matched_distinct_terms: int
    matched_token_total: int


@dataclass(frozen=True, slots=True)
class AffectSpread:
    """Per-dimension weighted population standard deviation."""

    valence: float
    arousal: float
    dominance: float


@dataclass(frozen=True, slots=True)
class SeriesPoint:
    """One window of an affect series; ``score is None`` marks a gap."""

    start: datetime
    score: Optional[AffectScore]
    spread: Optional[AffectSpread]

    @property
    def is_gap(self) -> bool:
        return self.score is None


@dataclass(frozen=True, slots=True)
class AffectSeries:
    channel: str
    window_length: timedelta
    points: tuple[SeriesPoint, ...]

    def __post_init__(self) -> None:
        starts = [point.start for point in self.points]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("series points must be strictly ordered by start")


@dataclass(frozen=True, slots=True)
class MatchStats:
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
    spread: AffectSpread


def match_stats(
    term_counts: Mapping[str, int], lexicon: AffectLexicon
) -> Optional[MatchStats]:
    """Frequency-weighted statistics of the terms a map shares with the lexicon.

    Terms must be lowercase, as a :class:`~tvmood.corpus.Document` keeps
    them: one membership pass over the lexicon's table finds the matches.
    Each dimension's mean is sum(count * value) / sum(count) and its spread
    the weighted population sd, both summed exactly with ``math.fsum``.
    Returns None when no term matches.
    """
    table = lexicon.table
    matched = [term for term in term_counts if term in table]
    if not matched:
        return None
    counts = list(map(term_counts.__getitem__, matched))
    values = tuple(zip(*map(table.__getitem__, matched)))
    total = sum(counts)
    low = tuple(map(min, values))
    high = tuple(map(max, values))
    means = []
    sds = []
    for column, lo, hi in zip(values, low, high):
        mean = math.fsum(map(operator.mul, counts, column)) / total
        # the true mean lies within the matched value range; clamp float dust
        mean = min(max(mean, lo), hi)
        squares = (count * (value - mean) ** 2 for count, value in zip(counts, column))
        variance = math.fsum(squares) / total
        means.append(mean)
        sds.append(math.sqrt(variance) if variance > 0 else 0.0)
    score = AffectScore(*means, len(counts), total)
    return MatchStats(counts, values, low, high, score, AffectSpread(*sds))


def _pool_matched(into: dict[str, int], counts: Mapping[str, int], lexicon: AffectLexicon) -> None:
    """Add the counts of the lexicon's terms to ``into``; no other term can match."""
    table = lexicon.table
    for term, count in counts.items():
        if term in table:
            into[term] = into.get(term, 0) + count


def score_counts(
    term_counts: Mapping[str, int], lexicon: AffectLexicon
) -> tuple[AffectScore, AffectSpread]:
    """Score one term-count map; return the score and its weighted spread.

    For each dimension the score is sum(count * lexicon mean) / sum(count)
    over the terms present in both the map and the lexicon. Raises
    :class:`NoSignalError` when nothing matches.
    """
    stats = match_stats(term_counts, lexicon)
    if stats is None:
        raise NoSignalError("no term matched the lexicon")
    return stats.score, stats.spread


def score_channel(
    corpus: Corpus, channel: str, lexicon: AffectLexicon
) -> tuple[AffectScore, AffectSpread]:
    """Score one channel by pooling term counts across all its documents.

    Pooling happens before scoring, so this is not an average of per-document
    scores: documents contribute in proportion to their matched token counts.
    """
    docs = corpus.by_channel(channel)
    if not docs:
        raise NoSignalError(f"no documents for channel {channel!r}")
    pooled: dict[str, int] = {}
    for doc in docs:
        _pool_matched(pooled, doc.term_counts, lexicon)
    stats = match_stats(pooled, lexicon)
    if stats is None:
        raise NoSignalError(f"channel {channel!r} has no terms matching the lexicon")
    return stats.score, stats.spread


def score_windows(
    corpus: Corpus,
    channel: str,
    lexicon: AffectLexicon,
    window_length: timedelta,
    origin: datetime,
) -> AffectSeries:
    """Score a channel over consecutive half-open time windows.

    Documents are bucketed into windows ``[origin + k*length, origin +
    (k+1)*length)`` and each occupied window is scored from its pooled
    counts. Windows between the first and last occupied ones that have no
    documents, or no lexicon matches, appear as gap points rather than
    fabricated values. A channel with no documents yields an empty series.
    """
    if window_length <= timedelta(0):
        raise ValueError("window_length must be positive")
    buckets: dict[int, dict[str, int]] = defaultdict(dict)
    for doc in corpus.by_channel(channel):
        if doc.timestamp is None:
            raise ValueError(
                f"document {doc.id!r} has no timestamp; windowed scoring "
                f"requires one"
            )
        _pool_matched(buckets[(doc.timestamp - origin) // window_length], doc.term_counts, lexicon)
    if not buckets:
        return AffectSeries(channel, window_length, ())

    points = []
    for index in range(min(buckets), max(buckets) + 1):
        try:
            start = origin + index * window_length
        except OverflowError:
            raise ValueError(
                f"channel {channel!r}: window {index} from origin "
                f"{format_timestamp(origin)} starts outside the datetime range"
            ) from None
        stats = match_stats(buckets[index], lexicon) if index in buckets else None
        if stats is None:
            points.append(SeriesPoint(start, None, None))
        else:
            points.append(SeriesPoint(start, stats.score, stats.spread))
    return AffectSeries(channel, window_length, tuple(points))


def value_fields(score: AffectScore, spread: AffectSpread) -> list[str]:
    """The three means, then the three sds, as exact ``repr`` CSV fields."""
    return [repr(getattr(part, dim)) for part in (score, spread) for dim in DIMENSIONS]


def series_to_csv(series_list: list[AffectSeries]) -> str:
    """Render affect series as CSV; gap windows emit empty value fields."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SERIES_CSV_HEADER)
    for series in series_list:
        for point in series.points:
            row: list[str] = [series.channel, format_timestamp(point.start)]
            if point.is_gap:
                row.extend([""] * 7)
            else:
                row.extend(value_fields(point.score, point.spread))
                row.append(str(point.score.matched_token_total))
            writer.writerow(row)
    return buffer.getvalue()
