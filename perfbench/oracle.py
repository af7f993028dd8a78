"""Output checks computed from the generator's own counts and ratings.

Nothing here imports tvmood. Each ``check_*`` function takes the bytes a
command wrote and returns a list of problems; an empty list means the
output is correct. Count columns must match exactly and float columns
within ``TOLERANCE``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from datetime import timedelta
from typing import Iterable, Optional

from gen import Corpus, Lexicon

TOLERANCE = 1e-12
MIN_WEIGHTED_AUC = 0.80
WEEK = timedelta(weeks=1)
DIMENSIONS = ("valence", "arousal", "dominance")
SCORE_COLUMNS = tuple(DIMENSIONS) + tuple(f"{d}_sd" for d in DIMENSIONS) + (
    "matched_distinct_terms",
    "matched_tokens",
)
SERIES_HEADER = ("channel", "window_start") + SCORE_COLUMNS[:-2] + ("matched_tokens",)
FEATURE_HEADER = (
    ("id", "genre")
    + tuple(f"{d}_{s}" for d in DIMENSIONS for s in ("min", "max", "mean", "sd", "median"))
    + ("num_words", "num_unique_words", "num_unique_anew_words", "max_word_frequency")
)


def dimension_stats(pairs: list[tuple[float, int]]) -> tuple[float, ...]:
    """(min, max, mean, population sd, lower weighted median) of a weighted multiset."""
    total = sum(weight for _, weight in pairs)
    mean = math.fsum(value * weight for value, weight in pairs) / total
    variance = math.fsum(weight * (value - mean) ** 2 for value, weight in pairs) / total
    accumulated = 0
    for value, weight in sorted(pairs):
        accumulated += weight
        if 2 * accumulated >= total:
            median = value
            break
    return (
        min(value for value, _ in pairs),
        max(value for value, _ in pairs),
        mean,
        math.sqrt(variance),
        median,
    )


class Oracle:
    """Expected outputs for one generated lexicon and corpus."""

    def __init__(self, lexicon: Lexicon, corpus: Optional[Corpus] = None):
        self.lexicon = lexicon
        self.means = lexicon.normalized_means()
        self.corpus = corpus
        self._stats: dict[str, Optional[list[tuple[float, ...]]]] = {}

    def matched(self, counts: dict[str, int]) -> list[tuple[tuple[float, ...], int]]:
        means = self.means
        return [(means[term], count) for term, count in counts.items() if term in means]

    def stats(self, counts: dict[str, int]) -> Optional[list[tuple[float, ...]]]:
        """``dimension_stats`` per dimension over the matched terms, or None."""
        matched = self.matched(counts)
        if not matched:
            return None
        return [dimension_stats([(values[dim], count) for values, count in matched]) for dim in range(3)]

    def doc_stats(self, doc) -> Optional[list[tuple[float, ...]]]:
        if doc.id not in self._stats:
            self._stats[doc.id] = self.stats(doc.counts)
        return self._stats[doc.id]

    def score(self, counts: dict[str, int], stats: Optional[list] = None) -> Optional[list]:
        """Expected score cells: three means, three sds, distinct, tokens."""
        stats = stats or self.stats(counts)
        if stats is None:
            return None
        matched = self.matched(counts)
        return [s[2] for s in stats] + [s[3] for s in stats] + [
            len(matched), sum(count for _, count in matched)
        ]

    def match_ratio(self) -> float:
        tokens = matched = 0
        for doc in self.corpus.docs:
            for term, count in doc.counts.items():
                tokens += count
                if term in self.means:
                    matched += count
        return matched / tokens

    # -- lexicon-validate --------------------------------------------------

    def check_validate(self, stdout: bytes) -> list[str]:
        ranges = []
        for dim, name in enumerate(DIMENSIONS):
            values = [means[dim] for means in self.means.values()]
            ranges.append(f"{name} [{min(values):.4f}, {max(values):.4f}]")
        expected = f"{len(self.means)} entries; " + "; ".join(ranges) + "\n"
        got = stdout.decode("utf-8", "replace")
        return [] if got == expected else [f"lexicon-validate printed {got!r}, expected {expected!r}"]

    # -- score -------------------------------------------------------------

    def check_channels(self, data: bytes) -> list[str]:
        pooled: dict[str, Counter] = {}
        for doc in self.corpus.docs:
            pooled.setdefault(doc.channel, Counter()).update(doc.counts)
        expected = [(channel, self.score(pooled[channel])) for channel in sorted(pooled)]
        return _check_score_table(data, ("channel",), [((key,), cells) for key, cells in expected])

    def check_per_document(self, data: bytes) -> list[str]:
        expected = [
            ((doc.id, doc.channel), self.score(doc.counts, self.doc_stats(doc)))
            for doc in self.corpus.docs
        ]
        return _check_score_table(data, ("id", "channel"), expected)

    def series(self) -> list[tuple[str, str, Optional[list]]]:
        """Expected (channel, window start, cells or None for a gap) rows."""
        first = min(doc.timestamp for doc in self.corpus.docs)
        origin = first.replace(hour=0, minute=0, second=0)
        buckets: dict[str, dict[int, Counter]] = {}
        for doc in self.corpus.docs:
            index = (doc.timestamp - origin) // WEEK
            buckets.setdefault(doc.channel, {}).setdefault(index, Counter()).update(doc.counts)
        rows = []
        for channel in sorted(buckets):
            windows = buckets[channel]
            for index in range(min(windows), max(windows) + 1):
                start = (origin + index * WEEK).strftime("%Y-%m-%dT%H:%M:%SZ")
                cells = self.score(windows[index]) if index in windows else None
                rows.append((channel, start, cells))
        return rows

    def check_series(self, data: bytes) -> list[str]:
        rows = _rows(data)
        problems = _expect(rows[:1], [list(SERIES_HEADER)], "series header")
        expected = self.series()
        if len(rows) - 1 != len(expected):
            return problems + [f"series has {len(rows) - 1} rows, expected {len(expected)}"]
        for row, (channel, start, cells) in zip(rows[1:], expected):
            where = f"series row {channel} {start}"
            problems += _expect([row[:2]], [[channel, start]], where)
            if cells is None:
                problems += _expect([row[2:]], [[""] * 7], where + " (gap)")
            else:
                problems += _cells(row[2:], cells[:6] + cells[7:], where)
        return problems

    # -- features ----------------------------------------------------------

    def feature_row(self, doc) -> list:
        stats = self.doc_stats(doc)
        cells: list = [value for dim in stats for value in dim] if stats else [None] * 15
        matched = self.matched(doc.counts)
        return cells + [
            sum(doc.counts.values()),
            len(doc.counts),
            len(matched),
            max(doc.counts.values(), default=0),
        ]

    def check_features(self, data: bytes) -> list[str]:
        rows = _rows(data)
        problems = _expect(rows[:1], [list(FEATURE_HEADER)], "feature header")
        docs = self.corpus.docs
        if len(rows) - 1 != len(docs):
            return problems + [f"features has {len(rows) - 1} rows, expected {len(docs)}"]
        for row, doc in zip(rows[1:], docs):
            where = f"features row {doc.id}"
            problems += _expect([row[:2]], [[doc.id, doc.genre or ""]], where)
            problems += _cells(row[2:], self.feature_row(doc), where)
        return problems


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def _expect(got: list, expected: list, where: str) -> list[str]:
    return [] if got == expected else [f"{where}: got {got!r}, expected {expected!r}"]


def _cells(row: list[str], expected: list, where: str) -> list[str]:
    """Compare CSV cells: None is an empty field, ints exact, floats within tolerance."""
    if len(row) != len(expected):
        return [f"{where}: {len(row)} cells, expected {len(expected)}"]
    for position, (cell, want) in enumerate(zip(row, expected)):
        if want is None:
            ok = cell == ""
        elif isinstance(want, int):
            ok = cell == str(want)
        else:
            try:
                ok = abs(float(cell) - want) <= TOLERANCE
            except ValueError:
                ok = False
        if not ok:
            return [f"{where}: cell {position} is {cell!r}, expected {want!r}"]
    return []


def _check_score_table(
    data: bytes, keys: tuple[str, ...], expected: Iterable[tuple[tuple[str, ...], Optional[list]]]
) -> list[str]:
    rows = _rows(data)
    scored = [(key, cells) for key, cells in expected if cells is not None]
    skipped = [[key[0], "no lexicon matches"] for key, cells in expected if cells is None]
    want_rows = 1 + len(scored) + (2 + len(skipped) if skipped else 0)
    if len(rows) != want_rows:
        return [f"score table has {len(rows)} rows, expected {want_rows}"]
    problems = _expect(rows[:1], [list(keys + SCORE_COLUMNS)], "score header")
    for row, (key, cells) in zip(rows[1:], scored):
        problems += _expect([row[: len(key)]], [list(key)], "score row key")
        problems += _cells(row[len(key):], cells, f"score row {key[0]}")
    if skipped:
        tail = rows[1 + len(scored):]
        problems += _expect(tail, [[], ["skipped_id", "reason"]] + skipped, "skipped section")
    return problems


def check_report(
    json_data: bytes, csv_data: bytes, supports: dict[str, int], representation: str, model: str
) -> list[str]:
    """Evaluate report: finite, consistent with the corpus, and informative."""
    try:
        report = json.loads(json_data)
        classes = report["classes"]
        weighted = report["weighted_average"]
        order = report["confusion"]["class_order"]
        matrix = report["confusion"]["matrix"]
        config = report["config"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report JSON is malformed: {exc!r}"]
    problems = _expect(
        [config.get("representation"), config.get("model")], [representation, model], "report config"
    )
    labels = sorted(supports)
    problems += _expect([m.get("label") for m in classes], labels, "report classes")
    problems += _expect(order, labels, "confusion class order")
    problems += _expect([m.get("support") for m in classes], [supports[l] for l in labels], "supports")
    problems += _expect([sum(row) for row in matrix], [supports[l] for l in labels], "confusion row sums")
    values = [m.get(key) for m in classes for key in ("tp_rate", "fp_rate", "auc")]
    values += [weighted.get(key) for key in ("tp_rate", "fp_rate", "auc")]
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        problems.append(f"report has a non-finite rate: {values!r}")
    elif weighted["auc"] < MIN_WEIGHTED_AUC:
        problems.append(f"weighted AUC {weighted['auc']!r} is below {MIN_WEIGHTED_AUC}")
    else:
        table = [["genre", "tp_rate", "fp_rate", "auc"]]
        for m in classes:
            table.append([m["label"]] + [repr(m[key]) for key in ("tp_rate", "fp_rate", "auc")])
        table.append(["weighted_average"] + [repr(weighted[k]) for k in ("tp_rate", "fp_rate", "auc")])
        problems += _expect(_rows(csv_data), table, "report CSV")
    return problems


def check_synth(data: bytes, profiles: list[dict], lexicon: Lexicon) -> list[str]:
    """Per-genre document counts as requested, lengths in range, lexicon terms only."""
    words = set(lexicon.words)
    ranges = {p["label"]: p["token_range"] for p in profiles}
    per_genre: Counter[str] = Counter()
    ids = set()
    problems: list[str] = []
    for line in data.decode("utf-8").splitlines():
        record = json.loads(line)
        ids.add(record["id"])
        genre = record.get("genre")
        per_genre[genre] += 1
        counts = record["term_counts"]
        low, high = ranges.get(genre, (1, 0))
        if not low <= sum(counts.values()) <= high or not words.issuperset(counts):
            problems.append(f"synth document {record['id']} has bad counts")
            break
    if len(ids) != sum(per_genre.values()):
        problems.append("synth ids are not distinct")
    requested = {p["label"]: p["document_count"] for p in profiles}
    return problems + _expect(dict(per_genre), requested, "synth documents per genre")
