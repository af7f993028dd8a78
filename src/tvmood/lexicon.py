"""Affect lexicon parsing, normalization, and lookup.

A lexicon file is a CSV with one header line and seven columns:

    word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd

Ratings arrive on the raw [1, 9] scale used by ANEW-style word norms and are
normalized to [0, 1] at parse time: means via ``(x - 1) / 8``, standard
deviations via ``x / 8`` (sd is translation-invariant, so only the scale
factor applies). Words are lowercased at parse time. A parsed lexicon is
one flat ``table`` from word to (valence, arousal, dominance) means, all
that scoring reads; ``sds`` keeps the standard deviations for output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, cycle, islice
from typing import Iterable, Iterator, Optional, TextIO

RAW_MIN = 1.0
RAW_MAX = 9.0
RAW_SPAN = RAW_MAX - RAW_MIN

LEXICON_HEADER = (
    "word",
    "valence_mean",
    "valence_sd",
    "arousal_mean",
    "arousal_sd",
    "dominance_mean",
    "dominance_sd",
)


class LexiconError(ValueError):
    """Raised for malformed or inconsistent lexicon data."""


def normalize_rating(raw: float) -> float:
    """Map a raw rating on the [1, 9] scale to [0, 1] via (raw - 1) / 8."""
    if not RAW_MIN <= raw <= RAW_MAX:
        raise LexiconError(f"rating {raw!r} is outside the [1, 9] scale")
    return (raw - RAW_MIN) / RAW_SPAN


def normalize_sd(raw_sd: float) -> float:
    """Scale a raw standard deviation by 1/8; no offset is applied."""
    if not 0.0 <= raw_sd < math.inf:
        raise LexiconError(f"standard deviation {raw_sd!r} is not finite and non-negative")
    return raw_sd / RAW_SPAN


def _check_words(words: list[str]) -> None:
    joined = " ".join(words)  # checked in C; the loop names a bad word
    if joined.split() == words and joined == joined.lower():
        return
    for word in words:
        if not word:
            raise ValueError("word is empty")
        if any(ch.isspace() for ch in word):
            raise ValueError(f"word {word!r} contains whitespace")
        if word != word.lower():
            raise ValueError(f"word {word!r} is not lowercase")


@dataclass(frozen=True, slots=True)
class AffectLexicon:
    """Immutable word tables; safe for unrestricted concurrent reads.

    ``table`` maps each word (non-empty, lowercase, no whitespace) to its
    normalized (valence, arousal, dominance) means in [0, 1], and ``sds``
    maps the same words to their finite, non-negative normalized sds.
    """

    table: dict[str, tuple[float, float, float]]
    sds: dict[str, tuple[float, float, float]]

    def __post_init__(self) -> None:
        _check_words(list(self.table))
        if self.sds.keys() != self.table.keys():
            raise ValueError("the mean and sd tables hold different words")
        for kind, rows, high in (("means", self.table, 1.0), ("sds", self.sds, math.inf)):
            values = list(chain.from_iterable(rows.values()))
            # a finite sum has only finite terms, so then min and max are reliable
            fine = set(map(len, rows.values())) <= {3} and math.isfinite(sum(values))
            if fine and 0.0 <= min(values, default=0.0) and max(values, default=0.0) <= high:
                continue
            for word, t in rows.items():
                if len(t) != 3 or not all(0.0 <= x < math.inf and x <= high for x in t):
                    what = f"three finite values in [0, {high:g}]"
                    raise ValueError(f"word {word!r}: {kind} {t!r} are not {what}")

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.table

    def lookup(self, token: str) -> Optional[tuple[float, float, float]]:
        """Case-insensitive lookup of the means. Returns None for unknown tokens."""
        return self.table.get(token.lower())

    def words(self) -> list[str]:
        """All lexicon words in sorted order."""
        return sorted(self.table)


def _parse_columns(rows: Iterator[list[str]]) -> AffectLexicon:
    """Parse rows by columns, 128 rows at a time; ValueError on any fault."""
    table: dict[str, tuple[float, float, float]] = {}
    sds: dict[str, tuple[float, float, float]] = {}
    count = 0
    while block := list(islice(rows, 128)):
        words, *cells = zip(*block)
        raw_sds = [list(map(float, column)) for column in cells[1::2]]
        # a tiny negative sd scales to -0.0, which the lexicon itself accepts
        if set(map(len, block)) != {7} or min(chain(*raw_sds)) < 0.0:
            raise ValueError("not seven columns, or a negative sd")
        words = [word.strip().lower() for word in words]
        means = [[(float(x) - RAW_MIN) / RAW_SPAN for x in column] for column in cells[0::2]]
        table.update(zip(words, zip(*means)))
        sds.update(zip(words, zip(*([x / RAW_SPAN for x in column] for column in raw_sds))))
        count += len(block)
    if not table or len(table) != count:
        raise ValueError("no rows or a duplicate word")
    return AffectLexicon(table, sds)


def _parse_rows(reader: Iterator[list[str]]) -> AffectLexicon:
    """Parse row by row; the first fault raises a LexiconError naming its line."""
    table: dict[str, tuple[float, ...]] = {}
    sds: dict[str, tuple[float, ...]] = {}
    seen: dict[str, int] = {}  # word -> its line
    header = next(reader, None)
    if header is None:
        raise LexiconError("empty lexicon file: missing header line")
    if tuple(col.strip().lower() for col in header) != LEXICON_HEADER:
        expected = ",".join(LEXICON_HEADER)
        raise LexiconError(f"unexpected header {','.join(header)!r}; expected {expected!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 7:
            raise LexiconError(f"line {lineno}: expected 7 columns, found {len(row)}")
        raw: list[float] = []
        for column, cell in zip(LEXICON_HEADER[1:], row[1:]):
            try:
                raw.append(float(cell))
            except ValueError:
                raise LexiconError(f"line {lineno}: non-numeric {column} value {cell!r}") from None
        word = row[0].strip().lower()
        try:
            scales = cycle((normalize_rating, normalize_sd))
            values = [scale(value) for scale, value in zip(scales, raw)]
            _check_words([word])
        except ValueError as exc:
            raise LexiconError(f"line {lineno}: {exc}") from None
        if word in seen:
            raise LexiconError(f"duplicate word {word!r} at lines {seen[word]} and {lineno}")
        seen[word] = lineno
        table[word], sds[word] = tuple(values[0::2]), tuple(values[1::2])
    if not table:
        raise LexiconError("lexicon contains no entries")
    return AffectLexicon(table, sds)


def parse_lexicon(source: str | TextIO | Iterable[str]) -> AffectLexicon:
    """Parse lexicon CSV content into an :class:`AffectLexicon`.

    ``source`` may be CSV text, an open text file, or an iterable of lines.
    Raises :class:`LexiconError` on a missing or wrong header, a malformed
    row (wrong column count, non-numeric or out-of-range rating), a
    duplicate word, or an empty lexicon. Error messages carry 1-based line
    numbers. Whole columns are checked at once; only a lexicon that fails
    is parsed again row by row, to name its first bad line.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    reader = csv.reader(lines)
    with contextlib.suppress(ValueError, csv.Error):
        if tuple(col.strip().lower() for col in next(reader, ())) == LEXICON_HEADER:
            return _parse_columns(filter(None, reader))
    reader = csv.reader(lines)  # from the top again, to name the first fault's line
    try:
        return _parse_rows(reader)
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise LexiconError(f"line {reader.line_num}: {exc}") from None


def serialize_lexicon(lexicon: AffectLexicon) -> str:
    """Render a lexicon back to CSV text on the raw [1, 9] scale.

    ``parse_lexicon(serialize_lexicon(lex))`` reproduces ``lex`` exactly:
    the scale maps are affine with a power-of-two slope, so no precision is
    lost in either direction.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(LEXICON_HEADER)
    for word, means in lexicon.table.items():
        fields = [word]
        for mean, sd in zip(means, lexicon.sds[word]):
            fields += (repr(mean * RAW_SPAN + RAW_MIN), repr(sd * RAW_SPAN))
        writer.writerow(fields)
    return buffer.getvalue()


def load_lexicon(path: str) -> AffectLexicon:
    """Read and parse a lexicon CSV file (UTF-8)."""
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_lexicon(handle)
