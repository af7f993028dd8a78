"""Affect lexicon parsing and normalization.

A lexicon file is a CSV with one header line and seven columns:

    word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd

Ratings arrive on the raw [1, 9] scale used by ANEW-style word norms and are
normalized to [0, 1]: means via ``(x - 1) / 8``, standard deviations via
``x / 8`` (sd is translation-invariant). ``parse_lexicon`` lowercases words
and reads the file in one pass of rows; each error names the file line on
which its row starts. A parsed lexicon is one flat ``table`` from word to
(valence, arousal, dominance) means. The standard deviations are checked
but not kept: no feature, score or output reads them.
"""

from __future__ import annotations

import csv
import io
from array import array
from itertools import chain, cycle
from operator import eq
from typing import Iterable, TextIO

from .corpus import MAX_FLOAT, tokenize
from .record import Record

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
    if not 0.0 <= raw_sd <= MAX_FLOAT:
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


class AffectLexicon(Record):
    """An immutable word table; safe for unrestricted concurrent reads.

    ``table`` maps each word (non-empty, lowercase, no whitespace) to its
    normalized (valence, arousal, dominance) means in [0, 1].
    """

    _fields = ("table",)
    __slots__ = _fields

    def __init__(
        self,
        table: dict[str, tuple[float, float, float]],
        # True only from a producer in this package that checked the words and values
        _checked: bool = False,
    ) -> None:
        super().__init__(table)
        if _checked:
            return
        _check_words(list(self.table))
        values = list(chain.from_iterable(self.table.values()))
        # without a NaN, the one value that differs from itself, min and max are reliable
        fine = set(map(len, self.table.values())) <= {3} and all(map(eq, values, values))
        if fine and 0.0 <= min(values, default=0.0) and max(values, default=0.0) <= 1.0:
            return
        for word, t in self.table.items():
            if len(t) != 3 or not all(0.0 <= x <= 1.0 for x in t):
                what = "three finite values in [0, 1]"
                raise ValueError(f"word {word!r}: means {t!r} are not {what}")

    def __len__(self) -> int:
        return len(self.table)

    def words(self) -> list[str]:
        """All lexicon words in sorted order."""
        return sorted(self.table)


def text_unmatchable(lexicon: AffectLexicon) -> list[str]:
    """The words, in table order, that are not one text token, such as
    ``well-being``, ``'tis`` or ``a_b``: :func:`~tvmood.corpus.tokenize`
    splits or trims them, so only a counts-mode corpus can match them."""
    words = list(lexicon.table)
    if tokenize(" ".join(words)) == words:  # checked in C; the scan finds the words
        return []
    return [word for word in words if tokenize(word) != [word]]


def _check_row(row: list[str], line: int) -> None:
    """Raise a LexiconError for the first fault of a row, in column order."""
    try:
        if len(row) != 7:
            raise ValueError(f"expected 7 columns, found {len(row)}")
        for column, cell in zip(LEXICON_HEADER[1:], row[1:]):
            try:
                float(cell)
            except ValueError:
                raise ValueError(f"non-numeric {column} value {cell!r}") from None
        for scale, cell in zip(cycle((normalize_rating, normalize_sd)), row[1:]):
            scale(float(cell))
        _check_words([row[0].strip().lower()])
    except ValueError as exc:
        raise LexiconError(f"line {line}: {exc}") from None


def parse_lexicon(source: str | TextIO | Iterable[str]) -> AffectLexicon:
    """Parse lexicon CSV text, an open text file, or an iterable of lines.

    Text is split into lines as :func:`load_lexicon` splits its file. Raises
    :class:`LexiconError` on a missing or wrong header, a malformed row
    (column count, rating or word), a duplicate word, or an empty lexicon;
    each error names the 1-based file line on which its row starts.
    """
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)
    table: dict[str, tuple[float, float, float]] = {}
    starts = array("q")  # each word's line; a list's int objects would raise peak RSS
    line = 0  # lines read so far
    try:
        header = next(reader, None)
        if header is None:
            raise LexiconError("empty lexicon file: missing header line")
        if tuple(col.strip().lower() for col in header) != LEXICON_HEADER:
            expected = ",".join(LEXICON_HEADER)
            raise LexiconError(f"unexpected header {','.join(header)!r}; expected {expected!r}")
        line = reader.line_num
        for row in reader:
            start, line = line + 1, reader.line_num
            if not row:
                continue
            try:
                word, v, vs, a, as_, d, ds = row
                v, vs, a, as_, d, ds = (
                    float(v), float(vs), float(a), float(as_), float(d), float(ds)
                )
            except ValueError:  # a wrong column count or a non-numeric cell
                _check_row(row, start)
            word = word.strip().lower()
            # the checks of normalize_rating, normalize_sd and _check_words, inline
            if not (
                1.0 <= v <= 9.0 and 1.0 <= a <= 9.0 and 1.0 <= d <= 9.0
                and 0.0 <= vs <= MAX_FLOAT and 0.0 <= as_ <= MAX_FLOAT and 0.0 <= ds <= MAX_FLOAT
                and word.split() == [word]
            ):
                _check_row(row, start)
            if word in table:
                first = starts[list(table).index(word)]
                raise LexiconError(f"duplicate word {word!r} at lines {first} and {start}")
            starts.append(start)
            table[word] = (
                (v - RAW_MIN) / RAW_SPAN, (a - RAW_MIN) / RAW_SPAN, (d - RAW_MIN) / RAW_SPAN
            )
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise LexiconError(f"line {line + 1}: {exc}") from None
    if not table:
        raise LexiconError("lexicon contains no entries")
    return AffectLexicon(table, True)


def load_lexicon(path: str) -> AffectLexicon:
    """Read and parse a lexicon CSV file (UTF-8)."""
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_lexicon(handle)
