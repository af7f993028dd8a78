"""Affect lexicon parsing, normalization, and lookup.

A lexicon file is a CSV with one header line and seven columns:

    word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd

Ratings arrive on the raw [1, 9] scale used by ANEW-style word norms and are
normalized to [0, 1] at parse time: means via ``(x - 1) / 8``, standard
deviations via ``x / 8`` (sd is translation-invariant, so only the scale
factor applies). Words are lowercased at parse time and lookups lowercase
the query, so matching is case-insensitive throughout.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional, TextIO

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


@dataclass(frozen=True, slots=True)
class RatingStat:
    """Normalized mean and standard deviation for one affect dimension."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"mean {self.mean!r} is outside [0, 1]")
        if not 0.0 <= self.sd < math.inf:
            raise ValueError(f"sd {self.sd!r} is not finite and non-negative")


@dataclass(frozen=True, slots=True)
class AffectEntry:
    """Per-word valence, arousal, and dominance rating statistics."""

    word: str
    valence: RatingStat
    arousal: RatingStat
    dominance: RatingStat

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("word is empty")
        if any(ch.isspace() for ch in self.word):
            raise ValueError(f"word {self.word!r} contains whitespace")
        if self.word != self.word.lower():
            raise ValueError(f"word {self.word!r} is not lowercase")


@dataclass(frozen=True, slots=True)
class AffectLexicon:
    """Immutable word index; safe for unrestricted concurrent reads."""

    entries: dict[str, AffectEntry]

    def __post_init__(self) -> None:
        for word, entry in self.entries.items():
            if word != entry.word:
                raise ValueError(
                    f"key {word!r} does not match entry word {entry.word!r}"
                )

    @property
    def size(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.entries

    def lookup(self, token: str) -> Optional[AffectEntry]:
        """Case-insensitive lookup. Returns None for unknown tokens."""
        return self.entries.get(token.lower())

    def words(self) -> list[str]:
        """All lexicon words in sorted order."""
        return sorted(self.entries)


def parse_lexicon(source: str | TextIO | Iterable[str]) -> AffectLexicon:
    """Parse lexicon CSV content into an :class:`AffectLexicon`.

    ``source`` may be CSV text, an open text file, or an iterable of lines.
    Raises :class:`LexiconError` on a missing or wrong header, a malformed
    row (wrong column count, non-numeric or out-of-range rating), a
    duplicate word, or an empty lexicon. Error messages carry 1-based line
    numbers.
    """
    lines: Iterable[str]
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    reader = csv.reader(lines)

    header = next(reader, None)
    if header is None:
        raise LexiconError("empty lexicon file: missing header line")
    if tuple(col.strip().lower() for col in header) != LEXICON_HEADER:
        raise LexiconError(
            f"unexpected header {','.join(header)!r}; "
            f"expected {','.join(LEXICON_HEADER)!r}"
        )

    entries: dict[str, AffectEntry] = {}
    first_line: dict[str, int] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 7:
            raise LexiconError(
                f"line {line_no}: expected 7 columns, found {len(row)}"
            )
        word = row[0].strip().lower()
        raw: list[float] = []
        for column, cell in zip(LEXICON_HEADER[1:], row[1:]):
            try:
                raw.append(float(cell))
            except ValueError:
                raise LexiconError(
                    f"line {line_no}: non-numeric {column} value {cell!r}"
                ) from None
        try:
            entry = AffectEntry(
                word=word,
                valence=RatingStat(normalize_rating(raw[0]), normalize_sd(raw[1])),
                arousal=RatingStat(normalize_rating(raw[2]), normalize_sd(raw[3])),
                dominance=RatingStat(normalize_rating(raw[4]), normalize_sd(raw[5])),
            )
        except ValueError as exc:
            raise LexiconError(f"line {line_no}: {exc}") from None
        if word in entries:
            raise LexiconError(
                f"duplicate word {word!r} at lines {first_line[word]} and {line_no}"
            )
        entries[word] = entry
        first_line[word] = line_no

    if not entries:
        raise LexiconError("lexicon contains no entries")
    return AffectLexicon(entries)


def serialize_lexicon(lexicon: AffectLexicon) -> str:
    """Render a lexicon back to CSV text on the raw [1, 9] scale.

    ``parse_lexicon(serialize_lexicon(lex))`` reproduces ``lex`` exactly:
    the scale maps are affine with a power-of-two slope, so no precision is
    lost in either direction.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(LEXICON_HEADER)
    for entry in lexicon.entries.values():
        writer.writerow(
            [
                entry.word,
                repr(entry.valence.mean * RAW_SPAN + RAW_MIN),
                repr(entry.valence.sd * RAW_SPAN),
                repr(entry.arousal.mean * RAW_SPAN + RAW_MIN),
                repr(entry.arousal.sd * RAW_SPAN),
                repr(entry.dominance.mean * RAW_SPAN + RAW_MIN),
                repr(entry.dominance.sd * RAW_SPAN),
            ]
        )
    return buffer.getvalue()


def load_lexicon(path: str) -> AffectLexicon:
    """Read and parse a lexicon CSV file (UTF-8)."""
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_lexicon(handle)
