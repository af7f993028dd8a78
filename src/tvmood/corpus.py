"""Transcript documents: tokenization, term counting, loading, filtering.

The interchange format is JSON lines, one object per document. Required
fields: ``id``, ``channel``, ``timestamp`` (ISO-8601, UTC). Exactly one of
``text`` (raw transcript, tokenized at load time) or ``term_counts``
(pre-counted token map) must be present, matching the load mode. ``genre``
is optional; unlabeled documents are allowed and are only excluded by
genre-based operations.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from collections import Counter
from datetime import datetime, timedelta, timezone
from itertools import repeat
from typing import Collection, Iterable, Iterator, Mapping, Optional, TypeVar

from .record import Record, unique_keys

T = TypeVar("T")

_TOKEN_RE = re.compile(r"[^\W_]+(?:'+[^\W_]+)*")
# ASCII letters, digits and apostrophes map to themselves, every other ASCII
# character to a space: the characters _TOKEN_RE can take from ASCII text
_ASCII_SEPARATORS = "".join(
    c if c.isalnum() or c == "'" else " " for c in map(chr, range(128))
)


# parse_timestamp's forms, which are those of datetime.fromisoformat on Python 3.10
_TIMESTAMP_RE = re.compile(
    r"(?s)([0-9]{4})-([0-9]{2})-([0-9]{2})(?:.([0-9]{2})(?::([0-9]{2})(?::([0-9]{2}))?)?"
    r"(?:(?(6)[.:]|\.)([0-9]{6}|[0-9]{3}))?(?:(?(7)|[\x00-\x2a\x2c\x2e-\x7f]?)"
    r"([+-])([0-9]{2}):([0-9]{2})(?::([0-9]{2})(?:[.:]([0-9]{6}))?)?)?)?"
)


class CorpusError(ValueError):
    """Raised for malformed corpus data."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split into tokens.

    A token is a maximal run of letters and digits joined by apostrophes;
    underscores and everything else split, so apostrophes never start or end
    a token.
    """
    lowered = text.lower()  # may be ASCII when text is not: U+212A lowers to "k"
    if not lowered.isascii():  # translate leaves its fast path on other text
        return _TOKEN_RE.findall(lowered)
    # each piece is letters, digits and apostrophes: _TOKEN_RE's match in it
    # is the piece without its wrapping apostrophes, unless that is empty
    pieces = lowered.translate(_ASCII_SEPARATORS).split()
    return list(filter(None, map(str.strip, pieces, repeat("'"))))


def count_terms(tokens: Iterable[str]) -> tuple[dict[str, int], int]:
    """Count occurrences per distinct token; return (counts, total)."""
    counts = Counter(tokens)
    return dict(counts), sum(counts.values())


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp to an aware UTC datetime (seconds precision).

    The forms are those ``datetime.fromisoformat`` takes on Python 3.10,
    checked here so that every Python version gives the same verdict and
    value (3.11 takes more): ``YYYY-MM-DD``, then optionally any one
    character and ``hh[:mm[:ss]]``, a fraction of 3 or 6 digits after
    ``.`` and a UTC offset ``Z`` or ``+hh:mm[:ss[.ffffff]]`` (or ``-``);
    after seconds, ``:`` may stand for the ``.`` of either fraction. One
    ASCII character other than ``+`` or ``-`` may stand between a time
    with no fraction and its offset. A naive timestamp is taken as UTC.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    match = _TIMESTAMP_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"Invalid isoformat string: {value!r}")
    *fields, fraction, sign, hours, minutes, seconds, micros = match.groups("0")
    offset = timedelta(0, int(hours) * 3600 + int(minutes) * 60 + int(seconds), int(micros))
    zone = timezone(-offset if sign == "-" else offset)  # refuses 24 hours or more
    moment = datetime(*map(int, fields), int(fraction.ljust(6, "0")), zone)
    try:
        return moment.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:  # a UTC offset pushes it past year 1 or 9999
        raise ValueError(f"timestamp {value!r} is outside the datetime range") from None


def format_timestamp(moment: datetime) -> str:
    """Render an aware datetime as ISO-8601 UTC with a ``Z`` suffix and a
    4-digit year (``strftime``'s ``%Y`` drops the leading zeros on glibc)."""
    m = moment.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (m.year, m.month, m.day, m.hour, m.minute, m.second)


# The largest term count a Document accepts: every count up to it is exact as a float.
MAX_COUNT = 2**53
MAX_FLOAT = sys.float_info.max  # the largest finite float; 10**400 compares above it


def count_total(counts: Collection[float]) -> float:
    """The total of a term-count map's counts: exact when all are ints, else
    the correctly rounded ``math.fsum`` (``sum`` compensates floats only from
    Python 3.12 on, so its float totals differ by interpreter). inf past the
    float range; for ints, also when the counts, each rounded to a float as
    products with them are, sum past it."""
    try:
        rounded = math.fsum(counts)
        total = sum(counts)
    except (OverflowError, ValueError):  # an int or a sum past the range, or inf plus -inf
        return math.inf
    return total if type(total) is int and rounded <= MAX_FLOAT else rounded


def check_counts(
    term_counts: Mapping[str, float], where: Optional[str] = None, document: bool = False
) -> None:
    """Raise ValueError, naming the first bad count's term, for a term-count
    map outside its contract: ints or floats (a bool is neither) above 0 whose
    :func:`count_total`, which bounds each and fails for a NaN or inf, is at
    most MAX_FLOAT. With ``document``, a :class:`Document`'s stricter rule: an
    int from 1 to 2**53. ``where`` leads the message.
    """
    counts = term_counts.values()
    types = set(map(type, counts))  # the common cases are checked in C
    if document:
        if types <= {int} and min(counts, default=1) > 0 and max(counts, default=1) <= MAX_COUNT:
            return
    elif types <= {int} or types <= {float}:
        if min(counts, default=1) > 0 and count_total(counts) <= MAX_FLOAT:
            return
    prefix = f"{where}: " if where else ""
    for term, count in term_counts.items():  # names the first bad term
        number = isinstance(count, int if document else (int, float))
        if isinstance(count, bool) or not number or not 0 < count:
            problem = "not a positive integer" if document else "not a positive finite number"
        elif count > (MAX_COUNT if document else MAX_FLOAT):
            problem = "more than 2**53" if document else "not a positive finite number"
        else:
            continue
        raise ValueError(f"{prefix}term {term!r} has count {count!r}, which is {problem}")
    if not count_total(counts) <= MAX_FLOAT:
        raise ValueError(f"{prefix}the counts sum past the float range")


class Document(Record):
    """One transcript item with per-term counts.

    Immutable after construction; terms are lowercase. ``id``, ``channel``
    and, when given, ``genre`` are non-empty. ``timestamp`` may be None for
    documents built programmatically; time-windowed operations reject such
    documents, everything else accepts them. ``total_tokens`` is derived:
    the exact integer sum of the term counts.
    """

    _fields = ("id", "channel", "term_counts", "genre", "timestamp")
    __slots__ = (*_fields, "total_tokens")

    def __init__(
        self,
        id: str,
        channel: str,
        term_counts: dict[str, int],
        genre: Optional[str] = None,
        timestamp: Optional[datetime] = None,
        # True only from a producer in this package that checked the terms
        _checked: bool = False,
    ) -> None:
        super().__init__(id, channel, term_counts, genre, timestamp)
        if not self.id:
            raise ValueError("document id is empty")
        if not self.channel:
            raise ValueError(f"document {self.id!r}: channel is empty")
        if self.genre == "":
            raise ValueError(f"document {self.id!r}: genre is empty")
        if not _checked:
            check_counts(self.term_counts, f"document {self.id!r}", document=True)
            if (joined := "".join(self.term_counts)) != joined.lower():  # one pass in C
                term = next(t for t in self.term_counts if t != t.lower())
                raise ValueError(f"document {self.id!r}: term {term!r} is not lowercase")
        object.__setattr__(self, "total_tokens", sum(self.term_counts.values()))
        if self.timestamp is not None:
            if self.timestamp.tzinfo is None:
                raise ValueError(f"document {self.id!r}: timestamp is naive")
            normalized = self.timestamp.astimezone(timezone.utc).replace(microsecond=0)
            object.__setattr__(self, "timestamp", normalized)

    @classmethod
    def from_text(
        cls,
        id: str,
        channel: str,
        text: str,
        genre: Optional[str] = None,
        timestamp: Optional[datetime] = None,
    ) -> "Document":
        # positive int counts of lowercase tokens, by construction
        return cls(id, channel, count_terms(tokenize(text))[0], genre, timestamp, True)

    @classmethod
    def from_counts(
        cls,
        id: str,
        channel: str,
        term_counts: dict[str, int],
        genre: Optional[str] = None,
        timestamp: Optional[datetime] = None,
    ) -> "Document":
        """Build from a pre-counted map; tokens are lowercased and merged."""
        check_counts(term_counts, f"document {id!r}", document=True)  # before merging can hide one
        merged = dict(term_counts)
        lowercase = (joined := "".join(term_counts)) == joined.lower()  # nothing merges
        if not lowercase:
            merged = {}
            for term, count in term_counts.items():
                merged[term.lower()] = merged.get(term.lower(), 0) + count
        # merged counts are checked again, since a sum can pass 2**53
        return cls(id, channel, merged, genre, timestamp, lowercase)


def read_records(lines: Iterable[str], mode: str) -> Iterator[tuple[int, tuple]]:
    """Check each JSON-lines record and yield, in file order, its line number
    and its mode's :class:`Document` builder arguments ``(id, channel, text
    or term_counts, genre, timestamp)``; lazy, as :func:`read_documents` is."""
    if mode == "text":
        field, kind, what = "text", str, "a string"
    elif mode == "counts":
        field, kind, what = "term_counts", dict, "an object"
    else:
        raise ValueError(f"unknown corpus mode {mode!r}; use 'text' or 'counts'")
    ids: dict[str, None] = {}  # in file order; starts holds each one's line
    starts = array("q")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as exc:  # also repeated keys, huge ints, deep nesting
            problem = getattr(exc, "msg", exc)  # a JSONDecodeError's message has no position
            raise CorpusError(f"line {line_no}: invalid JSON ({problem})") from None
        if not isinstance(record, dict):
            raise CorpusError(f"line {line_no}: record is not a JSON object")

        for key in ("id", "channel", "timestamp"):
            if key not in record:
                raise CorpusError(f"line {line_no}: missing required field {key!r}")
            if not isinstance(record[key], str):
                raise CorpusError(f"line {line_no}: field {key!r} must be a string")
        if "text" in record and "term_counts" in record:
            raise CorpusError(f"line {line_no}: record has both 'text' and 'term_counts'")

        doc_id = record["id"]
        if doc_id in ids:
            first = starts[list(ids).index(doc_id)]
            raise CorpusError(f"duplicate document id {doc_id!r} at lines {first} and {line_no}")
        ids[doc_id] = None
        starts.append(line_no)

        try:
            timestamp = parse_timestamp(record["timestamp"])
        except ValueError:
            raise CorpusError(
                f"line {line_no}: invalid timestamp {record['timestamp']!r}"
            ) from None

        genre = record.get("genre")
        if genre is not None and not isinstance(genre, str):
            raise CorpusError(f"line {line_no}: field 'genre' must be a string")

        if field not in record:
            raise CorpusError(f"line {line_no}: missing required field {field!r}")
        if not isinstance(record[field], kind):
            raise CorpusError(f"line {line_no}: field {field!r} must be {what}")
        yield line_no, (doc_id, record["channel"], record[field], genre, timestamp)


def read_documents(lines: Iterable[str], mode: str) -> Iterator[Document]:
    """Yield each JSON-lines record as a checked :class:`Document`, in file order.

    In ``text`` mode each record's ``text`` field is tokenized and counted;
    in ``counts`` mode the ``term_counts`` map is used as given, except that
    tokens are lowercased (counts merge on collision). Lazy: a line is read
    only when the next document is asked for, and a :class:`CorpusError`
    naming the line of a bad record, or both lines of a duplicate id, is
    raised when iteration reaches that record.
    """
    build = Document.from_counts if mode == "counts" else Document.from_text
    for line_no, fields in read_records(lines, mode):
        try:
            document = build(*fields)
        except ValueError as exc:
            raise CorpusError(f"line {line_no}: {exc}") from None
        yield document


def document_to_jsonl(doc: Document) -> str:
    """Render one document as a JSON-lines record, newline included.

    Emits ``term_counts`` with sorted keys, so identical documents produce
    byte-identical lines. The document must carry a timestamp.
    """
    if doc.timestamp is None:
        raise CorpusError(
            f"document {doc.id!r} has no timestamp; the JSON-lines format "
            f"requires one"
        )
    record: dict[str, object] = {
        "id": doc.id,
        "channel": doc.channel,
        "timestamp": format_timestamp(doc.timestamp),
    }
    if doc.genre is not None:
        record["genre"] = doc.genre
    record["term_counts"] = dict(sorted(doc.term_counts.items()))
    return json.dumps(record, separators=(",", ":"), sort_keys=False) + "\n"


def filter_min_genre_support(items: Iterable[T], min_programs: int) -> list[T]:
    """Keep the items whose ``genre`` occurs in at least ``min_programs`` of them.

    Items are documents, or anything else with a ``genre`` attribute, such
    as :class:`~tvmood.evaluation.LabeledRow`. Unlabeled items are dropped;
    relative order is preserved. Idempotent.
    """
    if min_programs < 1:
        raise ValueError(f"min_programs must be >= 1, got {min_programs}")
    items = list(items)
    support = Counter(item.genre for item in items if item.genre is not None)
    return [
        item
        for item in items
        if item.genre is not None and support[item.genre] >= min_programs
    ]
