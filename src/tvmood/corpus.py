"""Transcript documents: tokenization, term counting, loading, filtering.

The interchange format is JSON lines, one object per document. Required
fields: ``id``, ``channel``, ``timestamp`` (ISO-8601, UTC). Exactly one of
``text`` (raw transcript, tokenized at load time) or ``term_counts``
(pre-counted token map) must be present, matching the load mode. ``genre``
is optional; unlabeled documents are allowed and are only excluded by
genre-based operations.
"""

from __future__ import annotations

import io
import json
import re
from array import array
from collections import Counter
from dataclasses import InitVar, dataclass
from datetime import datetime, timezone
from itertools import repeat
from typing import Iterable, Iterator, Optional, TextIO

_TOKEN_RE = re.compile(r"[^\W_]+(?:'+[^\W_]+)*")
# ASCII letters, digits and apostrophes map to themselves, every other ASCII
# character to a space: the characters _TOKEN_RE can take from ASCII text
_ASCII_SEPARATORS = "".join(
    c if c.isalnum() or c == "'" else " " for c in map(chr, range(128))
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

    A trailing ``Z`` is accepted; naive timestamps are taken as UTC.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    try:
        return moment.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:  # a UTC offset pushes it past year 1 or 9999
        raise ValueError(f"timestamp {value!r} is outside the datetime range") from None


def format_timestamp(moment: datetime) -> str:
    """Render an aware datetime as ISO-8601 UTC with a ``Z`` suffix."""
    return moment.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# The largest term count accepted: every count up to it is exact as a float.
MAX_COUNT = 2**53


def _check_counts(doc_id: str, term_counts: dict[str, int]) -> None:
    counts = term_counts.values()
    if set(map(type, counts)) <= {int} and (
        min(counts, default=1) >= 1 and max(counts, default=1) <= MAX_COUNT
    ):
        return  # the common case, checked in C; the loop below names a bad term
    for term, count in term_counts.items():
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            problem = "not a positive integer"
        elif count > MAX_COUNT:
            problem = "more than 2**53"
        else:
            continue
        raise ValueError(
            f"document {doc_id!r}: term {term!r} has count {count!r}, which is {problem}"
        )


@dataclass(frozen=True, slots=True)
class Document:
    """One transcript item with per-term counts.

    Immutable after construction; terms are lowercase. ``timestamp`` may be
    None for documents built programmatically; time-windowed operations
    reject such documents, everything else accepts them.
    """

    id: str
    channel: str
    term_counts: dict[str, int]
    total_tokens: int
    genre: Optional[str] = None
    timestamp: Optional[datetime] = None
    # True only from a producer in this package that checked the terms and their total
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool) -> None:
        if not self.id:
            raise ValueError("document id is empty")
        if not _checked:
            _check_counts(self.id, self.term_counts)
            if (joined := "".join(self.term_counts)) != joined.lower():  # one pass in C
                term = next(t for t in self.term_counts if t != t.lower())
                raise ValueError(f"document {self.id!r}: term {term!r} is not lowercase")
            if self.total_tokens != sum(self.term_counts.values()):
                raise ValueError(
                    f"document {self.id!r}: total_tokens {self.total_tokens} does "
                    f"not equal the sum of term counts"
                )
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
        # positive int counts of lowercase tokens, and their sum, by construction
        counts, total = count_terms(tokenize(text))
        return cls(id, channel, counts, total, genre, timestamp, True)

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
        _check_counts(id, term_counts)  # before merging can hide a bad count
        merged = dict(term_counts)
        lowercase = (joined := "".join(term_counts)) == joined.lower()  # nothing merges
        if not lowercase:
            merged = {}
            for term, count in term_counts.items():
                merged[term.lower()] = merged.get(term.lower(), 0) + count
        # merged counts are checked again, since a sum can pass 2**53
        return cls(id, channel, merged, sum(merged.values()), genre, timestamp, lowercase)


@dataclass(frozen=True, slots=True)
class Corpus:
    """Ordered, immutable collection of documents with distinct ids."""

    documents: tuple[Document, ...]
    # True only from a producer in this package that checked the ids are distinct
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool) -> None:
        if _checked:
            return
        object.__setattr__(self, "documents", tuple(self.documents))  # a tuple is kept as is
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise CorpusError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)

    @property
    def label_set(self) -> set[str]:
        return {doc.genre for doc in self.documents if doc.genre is not None}

    def __len__(self) -> int:
        return len(self.documents)

    def channels(self) -> list[str]:
        """Distinct channel names in sorted order."""
        return sorted({doc.channel for doc in self.documents})

    def by_channel(self, channel: str) -> list[Document]:
        return [doc for doc in self.documents if doc.channel == channel]


def read_documents(lines: Iterable[str], mode: str) -> Iterator[Document]:
    """Yield each JSON-lines record as a checked :class:`Document`, in file order.

    In ``text`` mode each record's ``text`` field is tokenized and counted;
    in ``counts`` mode the ``term_counts`` map is used as given, except that
    tokens are lowercased (counts merge on collision). Lazy: a line is read
    only when the next document is asked for, and a :class:`CorpusError`
    naming the line of a bad record, or both lines of a duplicate id, is
    raised when iteration reaches that record.
    """
    if mode == "text":
        field, kind, what, build = "text", str, "a string", Document.from_text
    elif mode == "counts":
        field, kind, what, build = "term_counts", dict, "an object", Document.from_counts
    else:
        raise ValueError(f"unknown corpus mode {mode!r}; use 'text' or 'counts'")
    ids: dict[str, None] = {}  # in file order; starts holds each one's line
    starts = array("q")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too many digits or nesting levels
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
        try:
            document = build(doc_id, record["channel"], record[field], genre, timestamp)
        except ValueError as exc:
            raise CorpusError(f"line {line_no}: {exc}") from None
        yield document


def load_corpus(source: str | TextIO | Iterable[str], mode: str) -> Corpus:
    """:func:`read_documents` as a :class:`Corpus`; a ``str`` is split into lines
    exactly as :func:`load_corpus_file` splits its file."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    return Corpus(tuple(read_documents(lines, mode)), True)  # read_documents checks the ids


def load_corpus_file(path: str, mode: str) -> Corpus:
    """Read and parse a JSON-lines corpus file (UTF-8)."""
    with open(path, encoding="utf-8") as handle:
        return load_corpus(handle, mode)


def corpus_to_jsonl(corpus: Corpus) -> str:
    """Render a corpus to the JSON-lines interchange format.

    Emits ``term_counts`` records with sorted keys, so identical corpora
    produce byte-identical output. Every document must carry a timestamp.
    """
    lines = []
    for doc in corpus.documents:
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
        lines.append(json.dumps(record, separators=(",", ":"), sort_keys=False))
    return "\n".join(lines) + ("\n" if lines else "")


def filter_min_genre_support(corpus: Corpus, min_programs: int) -> Corpus:
    """Keep documents whose genre occurs in at least ``min_programs`` documents.

    Unlabeled documents are dropped; relative order is preserved. Idempotent.
    """
    if min_programs < 1:
        raise ValueError(f"min_programs must be >= 1, got {min_programs}")
    support = Counter(doc.genre for doc in corpus.documents if doc.genre is not None)
    kept = tuple(
        doc
        for doc in corpus.documents
        if doc.genre is not None and support[doc.genre] >= min_programs
    )
    return Corpus(kept, True)  # a subsequence of distinct ids
