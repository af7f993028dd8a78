"""Deterministic synthetic corpora with genre-dependent affect profiles.

Each genre profile targets a valence level; its term pool is the set of
lexicon words whose valence mean lies within ±0.1 of that target. Tokens
are drawn from a mixture of the genre pool and a shared background pool
(the whole lexicon), weighted by the profile's bias. Arousal and dominance
follow whatever the sampled words carry. Generation is fully determined by
the seed: per token, one ``random()`` picks the pool, then
``getrandbits(n.bit_length())``, redrawn while >= n, picks one of its n
words. These are the calls ``Random.choice`` makes on CPython 3.10-3.13.
"""

from __future__ import annotations

import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from typing import Iterator, Optional, Sequence

from .corpus import Document
from .lexicon import AffectLexicon
from .record import Record, has_shape

VALENCE_BAND = 0.1

DEFAULT_START = datetime(2013, 1, 1, tzinfo=timezone.utc)
SPACING = timedelta(days=1)


class GenreProfile(Record):
    """Recipe for one genre's documents.

    ``bias`` is the probability that a token comes from the genre's own
    valence-band pool rather than the shared pool. ``target`` is the
    (valence, arousal, dominance) triple; only valence drives pool
    selection. ``channel`` defaults to the label.
    """

    _fields = ("label", "document_count", "bias", "target", "token_range", "channel")
    __slots__ = _fields

    def __init__(
        self,
        label: str,
        document_count: int,
        bias: float,
        target: tuple[float, float, float],
        token_range: tuple[int, int],
        channel: Optional[str] = None,
    ) -> None:
        super().__init__(label, document_count, bias, target, token_range, channel)
        for key, (*shape, what) in _FIELDS.items():
            if not has_shape(getattr(self, key), *shape):
                raise ValueError(f"{key} must be {what}, got {getattr(self, key)!r}")
        if not self.label:
            raise ValueError("profile label is empty")
        if self.document_count < 1:
            raise ValueError(f"document_count must be >= 1, got {self.document_count}")
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError(f"bias {self.bias!r} is outside [0, 1]")
        if not all(0.0 <= t <= 1.0 for t in self.target):
            raise ValueError(f"target {self.target!r} must be three values in [0, 1]")
        low, high = self.token_range
        if low < 1 or high < low:
            raise ValueError(f"token_range {self.token_range!r} is invalid")


# GenreProfile field -> record.has_shape's (depth, kinds, length), and what it must be
_FIELDS = {
    "label": (0, (str,), None, "a string"),
    "document_count": (0, (int,), None, "an integer"),
    "bias": (0, (int, float), None, "a number"),
    "target": (1, (int, float), 3, "three numbers"),
    "token_range": (1, (int,), 2, "two integers"),
    "channel": (0, (str, type(None)), None, "a string or null"),
}


def profile_from_json(index: int, item: object) -> GenreProfile:
    """Build a profile from item ``index`` of a JSON profiles array.

    ``bias``, ``token_range`` and ``channel`` default to 1.0, [30, 80] and
    null; any other key is an error. JSON lists become tuples, and
    :class:`GenreProfile` checks every value. Every error names the index,
    and a bad value or an unknown key also its field.
    """
    if not isinstance(item, dict):
        raise ValueError(f"profile {index}: not a JSON object")
    unknown = [key for key in item if key not in _FIELDS]
    if unknown:
        raise ValueError(f"profile {index}: unknown field {unknown[0]!r}")
    item = {"bias": 1.0, "token_range": [30, 80], "channel": None, **item}
    missing = [key for key in _FIELDS if key not in item]
    if missing:
        raise ValueError(f"profile {index}: missing required field {missing[0]!r}")
    try:
        return GenreProfile(**{k: tuple(v) if isinstance(v, list) else v for k, v in item.items()})
    except ValueError as exc:
        raise ValueError(f"profile {index}: {exc}") from None


def generate(
    profiles: Sequence[GenreProfile],
    lexicon: AffectLexicon,
    seed: int,
    start: datetime = DEFAULT_START,
) -> Iterator[Document]:
    """Draw a labeled corpus, one batch of documents per profile.

    Returns an iterator that draws each document when it is asked for, so
    a corpus need not be held; the documents' ids are distinct. Documents
    receive timestamps one day apart (``start + n * SPACING`` in generation
    order) and ids of the form ``<label>-<n>``. Raises ``ValueError`` at
    the call when a profile's valence band contains no lexicon word, naming
    the profile; a timestamp past the datetime range raises
    ``OverflowError`` when its document is drawn.
    """
    if not profiles:
        raise ValueError("no profiles given")

    shared_pool = lexicon.words()
    pools = []
    for profile in profiles:
        target = profile.target[0]  # valence
        pool = [w for w in shared_pool if abs(lexicon.table[w][0] - target) <= VALENCE_BAND]
        if not pool:
            raise ValueError(
                f"profile {profile.label!r}: no lexicon word has valence within "
                f"±{VALENCE_BAND} of target {target}"
            )
        pools.append(pool)
    return _draw(profiles, pools, shared_pool, seed, start)


def _draw(
    profiles: Sequence[GenreProfile],
    pools: list[list[str]],
    shared_pool: list[str],
    seed: int,
    start: datetime,
) -> Iterator[Document]:
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    shared = (shared_pool, len(shared_pool), len(shared_pool).bit_length())
    serial = 0
    for profile, pool in zip(profiles, pools):
        bias = profile.bias
        own = (pool, len(pool), len(pool).bit_length())
        for _ in range(profile.document_count):
            token_count = rng.randint(*profile.token_range)
            # Random.choice's RNG calls, inline; Counter keeps first-seen order
            tokens = []
            for _ in range(token_count):
                words, size, width = own if draw() < bias else shared
                r = bits(width)
                while r >= size:
                    r = bits(width)
                tokens.append(words[r])
            yield Document(
                id=f"{profile.label}-{serial:05d}",
                channel=profile.channel or profile.label,
                term_counts=dict(Counter(tokens)),
                genre=profile.label,
                timestamp=start + serial * SPACING,
                _checked=True,  # lowercase lexicon words with positive int counts
            )
            serial += 1
