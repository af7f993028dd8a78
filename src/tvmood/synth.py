"""Deterministic synthetic corpora with genre-dependent affect profiles.

Each genre profile targets a valence level; its term pool is the set of
lexicon words whose valence mean lies within ±0.1 of that target. Tokens
are drawn from a mixture of the genre pool and a shared background pool
(the whole lexicon), weighted by the profile's bias. Arousal and dominance
follow whatever the sampled words carry. Generation is fully determined by
the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional, Sequence

from .corpus import Corpus, Document
from .lexicon import AffectLexicon

VALENCE_BAND = 0.1

DEFAULT_START = datetime(2013, 1, 1, tzinfo=timezone.utc)
DEFAULT_SPACING = timedelta(days=1)


@dataclass(frozen=True, slots=True)
class GenreProfile:
    """Recipe for one genre's documents.

    ``bias`` is the probability that a token comes from the genre's own
    valence-band pool rather than the shared pool. ``target`` is the
    (valence, arousal, dominance) triple; only valence drives pool
    selection. ``channel`` defaults to the label.
    """

    label: str
    document_count: int
    bias: float
    target: tuple[float, float, float]
    token_range: tuple[int, int]
    channel: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("profile label is empty")
        if self.document_count < 1:
            raise ValueError(f"document_count must be >= 1, got {self.document_count}")
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError(f"bias {self.bias!r} is outside [0, 1]")
        if len(self.target) != 3 or not all(0.0 <= t <= 1.0 for t in self.target):
            raise ValueError(f"target {self.target!r} must be three values in [0, 1]")
        low, high = self.token_range
        if low < 1 or high < low:
            raise ValueError(f"token_range {self.token_range!r} is invalid")


# GenreProfile field -> (JSON types of the value or its items, list length, what it must be)
_JSON_FIELDS = {
    "label": ((str,), None, "a string"),
    "document_count": ((int,), None, "an integer"),
    "bias": ((int, float), None, "a number"),
    "target": ((int, float), 3, "a list of three numbers"),
    "token_range": ((int,), 2, "a list of two integers"),
    "channel": ((str, type(None)), None, "a string or null"),
}


def profile_from_json(index: int, item: object) -> GenreProfile:
    """Build a profile from item ``index`` of a JSON profiles array.

    ``bias``, ``token_range`` and ``channel`` default to 1.0, [30, 80] and
    null. Every error names the index, and a bad value also its field.
    """
    if not isinstance(item, dict):
        raise ValueError(f"profile {index}: not a JSON object")
    item = {"bias": 1.0, "token_range": [30, 80], "channel": None, **item}
    fields = {}
    for key, (kinds, length, what) in _JSON_FIELDS.items():
        if key not in item:
            raise ValueError(f"profile {index}: missing required field {key!r}")
        value = item[key]
        values = value if length and isinstance(value, list) else [value]
        if len(values) != (length or 1) or not all(
            isinstance(v, kinds) and not isinstance(v, bool) for v in values
        ):
            raise ValueError(f"profile {index}: field {key!r} must be {what}")
        fields[key] = tuple(value) if length else value
    try:
        return GenreProfile(**fields)
    except ValueError as exc:
        raise ValueError(f"profile {index}: {exc}") from None


def generate(
    profiles: Sequence[GenreProfile],
    lexicon: AffectLexicon,
    seed: int,
    start: datetime = DEFAULT_START,
    spacing: timedelta = DEFAULT_SPACING,
) -> Corpus:
    """Generate a labeled corpus, one batch of documents per profile.

    Documents receive evenly spaced timestamps (``start + n * spacing`` in
    generation order) and ids of the form ``<label>-<n>``. Raises
    ``ValueError`` when a profile's valence band contains no lexicon word,
    naming the profile.
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

    rng = random.Random(seed)
    draw, choice = rng.random, rng.choice
    documents = []
    serial = 0
    for profile, pool in zip(profiles, pools):
        bias = profile.bias
        for _ in range(profile.document_count):
            token_count = rng.randint(*profile.token_range)
            # a per-token loop's RNG calls in its order; Counter keeps first-seen order
            tokens = [choice(pool if draw() < bias else shared_pool) for _ in range(token_count)]
            documents.append(
                Document(
                    id=f"{profile.label}-{serial:05d}",
                    channel=profile.channel or profile.label,
                    term_counts=dict(Counter(tokens)),
                    total_tokens=token_count,
                    genre=profile.label,
                    timestamp=start + serial * spacing,
                    _checked=True,  # lowercase lexicon words, counts summing to token_count
                )
            )
            serial += 1
    return Corpus(tuple(documents), True)  # serial numbers make the ids distinct
