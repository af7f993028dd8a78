"""Seeded input generation for the benchmark, independent of tvmood code.

Every input the CLI sees is written here from ``random.Random`` streams
derived from the workload seed, so one seed always yields the same files.
The generator also returns what it drew (per-document term counts and the
lexicon ratings) so the oracle can check outputs without tvmood.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Optional

ONSETS = "b c d f g h j k l m n p r s t v w z br ch cl dr fl gr pl sh st th tr".split()
VOWELS = "a e i o u ai ea ee oa ou".split()
CODAS = [""] * 6 + "n r s t l m nd st ck".split()

# Characters between tokens: none is a letter, digit or apostrophe, so the
# tokenizer splits on all of them (underscore included).
SEPARATORS = (
    [" "] * 24
    + [", ", ". ", "; ", ": ", " - ", "! ", "? ", " (", ") ", "\n", '"', " _", "_", "... ", " / "]
)

YEAR_START = datetime(2013, 1, 1, tzinfo=timezone.utc)
YEAR_SECONDS = 365 * 86400


@dataclass
class Lexicon:
    """Words with raw 1-9 ratings as written to the CSV."""

    words: list[str]
    # word -> the six raw fields exactly as written (v, v_sd, a, a_sd, d, d_sd)
    raw: dict[str, tuple[str, ...]]

    def normalized_means(self) -> dict[str, tuple[float, float, float]]:
        return {
            word: tuple((float(fields[i]) - 1.0) / 8.0 for i in (0, 2, 4))
            for word, fields in self.raw.items()
        }


@dataclass
class Doc:
    id: str
    channel: str
    timestamp: datetime
    genre: Optional[str]
    counts: dict[str, int]


@dataclass
class Corpus:
    docs: list[Doc]
    lines: list[str] = field(repr=False)  # the JSON lines written to disk


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{name}")


def _word(rng: random.Random) -> str:
    syllables = rng.choices((1, 2, 3), (20, 55, 25))[0]
    return "".join(
        rng.choice(ONSETS) + rng.choice(VOWELS) + rng.choice(CODAS)
        for _ in range(syllables)
    )


def distinct_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = _word(rng)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def make_lexicon(seed: int, size: int, taken: set[str]) -> Lexicon:
    """A lexicon of ``size`` words with ratings on the raw [1, 9] scale."""
    rng = _stream(seed, f"lexicon{size}")
    words = distinct_words(rng, size, taken)
    raw = {}
    for word in words:
        fields = []
        for _ in range(3):
            fields.append(f"{rng.randint(100, 900) / 100:.2f}")
            fields.append(f"{rng.randint(30, 350) / 100:.2f}")
        raw[word] = tuple(fields)
    return Lexicon(words, raw)


def lexicon_csv(lexicon: Lexicon) -> str:
    rows = ["word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd"]
    rows.extend(",".join((word,) + lexicon.raw[word]) for word in lexicon.words)
    return "\n".join(rows) + "\n"


def _zipf_cumulative(size: int, offset: float = 8.0) -> list[float]:
    total = 0.0
    cumulative = []
    for rank in range(size):
        total += 1.0 / (rank + offset)
        cumulative.append(total)
    return cumulative


def _lengths(count: int, low: int, high: int) -> list[int]:
    """Document lengths drawn independently of the seed.

    Every seed then offers the same amount of work, so run-to-run spread
    measures the program and the machine, not the input size.
    """
    rng = random.Random(f"perfbench:lengths:{count}:{low}:{high}")
    return [rng.randint(low, high) for _ in range(count)]


def _stamp(moment: datetime) -> str:
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _surface(rng: random.Random, token: str) -> str:
    """Mixed case and punctuation that lowercase + split undoes exactly."""
    roll = rng.random()
    if roll < 0.2:
        token = token.capitalize()
    elif roll < 0.28:
        token = token.upper()
    if rng.random() < 0.02:
        token = "'" + token + "'"
    return token


def text_corpus(seed: int, lexicon: Lexicon, docs: int, tokens: int, channels: int) -> Corpus:
    """Raw-text transcripts; about half of all tokens miss the lexicon.

    Channel activity decays geometrically (the busiest channel airs about
    thirty times as often as the quietest), and timestamps spread over one
    year, so weekly windows of the quiet channels have gaps. About one
    document in a hundred has no lexicon word at all.
    """
    rng = _stream(seed, "text")
    taken = set(lexicon.words)
    oov = distinct_words(rng, 20000, taken)
    # transcripts carry contractions, names and numbers that no norm rates
    for i in range(0, len(oov), 23):
        cut = rng.randint(1, len(oov[i]) - 1)
        oov[i] = oov[i][:cut] + "'" + oov[i][cut:]
    for i in range(7, len(oov), 41):
        oov[i] = str(rng.randint(0, 3000))
    oov = list(dict.fromkeys(word for word in oov if word not in taken))
    lex_order = lexicon.words[:]
    rng.shuffle(lex_order)
    lex_cum = _zipf_cumulative(len(lex_order))
    oov_cum = _zipf_cumulative(len(oov))
    channel_names = [f"ch{i:02d}" for i in range(channels)]
    channel_weights = [0.73**i for i in range(channels)]
    genres = ["comedy", "drama", "news", "sports", "talk"]

    lengths = _lengths(docs, tokens * 3 // 4, tokens * 5 // 4)
    out = []
    lines = []
    for serial, length in enumerate(lengths):
        channel = rng.choices(channel_names, channel_weights)[0]
        moment = YEAR_START + timedelta(seconds=rng.randrange(YEAR_SECONDS))
        genre = None if rng.random() < 0.05 else genres[int(channel[2:]) % len(genres)]
        lexicon_share = 0.0 if rng.random() < 0.01 else 0.5
        from_lexicon = [rng.random() < lexicon_share for _ in range(length)]
        hits = iter(rng.choices(lex_order, cum_weights=lex_cum, k=sum(from_lexicon)))
        misses = iter(rng.choices(oov, cum_weights=oov_cum, k=length))
        drawn = [next(hits) if flag else next(misses) for flag in from_lexicon]
        parts = []
        for token in drawn:
            parts.append(_surface(rng, token))
            parts.append(rng.choice(SEPARATORS))
        doc = Doc(f"doc-{serial:05d}", channel, moment, genre, dict(Counter(drawn)))
        record = {"id": doc.id, "channel": channel, "timestamp": _stamp(moment)}
        if genre is not None:
            record["genre"] = genre
        record["text"] = "".join(parts).strip()
        out.append(doc)
        lines.append(json.dumps(record))
    return Corpus(out, lines)


def _band(lexicon: Lexicon, target: float, width: float = 0.1) -> list[str]:
    means = lexicon.normalized_means()
    return [word for word in lexicon.words if abs(means[word][0] - target) <= width]


def counts_corpus(
    seed: int,
    lexicon: Lexicon,
    genres: list[tuple[str, int, float]],
    token_range: tuple[int, int],
    bias: float,
    oov_share: float,
) -> Corpus:
    """Labeled ``term_counts`` documents, one valence band per genre.

    ``genres`` holds (label, document count, target valence). A token comes
    from the genre's band with probability ``bias``, otherwise from the
    whole lexicon; ``oov_share`` of the tokens are words outside the lexicon.
    Documents are interleaved across genres in a seeded order.
    """
    rng = _stream(seed, f"counts{len(lexicon.words)}")
    oov = distinct_words(rng, 2000, set(lexicon.words))
    plan = [(label, target) for label, count, target in genres for _ in range(count)]
    rng.shuffle(plan)
    bands = {label: _band(lexicon, target) for label, _, target in genres}
    out = []
    lines = []
    for serial, ((label, _), length) in enumerate(zip(plan, _lengths(len(plan), *token_range))):
        counts: Counter[str] = Counter()
        for _ in range(length):
            roll = rng.random()
            if roll < oov_share:
                counts[rng.choice(oov)] += 1
            elif roll < oov_share + bias * (1.0 - oov_share):
                counts[rng.choice(bands[label])] += 1
            else:
                counts[rng.choice(lexicon.words)] += 1
        moment = YEAR_START + timedelta(hours=3 * serial)
        doc = Doc(f"{label}-{serial:05d}", f"net-{label}", moment, label, dict(counts))
        record = {
            "id": doc.id,
            "channel": doc.channel,
            "timestamp": _stamp(moment),
            "genre": label,
            "term_counts": dict(sorted(counts.items())),
        }
        out.append(doc)
        lines.append(json.dumps(record, separators=(",", ":")))
    return Corpus(out, lines)


def synth_profiles(
    genres: list[tuple[str, int, float]], token_range: tuple[int, int], bias: float
) -> list[dict]:
    """A ``tvmood synth`` profile array with one entry per genre."""
    return [
        {
            "label": label,
            "document_count": count,
            "bias": bias,
            "target": [target, 0.5, 0.5],
            "token_range": list(token_range),
            "channel": f"net-{label}",
        }
        for label, count, target in genres
    ]
