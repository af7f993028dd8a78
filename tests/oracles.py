"""Independent brute-force oracles used by unit and acceptance tests.

Each oracle recomputes an expected value along a different path from the
implementation under test: match-then-strip tokenizing, token expansion
with plain numpy statistics for weighted scoring, direct density products in
arbitrary precision (mpmath) for Gaussian Naive Bayes, exact rationals
(Fraction) for multinomial Naive Bayes, and an explicit threshold-sweep ROC
integration for AUC. The dense-row Gaussian Naive Bayes reference
(per-class rescans, two-pass moments) is the bit-exact reference for
``classify.train_gaussian`` and ``classify.predict_gaussian`` on dense rows.
The row-by-row lexicon parser and the per-term lookup loop are the
references for ``lexicon.parse_lexicon`` (same table or same error
message) and ``affect.match_stats`` (bit-identical statistics). The walk
over sorted (value, count) pairs, the per-class term lookups and the
per-token ``Counter`` loop are the bit-exact references for
``features._weighted_median``, ``classify.predict_multinomial`` and
``synth.generate``.
"""

from __future__ import annotations

import csv
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np

from tvmood.affect import AffectScore, AffectSpread, MatchStats
from tvmood.classify import VARIANCE_FLOOR_SCALE, GaussianNbModel
from tvmood.corpus import Corpus, Document
from tvmood.lexicon import LEXICON_HEADER, LexiconError
from tvmood.synth import DEFAULT_SPACING, DEFAULT_START, VALENCE_BAND

mpmath.mp.dps = 60

_TOKEN_RUN_RE = re.compile(r"(?:[^\W_]|')+")


def tokenize(text):
    """Lowercase; take runs of letters, digits and apostrophes; strip the
    apostrophes that wrap each run and drop runs left empty."""
    tokens = []
    for token in _TOKEN_RUN_RE.findall(text.lower()):
        token = token.strip("'")
        if token:
            tokens.append(token)
    return tokens


def expansion_stats(counts, lexicon, dim):
    """Replicate each matched term by its count; plain statistics on the list."""
    values = []
    for term, count in counts.items():
        means = lexicon.table.get(term.lower())
        if means is not None:
            values.extend([means[("valence", "arousal", "dominance").index(dim)]] * count)
    if not values:
        return None
    values.sort()
    return {
        "min": values[0],
        "max": values[-1],
        "mean": float(np.mean(values)),
        "sd": float(np.std(values)),
        # lower-middle element for even totals
        "median": values[(len(values) + 1) // 2 - 1],
    }


def gaussian_posterior(instances, labels, query):
    """Direct prior-times-density products, no log-space tricks.

    Computed in 60-digit arithmetic so products never underflow; the same
    moment, floor, and missing-value conventions as the trained model.
    """
    class_labels = sorted(set(labels))
    n_features = len(instances[0])

    def feature_values(feature, subset):
        return [row[feature] for row in subset if row[feature] is not None]

    global_max = 0.0
    for feature in range(n_features):
        values = feature_values(feature, instances)
        if values:
            global_max = max(global_max, float(np.var(values)))
    floor = (
        VARIANCE_FLOOR_SCALE * global_max if global_max > 0 else VARIANCE_FLOOR_SCALE
    )

    masses = []
    for label in class_labels:
        subset = [row for row, y in zip(instances, labels) if y == label]
        mass = mpmath.mpf(len(subset)) / len(labels)
        for feature in range(n_features):
            if query[feature] is None:
                continue
            values = feature_values(feature, subset)
            if not values:
                continue
            mean = float(np.mean(values))
            variance = max(float(np.var(values)), floor)
            deviation = mpmath.mpf(query[feature]) - mpmath.mpf(mean)
            mass *= mpmath.exp(-(deviation ** 2) / (2 * variance)) / mpmath.sqrt(
                2 * mpmath.pi * variance
            )
        masses.append(mass)
    total = mpmath.fsum(masses)
    return class_labels, [float(mass / total) for mass in masses]


def _population_moments(values):
    mean = math.fsum(values) / len(values)
    variance = math.fsum((value - mean) ** 2 for value in values) / len(values)
    return mean, variance


def train_gaussian_dense(instances, labels):
    """Gaussian NB over dense rows with ``None`` for missing entries.

    Per feature, the floor comes from the moments of all non-missing
    values; per class, a rescan of the class's rows gives each feature's
    moments, or ``(None, None)`` when the class has no value for it.
    """
    class_labels = tuple(sorted(set(labels)))
    feature_count = len(instances[0])
    global_max_variance = 0.0
    for feature in range(feature_count):
        values = [x[feature] for x in instances if x[feature] is not None]
        if values:
            _, variance = _population_moments(values)
            global_max_variance = max(global_max_variance, variance)
    variance_floor = (
        VARIANCE_FLOOR_SCALE * global_max_variance
        if global_max_variance > 0
        else VARIANCE_FLOOR_SCALE
    )
    means, variances = [], []
    for label in class_labels:
        class_instances = [x for x, y in zip(instances, labels) if y == label]
        class_means, class_variances = [], []
        for feature in range(feature_count):
            values = [x[feature] for x in class_instances if x[feature] is not None]
            if not values:
                class_means.append(None)
                class_variances.append(None)
                continue
            mean, variance = _population_moments(values)
            class_means.append(mean)
            class_variances.append(max(variance, variance_floor))
        means.append(tuple(class_means))
        variances.append(tuple(class_variances))
    log_priors = tuple(
        math.log(sum(1 for value in labels if value == label) / len(labels))
        for label in class_labels
    )
    return GaussianNbModel(
        class_labels=class_labels,
        log_priors=log_priors,
        means=tuple(means),
        variances=tuple(variances),
        variance_floor=variance_floor,
        feature_count=feature_count,
    )


def predict_gaussian_dense(model, instance):
    """``(labels, probabilities)`` for a dense row: ``fsum`` of each class's
    log-density terms, skipping missing entries and pairs without a mean,
    then log-sum-exp normalization."""
    log_scores = []
    for index in range(len(model.class_labels)):
        terms = []
        for feature, value in enumerate(instance):
            if value is None:
                continue
            mean = model.means[index][feature]
            if mean is None:
                continue
            variance = model.variances[index][feature]
            terms.append(
                -0.5 * (math.log(2.0 * math.pi * variance) + (value - mean) ** 2 / variance)
            )
        log_scores.append(model.log_priors[index] + math.fsum(terms))
    peak = max(log_scores)
    shifted = [math.exp(score - peak) for score in log_scores]
    total = math.fsum(shifted)
    return model.class_labels, tuple(value / total for value in shifted)


def predict_multinomial_lookup(model, instance):
    """``(labels, probabilities)``: per class, ``fsum`` of count times the
    class's log term probability over the instance's known terms, each term
    looked up in the vocabulary index again, then log-sum-exp normalization."""
    log_scores = []
    for index in range(len(model.class_labels)):
        row = model.log_term_probs[index]
        terms = [
            count * row[model.term_index[term]]
            for term, count in instance.items()
            if term in model.term_index
        ]
        log_scores.append(model.log_priors[index] + math.fsum(terms))
    peak = max(log_scores)
    shifted = [math.exp(score - peak) for score in log_scores]
    total = math.fsum(shifted)
    return model.class_labels, tuple(value / total for value in shifted)


def multinomial_posterior(instances, labels, alpha, query):
    """Exact rational smoothed-count products."""
    class_labels = sorted(set(labels))
    vocabulary = sorted({term for instance in instances for term in instance})
    alpha = Fraction(alpha)
    masses = []
    for label in class_labels:
        counts = {term: 0 for term in vocabulary}
        for instance, value in zip(instances, labels):
            if value == label:
                for term, count in instance.items():
                    counts[term] += count
        class_total = sum(counts.values())
        denominator = class_total + alpha * len(vocabulary)
        mass = Fraction(sum(1 for value in labels if value == label), len(labels))
        for term, count in query.items():
            if term in counts:
                mass *= ((counts[term] + alpha) / denominator) ** count
        masses.append(mass)
    total = sum(masses)
    return class_labels, [float(mass / total) for mass in masses]


def trapezoid_auc(scores, is_positive):
    """Explicit ROC sweep over all distinct thresholds, trapezoid integration."""
    positives = sum(1 for flag in is_positive if flag)
    negatives = len(is_positive) - positives
    points = [(0.0, 0.0)]
    # descending thresholds: at each distinct score, everything >= it is positive
    for threshold in sorted(set(scores), reverse=True):
        tp = sum(1 for s, flag in zip(scores, is_positive) if flag and s >= threshold)
        fp = sum(
            1 for s, flag in zip(scores, is_positive) if not flag and s >= threshold
        )
        points.append((fp / negatives, tp / positives))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def _rating(raw):
    if not 1.0 <= raw <= 9.0:
        raise LexiconError(f"rating {raw!r} is outside the [1, 9] scale")
    return (raw - 1.0) / 8.0


def _sd(raw_sd):
    if not 0.0 <= raw_sd < math.inf:
        raise LexiconError(f"standard deviation {raw_sd!r} is not finite and non-negative")
    return raw_sd / 8.0


def parse_lexicon_rows(text):
    """The row-by-row lexicon parser: ``(table, sds)`` or a LexiconError.

    Each row is checked in column order (valence mean, valence sd, ...,
    dominance sd), then its word, then its uniqueness, so the first bad row
    names its line and its first bad field.
    """
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header is None:
        raise LexiconError("empty lexicon file: missing header line")
    if tuple(col.strip().lower() for col in header) != LEXICON_HEADER:
        raise LexiconError(
            f"unexpected header {','.join(header)!r}; "
            f"expected {','.join(LEXICON_HEADER)!r}"
        )
    table, sds, first_line = {}, {}, {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 7:
            raise LexiconError(f"line {line_no}: expected 7 columns, found {len(row)}")
        word = row[0].strip().lower()
        raw = []
        for column, cell in zip(LEXICON_HEADER[1:], row[1:]):
            try:
                raw.append(float(cell))
            except ValueError:
                raise LexiconError(
                    f"line {line_no}: non-numeric {column} value {cell!r}"
                ) from None
        try:
            values = []
            for index, value in enumerate(raw):
                values.append(_sd(value) if index % 2 else _rating(value))
            if not word:
                raise ValueError("word is empty")
            if any(ch.isspace() for ch in word):
                raise ValueError(f"word {word!r} contains whitespace")
        except ValueError as exc:
            raise LexiconError(f"line {line_no}: {exc}") from None
        if word in table:
            raise LexiconError(
                f"duplicate word {word!r} at lines {first_line[word]} and {line_no}"
            )
        table[word] = tuple(values[0::2])
        sds[word] = tuple(values[1::2])
        first_line[word] = line_no
    if not table:
        raise LexiconError("lexicon contains no entries")
    return table, sds


def match_stats_lookup(term_counts, lexicon):
    """``affect.match_stats`` as one case-folding lookup per term, in map order."""
    counts = []
    values = ([], [], [])
    for term, count in term_counts.items():
        means = lexicon.table.get(term.lower())
        if means is not None:
            counts.append(count)
            for column, mean in zip(values, means):
                column.append(mean)
    if not counts:
        return None
    total = sum(counts)
    low = tuple(map(min, values))
    high = tuple(map(max, values))
    means = []
    sds = []
    for column, lo, hi in zip(values, low, high):
        mean = math.fsum(map(operator.mul, counts, column)) / total
        mean = min(max(mean, lo), hi)
        squares = (count * (value - mean) ** 2 for count, value in zip(counts, column))
        variance = math.fsum(squares) / total
        means.append(mean)
        sds.append(math.sqrt(variance) if variance > 0 else 0.0)
    score = AffectScore(*means, len(counts), total)
    return MatchStats(counts, values, low, high, score, AffectSpread(*sds))


def weighted_median_walk(values, counts, total):
    """Walk the sorted (value, count) pairs until the running count reaches
    ceil(total / 2): the lower-middle element for even totals."""
    target = (total + 1) // 2
    accumulated = 0
    for value, count in sorted(zip(values, counts)):
        accumulated += count
        if accumulated >= target:
            break
    return value


def generate_per_token(profiles, lexicon, seed, start=DEFAULT_START, spacing=DEFAULT_SPACING):
    """``synth.generate`` drawing and counting one token at a time."""
    shared_pool = lexicon.words()
    pools = [
        [w for w in shared_pool if abs(lexicon.table[w][0] - profile.target[0]) <= VALENCE_BAND]
        for profile in profiles
    ]
    rng = random.Random(seed)
    documents = []
    serial = 0
    for profile, pool in zip(profiles, pools):
        for _ in range(profile.document_count):
            token_count = rng.randint(*profile.token_range)
            counts = Counter()
            for _ in range(token_count):
                source = pool if rng.random() < profile.bias else shared_pool
                counts[rng.choice(source)] += 1
            documents.append(
                Document(
                    id=f"{profile.label}-{serial:05d}",
                    channel=profile.channel or profile.label,
                    term_counts=dict(counts),
                    total_tokens=token_count,
                    genre=profile.label,
                    timestamp=start + serial * spacing,
                )
            )
            serial += 1
    return Corpus(tuple(documents))
