"""Independent brute-force oracles used by unit and acceptance tests.

Each oracle recomputes an expected value along a different path from the
implementation under test: match-then-strip tokenizing, token expansion
with plain numpy statistics for weighted scoring, direct density products in
arbitrary precision (mpmath) for Gaussian Naive Bayes, exact rationals
(Fraction) for multinomial Naive Bayes, and an explicit threshold-sweep ROC
integration for AUC. Exact rationals that round each square once are the
references for the moments of ``classify._moments`` and the sd of
``affect.match_stats``. The dense-row Gaussian Naive Bayes reference
(per-class rescans, two-pass moments) is the bit-exact reference for
``classify.train_gaussian`` and ``classify.predict_gaussian`` on dense rows,
and the trainer that collects values per feature, not per class, is the
bit-exact reference for ``classify.train_gaussian`` on any input.
The row-by-row lexicon parser and the per-term lookup loop are the
references for ``lexicon.parse_lexicon`` (same table or same error
message) and ``affect.match_stats`` (bit-identical statistics). The walk
over sorted (value, count) pairs, the per-class term lookups and the
per-token ``Counter`` loop are the bit-exact references for
``features._weighted_median``, ``classify.predict_multinomial`` and
``synth.generate``. The resident per-channel window scorer, with its
default origin, is the byte-exact reference for one-pass window scoring.
Counting each class's terms in one pass over the training rows, and
doing so again for each fold's training rows, are the bit-exact references
for ``classify.train_multinomial`` and ``classify.multinomial_fold_models``.
Midranks from grouping the sorted indices by score, and a confusion matrix
counted cell by cell with its columns summed in a nested loop, are the
exact references for ``evaluation.auc_one_vs_rest`` and
``evaluation.confusion_and_rates``. The Gaussian prediction loop that takes
back every present feature's absent term (0.0 for dense rows) beside its
density term is the bit-exact reference for ``classify.predict_gaussian``.
CSV rows whose fields are formatted by hand (``repr`` of a float,
``str(int(x))`` of a count, ``""`` of a missing value) are the byte-exact
references for the four CSV writers, which hand ``csv.writer`` raw values.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import random
import re
import sys
from collections import Counter, defaultdict
from collections.abc import Mapping
from fractions import Fraction

import mpmath
import numpy as np

from tvmood.affect import (
    SERIES_CSV_HEADER,
    AffectScore,
    AffectSeries,
    MatchStats,
    SeriesPoint,
)
from tvmood.classify import (
    VARIANCE_FLOOR_SCALE,
    AlphaError,
    GaussianNbModel,
    MultinomialNbModel,
    _log_priors,
    _moments,
    _present,
    _Table,
)
from tvmood.corpus import Document, format_timestamp
from tvmood.features import FEATURE_NAMES, extract_meta
from tvmood.lexicon import LEXICON_HEADER, LexiconError
from tvmood.synth import DEFAULT_START, SPACING, VALENCE_BAND

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
    variance = math.fsum(d * d for d in [value - mean for value in values]) / len(values)
    return mean, variance


def misrounded_by_pow(count, draws=200_000):
    """Up to ``count`` doubles ``x``, drawn uniformly from [-1, 1] by
    ``random.Random(0)``, for which ``x ** 2 != x * x``. C ``pow`` is not
    correctly rounded on every C library (glibc 2.36 for one); an IEEE 754
    product is, so on such a library this finds about 8 in 10,000."""
    rng = random.Random(0)
    found = []
    for _ in range(draws):
        x = rng.uniform(-1, 1)
        if x ** 2 != x * x and len(found) < count:
            found.append(x)
    return found


def rounded_square(d):
    """``d`` squared exactly, then rounded to a float once."""
    return float(Fraction(d) ** 2)


def moments_rounding_each_square_once(values, zeros):
    """Population mean and variance of ``values`` plus ``zeros`` zeros, in exact
    rationals but for the roundings floats make: the sum, the mean, each
    deviation and each square once."""
    n = len(values) + zeros
    mean = float(sum(map(Fraction, values))) / n
    exact = sum(Fraction(rounded_square(value - mean)) for value in values)
    exact += zeros * Fraction(rounded_square(0.0 - mean))
    return mean, float(exact) / n


def sd_rounding_each_square_once(counts, column):
    """The count-weighted population sd of ``column``, clamping the mean into
    its range, in exact rationals but for the roundings floats make: each
    product, the sum, the mean, each deviation, square and weighted square."""
    total = sum(counts)
    products = (float(count * Fraction(value)) for count, value in zip(counts, column))
    mean = float(sum(map(Fraction, products))) / total
    mean = min(max(mean, min(column)), max(column))
    weighted = [
        float(count * Fraction(rounded_square(value - mean)))
        for count, value in zip(counts, column)
    ]
    variance = float(sum(map(Fraction, weighted))) / total
    return math.sqrt(variance) if variance > 0 else 0.0


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


def train_gaussian_per_feature(instances, labels):
    """Gaussian NB that collects values per feature: a dict from each feature
    to one list of values per class, read back column by column. Otherwise
    ``classify.train_gaussian``'s fits, floor and error messages; the
    bit-exact reference for its per-class collecting."""
    if len(instances) != len(labels):
        raise ValueError("instances and labels have different lengths")
    if not instances:
        raise ValueError("no training instances")
    class_labels = tuple(sorted(set(labels)))
    if len(class_labels) < 2:
        raise ValueError("training data contains a single class")
    counts = isinstance(instances[0], Mapping)
    feature_count = len(instances[0])
    mix = "training instances mix term counts and dense rows"
    class_of = {label: index for index, label in enumerate(class_labels)}
    class_sizes = [0] * len(class_labels)
    present = {}  # feature -> per-class lists of the feature's present values
    for instance, label in zip(instances, labels):
        index = class_of[label]
        class_sizes[index] += 1
        for feature, value in _present(instance, counts, feature_count, mix).items():
            per_class = present.get(feature)
            if per_class is None:
                per_class = present[feature] = [[] for _ in class_labels]
            per_class[index].append(value)
    if counts and not present:
        raise ValueError("empty vocabulary: no training instance has any term")
    vocabulary = tuple(sorted(present)) if counts else None
    features = vocabulary or range(feature_count)
    unseen = [[] for _ in class_labels]
    per_feature = list(map(present.get, features, itertools.repeat(unseen)))

    def fit_table(size, floor):
        def fit(values):
            mean, variance = _moments(values, size - len(values) if counts else 0)
            return mean, None if variance is None else max(variance, floor)

        return _Table(fit)

    def lookup(fits, keys):
        try:
            return list(map(fits.__getitem__, keys))
        except ValueError as error:
            bad = next(feature for feature, key in zip(features, keys) if key not in fits)
            raise ValueError(f"feature {bad!r}: {error}") from None

    global_fits = fit_table(len(instances), 0.0)
    lookup(global_fits, [tuple(itertools.chain.from_iterable(lists)) for lists in per_feature])
    global_max_variance = max([0.0, *filter(None, (v for _, v in global_fits.values()))])
    variance_floor = (
        max(VARIANCE_FLOOR_SCALE * global_max_variance, sys.float_info.min)
        if global_max_variance > 0
        else VARIANCE_FLOOR_SCALE
    )
    means, variances = [], []
    for index, size in enumerate(class_sizes):
        fits = fit_table(size, variance_floor)
        pairs = lookup(fits, [tuple(lists[index]) for lists in per_feature])
        means.append(tuple(mean for mean, _ in pairs))
        variances.append(tuple(v for _, v in pairs))
    return GaussianNbModel(
        class_labels=class_labels,
        log_priors=_log_priors(class_sizes),
        means=tuple(means),
        variances=tuple(variances),
        variance_floor=variance_floor,
        feature_count=len(features),
        vocabulary=vocabulary,
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
            d = value - mean
            terms.append(-0.5 * (math.log(2.0 * math.pi * variance) + d * d / variance))
        log_scores.append(model.log_priors[index] + math.fsum(terms))
    peak = max(log_scores)
    shifted = [math.exp(score - peak) for score in log_scores]
    total = math.fsum(shifted)
    return model.class_labels, tuple(value / total for value in shifted)


def predict_multinomial_lookup(model, instance):
    """``(labels, probabilities)``: per class, ``fsum`` of count times the
    class's log term probability over the instance's known terms, each term
    looked up in the vocabulary again, then log-sum-exp normalization."""
    log_scores = []
    for index in range(len(model.class_labels)):
        row = model.log_term_probs[index]
        terms = [
            count * row[model.vocabulary.index(term)]
            for term, count in instance.items()
            if term in model.vocabulary
        ]
        log_scores.append(model.log_priors[index] + math.fsum(terms))
    peak = max(log_scores)
    shifted = [math.exp(score - peak) for score in log_scores]
    total = math.fsum(shifted)
    return model.class_labels, tuple(value / total for value in shifted)


def train_multinomial_counted(instances, labels, alpha):
    """The smoothed multinomial model of one pass that sums each class's term
    counts and sizes; a term whose total count is not positive is in no
    vocabulary, and counts as 0 in a class where its total is not positive."""
    class_labels = tuple(sorted(set(labels)))
    class_of = {label: index for index, label in enumerate(class_labels)}
    class_sizes = [0] * len(class_labels)
    class_counts = [{} for _ in class_labels]
    for vector, label in zip(instances, labels):
        index = class_of[label]
        class_sizes[index] += 1
        counts = class_counts[index]
        for term, count in vector.items():
            counts[term] = counts.get(term, 0) + count
    positive = [{term: n for term, n in counts.items() if n > 0} for counts in class_counts]
    vocabulary = tuple(sorted(set().union(*positive)))
    if not vocabulary:
        raise ValueError("empty vocabulary: no training instance has any term")
    log_term_probs = []
    for counts in positive:
        smoothed_total = fsum_total(counts.values()) + alpha * len(vocabulary)
        if math.isinf(smoothed_total):
            raise AlphaError(f"alpha {alpha!r} times {len(vocabulary)} terms overflows")
        denominator = math.log(smoothed_total)
        log_term_probs.append(
            tuple(math.log(counts.get(term, 0) + alpha) - denominator for term in vocabulary)
        )
    return MultinomialNbModel(
        class_labels=class_labels,
        log_priors=tuple(math.log(size / len(labels)) for size in class_sizes),
        vocabulary=vocabulary,
        log_term_probs=tuple(log_term_probs),
        alpha=alpha,
    )


def multinomial_fold_models_retrained(instances, labels, fold_of, k, alpha):
    """Fold ``f``'s model for each ``f`` in ``range(k)``, counted from scratch
    on the instances outside fold ``f``: the per-fold loop that ``run_cv``
    ran before it counted each document once."""
    for fold in range(k):
        train_idx = [i for i in range(len(instances)) if fold_of[i] != fold]
        train_rows = [instances[i] for i in train_idx]
        train_labels = [labels[i] for i in train_idx]
        yield train_multinomial_counted(train_rows, train_labels, alpha)


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


def auc_midrank_groupby(scores, is_positive):
    """Rank-sum AUC: each run of equal scores in sorted order shares the mean
    of the 1-based ranks it spans; the positives' rank sum gives the AUC."""
    positives = sum(1 for flag in is_positive if flag)
    negatives = len(is_positive) - positives
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    cursor = 0
    for _, tied in itertools.groupby(order, key=scores.__getitem__):
        tied = list(tied)
        tie_end = cursor + len(tied) - 1
        midrank = (cursor + tie_end) / 2.0 + 1.0
        for index in tied:
            ranks[index] = midrank
        cursor = tie_end + 1
    positive_rank_sum = math.fsum(rank for rank, flag in zip(ranks, is_positive) if flag)
    return (positive_rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def confusion_nested_loop(truth, predicted, class_order):
    """``(matrix, tp_rates, fp_rates)``: each instance adds one to its cell;
    each class's column total is summed down the rows."""
    index = {label: i for i, label in enumerate(class_order)}
    size = len(class_order)
    matrix = [[0] * size for _ in range(size)]
    for true_label, predicted_label in zip(truth, predicted):
        matrix[index[true_label]][index[predicted_label]] += 1
    tp_rates, fp_rates = {}, {}
    for i, label in enumerate(class_order):
        row_total = sum(matrix[i])
        column_total = sum(matrix[j][i] for j in range(size))
        false_positives = column_total - matrix[i][i]
        tp_rates[label] = matrix[i][i] / row_total if row_total else 0.0
        rest = len(truth) - row_total
        fp_rates[label] = false_positives / rest if rest else 0.0
    return matrix, tp_rates, fp_rates


def predict_gaussian_absent_loop(model, instance):
    """``(labels, probabilities)``: per class, the exact partials of the
    all-absent log-likelihood, then for each present feature with a mean its
    negated absent term and its density term; ``fsum``, with ``-inf`` for a
    class that overflows and the priors when no class is left; log-sum-exp."""
    if model.vocabulary is None:
        present = [(feature, value) for feature, value in enumerate(instance) if value is not None]
    else:
        present = [
            (model.term_index[term], value)
            for term, value in instance.items()
            if term in model.term_index
        ]
    log_scores = []
    for index in range(len(model.class_labels)):
        terms = list(model.absent_partials[index])
        try:
            for feature, value in present:
                mean = model.means[index][feature]
                if mean is None:
                    continue
                d = value - mean
                terms.append(-model.absent_terms[index][feature])
                log_norm = model.log_norms[index][feature]
                terms.append(-0.5 * (log_norm + d * d / model.variances[index][feature]))
            log_scores.append(model.log_priors[index] + math.fsum(terms))
        except OverflowError:
            log_scores.append(-math.inf)
    if max(log_scores) == -math.inf:
        log_scores = list(model.log_priors)
    peak = max(log_scores)
    shifted = [math.exp(score - peak) for score in log_scores]
    total = math.fsum(shifted)
    return model.class_labels, tuple(value / total for value in shifted)


def _rating(raw):
    if not 1.0 <= raw <= 9.0:
        raise LexiconError(f"rating {raw!r} is outside the [1, 9] scale")
    return (raw - 1.0) / 8.0


def _sd(raw_sd):
    if not 0.0 <= raw_sd < math.inf:
        raise LexiconError(f"standard deviation {raw_sd!r} is not finite and non-negative")
    return raw_sd / 8.0


def parse_lexicon_rows(text):
    """The row-by-row lexicon parser: the table of means, or a LexiconError.

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
    table, first_line = {}, {}
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
        first_line[word] = line_no
    if not table:
        raise LexiconError("lexicon contains no entries")
    return table


def fsum_total(counts):
    """The exact sum of int counts, else ``math.fsum``: one rounding, so the
    same bits on every Python (``sum`` compensates floats from 3.12 on)."""
    counts = list(counts)
    if all(type(count) is int for count in counts):
        return sum(counts)
    return math.fsum(counts)


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
    total = fsum_total(counts)
    low = tuple(map(min, values))
    high = tuple(map(max, values))
    means = []
    sds = []
    for column, lo, hi in zip(values, low, high):
        mean = math.fsum(map(operator.mul, counts, column)) / total
        mean = min(max(mean, lo), hi)
        squares = (count * (d * d) for count, d in zip(counts, [value - mean for value in column]))
        variance = math.fsum(squares) / total
        means.append(mean)
        sds.append(math.sqrt(variance) if variance > 0 else 0.0)
    score = AffectScore(*means, *sds, len(counts), total)
    return MatchStats(counts, values, low, high, score)


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


def generate_per_token(profiles, lexicon, seed, start=DEFAULT_START):
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
                    genre=profile.label,
                    timestamp=start + serial * SPACING,
                )
            )
            serial += 1
    return tuple(documents)


def default_origin(documents):
    """Earliest timestamp of loaded documents, truncated to midnight UTC."""
    if not documents:
        raise ValueError("corpus has no documents, so --window needs --origin")
    return min(doc.timestamp for doc in documents).replace(hour=0, minute=0, second=0)


def score_windows_resident(documents, channel, lexicon, window_length, origin):
    """One channel's series from resident documents, rescanned per channel,
    pooled per window index from a known origin and scored by
    :func:`match_stats_lookup`."""
    table = lexicon.table
    buckets = defaultdict(dict)
    for doc in (doc for doc in documents if doc.channel == channel):
        bucket = buckets[(doc.timestamp - origin) // window_length]
        for term, count in doc.term_counts.items():
            if term in table:
                bucket[term] = bucket.get(term, 0) + count
    if not buckets:
        return AffectSeries(channel, window_length, ())
    points = []
    for index in range(min(buckets), max(buckets) + 1):
        start = origin + index * window_length
        stats = match_stats_lookup(buckets[index], lexicon) if index in buckets else None
        points.append(SeriesPoint(start, None if stats is None else stats.score))
    return AffectSeries(channel, window_length, tuple(points))


def _csv_text(rows):
    """``rows`` of ready-formatted string fields, as the writers' CSV text."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def score_csv_formatted(header, keyed_scores):
    """The ``score`` CSV of (leading fields, AffectScore) pairs, with no
    skipped section; ``repr`` of an int count is its ``str``."""
    return _csv_text([header, *([*key, *map(repr, score)] for key, score in keyed_scores)])


def series_csv_formatted(series_list):
    """Reference for ``affect.series_to_csv``."""
    rows = [SERIES_CSV_HEADER]
    for series in series_list:
        for point in series.points:
            row = [series.channel, format_timestamp(point.start)]
            if point.score is None:
                row.extend([""] * 7)
            else:
                row.extend(map(repr, point.score[:6]))
                row.append(str(point.score.matched_token_total))
            rows.append(row)
    return _csv_text(rows)


def features_csv_formatted(documents, lexicon):
    """Reference for ``features.features_to_csv``'s text."""
    rows = [("id", "genre") + FEATURE_NAMES]
    for doc in documents:
        row = extract_meta(doc, lexicon)
        statistics = ["" if value is None else repr(value) for value in row[:15]]
        counts = [str(int(value)) for value in row[15:]]
        rows.append([doc.id, doc.genre or "", *statistics, *counts])
    return _csv_text(rows)


def report_csv_formatted(report):
    """Reference for ``evaluation.report_to_csv``."""
    rows = [("genre", "tp_rate", "fp_rate", "auc")]
    rows += [(m.label, repr(m.tp_rate), repr(m.fp_rate), repr(m.auc)) for m in report.class_metrics]
    weighted = (report.weighted_tp_rate, report.weighted_fp_rate, report.weighted_auc)
    rows.append(("weighted_average", *map(repr, weighted)))
    return _csv_text(rows)
