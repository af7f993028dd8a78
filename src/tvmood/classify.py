"""Naive Bayes classifiers.

Two variants: Gaussian and multinomial. Multinomial takes sparse term
counts with additive smoothing. Gaussian takes either dense real vectors
or sparse term counts through one trainer and one predictor, which differ
only in what an absent feature means: a missing entry of a dense row
(``None``) contributes no likelihood term, like a feature a class never
saw, while a term absent from a count mapping counts 0. Both variants
predict through log space with log-sum-exp normalization, so posteriors
are always finite and sum to one.

Gaussian training makes one pass over the instances, collecting each
feature's present values per class, and costs O(nnz + F*C) for nnz
present values, F features (for counts, the training vocabulary) and C
classes; the zero counts are never materialised. Moments are computed once
per distinct (zero count, values) pattern, which sparse counts repeat
often: on perfbench's cv-gauss-wide this took ``job_s`` from 1.48 to 1.15
reference s (2-vCPU VM, Python 3.11.7). Equal patterns give equal bits:
both sums of a fit are ``math.fsum``, exact and so independent of order,
and values that compare equal (``0.0`` and ``-0.0``, ``1`` and ``1.0``)
sum alike. Prediction costs O(C * nnz) per instance: each class holds the
all-absent instance's log-likelihood as an exact sum of floats (empty for
dense rows), and an instance only corrects the features it has. Both use
``math.fsum``, which rounds the exact sum once, so a model over counts
equals the model over the densified rows bit for bit, moments and
posteriors alike.

Models are immutable after training and serialize to a versioned JSON
document that round-trips predictions bit-exactly.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

# Variance floor scale, relative to the largest per-feature variance of the
# training data. Keeps constant features from producing infinite densities.
VARIANCE_FLOOR_SCALE = 1e-9

MODEL_FORMAT_VERSION = 1

Instance = Sequence[Optional[float]]
Counts = Mapping[str, int]


@dataclass(frozen=True, slots=True)
class Posterior:
    """Class probabilities in a fixed label order.

    ``predicted_label`` is the argmax; exact ties resolve to the first
    label in the model's canonical order.
    """

    labels: tuple[str, ...]
    probabilities: tuple[float, ...]

    @property
    def predicted_label(self) -> str:
        best = max(range(len(self.labels)), key=lambda i: self.probabilities[i])
        return self.labels[best]

    def probability(self, label: str) -> float:
        return self.probabilities[self.labels.index(label)]


def _log_priors(labels: Sequence[str], class_labels: tuple[str, ...]) -> tuple[float, ...]:
    support = Counter(labels)
    return tuple(math.log(support[label] / len(labels)) for label in class_labels)


def _normalize_log_scores(
    class_labels: tuple[str, ...], log_scores: Sequence[float]
) -> Posterior:
    peak = max(log_scores)
    shifted = [math.exp(score - peak) for score in log_scores]
    total = math.fsum(shifted)
    return Posterior(class_labels, tuple(value / total for value in shifted))


def _split(value: float) -> tuple[float, float]:
    """Veltkamp split: ``hi + lo == value`` exactly, each with <= 26 significant bits.

    So ``n * hi`` and ``n * lo`` are exact for any integer ``n < 2**27``.
    """
    scaled = 134217729.0 * value  # 2**27 + 1
    hi = scaled - (scaled - value)
    return hi, value - hi


def _moments(
    values: list[float], zeros: int, feature: str | int
) -> tuple[Optional[float], Optional[float]]:
    """Population mean and variance of ``values`` plus ``zeros`` implicit zeros.

    ``(None, None)`` when there is nothing at all. Bit-identical to the
    two-pass moments of the padded list: both fsums see the same exact sum,
    since the zeros' equal squares enter as two exact products. Raises
    ValueError naming ``feature`` when the variance is not a finite float.
    """
    if not values:
        return (0.0, 0.0) if zeros else (None, None)
    n = len(values) + zeros
    try:
        mean = math.fsum(values) / n
        squares = [(value - mean) ** 2 for value in values]
        if zeros:
            hi, lo = _split((0.0 - mean) ** 2)
            squares += (zeros * hi, zeros * lo)
        variance = math.fsum(squares) / n
        if math.isfinite(variance):
            return mean, variance
    except OverflowError:  # a square or a sum ran past the float range
        pass
    raise ValueError(f"feature {feature!r}: the variance of its values is not finite")


def _exact_partials(values: list[float]) -> tuple[float, ...]:
    """A few floats whose exact sum is the exact sum of ``values``.

    A non-overlapping expansion, like the partials of Shewchuk's ``msum``:
    the rounded sum, then the rounded remainder, until nothing remains.
    ``fsum(partials + more)`` therefore equals ``fsum(values + more)``.
    """
    partials: list[float] = []
    while True:
        rest = math.fsum(values + [-p for p in partials])
        if not rest:
            return tuple(partials)
        partials.append(rest)


def _present(
    instance: Instance | Counts, counts: bool, feature_count: int, kind_error: str
) -> Mapping:
    """The instance's present features: the term counts themselves, or the
    non-missing entries of a dense row keyed by position."""
    if isinstance(instance, Mapping) != counts:
        raise ValueError(kind_error)
    if counts:
        return instance
    if len(instance) != feature_count:
        raise ValueError(f"instance has {len(instance)} features, expected {feature_count}")
    return {feature: value for feature, value in enumerate(instance) if value is not None}


@dataclass(frozen=True, slots=True)
class GaussianNbModel:
    """Per class and feature: mean and floored variance of training values.

    ``means[c][f]`` is None when class ``c`` had no non-missing value for
    feature ``f``; such pairs are skipped at prediction.

    A model trained on term counts has a ``vocabulary``: feature ``f`` is
    the count of ``vocabulary[f]``, and an absent term is a zero count. In
    a dense model an absent feature is missing. The derived fields hold,
    per class and feature, ``log(2*pi*variance)`` and the log-density of an
    absent feature (0.0 when missing), and per class the exact partials of
    the all-absent instance's log-likelihood.
    """

    class_labels: tuple[str, ...]
    log_priors: tuple[float, ...]
    means: tuple[tuple[Optional[float], ...], ...]
    variances: tuple[tuple[Optional[float], ...], ...]
    variance_floor: float
    feature_count: int
    vocabulary: Optional[tuple[str, ...]] = None
    term_index: dict[str | int, int] = field(init=False, repr=False, compare=False)
    log_norms: tuple[tuple[Optional[float], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    absent_terms: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    absent_partials: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = self.vocabulary is not None
        features = self.vocabulary if counts else range(self.feature_count)
        for label, variances in zip(self.class_labels, self.variances):
            # the log needs v > 0; a NaN passes here and fails the finite check below
            bad = next((i for i, v in enumerate(variances) if v is not None and v <= 0.0), None)
            if bad is not None:
                what = f"variance {variances[bad]!r} is not positive"
                raise ValueError(f"class {label!r}, feature {features[bad]!r}: {what}")
        log_norms = tuple(
            tuple(None if v is None else math.log(2.0 * math.pi * v) for v in row)
            for row in self.variances
        )
        for label, variances, norms in zip(self.class_labels, self.variances, log_norms):
            if not math.isfinite(sum(filter(None, norms))):  # each finite log is below 710
                bad = next(i for i, n in enumerate(norms) if n and not math.isfinite(n))
                what = f"2*pi*variance is not finite for variance {variances[bad]!r}"
                raise ValueError(f"class {label!r}, feature {features[bad]!r}: {what}")
        # the expression predict_gaussian evaluates for a zero count
        absent_terms = tuple(
            tuple(
                -0.5 * (log_norm + (0.0 - mean) ** 2 / variance) if counts else 0.0
                for mean, variance, log_norm in zip(means, variances, norms)
            )
            for means, variances, norms in zip(self.means, self.variances, log_norms)
        )
        object.__setattr__(self, "term_index", {term: i for i, term in enumerate(features)})
        object.__setattr__(self, "log_norms", log_norms)
        object.__setattr__(self, "absent_terms", absent_terms)
        object.__setattr__(
            self, "absent_partials", tuple(_exact_partials(list(row)) for row in absent_terms)
        )


def train_gaussian(
    instances: Sequence[Instance] | Sequence[Counts], labels: Sequence[str]
) -> GaussianNbModel:
    """Fit per-class, per-feature Gaussians.

    Moments use the population form over non-missing values. Variances are
    floored at ``1e-9`` times the largest per-feature variance of the whole
    training set (or at ``1e-9`` when every feature is constant). Priors
    are class frequencies.

    Instances are either dense rows or term-count mappings. Over counts,
    the features are the training vocabulary and an absent term counts 0;
    the model equals the one trained on the densified rows.
    """
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
    # feature -> per-class lists of the feature's present values
    present: dict[str | int, list[list[float]]] = {}
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
    unseen: list[list[float]] = [[] for _ in class_labels]
    per_feature = [present.get(feature, unseen) for feature in features]
    fits: dict[tuple, list] = {}  # (zeros, *values) -> moments; equal keys, equal bits

    def fit(values: list[float], zeros: int, feature: str | int) -> list:
        moments = fits.setdefault((zeros, *values), [])  # one hash of the key
        if not moments:  # a miss; an error leaves it empty, and training stops
            moments += _moments(values, zeros, feature)
        return moments

    global_max_variance = 0.0
    for feature, per_class in zip(features, per_feature):
        values = [value for class_values in per_class for value in class_values]
        _, variance = fit(values, len(instances) - len(values) if counts else 0, feature)
        global_max_variance = max(global_max_variance, variance or 0.0)
    variance_floor = (
        # at least the smallest normal float, so log(2*pi*variance) is finite
        max(VARIANCE_FLOOR_SCALE * global_max_variance, sys.float_info.min)
        if global_max_variance > 0
        else VARIANCE_FLOOR_SCALE
    )

    means = []
    variances = []
    for index, size in enumerate(class_sizes):
        moments = [
            fit(per_class[index], size - len(per_class[index]) if counts else 0, feature)
            for feature, per_class in zip(features, per_feature)
        ]
        means.append(tuple(mean for mean, _ in moments))
        variances.append(
            tuple(None if v is None else max(v, variance_floor) for _, v in moments)
        )

    return GaussianNbModel(
        class_labels=class_labels,
        log_priors=_log_priors(labels, class_labels),
        means=tuple(means),
        variances=tuple(variances),
        variance_floor=variance_floor,
        feature_count=len(features),
        vocabulary=vocabulary,
    )


def predict_gaussian(model: GaussianNbModel, instance: Instance | Counts) -> Posterior:
    """Posterior over classes for one instance.

    Missing entries and (class, feature) pairs without training data are
    skipped. A class whose log-likelihood overflows gets probability 0; an
    instance with no usable feature, or no class left, gets the priors. A
    model trained on term counts takes a term-count mapping and ignores
    terms outside its vocabulary.
    """
    counts = model.vocabulary is not None
    kind_error = (
        "model was trained on term counts; expected a mapping"
        if counts
        else "model was trained on dense rows; got a mapping"
    )
    present = [
        (model.term_index[feature], value)
        for feature, value in _present(instance, counts, model.feature_count, kind_error).items()
        if feature in model.term_index
    ]
    log_scores = []
    for index in range(len(model.class_labels)):
        means = model.means[index]
        variances = model.variances[index]
        log_norms = model.log_norms[index]
        absent_terms = model.absent_terms[index]
        terms = list(model.absent_partials[index])
        try:
            for feature, value in present:
                mean = means[feature]
                if mean is None:
                    continue
                terms.append(-absent_terms[feature])
                terms.append(
                    -0.5 * (log_norms[feature] + (value - mean) ** 2 / variances[feature])
                )
            log_scores.append(model.log_priors[index] + math.fsum(terms))
        except OverflowError:  # a square or the sum ran past the float range
            log_scores.append(-math.inf)
    if max(log_scores) == -math.inf:
        log_scores = list(model.log_priors)
    return _normalize_log_scores(model.class_labels, log_scores)


@dataclass(frozen=True, slots=True)
class MultinomialNbModel:
    """Smoothed per-class term distributions over the training vocabulary."""

    class_labels: tuple[str, ...]
    log_priors: tuple[float, ...]
    vocabulary: tuple[str, ...]
    log_term_probs: tuple[tuple[float, ...], ...]
    alpha: float
    term_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "term_index", {term: i for i, term in enumerate(self.vocabulary)}
        )


class AlphaError(ValueError):
    """A smoothing weight the multinomial model cannot use."""


def check_alpha(alpha: float) -> None:
    """Reject a smoothing weight that is not a positive finite number."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise AlphaError(f"alpha must be a positive finite number, got {alpha}")


def train_multinomial(
    instances: Sequence[Mapping[str, int]],
    labels: Sequence[str],
    alpha: float = 1.0,
) -> MultinomialNbModel:
    """Fit smoothed term distributions per class.

    ``P(term | class) = (count + alpha) / (class total + alpha * |V|)`` with
    the vocabulary V taken from the training instances only. Raises
    :class:`AlphaError` when that denominator is not a finite float.
    """
    if len(instances) != len(labels):
        raise ValueError("instances and labels have different lengths")
    if not instances:
        raise ValueError("no training instances")
    check_alpha(alpha)
    class_labels = tuple(sorted(set(labels)))
    if len(class_labels) < 2:
        raise ValueError("training data contains a single class")
    class_of = {label: index for index, label in enumerate(class_labels)}
    class_counts: list[dict[str, int]] = [{} for _ in class_labels]
    for vector, label in zip(instances, labels):
        counts = class_counts[class_of[label]]
        for term, count in vector.items():
            counts[term] = counts.get(term, 0) + count
    vocabulary = tuple(sorted({term for counts in class_counts for term in counts}))
    if not vocabulary:
        raise ValueError("empty vocabulary: no training instance has any term")

    log_term_probs = []
    for counts in class_counts:
        smoothed_total = sum(counts.values()) + alpha * len(vocabulary)
        if math.isinf(smoothed_total):
            raise AlphaError(f"alpha {alpha!r} times {len(vocabulary)} terms overflows")
        denominator = math.log(smoothed_total)
        log_term_probs.append(
            tuple(
                math.log(counts.get(term, 0) + alpha) - denominator
                for term in vocabulary
            )
        )

    return MultinomialNbModel(
        class_labels=class_labels,
        log_priors=_log_priors(labels, class_labels),
        vocabulary=vocabulary,
        log_term_probs=tuple(log_term_probs),
        alpha=alpha,
    )


def predict_multinomial(
    model: MultinomialNbModel, instance: Mapping[str, int]
) -> Posterior:
    """Posterior over classes for one term-count vector.

    Terms outside the training vocabulary are ignored; an empty instance
    yields the priors.
    """
    term_index = model.term_index
    known = [term for term in instance if term in term_index]
    columns = list(map(term_index.__getitem__, known))
    counts = list(map(instance.__getitem__, known))
    log_scores = [
        prior + math.fsum(map(operator.mul, counts, map(row.__getitem__, columns)))
        for prior, row in zip(model.log_priors, model.log_term_probs)
    ]
    return _normalize_log_scores(model.class_labels, log_scores)


def model_to_json(model: GaussianNbModel | MultinomialNbModel) -> str:
    """Serialize a trained model to versioned JSON.

    Floats are written in shortest round-trip form, so a reloaded model
    predicts bit-exactly like the original.
    """
    if isinstance(model, GaussianNbModel):
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "gaussian",
            "class_labels": list(model.class_labels),
            "log_priors": list(model.log_priors),
            "variance_floor": model.variance_floor,
            "feature_count": model.feature_count,
            "means": [list(row) for row in model.means],
            "variances": [list(row) for row in model.variances],
        }
        if model.vocabulary is not None:
            payload["vocabulary"] = list(model.vocabulary)
    elif isinstance(model, MultinomialNbModel):
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "multinomial",
            "class_labels": list(model.class_labels),
            "log_priors": list(model.log_priors),
            "alpha": model.alpha,
            "vocabulary": list(model.vocabulary),
            "log_term_probs": [list(row) for row in model.log_term_probs],
        }
    else:
        raise TypeError(f"not a model: {model!r}")
    return json.dumps(payload, indent=2)


def model_from_json(text: str) -> GaussianNbModel | MultinomialNbModel:
    """Reload a model serialized by :func:`model_to_json`."""
    payload = json.loads(text)
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = payload.get("kind")
    if kind == "gaussian":
        return GaussianNbModel(
            class_labels=tuple(payload["class_labels"]),
            log_priors=tuple(payload["log_priors"]),
            means=tuple(tuple(row) for row in payload["means"]),
            variances=tuple(tuple(row) for row in payload["variances"]),
            variance_floor=payload["variance_floor"],
            feature_count=payload["feature_count"],
            vocabulary=(
                tuple(payload["vocabulary"]) if "vocabulary" in payload else None
            ),
        )
    if kind == "multinomial":
        return MultinomialNbModel(
            class_labels=tuple(payload["class_labels"]),
            log_priors=tuple(payload["log_priors"]),
            vocabulary=tuple(payload["vocabulary"]),
            log_term_probs=tuple(tuple(row) for row in payload["log_term_probs"]),
            alpha=payload["alpha"],
        )
    raise ValueError(f"unknown model kind {kind!r}")
