"""Naive Bayes classifiers.

Two variants: Gaussian and multinomial. Gaussian takes either dense real
vectors (missing entries allowed; a missing feature simply contributes no
likelihood term, and so does a feature a class never saw) or sparse term
counts, where an absent term counts 0. Multinomial takes sparse term
counts with additive smoothing. Both predict through log space with
log-sum-exp normalization, so posteriors are always finite and sum to one.

Gaussian NB over term counts is the dense model over the training
vocabulary, computed without materialising the zeros. Training makes one
pass over the instances and costs O(nnz + V*C) for nnz nonzero counts, V
vocabulary terms and C classes. Prediction costs O(C * nnz) per instance:
each class holds the all-zero document's log-likelihood as an exact sum
of floats, and a document only corrects the terms it contains. Both use
``math.fsum``, which rounds the exact sum once, so moments and posteriors
equal the dense computation on the densified rows bit for bit.

Models are immutable after training and serialize to a versioned JSON
document that round-trips predictions bit-exactly.
"""

from __future__ import annotations

import json
import math
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

    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.labels, self.probabilities))


def _log_priors(labels: Sequence[str], class_labels: tuple[str, ...]) -> tuple[float, ...]:
    total = len(labels)
    return tuple(
        math.log(sum(1 for value in labels if value == label) / total)
        for label in class_labels
    )


def _normalize_log_scores(
    class_labels: tuple[str, ...], log_scores: Sequence[float]
) -> Posterior:
    peak = max(log_scores)
    shifted = [math.exp(score - peak) for score in log_scores]
    total = math.fsum(shifted)
    return Posterior(class_labels, tuple(value / total for value in shifted))


def _population_moments(values: Sequence[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    variance = math.fsum((value - mean) ** 2 for value in values) / len(values)
    return mean, variance


def _split(value: float) -> tuple[float, float]:
    """Veltkamp split: ``hi + lo == value`` exactly, each with <= 26 significant bits.

    So ``n * hi`` and ``n * lo`` are exact for any integer ``n < 2**27``.
    """
    scaled = 134217729.0 * value  # 2**27 + 1
    hi = scaled - (scaled - value)
    return hi, value - hi


def _padded_moments(nonzero: Sequence[int], n: int) -> tuple[float, float]:
    """``_population_moments`` of ``nonzero`` padded with zeros to ``n`` values.

    Bit-identical to the padded call: both fsums see the same exact sum,
    since the ``n - len(nonzero)`` equal squares of the zeros enter as two
    exact products.
    """
    if not nonzero:
        return 0.0, 0.0
    mean = math.fsum(nonzero) / n
    hi, lo = _split((0.0 - mean) ** 2)
    zeros = n - len(nonzero)
    squares = [(value - mean) ** 2 for value in nonzero]
    squares += (zeros * hi, zeros * lo)
    return mean, math.fsum(squares) / n


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


@dataclass(frozen=True, slots=True)
class GaussianNbModel:
    """Per class and feature: mean and floored variance of training values.

    ``means[c][f]`` is None when class ``c`` had no non-missing value for
    feature ``f``; such pairs are skipped at prediction.

    A model trained on term counts has a ``vocabulary``: feature ``f`` is
    the count of ``vocabulary[f]``. Its derived fields hold, per class and
    term, ``log(2*pi*variance)`` and the log-density of a zero count, and
    per class the exact partials of the all-zero document's log-likelihood.
    """

    class_labels: tuple[str, ...]
    log_priors: tuple[float, ...]
    means: tuple[tuple[Optional[float], ...], ...]
    variances: tuple[tuple[Optional[float], ...], ...]
    variance_floor: float
    feature_count: int
    vocabulary: Optional[tuple[str, ...]] = None
    term_index: dict[str, int] = field(init=False, repr=False, compare=False)
    log_norms: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    zero_terms: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    zero_partials: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vocabulary = self.vocabulary or ()
        log_norms: tuple[tuple[float, ...], ...] = ()
        zero_terms: tuple[tuple[float, ...], ...] = ()
        if vocabulary:
            log_norms = tuple(
                tuple(math.log(2.0 * math.pi * variance) for variance in row)
                for row in self.variances
            )
            # the expression predict_gaussian evaluates for a zero entry
            zero_terms = tuple(
                tuple(
                    -0.5 * (log_norm + (0.0 - mean) ** 2 / variance)
                    for mean, variance, log_norm in zip(means, variances, norms)
                )
                for means, variances, norms in zip(self.means, self.variances, log_norms)
            )
        object.__setattr__(self, "term_index", {term: i for i, term in enumerate(vocabulary)})
        object.__setattr__(self, "log_norms", log_norms)
        object.__setattr__(self, "zero_terms", zero_terms)
        object.__setattr__(
            self, "zero_partials", tuple(_exact_partials(list(row)) for row in zero_terms)
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
    if isinstance(instances[0], Mapping):
        return _train_gaussian_counts(instances, labels, class_labels)
    feature_count = len(instances[0])
    for instance in instances:
        if len(instance) != feature_count:
            raise ValueError("training instances have inconsistent arity")

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

    means: list[tuple[Optional[float], ...]] = []
    variances: list[tuple[Optional[float], ...]] = []
    for label in class_labels:
        class_instances = [x for x, y in zip(instances, labels) if y == label]
        class_means: list[Optional[float]] = []
        class_variances: list[Optional[float]] = []
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

    return GaussianNbModel(
        class_labels=class_labels,
        log_priors=_log_priors(labels, class_labels),
        means=tuple(means),
        variances=tuple(variances),
        variance_floor=variance_floor,
        feature_count=feature_count,
    )


def _train_gaussian_counts(
    instances: Sequence[Counts], labels: Sequence[str], class_labels: tuple[str, ...]
) -> GaussianNbModel:
    class_of = {label: index for index, label in enumerate(class_labels)}
    class_sizes = [0] * len(class_labels)
    # term -> per-class lists of the term's nonzero counts
    nonzero: dict[str, list[list[int]]] = {}
    for vector, label in zip(instances, labels):
        if not isinstance(vector, Mapping):
            raise ValueError("training instances mix term counts and dense rows")
        index = class_of[label]
        class_sizes[index] += 1
        for term, count in vector.items():
            per_class = nonzero.get(term)
            if per_class is None:
                per_class = nonzero[term] = [[] for _ in class_labels]
            per_class[index].append(count)
    vocabulary = tuple(sorted(nonzero))
    if not vocabulary:
        raise ValueError("empty vocabulary: no training instance has any term")

    global_max_variance = 0.0
    for term in vocabulary:
        values = [count for per_class in nonzero[term] for count in per_class]
        _, variance = _padded_moments(values, len(instances))
        global_max_variance = max(global_max_variance, variance)
    variance_floor = (
        VARIANCE_FLOOR_SCALE * global_max_variance
        if global_max_variance > 0
        else VARIANCE_FLOOR_SCALE
    )

    means = []
    variances = []
    for index, size in enumerate(class_sizes):
        moments = [_padded_moments(nonzero[term][index], size) for term in vocabulary]
        means.append(tuple(mean for mean, _ in moments))
        variances.append(tuple(max(variance, variance_floor) for _, variance in moments))

    return GaussianNbModel(
        class_labels=class_labels,
        log_priors=_log_priors(labels, class_labels),
        means=tuple(means),
        variances=tuple(variances),
        variance_floor=variance_floor,
        feature_count=len(vocabulary),
        vocabulary=vocabulary,
    )


def predict_gaussian(model: GaussianNbModel, instance: Instance | Counts) -> Posterior:
    """Posterior over classes for one instance.

    Missing entries and (class, feature) pairs without training data are
    skipped; an instance with no usable feature falls back to the priors.
    A model trained on term counts takes a term-count mapping and ignores
    terms outside its vocabulary.
    """
    if model.vocabulary is not None:
        if not isinstance(instance, Mapping):
            raise ValueError("model was trained on term counts; expected a mapping")
        return _predict_gaussian_counts(model, instance)
    if len(instance) != model.feature_count:
        raise ValueError(
            f"instance has {len(instance)} features, model expects "
            f"{model.feature_count}"
        )
    log_scores = []
    for index in range(len(model.class_labels)):
        score = model.log_priors[index]
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
        log_scores.append(score + math.fsum(terms))
    return _normalize_log_scores(model.class_labels, log_scores)


def _predict_gaussian_counts(model: GaussianNbModel, instance: Counts) -> Posterior:
    # the all-zero document's sum, minus the zero-count term and plus the
    # actual term of each count the document has
    present = [
        (model.term_index[term], count)
        for term, count in instance.items()
        if term in model.term_index
    ]
    log_scores = []
    for index in range(len(model.class_labels)):
        means = model.means[index]
        variances = model.variances[index]
        log_norms = model.log_norms[index]
        zero_terms = model.zero_terms[index]
        terms = list(model.zero_partials[index])
        for feature, value in present:
            terms.append(-zero_terms[feature])
            terms.append(
                -0.5 * (log_norms[feature] + (value - means[feature]) ** 2 / variances[feature])
            )
        log_scores.append(model.log_priors[index] + math.fsum(terms))
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


def check_alpha(alpha: float) -> None:
    """Reject a smoothing weight that is not a positive finite number."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive finite number, got {alpha}")


def train_multinomial(
    instances: Sequence[Mapping[str, int]],
    labels: Sequence[str],
    alpha: float = 1.0,
) -> MultinomialNbModel:
    """Fit smoothed term distributions per class.

    ``P(term | class) = (count + alpha) / (class total + alpha * |V|)`` with
    the vocabulary V taken from the training instances only.
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
        class_total = sum(counts.values())
        denominator = math.log(class_total + alpha * len(vocabulary))
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
    log_scores = []
    for index in range(len(model.class_labels)):
        row = model.log_term_probs[index]
        terms = [
            count * row[model.term_index[term]]
            for term, count in instance.items()
            if term in model.term_index
        ]
        log_scores.append(model.log_priors[index] + math.fsum(terms))
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
