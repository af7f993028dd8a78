"""Naive Bayes classifiers.

Two variants: Gaussian and multinomial. Multinomial takes sparse term
counts with additive smoothing. Gaussian takes either dense real vectors
or sparse term counts through one trainer and one predictor, which differ
only in what an absent feature means: a missing entry of a dense row
(``None``) contributes no likelihood term, like a feature a class never
saw, while a term absent from a count mapping counts 0. Both variants
predict through log space with log-sum-exp normalization, so posteriors
are always finite and sum to one.

Gaussian training makes one pass over the instances that collects per
class: each class keeps one dict from feature to the list of its present
values, with a list only where the class has values. It costs O(nnz + F*C)
for nnz present values, F features (for counts, the training vocabulary)
and C classes; the zero counts are never materialised. A class's key for a
feature is the tuple of its values (empty where it has none), and the whole
training set's key chains the class keys in class order. Fits live in one
table per class size (and one for the whole training set), keyed by such a
tuple, which sparse counts repeat often: each distinct pattern's
moments and floored variance are computed once, and a class's rows are
gathered from its table in C-level ``map`` passes. The model likewise
derives ``log(2*pi*variance)`` once per distinct variance and the
absent-feature term once per distinct (mean, variance), so equal entries
share one float object. On perfbench's cv-gauss-wide this took ``job_s``
from 1.13 to 0.90 reference s (``BENCH_15.json``; 2-vCPU VM, Python
3.11.7). Equal patterns give equal bits: both sums of a fit are
``math.fsum``, exact and so independent of order, and values that compare
equal (``0.0`` and ``-0.0``, ``1`` and ``1.0``) sum alike; so do the
derived floats, which are pure functions of such values. Prediction costs
O(C * nnz) per instance: each class holds the all-absent instance's
log-likelihood as an exact sum of floats (empty for dense rows), and an
instance only corrects the features it has. Both use
``math.fsum``, which rounds the exact sum once, so a model over counts
equals the model over the densified rows bit for bit, moments and
posteriors alike.

A multinomial model is a pure function of its per-class term counts and
class sizes, so cross-validation counts each instance once per run
(:func:`multinomial_fold_models`), and :func:`train_multinomial` is the
one-fold case of the same counting. Prediction looks up each known term's
column of per-class log probabilities once.

Models are immutable after training, check that their fields agree in
shape, and serialize to a versioned JSON document of those fields that
round-trips predictions bit-exactly.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from itertools import chain, repeat
from operator import is_, itemgetter, mul
from typing import NamedTuple, Optional

from .record import Record, unique_keys

# Variance floor scale, relative to the largest per-feature variance of the
# training data. Keeps constant features from producing infinite densities.
VARIANCE_FLOOR_SCALE = 1e-9

MODEL_FORMAT_VERSION = 1
DEFAULT_ALPHA = 1.0  # the multinomial smoothing weight when none is given

Instance = Sequence[Optional[float]]
Counts = Mapping[str, int]


class Posterior(NamedTuple):
    """Class probabilities in a fixed label order.

    ``predicted_label`` is the argmax; exact ties resolve to the first
    label in the model's canonical order.
    """

    labels: tuple[str, ...]
    probabilities: tuple[float, ...]

    @property
    def predicted_label(self) -> str:
        return self.labels[self.probabilities.index(max(self.probabilities))]

    def probability(self, label: str) -> float:
        return self.probabilities[self.labels.index(label)]


def _log_priors(sizes: Sequence[int]) -> tuple[float, ...]:
    """Each class's log frequency, from the class sizes in class order."""
    n = sum(sizes)
    return tuple(math.log(size / n) for size in sizes)


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


def _moments(values: Sequence[float], zeros: int) -> tuple[Optional[float], Optional[float]]:
    """Population mean and variance of ``values`` plus ``zeros`` implicit zeros.

    ``(None, None)`` when there is nothing at all. Bit-identical to the
    two-pass moments of the padded list: both fsums see the same exact sum,
    since the zeros' equal squares enter as two exact products. Raises
    ValueError when the variance is not a finite float.
    """
    if not values:
        return (0.0, 0.0) if zeros else (None, None)
    n = len(values) + zeros
    try:
        mean = math.fsum(values) / n
        deviations = [value - mean for value in values]
        squares = list(map(mul, deviations, deviations))
        if zeros:
            hi, lo = _split(mean * mean)  # the square of a zero's deviation
            squares += (zeros * hi, zeros * lo)
        variance = math.fsum(squares) / n
        if math.isfinite(variance):  # an overflowing square is inf
            return mean, variance
    except OverflowError:  # a sum ran past the float range
        pass
    raise ValueError("the variance of its values is not finite")


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


class _Table(dict):
    """A dict that derives a missing value from its key once, on first lookup.

    ``map(table.__getitem__, keys)`` stays in C for every key already
    stored, so a pass over many equal keys costs one ``derive`` call per
    distinct key. A call that raises stores nothing.
    """

    __slots__ = ("derive",)

    def __init__(self, derive: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.derive = derive

    def __missing__(self, key: Hashable) -> object:
        value = self[key] = self.derive(key)
        return value


def _check_shape(model: Record, vocabulary: Optional[Sequence], width: int, *names: str) -> None:
    """Raise ValueError, naming the field, unless ``vocabulary`` is None or
    ``width`` distinct strings, the first named field holds one entry per
    class, and each other named field one row per class, ``width`` wide."""
    if vocabulary is not None and (  # the types first: a dict entry cannot be hashed
        set(map(type, vocabulary)) - {str} or not len(set(vocabulary)) == len(vocabulary) == width
    ):
        raise ValueError(f"vocabulary: not {width} distinct strings")
    labels = model.class_labels
    for index, name in enumerate(names):
        rows = getattr(model, name)
        if len(rows) != len(labels):
            raise ValueError(f"{name}: {len(rows)} entries for {len(labels)} classes")
        for label, row in zip(labels, rows if index else ()):
            if len(row) != width:
                raise ValueError(f"{name}: class {label!r} has {len(row)} entries, not {width}")


def _faults(model: Record, features: Sequence, absent_terms: Sequence[Sequence]) -> Iterator[str]:
    """The errors of the (class, feature) entries at fault, naming both: first
    each variance that is not positive, then each whose ``2*pi*variance`` is
    not finite, each zero-count log-density that is not finite, and each
    at which its class's exact sum of those runs past the float range."""
    rows = zip(model.class_labels, model.means, model.variances, absent_terms)
    entries = [
        (f"class {label!r}, feature {feature!r}", label, mean, v, term)
        for label, means, variances, terms in rows
        for feature, mean, v, term in zip(features, means, variances, terms)
    ]
    for where, _, _, v, _ in entries:
        if v is not None and v <= 0.0:  # a NaN passes here and fails below
            yield f"{where}: variance {v!r} is not positive"
    for where, _, _, v, _ in entries:
        if v is not None and not math.isfinite(2.0 * math.pi * v):
            yield f"{where}: 2*pi*variance is not finite for variance {v!r}"
    for where, _, mean, v, term in entries:
        if not math.isfinite(term):
            what = f"the log-density of a zero count is not finite for mean {mean!r}"
            yield f"{where}: {what}, variance {v!r}"
    sums: dict[str, tuple[float, ...]] = {}  # per class, the exact partials so far
    for where, label, _, _, term in entries:
        try:
            sums[label] = _exact_partials([*sums.get(label, ()), term])
        except OverflowError:
            yield f"{where}: the log-likelihood of an all-zero instance runs past the float range"
    raise AssertionError("every variance and zero-count log-density is usable")


class GaussianNbModel(Record):
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

    _fields = (
        "class_labels",
        "log_priors",
        "means",
        "variances",
        "variance_floor",
        "feature_count",
        "vocabulary",
    )
    __slots__ = _fields + ("term_index", "log_norms", "absent_terms", "absent_partials")

    def __init__(
        self,
        class_labels: tuple[str, ...],
        log_priors: tuple[float, ...],
        means: tuple[tuple[Optional[float], ...], ...],
        variances: tuple[tuple[Optional[float], ...], ...],
        variance_floor: float,
        feature_count: int,
        vocabulary: Optional[tuple[str, ...]] = None,
    ) -> None:
        super().__init__(
            class_labels, log_priors, means, variances, variance_floor, feature_count, vocabulary
        )
        counts = self.vocabulary is not None
        features = self.vocabulary if counts else range(self.feature_count)
        _check_shape(self, vocabulary, feature_count, "log_priors", "means", "variances")
        for label, means, variances in zip(self.class_labels, self.means, self.variances):
            missing = list(map(is_, means, repeat(None)))  # C-level passes
            if missing != list(map(is_, variances, repeat(None))) or counts and True in missing:
                for feature, mean, v in zip(features, means, variances):
                    if (mean is None) != (v is None) or counts and v is None:
                        what = "a counts model has no None" if counts else "only one is None"
                        pair = f"mean {mean!r}, variance {v!r}"
                        raise ValueError(f"class {label!r}, feature {feature!r}: {pair}: {what}")
        # each derived float is computed once per distinct value and shared by
        # the entries equal to it: a pure function of values that compare equal.
        # A variance that is not positive gets NaN, which fails the check below
        log_norm_of = _Table(
            lambda v: None if v is None else math.log(2.0 * math.pi * v) if v > 0 else math.nan
        )
        log_norms = tuple(tuple(map(log_norm_of.__getitem__, row)) for row in self.variances)

        def absent_term(pair: tuple[float, float]) -> float:
            """The expression predict_gaussian evaluates for a zero count: -inf
            when the square overflows, NaN when the variance is not positive."""
            mean, v = pair
            d = 0.0 - mean
            return -0.5 * (log_norm_of[v] + d * d / v) if v > 0 else math.nan

        absent_term_of = _Table(absent_term if counts else lambda pair: 0.0)
        absent_terms = tuple(
            tuple(map(absent_term_of.__getitem__, zip(means, variances)))
            for means, variances in zip(self.means, self.variances)
        )
        derived = chain(filter(None, log_norm_of.values()), absent_term_of.values())
        finite = all(map(math.isfinite, derived))  # one C-level pass, which a NaN fails too
        try:
            if finite:
                absent_partials = tuple(_exact_partials(list(row)) for row in absent_terms)
        except OverflowError:  # a class's sum of absent terms ran past the float range
            finite = False
        if not finite:
            raise ValueError(next(_faults(self, features, absent_terms)))
        object.__setattr__(self, "term_index", {term: i for i, term in enumerate(features)})
        object.__setattr__(self, "log_norms", log_norms)
        object.__setattr__(self, "absent_terms", absent_terms)
        object.__setattr__(self, "absent_partials", absent_partials)


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
    # per class, feature -> the present values; a list only where the class has values
    by_class: list[defaultdict[str | int, list[float]]] = [defaultdict(list) for _ in class_labels]
    for instance, label in zip(instances, labels):
        index = class_of[label]
        class_sizes[index] += 1
        lists = by_class[index]
        for feature, value in _present(instance, counts, feature_count, mix).items():
            lists[feature].append(value)
    vocabulary = tuple(sorted(set().union(*by_class))) if counts else None
    if counts and not vocabulary:
        raise ValueError("empty vocabulary: no training instance has any term")
    features = vocabulary or range(feature_count)
    # per class, each feature's values in instance order; () where it has none
    class_keys = [list(map(tuple, map(lists.get, features, repeat(())))) for lists in by_class]

    def fit_table(size: int, floor: float) -> _Table:
        """Each pattern's (mean, variance floored at ``floor``) among ``size`` instances."""

        def fit(values: tuple) -> tuple:
            mean, variance = _moments(values, size - len(values) if counts else 0)
            return mean, None if variance is None else max(variance, floor)

        return _Table(fit)

    def lookup(fits: _Table, keys: list[tuple]) -> list[tuple]:
        try:
            return list(map(fits.__getitem__, keys))
        except ValueError as error:  # keys fit in order, so the first one not stored failed
            bad = next(feature for feature, key in zip(features, keys) if key not in fits)
            raise ValueError(f"feature {bad!r}: {error}") from None

    # a fit is a pure function of the values and the size: equal keys, equal bits.
    # A variance is never below 0.0, so the global pass leaves it unfloored
    global_fits = fit_table(len(instances), 0.0)
    lookup(global_fits, list(map(tuple, map(chain, *class_keys))))
    global_max_variance = max([0.0, *filter(None, map(itemgetter(1), global_fits.values()))])
    variance_floor = (
        # at least the smallest normal float, so log(2*pi*variance) is finite
        max(VARIANCE_FLOOR_SCALE * global_max_variance, sys.float_info.min)
        if global_max_variance > 0
        else VARIANCE_FLOOR_SCALE
    )

    fits_by_size = _Table(lambda size: fit_table(size, variance_floor))  # size -> its fits
    means = []
    variances = []
    for size, keys in zip(class_sizes, class_keys):
        pairs = lookup(fits_by_size[size], keys)
        means.append(tuple(map(itemgetter(0), pairs)))
        variances.append(tuple(map(itemgetter(1), pairs)))

    return GaussianNbModel(
        class_labels=class_labels,
        log_priors=_log_priors(class_sizes),
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
                d = value - mean
                if counts:  # takes back the zero count's term; a dense model's is 0.0
                    terms.append(-absent_terms[feature])
                terms.append(-0.5 * (log_norms[feature] + d * d / variances[feature]))
            log_scores.append(model.log_priors[index] + math.fsum(terms))
        except OverflowError:  # a count or the sum ran past the float range
            log_scores.append(-math.inf)
    if max(log_scores) == -math.inf:
        log_scores = list(model.log_priors)
    return _normalize_log_scores(model.class_labels, log_scores)


class MultinomialNbModel(Record):
    """Smoothed per-class term distributions over the training vocabulary.

    The derived ``term_columns`` maps each term to its column: the term's
    log probability in each class, in class order.
    """

    _fields = ("class_labels", "log_priors", "vocabulary", "log_term_probs", "alpha")
    __slots__ = _fields + ("term_columns",)

    def __init__(
        self,
        class_labels: tuple[str, ...],
        log_priors: tuple[float, ...],
        vocabulary: tuple[str, ...],
        log_term_probs: tuple[tuple[float, ...], ...],
        alpha: float,
    ) -> None:
        super().__init__(class_labels, log_priors, vocabulary, log_term_probs, alpha)
        _check_shape(self, vocabulary, len(vocabulary), "log_priors", "log_term_probs")
        object.__setattr__(
            self, "term_columns", dict(zip(self.vocabulary, zip(*self.log_term_probs)))
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
    alpha: float = DEFAULT_ALPHA,
) -> MultinomialNbModel:
    """Fit smoothed term distributions per class.

    ``P(term | class) = (count + alpha) / (class total + alpha * |V|)`` with
    the vocabulary V taken from the training instances only: the terms whose
    total count is positive. Raises :class:`AlphaError` when that
    denominator is not a finite float.
    """
    if len(instances) != len(labels):
        raise ValueError("instances and labels have different lengths")
    if not instances:
        raise ValueError("no training instances")
    if len(set(labels)) < 2:
        raise ValueError("training data contains a single class")
    # every instance in fold 1, so fold 0's model is fitted to all of them
    return next(multinomial_fold_models(instances, labels, [1] * len(labels), 2, alpha))


def multinomial_fold_models(
    instances: Sequence[Mapping[str, int]],
    labels: Sequence[str],
    fold_of: Sequence[int],
    k: int,
    alpha: float,
) -> Iterator[MultinomialNbModel]:
    """Fold ``f``'s model for each ``f`` in ``range(k)``, one at a time,
    fitted to the instances outside fold ``f``.

    One pass counts each (fold, class)'s term counts and instance count.
    Fold ``f``'s counts are then the run's totals minus its own; only the
    positive ones are kept, so a term that only fold ``f`` holds, or whose
    count is not positive, is in no vocabulary. Integer counts add and
    subtract exactly, so each model equals the one counted from the fold's
    training instances alone, bit for bit. The caller checks the folds:
    each class must occur outside every fold. Raises ValueError for a fold
    whose vocabulary is empty, and :class:`AlphaError` when a class's
    smoothed total is not a finite float.
    """
    check_alpha(alpha)
    class_labels = tuple(sorted(set(labels)))
    class_of = {label: index for index, label in enumerate(class_labels)}
    sizes = [[0] * len(class_labels) for _ in range(k)]
    counts: list[list[dict[str, int]]] = [[{} for _ in class_labels] for _ in range(k)]
    for vector, label, fold in zip(instances, labels, fold_of):
        index = class_of[label]
        sizes[fold][index] += 1
        own = counts[fold][index]
        for term, count in vector.items():
            own[term] = own.get(term, 0) + count
    total_sizes = list(map(sum, zip(*sizes)))
    totals: list[dict[str, int]] = [{} for _ in class_labels]
    for per_class in counts:
        for total, own in zip(totals, per_class):
            for term, count in own.items():
                total[term] = total.get(term, 0) + count
    for fold in range(k):
        rest_sizes = [size - own for size, own in zip(total_sizes, sizes[fold])]
        rest = [
            {term: left for term, n in total.items() if (left := n - own.get(term, 0)) > 0}
            for total, own in zip(totals, counts[fold])
        ]
        vocabulary = tuple(sorted({term for kept in rest for term in kept}))
        if not vocabulary:
            raise ValueError("empty vocabulary: no training instance has any term")
        log_term_probs = []
        for kept in rest:
            smoothed_total = sum(kept.values()) + alpha * len(vocabulary)
            if math.isinf(smoothed_total):
                raise AlphaError(f"alpha {alpha!r} times {len(vocabulary)} terms overflows")
            denominator = math.log(smoothed_total)
            log_term_probs.append(
                tuple(math.log(kept.get(term, 0) + alpha) - denominator for term in vocabulary)
            )
        yield MultinomialNbModel(
            class_labels=class_labels,
            log_priors=_log_priors(rest_sizes),
            vocabulary=vocabulary,
            log_term_probs=tuple(log_term_probs),
            alpha=alpha,
        )


def predict_multinomial(
    model: MultinomialNbModel, instance: Mapping[str, int]
) -> Posterior:
    """Posterior over classes for one term-count vector.

    Terms outside the training vocabulary are ignored; an empty instance
    yields the priors. A class's log-likelihood is one ``math.fsum`` of
    count times log-probability over the instance's known terms: each
    term's class column is looked up once, and only a count other than 1
    rescales it (``1 * x == x``).
    """
    columns = model.term_columns
    terms = list(filter(columns.__contains__, instance))
    rows = list(map(columns.__getitem__, terms))
    for position, count in enumerate(map(instance.__getitem__, terms)):
        if count != 1:
            rows[position] = [count * x for x in rows[position]]
    if not rows:
        return _normalize_log_scores(model.class_labels, model.log_priors)
    log_scores = [
        prior + math.fsum(column) for prior, column in zip(model.log_priors, zip(*rows))
    ]
    return _normalize_log_scores(model.class_labels, log_scores)


# each model class by the kind that its JSON, ClassifierConfig and --nb name
MODEL_KINDS = {"gaussian": GaussianNbModel, "multinomial": MultinomialNbModel}


def model_to_json(model: GaussianNbModel | MultinomialNbModel) -> str:
    """Serialize a trained model to versioned JSON.

    The object holds ``format_version``, ``kind`` (a subclass's is its
    base's) and then each field by name, in constructor order; a
    ``vocabulary`` of None is left out.
    Floats are written in shortest round-trip form, so a reloaded model
    predicts bit-exactly like the original.
    """
    kind = next((kind for kind, cls in MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"not a model: {model!r}")
    fields = {name: getattr(model, name) for name in MODEL_KINDS[kind]._fields}
    payload = {"format_version": MODEL_FORMAT_VERSION, "kind": kind, **fields}
    return json.dumps({name: v for name, v in payload.items() if v is not None}, indent=2)


def _tuples(value: object) -> object:
    """A JSON value with every array, nested or not, as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


_NUMBER = {int, float}
# each model field's JSON type: how deep its arrays nest, the types its
# leaves may have (None: any, which the model's constructor checks) and its name
_JSON_TYPES = {
    "class_labels": (1, {str}, "an array of strings"),
    "log_priors": (1, _NUMBER, "an array of numbers"),
    "means": (2, _NUMBER | {type(None)}, "an array of arrays of numbers and nulls"),
    "variances": (2, _NUMBER | {type(None)}, "an array of arrays of numbers and nulls"),
    "variance_floor": (0, _NUMBER, "a number"),
    "feature_count": (0, {int}, "an integer"),
    "vocabulary": (1, None, "an array"),
    "log_term_probs": (2, _NUMBER, "an array of arrays of numbers"),
    "alpha": (0, _NUMBER, "a number"),
}


def _has_json_type(value: object, depth: int, leaves: Optional[set]) -> bool:
    """Whether ``value`` is arrays nested ``depth`` deep around leaves of the
    given types (``bool`` is not ``int`` here)."""
    values = [value]
    for _ in range(depth):
        if set(map(type, values)) - {list}:
            return False
        values = list(chain.from_iterable(values))
    return leaves is None or set(map(type, values)) <= leaves


def model_from_json(text: str) -> GaussianNbModel | MultinomialNbModel:
    """Reload a model serialized by :func:`model_to_json`, reading fields by name.

    Raises ValueError, naming the field, for a payload that is not an
    object, or that repeats a key, or whose version, kind or fields the
    model's class does not take, or a field of the wrong JSON type (an
    optional field may be null); the constructor then checks the values.
    """
    fields = json.loads(text, object_pairs_hook=unique_keys)
    if not isinstance(fields, dict):
        raise ValueError(f"a model is a JSON object, not {type(fields).__name__}")
    version, kind = fields.pop("format_version", None), fields.pop("kind", None)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r}")
    init = cls.__init__  # the parameters without a default lead the fields
    required = cls._fields[: init.__code__.co_argcount - 1 - len(init.__defaults__ or ())]
    for name in required:
        if name not in fields:
            raise ValueError(f"{kind} model: missing field {name!r}")
    for name, value in fields.items():
        if name not in cls._fields:
            raise ValueError(f"{kind} model: unknown field {name!r}")
        depth, leaves, json_type = _JSON_TYPES[name]
        if not (value is None and name not in required or _has_json_type(value, depth, leaves)):
            raise ValueError(f"{kind} model: field {name!r} is not {json_type}")
    return cls(**{name: _tuples(value) for name, value in fields.items()})
