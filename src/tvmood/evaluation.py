"""Stratified cross-validation and classification metrics.

Metrics are pooled: every document is predicted exactly once by the fold
that holds it out, and TP rate, FP rate, AUC, and the confusion matrix are
computed over the pooled predictions. AUC is the rank-statistic form (pairs
won plus half the ties, over all positive-negative pairs), one class
against the rest, scored by the posterior probability of that class. Each
positive's midrank comes from two bisections of one sorted copy of the
scores, and the confusion matrix from one count of (true, predicted) pairs.

Fold shuffling uses Python's Mersenne Twister (``random.Random``) with a
caller-supplied seed, so assignments are reproducible across runs and
platforms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping
from operator import ne
from typing import Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import classify, features
from .corpus import Document
from .lexicon import AffectLexicon
from .record import Record

# representation -> the Naive Bayes variant used when none is chosen
DEFAULT_NB = {"vsm": "multinomial", "meta": "gaussian"}
REPRESENTATIONS = tuple(DEFAULT_NB)

REPORT_FORMAT_VERSION = 1


class LabeledRow(NamedTuple):
    """One document as cross-validation sees it: its id, its genre and its
    representation row (a meta row or a vsm map), never the document."""

    id: str
    genre: Optional[str]
    row: Union[list[Optional[float]], features.VsmVector]


def labeled_rows(
    documents: Iterable[Document], lexicon: AffectLexicon, representation: str
) -> Iterator[LabeledRow]:
    """Each document's :class:`LabeledRow`, made as the document is read."""
    if representation not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    extract = features.extract_meta if representation == "meta" else features.extract_vsm
    return (LabeledRow(doc.id, doc.genre, extract(doc, lexicon)) for doc in documents)


class FoldAssignment(NamedTuple):
    """Maps each instance key to a fold index in ``[0, k)``."""

    k: int
    assignment: dict[Hashable, int]
    seed: int


class ClassMetrics(NamedTuple):
    label: str
    support: int
    tp_rate: float
    fp_rate: float
    auc: float


class ClassifierConfig(Record):
    """Classifier choice for :func:`run_cv`.

    ``kind`` is ``gaussian`` or ``multinomial``; ``alpha`` is the smoothing
    weight and only applies to the multinomial variant.
    """

    _fields = ("kind", "alpha")
    __slots__ = _fields

    def __init__(self, kind: str, alpha: float = classify.DEFAULT_ALPHA) -> None:
        super().__init__(kind, alpha)
        if self.kind not in tuple(classify.MODEL_KINDS):  # refuses an unhashable kind too
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        classify.check_alpha(self.alpha)


class EvalReport(NamedTuple):
    """Cross-validation outcome in the shape of a per-genre results table."""

    class_metrics: tuple[ClassMetrics, ...]
    class_order: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]
    weighted_tp_rate: float
    weighted_fp_rate: float
    weighted_auc: float
    config: dict[str, object]


def stratified_folds(
    labels: Sequence[str],
    k: int,
    seed: int,
    ids: Optional[Sequence[Hashable]] = None,
) -> FoldAssignment:
    """Deal instances into k folds, stratified by label.

    Within each class (classes visited in sorted order) the instances are
    shuffled by a seeded RNG and dealt round-robin; the deal pointer starts
    at fold 0 and carries over between classes, which keeps both per-class
    and overall fold sizes within one of each other. Identical
    ``(labels, k, seed)`` always produce the identical assignment.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(labels):
        raise ValueError(f"k={k} exceeds the instance count {len(labels)}")
    if ids is None:
        keys: Sequence[Hashable] = range(len(labels))
    else:
        if len(ids) != len(labels):
            raise ValueError("ids and labels have different lengths")
        if len(set(ids)) != len(ids):
            occurrences = Counter(ids)
            repeated = next(i for i in ids if occurrences[i] > 1)
            raise ValueError(f"id {repeated!r} occurs more than once")
        keys = ids

    rng = random.Random(seed)
    assignment: dict[Hashable, int] = {}
    pointer = 0
    for label in sorted(set(labels)):
        members = [i for i, value in enumerate(labels) if value == label]
        rng.shuffle(members)
        for position in members:
            assignment[keys[position]] = pointer % k
            pointer += 1
    return FoldAssignment(k=k, assignment=assignment, seed=seed)


def auc_one_vs_rest(scores: Sequence[float], is_positive: Sequence[bool]) -> float:
    """Rank-statistic AUC with half credit for ties.

    Equals the fraction of (positive, negative) pairs where the positive
    outscores the negative, counting ties as half a win. Computed from
    midranks, which is algebraically the same thing: a score's midrank is
    the mean of the 1-based ranks its ties span, found by bisecting one
    sorted copy of the scores. A NaN score has no rank and is refused.
    """
    if len(scores) != len(is_positive):
        raise ValueError("scores and is_positive have different lengths")
    positives = sum(1 for flag in is_positive if flag)
    negatives = len(is_positive) - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC is undefined without both positives and negatives")
    nans = list(map(ne, scores, scores))  # only NaN differs from itself
    if True in nans:
        raise ValueError(f"score at index {nans.index(True)} is NaN")

    ordered = sorted(scores)
    positive_rank_sum = math.fsum(
        (bisect_left(ordered, score) + bisect_right(ordered, score) + 1) / 2.0
        for score, flag in zip(scores, is_positive)
        if flag
    )
    return (positive_rank_sum - positives * (positives + 1) / 2.0) / (
        positives * negatives
    )


def confusion_and_rates(
    truth: Sequence[str],
    predicted: Sequence[str],
    class_order: Sequence[str],
) -> tuple[list[list[int]], dict[str, float], dict[str, float]]:
    """Confusion matrix plus one-vs-rest TP and FP rates per class.

    ``matrix[i][j]`` counts instances with true class ``class_order[i]``
    predicted as ``class_order[j]``. A rate whose denominator is zero is
    reported as 0.0.
    """
    if len(truth) != len(predicted):
        raise ValueError("truth and predicted have different lengths")
    known = set(class_order)
    if len(known) != len(class_order):
        raise ValueError("class_order repeats a label")
    for label in (*truth, *predicted):
        if label not in known:
            raise ValueError(f"label {label!r} is not in class_order")

    pairs = Counter(zip(truth, predicted))
    matrix = [[pairs[true, guess] for guess in class_order] for true in class_order]
    column_totals = list(map(sum, zip(*matrix)))

    total = len(truth)
    tp_rates: dict[str, float] = {}
    fp_rates: dict[str, float] = {}
    for i, label in enumerate(class_order):
        row_total = sum(matrix[i])
        true_positives = matrix[i][i]
        false_positives = column_totals[i] - true_positives
        tp_rates[label] = true_positives / row_total if row_total else 0.0
        rest = total - row_total
        fp_rates[label] = false_positives / rest if rest else 0.0
    return matrix, tp_rates, fp_rates


def check_representation(representation: str, kind: str) -> None:
    """Reject a classifier kind that cannot take the representation."""
    if representation == "meta" and kind != "gaussian":
        raise ValueError(
            "the meta representation is real-valued and requires the "
            "gaussian classifier"
        )


def run_cv(
    rows: Sequence[LabeledRow],
    k: int,
    seed: int,
    config: Optional[ClassifierConfig] = None,
) -> EvalReport:
    """Stratified k-fold cross-validation over fully labeled rows.

    ``rows`` come from :func:`labeled_rows`, all of one representation: a
    ``Mapping`` row is ``vsm``, any other row ``meta``. The report echoes
    it, and it picks the default classifier (:data:`DEFAULT_NB`). Each
    fold trains on the remaining folds and predicts its held-out rows;
    metrics are computed over the pooled predictions. Any vocabulary fitting
    happens inside training (both classifiers over term counts take their
    vocabulary from the training folds only, and ignore held-out terms
    outside it), so no information leaks from held-out documents. The
    per-document representations themselves are parameter-free, so they are
    made once, before the folds. One model is alive at a time: each fold's
    is dropped before the next fold's is made. A multinomial fold model
    comes from per-fold class counts, counted in one pass
    (:func:`classify.multinomial_fold_models`); a Gaussian one is trained
    on the fold's training rows.
    """
    vsm = [isinstance(row.row, Mapping) for row in rows]
    representation = "vsm" if vsm and vsm[0] else "meta"
    if len(set(vsm)) > 1:
        mixed = rows[vsm.index(not vsm[0])].id
        raise ValueError(f"row {mixed!r} is not a {representation} row, as the first row is")
    if config is None:
        config = ClassifierConfig(DEFAULT_NB[representation])
    check_representation(representation, config.kind)

    unlabeled = [row.id for row in rows if row.genre is None]
    if unlabeled:
        raise ValueError(
            f"corpus contains unlabeled documents (first: {unlabeled[0]!r}); "
            f"filter before evaluating"
        )
    labels = [row.genre for row in rows]
    support = Counter(labels)
    for label in sorted(support):
        if support[label] < k:
            raise ValueError(
                f"class {label!r} has support {support[label]} < k={k}"
            )
    class_order = tuple(sorted(support))

    ids = [row.id for row in rows]
    folds = stratified_folds(labels, k, seed, ids=ids)
    fold_of = [folds.assignment[doc_id] for doc_id in ids]
    instances = [row.row for row in rows]

    def gaussian_models() -> Iterator[classify.GaussianNbModel]:
        for fold in range(k):
            train_idx = [i for i in range(len(rows)) if fold_of[i] != fold]
            yield classify.train_gaussian(
                [instances[i] for i in train_idx], [labels[i] for i in train_idx]
            )

    if config.kind == "multinomial":
        models = classify.multinomial_fold_models(instances, labels, fold_of, k, config.alpha)
        predict = classify.predict_multinomial
    else:
        models = gaussian_models()
        predict = classify.predict_gaussian
    posteriors: list[Optional[classify.Posterior]] = [None] * len(rows)
    for fold in range(k):
        model = next(models)  # an enumerate() tuple would hold the model past the fold
        for i in range(len(rows)):
            if fold_of[i] == fold:
                posteriors[i] = predict(model, instances[i])
        del model

    predicted = [posterior.predicted_label for posterior in posteriors]
    matrix, tp_rates, fp_rates = confusion_and_rates(labels, predicted, class_order)

    # every fold trains on every class, so each posterior is in class_order
    columns = zip(*(posterior.probabilities for posterior in posteriors))
    metrics = [
        ClassMetrics(
            label=label,
            support=support[label],
            tp_rate=tp_rates[label],
            fp_rate=fp_rates[label],
            auc=auc_one_vs_rest(scores, [value == label for value in labels]),
        )
        for label, scores in zip(class_order, columns)
    ]

    total = len(rows)
    weighted = {
        name: math.fsum(getattr(m, name) * m.support for m in metrics) / total
        for name in ("tp_rate", "fp_rate", "auc")
    }

    echo: dict[str, object] = {
        "representation": representation,
        "model": config.kind,
        "k": k,
        "seed": seed,
        "metrics": "pooled",
    }
    if config.kind == "multinomial":
        echo["alpha"] = config.alpha
    else:
        echo["variance_floor_scale"] = classify.VARIANCE_FLOOR_SCALE

    return EvalReport(
        class_metrics=tuple(metrics),
        class_order=class_order,
        confusion=tuple(tuple(row) for row in matrix),
        weighted_tp_rate=weighted["tp_rate"],
        weighted_fp_rate=weighted["fp_rate"],
        weighted_auc=weighted["auc"],
        config=echo,
    )


def report_to_json(report: EvalReport) -> str:
    """Serialize an :class:`EvalReport` to deterministic JSON."""
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": report.config,
        "classes": [m._asdict() for m in report.class_metrics],  # keys in field order
        "weighted_average": {
            "tp_rate": report.weighted_tp_rate,
            "fp_rate": report.weighted_fp_rate,
            "auc": report.weighted_auc,
        },
        "confusion": {
            "class_order": list(report.class_order),
            "matrix": [list(row) for row in report.confusion],
        },
    }
    return json.dumps(payload, indent=2)


def report_to_csv(report: EvalReport) -> str:
    """Per-genre results table: one row per class plus a weighted average."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("genre", "tp_rate", "fp_rate", "auc"))
    for m in report.class_metrics:
        writer.writerow((m.label, m.tp_rate, m.fp_rate, m.auc))
    writer.writerow(
        ("weighted_average", report.weighted_tp_rate, report.weighted_fp_rate, report.weighted_auc)
    )
    return buffer.getvalue()
