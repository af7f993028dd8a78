"""Stratified folds, AUC, confusion rates, and cross-validation runs."""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmood import classify
from tvmood.evaluation import (
    DEFAULT_NB,
    REPRESENTATIONS,
    ClassifierConfig,
    LabeledRow,
    auc_one_vs_rest,
    confusion_and_rates,
    labeled_rows,
    report_to_csv,
    report_to_json,
    run_cv,
    stratified_folds,
)
from tvmood.synth import GenreProfile, generate

from conftest import cross_validate, make_doc, make_lexicon, random_lexicon
from oracles import (
    auc_midrank_groupby,
    confusion_nested_loop,
    multinomial_fold_models_retrained,
    trapezoid_auc,
)


def fold_assignment_checks(labels, assignment, k):
    """Disjoint, exhaustive, per-class spread <= 1."""
    assert sorted(assignment.assignment) == list(range(len(labels)))
    sizes = Counter(assignment.assignment.values())
    assert sum(sizes.values()) == len(labels)
    per_class: dict[str, Counter] = {}
    for position, fold in assignment.assignment.items():
        assert 0 <= fold < k
        per_class.setdefault(labels[position], Counter())[fold] += 1
    for label, counter in per_class.items():
        counts = [counter.get(fold, 0) for fold in range(k)]
        assert max(counts) - min(counts) <= 1, (label, counts)


def test_stratified_hand_case_balances_folds():
    labels = ["A"] * 6 + ["B"] * 4
    assignment = stratified_folds(labels, 5, seed=42)
    assert Counter(assignment.assignment.values()) == {fold: 2 for fold in range(5)}
    fold_assignment_checks(labels, assignment, 5)
    per_fold_a = Counter(
        fold for position, fold in assignment.assignment.items() if position < 6
    )
    assert max(per_fold_a.values()) <= 2
    per_fold_b = Counter(
        fold for position, fold in assignment.assignment.items() if position >= 6
    )
    assert max(per_fold_b.values()) <= 1


def test_stratified_leave_one_out():
    labels = ["A", "B", "A", "B"]
    assignment = stratified_folds(labels, 4, seed=0)
    assert Counter(assignment.assignment.values()) == {fold: 1 for fold in range(4)}


def test_stratified_is_deterministic_per_seed():
    labels = ["A"] * 11 + ["B"] * 7 + ["C"] * 5
    first = stratified_folds(labels, 4, seed=9)
    second = stratified_folds(labels, 4, seed=9)
    assert first == second
    other = stratified_folds(labels, 4, seed=10)
    assert other.assignment != first.assignment  # generically different
    fold_assignment_checks(labels, other, 4)


def test_stratified_accepts_ids():
    labels = ["A", "A", "B", "B"]
    ids = ["w", "x", "y", "z"]
    assignment = stratified_folds(labels, 2, seed=1, ids=ids)
    assert sorted(assignment.assignment) == sorted(ids)
    with pytest.raises(ValueError, match=r"^id 'a' occurs more than once$"):
        stratified_folds(labels, 2, seed=1, ids=["a", "a", "b", "c"])


def test_stratified_errors():
    with pytest.raises(ValueError, match="exceeds"):
        stratified_folds(["A", "B"], 3, seed=0)
    with pytest.raises(ValueError, match=">= 2"):
        stratified_folds(["A", "B"], 1, seed=0)


def test_stratified_random_corpora():
    rng = random.Random(73)
    for _ in range(30):
        n_classes = rng.randint(2, 6)
        labels = []
        for c in range(n_classes):
            labels.extend([f"c{c}"] * rng.randint(2, 40))
        rng.shuffle(labels)
        k = rng.randint(2, min(8, min(Counter(labels).values())))
        assignment = stratified_folds(labels, k, seed=rng.randint(0, 2**32))
        fold_assignment_checks(labels, assignment, k)


def test_auc_hand_cases():
    assert auc_one_vs_rest([0.9, 0.8, 0.3, 0.2], [True, True, False, False]) == 1.0
    assert auc_one_vs_rest([0.9, 0.4, 0.6, 0.2], [True, True, False, False]) == 0.75
    assert auc_one_vs_rest([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5


def test_auc_requires_both_classes():
    with pytest.raises(ValueError, match="undefined"):
        auc_one_vs_rest([0.1, 0.2], [True, True])
    with pytest.raises(ValueError, match="undefined"):
        auc_one_vs_rest([0.1, 0.2], [False, False])


def test_auc_matches_trapezoid_oracle():
    rng = random.Random(79)
    for _ in range(300):
        size = rng.randint(2, 40)
        # coarse grid injects plenty of ties
        scores = [rng.choice([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]) for _ in range(size)]
        flags = [rng.random() < 0.5 for _ in range(size)]
        if not any(flags) or all(flags):
            continue
        assert auc_one_vs_rest(scores, flags) == pytest.approx(
            trapezoid_auc(scores, flags), abs=1e-12
        )


def auc_cases():
    """Tie-heavy draws, all-equal scores, 0.0 beside -0.0, every two-element
    input, and 3,000 scores: (scores, flags) with both flags present."""
    rng = random.Random(2024)
    grid = [0.0, -0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]
    for _ in range(500):
        size = rng.randint(2, 60)
        yield [rng.choice(grid) for _ in range(size)], [rng.random() < 0.5 for _ in range(size)]
    yield [0.5] * 7, [True, False, False, True, False, True, True]
    yield [0.0, -0.0, -0.0, 0.0, 0.1, -0.1], [True, False, True, False, False, True]
    for scores in itertools.product([-0.0, 0.0, 0.3, 0.7], repeat=2):
        yield list(scores), [True, False]
        yield list(scores), [False, True]
    for digits in (2, 17):  # 0.01 steps give ties among 3,000 scores; 17 digits hardly any
        scores = [round(rng.random(), digits) for _ in range(3000)]
        yield scores, [rng.random() < 0.2 for _ in scores]


def test_auc_equals_the_groupby_midrank_reference():
    cases = list(auc_cases())
    assert all(any(flags) and not all(flags) for _, flags in cases[500:])
    checked = 0
    for scores, flags in cases:
        if any(flags) and not all(flags):
            assert auc_one_vs_rest(scores, flags) == auc_midrank_groupby(scores, flags)
            checked += 1
    assert checked > 450


def test_auc_refuses_a_nan_score_whatever_the_order():
    # these four pairs once gave 0.0, 0.25, 0.5 or 1.0, by their order
    pairs = [(math.nan, True), (0.5, False), (0.2, True), (0.9, False)]
    for order in itertools.permutations(pairs):
        scores, flags = map(list, zip(*order))
        at = [math.isnan(score) for score in scores].index(True)
        with pytest.raises(ValueError, match=f"^score at index {at} is NaN$"):
            auc_one_vs_rest(scores, flags)
    with pytest.raises(ValueError, match="^score at index 1 is NaN$"):
        auc_one_vs_rest([0.5, math.nan, math.nan, 0.1], [True, False, True, False])


def test_auc_takes_infinite_scores():
    scores = [math.inf, -math.inf, 0.5, math.inf, -math.inf, 0.5, 0.25]
    flags = [True, False, True, False, True, False, False]
    assert auc_one_vs_rest(scores, flags) == auc_midrank_groupby(scores, flags)
    assert auc_one_vs_rest(scores, flags) == pytest.approx(
        trapezoid_auc(scores, flags), abs=1e-12
    )
    assert auc_one_vs_rest([math.inf, -math.inf], [True, False]) == 1.0


def test_confusion_equals_the_nested_loop_reference():
    rng = random.Random(31)
    for _ in range(300):
        class_order = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        size = rng.randint(0, 40)
        truth = [rng.choice(class_order) for _ in range(size)]
        predicted = [rng.choice(class_order) for _ in range(size)]
        assert repr(confusion_and_rates(truth, predicted, class_order)) == repr(
            confusion_nested_loop(truth, predicted, class_order)
        )


def test_confusion_perfect_predictions():
    truth = ["a", "b", "c", "a"]
    matrix, tp, fp = confusion_and_rates(truth, truth, ["a", "b", "c"])
    assert matrix == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert set(tp.values()) == {1.0}
    assert set(fp.values()) == {0.0}


def test_confusion_hand_case():
    matrix, tp, fp = confusion_and_rates(
        ["A", "A", "B", "B"], ["A", "B", "B", "B"], ["A", "B"]
    )
    assert matrix == [[1, 1], [0, 2]]
    assert tp["A"] == 0.5 and fp["A"] == 0.0
    assert tp["B"] == 1.0 and fp["B"] == 0.5


def test_confusion_degenerate_predictor():
    matrix, tp, fp = confusion_and_rates(
        ["A", "B", "B"], ["A", "A", "A"], ["A", "B"]
    )
    assert tp["A"] == 1.0 and fp["A"] == 1.0
    assert tp["B"] == 0.0 and fp["B"] == 0.0


def test_confusion_errors():
    with pytest.raises(ValueError, match="length"):
        confusion_and_rates(["A"], ["A", "B"], ["A", "B"])
    with pytest.raises(ValueError, match="class_order"):
        confusion_and_rates(["A"], ["Z"], ["A", "B"])
    # a repeated label left a zero row or counted its cells twice
    with pytest.raises(ValueError, match="^class_order repeats a label$"):
        confusion_and_rates(["A", "B"], ["A", "B"], ["A", "A", "B"])


def separable_corpus():
    """Two genres with disjoint vocabularies; trivially separable."""
    lexicon = make_lexicon(
        {
            "sunny": (0.9, 0.5, 0.5),
            "happy": (0.85, 0.5, 0.5),
            "grim": (0.1, 0.5, 0.5),
            "bleak": (0.15, 0.5, 0.5),
        }
    )
    docs = []
    for i in range(10):
        docs.append(
            make_doc(f"up{i}", {"sunny": 2 + i % 3, "happy": 1}, genre="up")
        )
        docs.append(
            make_doc(f"down{i}", {"grim": 2 + i % 3, "bleak": 1}, genre="down")
        )
    return tuple(docs), lexicon


@pytest.mark.parametrize("representation", ["vsm", "meta"])
def test_run_cv_separable_corpus_reaches_auc_one(representation):
    corpus, lexicon = separable_corpus()
    report = cross_validate(corpus, lexicon, representation, k=5, seed=42)
    assert report.weighted_auc == pytest.approx(1.0)
    assert report.weighted_tp_rate == pytest.approx(1.0)
    total = sum(sum(row) for row in report.confusion)
    assert total == len(corpus)


def test_run_cv_is_deterministic():
    corpus, lexicon = separable_corpus()
    first = cross_validate(corpus, lexicon, "vsm", k=5, seed=7)
    second = cross_validate(corpus, lexicon, "vsm", k=5, seed=7)
    assert report_to_json(first) == report_to_json(second)
    assert report_to_csv(first) == report_to_csv(second)


def test_run_cv_gaussian_on_counts_variant():
    corpus, lexicon = separable_corpus()
    report = cross_validate(
        corpus, lexicon, "vsm", k=5, seed=7, config=ClassifierConfig(kind="gaussian")
    )
    assert report.config["model"] == "gaussian"
    assert report.weighted_auc > 0.9


class _WeaklyReferencedModel(classify.GaussianNbModel):
    """A model that takes weak references: a subclass without ``__slots__``."""


class _WeaklyReferencedMultinomialModel(classify.MultinomialNbModel):
    """A multinomial model that takes weak references."""


@pytest.mark.parametrize(
    "representation, kind, maker, tracked_class",
    [
        pytest.param("vsm", "gaussian", "train_gaussian", _WeaklyReferencedModel, id="vsm"),
        pytest.param("meta", "gaussian", "train_gaussian", _WeaklyReferencedModel, id="meta"),
        # a multinomial fold model is constructed from the fold's class counts
        pytest.param(
            "vsm",
            "multinomial",
            "MultinomialNbModel",
            _WeaklyReferencedMultinomialModel,
            id="vsm-multinomial",
        ),
    ],
)
def test_run_cv_keeps_one_gaussian_model_alive(
    monkeypatch, representation, kind, maker, tracked_class
):
    corpus, lexicon = separable_corpus()
    make = getattr(classify, maker)
    trained = []

    def make_tracked(*args, **kwargs):
        assert [ref() for ref in trained] == [None] * len(trained)  # earlier models are gone
        model = make(*args, **kwargs)
        tracked = tracked_class(**{name: getattr(model, name) for name in model._fields})
        trained.append(weakref.ref(tracked))
        return tracked

    monkeypatch.setattr(classify, maker, make_tracked)
    report = cross_validate(
        corpus, lexicon, representation, k=5, seed=7, config=ClassifierConfig(kind=kind)
    )
    assert len(trained) == 5
    assert report.weighted_auc == pytest.approx(1.0)


@st.composite
def multinomial_cv_problems(draw):
    """Labeled count rows with every class at least ``k`` strong, ``k`` and a
    seed, plus the id of a row that alone holds the term ``solo``."""
    k = draw(st.integers(2, 4))
    classes = [f"c{c}" for c in range(draw(st.integers(2, 3)))]
    labels = classes * k + draw(st.lists(st.sampled_from(classes), max_size=8))
    counts = st.one_of(st.integers(1, 9), st.integers(1, 2**53))
    vector = st.dictionaries(st.sampled_from(["t0", "t1", "t2", "t3", "t4"]), counts, max_size=4)
    rows = [LabeledRow(f"d{i}", label, draw(vector)) for i, label in enumerate(labels)]
    solo = draw(st.integers(0, len(rows) - 1))
    rows[solo].row["solo"] = draw(counts)
    return rows, k, draw(st.integers(0, 2**32)), rows[solo].id


def _cv_outcome(rows, k, seed, config, retrained=False):
    """The repr of ``run_cv``'s multinomial report, or of its error's type and
    message; ``retrained`` makes each fold's model from scratch."""
    make = multinomial_fold_models_retrained if retrained else classify.multinomial_fold_models
    with mock.patch.object(classify, "multinomial_fold_models", make):
        try:
            return repr(run_cv(rows, k, seed, config))  # repr tells every float apart
        except ValueError as error:
            return repr((type(error), str(error)))


def _fold_models(make, *args):
    """Per fold model: its repr and whether ``solo`` is in its vocabulary; then
    the repr of the error's type and message, if one ends the folds."""
    made = []
    try:
        for model in make(*args):
            made.append((repr(model), "solo" in model.vocabulary))
    except ValueError as error:
        made.append(repr((type(error), str(error))))
    return made


@given(multinomial_cv_problems(), st.sampled_from([1.0, 0.5, 1e-3]))
def test_run_cv_multinomial_equals_retraining_each_fold(problem, alpha):
    rows, k, seed, solo_id = problem
    config = ClassifierConfig("multinomial", alpha)
    assert _cv_outcome(rows, k, seed, config) == _cv_outcome(rows, k, seed, config, True)
    # the fold models themselves, bit for bit, and the term that one fold alone holds
    ids = [row.id for row in rows]
    labels = [row.genre for row in rows]
    assignment = stratified_folds(labels, k, seed, ids).assignment
    fold_of = [assignment[i] for i in ids]
    args = ([row.row for row in rows], labels, fold_of, k, alpha)
    made = _fold_models(classify.multinomial_fold_models, *args)
    assert made == _fold_models(multinomial_fold_models_retrained, *args)
    solo_fold = assignment[solo_id]
    for fold, outcome in enumerate(made):
        if isinstance(outcome, tuple):
            assert outcome[1] == (fold != solo_fold)


def _vsm_rows(vectors):
    """Two classes of four rows each, over the given count maps."""
    return [
        LabeledRow(f"d{i}", "up" if i % 2 else "down", vector)
        for i, vector in enumerate(vectors)
    ]


@pytest.mark.parametrize(
    "vectors, alpha, message",
    [
        # the first fold's smoothed totals overflow
        ([{"a": 1}, {"b": 2}] * 4, 1e308, "AlphaError'>, 'alpha 1e+308 times 2 terms overflows"),
        # the rows outside one fold hold no term
        ([{"a": 1}, {}] + [{}] * 6, 1.0, "ValueError'>, 'empty vocabulary: no training instance"),
    ],
    ids=["alpha-overflows", "empty-vocabulary"],
)
def test_run_cv_multinomial_errors_equal_retraining_each_fold(vectors, alpha, message):
    rows = _vsm_rows(vectors)
    config = ClassifierConfig("multinomial", alpha)
    outcome = _cv_outcome(rows, 2, 3, config)
    assert message in outcome
    assert outcome == _cv_outcome(rows, 2, 3, config, True)


def test_run_cv_rejects_low_support_naming_class():
    corpus, lexicon = separable_corpus()
    docs = corpus + (make_doc("rare0", {"sunny": 1}, genre="rare"),)
    with pytest.raises(ValueError, match="'rare'"):
        cross_validate(docs, lexicon, "vsm", k=5, seed=1)


def test_run_cv_rejects_unlabeled_documents():
    corpus, lexicon = separable_corpus()
    docs = corpus + (make_doc("nolabel", {"sunny": 1}),)
    with pytest.raises(ValueError, match="unlabeled"):
        cross_validate(docs, lexicon, "vsm", k=5, seed=1)


def test_run_cv_rejects_meta_with_multinomial():
    corpus, lexicon = separable_corpus()
    with pytest.raises(ValueError, match="gaussian"):
        cross_validate(
            corpus,
            lexicon,
            "meta",
            k=5,
            seed=1,
            config=ClassifierConfig(kind="multinomial"),
        )


@st.composite
def lexicon_cv_problems(draw):
    """Labeled documents over the words of ``CV_LEXICON``, every class at
    least ``k`` strong; ``k`` and a seed."""
    k = draw(st.integers(2, 3))
    classes = [f"c{c}" for c in range(draw(st.integers(2, 3)))]
    labels = classes * k + draw(st.lists(st.sampled_from(classes), max_size=6))
    terms = st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(1, 9), min_size=1)
    docs = [make_doc(f"d{i}", draw(terms), genre=label) for i, label in enumerate(labels)]
    return docs, k, draw(st.integers(0, 2**32))


CV_LEXICON = make_lexicon({"a": (0.1, 0.9, 0.5), "b": (0.7, 0.2, 0.3), "c": (0.4, 0.4, 1.0)})


@settings(deadline=None)
@given(lexicon_cv_problems(), st.sampled_from(REPRESENTATIONS))
def test_run_cv_reads_the_representation_from_its_rows(problem, representation):
    """vsm rows give a vsm report and meta rows a meta report, each with its
    default classifier, whatever the documents."""
    docs, k, seed = problem
    rows = list(labeled_rows(docs, CV_LEXICON, representation))
    report = run_cv(rows, k, seed)
    assert report.config["representation"] == representation
    assert report.config["model"] == DEFAULT_NB[representation]


@given(st.lists(st.booleans(), min_size=2).filter(lambda kinds: len(set(kinds)) == 2))
def test_run_cv_refuses_mixed_rows_naming_the_first_row_of_the_other_kind(kinds):
    rows = [
        LabeledRow(f"r{i}", "g", {"a": 1} if vsm else [0.5]) for i, vsm in enumerate(kinds)
    ]
    first = "vsm" if kinds[0] else "meta"
    message = f"row 'r{kinds.index(not kinds[0])}' is not a {first} row, as the first row is"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_cv(rows, 2, 0)


@pytest.mark.parametrize("alpha", [0.0, float("nan"), float("inf"), float("-inf")])
def test_classifier_config_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ClassifierConfig(kind="multinomial", alpha=alpha)


@pytest.mark.parametrize(
    "representation, kind", [("vsm", "multinomial"), ("vsm", "gaussian"), ("meta", "gaussian")]
)
def test_run_cv_posteriors_are_in_class_order(monkeypatch, representation, kind):
    # run_cv reads each class's scores as a column of the posteriors' probabilities
    seen = []
    for name in ("predict_multinomial", "predict_gaussian"):

        def recording(model, instance, predict=getattr(classify, name)):
            seen.append(predict(model, instance))
            return seen[-1]

        monkeypatch.setattr(classify, name, recording)
    rng = random.Random(89)
    lexicon = random_lexicon(rng, 40)
    profiles = [
        GenreProfile("news", 5, 0.8, (0.25, 0.5, 0.5), (10, 20)),
        GenreProfile("drama", 3, 0.8, (0.75, 0.5, 0.5), (10, 20)),
        GenreProfile("sport", 9, 0.8, (0.5, 0.5, 0.5), (10, 20)),
    ]
    corpus = tuple(generate(profiles, lexicon, seed=2))
    config = ClassifierConfig(kind=kind)
    report = cross_validate(corpus, lexicon, representation, k=3, seed=4, config=config)
    assert report.class_order == ("drama", "news", "sport")
    assert len(seen) == len(corpus)
    assert all(posterior.labels == report.class_order for posterior in seen)


def test_run_cv_weighted_auc_survives_relabeling():
    corpus, lexicon = separable_corpus()
    base = cross_validate(corpus, lexicon, "vsm", k=5, seed=3)

    renames = {"up": "zz_top", "down": "aa_bottom"}
    renamed_docs = tuple(
        make_doc(doc.id, dict(doc.term_counts), doc.channel, renames[doc.genre])
        for doc in corpus
    )
    renamed = cross_validate(renamed_docs, lexicon, "vsm", k=5, seed=3)
    assert renamed.weighted_auc == pytest.approx(base.weighted_auc, abs=1e-12)


def test_run_cv_weighted_averages_stay_within_class_range():
    rng = random.Random(83)
    lexicon = random_lexicon(rng, 50)
    profiles = [
        GenreProfile("one", 12, 0.8, (0.25, 0.5, 0.5), (20, 40)),
        GenreProfile("two", 9, 0.8, (0.75, 0.5, 0.5), (20, 40)),
    ]
    corpus = tuple(generate(profiles, lexicon, seed=5))
    report = cross_validate(corpus, lexicon, "meta", k=3, seed=11)
    for name in ("tp_rate", "fp_rate", "auc"):
        values = [getattr(m, name) for m in report.class_metrics]
        weighted = getattr(report, f"weighted_{name}")
        assert min(values) - 1e-12 <= weighted <= max(values) + 1e-12


def test_report_serializations():
    corpus, lexicon = separable_corpus()
    report = cross_validate(corpus, lexicon, "vsm", k=5, seed=42)

    payload = json.loads(report_to_json(report))
    assert payload["config"]["representation"] == "vsm"
    assert payload["config"]["model"] == "multinomial"
    assert payload["config"]["k"] == 5
    assert payload["config"]["seed"] == 42
    assert payload["config"]["alpha"] == 1.0
    assert [c["label"] for c in payload["classes"]] == ["down", "up"]
    assert set(payload["weighted_average"]) == {"tp_rate", "fp_rate", "auc"}
    assert payload["confusion"]["class_order"] == ["down", "up"]

    lines = report_to_csv(report).splitlines()
    assert lines[0] == "genre,tp_rate,fp_rate,auc"
    assert lines[1].startswith("down,")
    assert lines[-1].startswith("weighted_average,")


@st.composite
def meta_cv_problems(draw):
    """Labeled documents with term counts up to 2**53, so that a document's
    token count can pass it, every class at least ``k`` strong; ``k`` and a
    seed."""
    k = draw(st.integers(2, 3))
    classes = [f"c{c}" for c in range(draw(st.integers(2, 3)))]
    labels = classes * k + draw(st.lists(st.sampled_from(classes), max_size=6))
    counts = st.sampled_from([1, 2, 2**53 - 1, 2**53]) | st.integers(1, 2**53)
    terms = st.dictionaries(st.sampled_from(["a", "b", "c", "oov"]), counts, min_size=1, max_size=4)
    docs = [make_doc(f"d{i}", draw(terms), genre=label) for i, label in enumerate(labels)]
    return docs, k, draw(st.integers(0, 2**32))


@settings(deadline=None)
@given(meta_cv_problems())
def test_meta_rows_with_int_counts_equal_rows_with_float_counts(problem):
    """A meta row keeps its stylistic counts as ints. Gaussian models,
    posteriors and cross-validation reports over such rows equal, by repr,
    those over the same rows with ``float()`` counts."""
    docs, k, seed = problem
    lexicon = make_lexicon({"a": (0.1, 0.9, 0.5), "b": (0.7, 0.2, 0.3), "c": (0.4, 0.4, 1.0)})
    rows = list(labeled_rows(docs, lexicon, "meta"))
    assert all(type(n) is int for row in rows for n in row.row[15:])
    floated = [row._replace(row=row.row[:15] + [float(n) for n in row.row[15:]]) for row in rows]
    labels = [row.genre for row in rows]
    model, twin = (classify.train_gaussian([r.row for r in rs], labels) for rs in (rows, floated))
    assert repr(model) == repr(twin)
    for row, float_row in zip(rows, floated):
        posterior = classify.predict_gaussian(model, row.row)
        assert repr(posterior) == repr(classify.predict_gaussian(twin, float_row.row))
    assert repr(run_cv(rows, k, seed)) == repr(run_cv(floated, k, seed))
