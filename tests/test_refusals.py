"""Library refusals that the command line never reaches, each with its exact
message: mismatched or empty inputs, unknown names, malformed records, model
fields that prediction cannot use, and counts outside the count-map contract."""

from __future__ import annotations

import json
import math
import re
from datetime import datetime, timedelta
from itertools import chain

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tvmood.affect import AffectScore, AffectSeries, SeriesPoint, score_counts, score_windows
from tvmood.classify import (
    AlphaError,
    GaussianNbModel,
    MultinomialNbModel,
    Posterior,
    model_from_json,
    model_to_json,
    predict_gaussian,
    predict_multinomial,
    train_gaussian,
    train_multinomial,
)
from tvmood.corpus import MAX_FLOAT, CorpusError, read_documents
from tvmood.evaluation import (
    ClassifierConfig,
    LabeledRow,
    auc_one_vs_rest,
    labeled_rows,
    run_cv,
    stratified_folds,
)
from tvmood.lexicon import AffectLexicon
from tvmood.synth import GenreProfile, profile_from_json

from conftest import T0, make_lexicon

RECORD = '{"id": "a", "channel": "c", "timestamp": "2013-01-07T00:00:00Z", '
TARGET = (0.5, 0.5, 0.5)
TRAINERS = {"gaussian": train_gaussian, "multinomial": train_multinomial}
DENSE_GAUSSIAN = train_gaussian([[1.0, 2.0], [1.5, 2.5], [3.0, 1.0], [3.5, 0.5]], list("xxyy"))
COUNTS_GAUSSIAN = train_gaussian([{"a": 1}, {"a": 2}, {"b": 1}, {"b": 3}], list("xxyy"))
MULTINOMIAL = train_multinomial([{"a": 1}, {"a": 2}, {"b": 1}, {"b": 3}], list("xxyy"))
# each class's terms apart, so a large count of one term is costly in every class
APART = train_multinomial([{"a": 1}, {"b": 2}, {"c": 1}, {"d": 3}], list("xxyy"))
AB_LEXICON = make_lexicon(dict.fromkeys("ab", TARGET))
# a word at 1.0 multiplies its count by 1.0, so the products sum as the counts do
ONES_LEXICON = make_lexicon({**dict.fromkeys("abc", (1.0, 1.0, 1.0)), "zz": TARGET})
ONE_CLASS = [LabeledRow(f"d{i}", "g", {"x": i + 1}) for i in range(4)]
# class x's four rows sum past the float range; each fold's would leave 'inf - inf'
PAST_RANGE_ROWS = [LabeledRow(f"x{i}", "x", {"a": 1e308}) for i in range(4)] + [
    LabeledRow(f"y{i}", "y", {"b": 1}) for i in range(4)
]
SUM_PAST_RANGE = "the counts sum past the float range"


def edited(model, *path, value):
    """``model`` reloaded from its JSON with the field, or the entry of a
    field, at ``path`` set to ``value``."""
    payload = target = json.loads(model_to_json(model))
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return model_from_json(json.dumps(payload))


def dict_in_vocabulary(kind, via):
    """A two-term model whose first vocabulary entry is a dict, reloaded
    from its JSON or rebuilt through its constructor."""
    model = TRAINERS[kind]([{"a": 1}, {"b": 2}], ["x", "y"])
    if via == "json":
        payload = json.loads(model_to_json(model))
        payload["vocabulary"][0] = {"q": 1}
        return model_from_json(json.dumps(payload))
    fields = {name: getattr(model, name) for name in model._fields}
    return type(model)(**{**fields, "vocabulary": ({"q": 1}, *model.vocabulary[1:])})


REFUSALS = {
    "genre-not-a-string": (
        lambda: list(read_documents([RECORD + '"genre": 3, "term_counts": {"x": 1}}'], "counts")),
        CorpusError, "line 1: field 'genre' must be a string",
    ),
    "text-not-a-string": (
        lambda: list(read_documents([RECORD + '"text": ["x"]}'], "text")),
        CorpusError, "line 1: field 'text' must be a string",
    ),
    "term-counts-not-an-object": (
        lambda: list(read_documents([RECORD + '"term_counts": [["x", 1]]}'], "counts")),
        CorpusError, "line 1: field 'term_counts' must be an object",
    ),
    "profile-error-prefixed": (
        lambda: profile_from_json(0, {"label": "a", "document_count": 0, "target": list(TARGET)}),
        ValueError, "profile 0: document_count must be >= 1, got 0",
    ),
    "profile-empty-label": (
        lambda: GenreProfile("", 1, 1.0, TARGET, (30, 80)),
        ValueError, "profile label is empty",
    ),
    "profile-target-outside-unit": (
        lambda: GenreProfile("a", 1, 1.0, (0.5, 1.5, 0.5), (30, 80)),
        ValueError, "target (0.5, 1.5, 0.5) must be three values in [0, 1]",
    ),
    "series-points-unordered": (
        lambda: AffectSeries("c", timedelta(days=1), (SeriesPoint(T0 + timedelta(days=1), None),
                                                      SeriesPoint(T0, None))),
        ValueError, "series points must be strictly ordered by start",
    ),
    "gaussian-length-mismatch": (
        lambda: train_gaussian([[1.0], [2.0]], ["a"]),
        ValueError, "instances and labels have different lengths",
    ),
    "gaussian-empty": (
        lambda: train_gaussian([], []),
        ValueError, "no training instances",
    ),
    "gaussian-predict-nan-position": (
        lambda: predict_gaussian(DENSE_GAUSSIAN, [math.nan, 1.0]),
        ValueError, "feature 0 is NaN",
    ),
    "gaussian-predict-nan-term": (
        lambda: predict_gaussian(COUNTS_GAUSSIAN, {"b": 1, "a": math.nan}),
        ValueError, "feature 'a' is NaN",
    ),
    "gaussian-predict-nan-term-outside-vocabulary": (
        lambda: predict_gaussian(COUNTS_GAUSSIAN, {"zz": math.nan}),
        ValueError, "feature 'zz' is NaN",
    ),
    "multinomial-length-mismatch": (
        lambda: train_multinomial([{"x": 1}], ["a", "b"]),
        ValueError, "instances and labels have different lengths",
    ),
    "multinomial-empty": (
        lambda: train_multinomial([], []),
        ValueError, "no training instances",
    ),
    "model-json-of-a-non-model": (
        lambda: model_to_json({"kind": "gaussian"}),
        TypeError, "not a model: {'kind': 'gaussian'}",
    ),
    **{
        f"{kind}-{via}-dict-in-vocabulary": (
            lambda kind=kind, via=via: dict_in_vocabulary(kind, via),
            ValueError, "vocabulary: not 2 distinct strings",
        )
        for kind in TRAINERS
        for via in ("json", "constructor")
    },
    "gaussian-repeated-class-label": (  # loaded, then predicted a posterior over ('x', 'x')
        lambda: GaussianNbModel(
            ("x", "x"), (0.0, 0.0), ((0.0,), (1.0,)), ((1.0,), (1.0,)), 1e-9, 1
        ),
        ValueError, "class_labels: not 2 distinct strings",
    ),
    "gaussian-no-class-labels": (  # loaded, then prediction raised max() of no classes
        lambda: GaussianNbModel((), (), (), (), 1e-9, 1),
        ValueError, "class_labels: not 1 distinct strings",
    ),
    "multinomial-repeated-class-label": (
        lambda: MultinomialNbModel(("x", "x"), (0.0, 0.0), ("t",), ((-1.0,), (-1.0,)), 1.0),
        ValueError, "class_labels: not 2 distinct strings",
    ),
    "multinomial-no-class-labels": (
        lambda: MultinomialNbModel((), (), ("t",), (), 1.0),
        ValueError, "class_labels: not 1 distinct strings",
    ),
    "labeled-rows-unknown-representation": (
        lambda: labeled_rows([], make_lexicon({"x": TARGET}), "bow"),
        ValueError, "unknown representation 'bow'",
    ),
    "config-unknown-kind": (
        lambda: ClassifierConfig("svm"),
        ValueError, "unknown classifier kind 'svm'",
    ),
    "folds-ids-length-mismatch": (
        lambda: stratified_folds(["a", "b"], 2, 0, ids=["x"]),
        ValueError, "ids and labels have different lengths",
    ),
    "auc-length-mismatch": (
        lambda: auc_one_vs_rest([0.5], [True, False]),
        ValueError, "scores and is_positive have different lengths",
    ),
    "run-cv-mixed-representations": (
        lambda: run_cv([LabeledRow("a", "g", {"x": 1}), LabeledRow("b", "g", [0.5])], 2, 0),
        ValueError, "row 'b' is not a vsm row, as the first row is",
    ),
    "run-cv-no-rows": (
        lambda: run_cv([], 2, 0),
        ValueError, "k=2 exceeds the instance count 0",
    ),
    "run-cv-no-rows-multinomial": (
        lambda: run_cv([], 2, 0, ClassifierConfig("multinomial")),
        ValueError, "k=2 exceeds the instance count 0",
    ),
    **{
        f"run-cv-single-class-{kind}": (
            lambda kind=kind: run_cv(ONE_CLASS, 2, 0, ClassifierConfig(kind)),
            ValueError, "training data contains a single class",
        )
        for kind in TRAINERS
    },
    "multinomial-nan-log-term-prob": (
        lambda: edited(MULTINOMIAL, "log_term_probs", 0, 0, value=math.nan),
        ValueError, "log_term_probs: class 'x', feature 'a' has nan, which is not a finite float",
    ),
    "multinomial-positive-log-term-prob": (  # loaded, then predicted (nan, nan) for {'b': 2}
        lambda: edited(MULTINOMIAL, "log_term_probs", 0, 1, value=1e308),
        ValueError, "log_term_probs: class 'x', feature 'b' has 1e+308, which is not at most 0.0",
    ),
    "multinomial-nan-log-prior": (
        lambda: edited(MULTINOMIAL, "log_priors", 0, value=math.nan),
        ValueError, "log_priors: class 'x' has nan, which is not a finite float",
    ),
    "multinomial-negative-alpha": (
        lambda: edited(MULTINOMIAL, "alpha", value=-1.0),
        AlphaError, "alpha must be a positive finite number, got -1.0",
    ),
    "multinomial-alpha-past-the-float-range": (  # an integer that no float holds
        lambda: edited(MULTINOMIAL, "alpha", value=10**400),
        AlphaError, f"alpha must be a positive finite number, got {10**400}",
    ),
    "gaussian-nan-log-prior": (
        lambda: edited(DENSE_GAUSSIAN, "log_priors", 0, value=math.nan),
        ValueError, "log_priors: class 'x' has nan, which is not a finite float",
    ),
    "gaussian-nan-mean": (
        lambda: edited(DENSE_GAUSSIAN, "means", 0, 0, value=math.nan),
        ValueError, "means: class 'x', feature 0 has nan, which is not a finite float",
    ),
    "gaussian-infinite-mean": (
        lambda: edited(DENSE_GAUSSIAN, "means", 0, 0, value=math.inf),
        ValueError, "means: class 'x', feature 0 has inf, which is not a finite float",
    ),
    "gaussian-nan-variance-floor": (
        lambda: edited(DENSE_GAUSSIAN, "variance_floor", value=math.nan),
        ValueError, "variance_floor: nan is not a positive finite float",
    ),
    "score-counts-sum-past-the-float-range": (
        lambda: score_counts({"a": 1e308, "b": 1e308}, AB_LEXICON),
        ValueError, SUM_PAST_RANGE,
    ),
    "predict-multinomial-sum-past-the-float-range": (  # was an OverflowError from fsum
        lambda: predict_multinomial(MULTINOMIAL, {"a": 1e308, "b": 1e308}),
        ValueError, SUM_PAST_RANGE,
    ),
    "train-multinomial-instance-sum-past-the-float-range": (
        lambda: train_multinomial([{"a": 1}, {"a": 1e308, "b": 1e308}, {"b": 1}], list("xxy")),
        ValueError, f"instance 1: {SUM_PAST_RANGE}",
    ),
    **{
        f"train-multinomial-class-sum-past-the-float-range-{kind}": (  # blamed alpha
            lambda count=count: train_multinomial([{"a": count}, {"a": count}, {"b": 1}], list("xxy")),
            ValueError, f"class 'x': {SUM_PAST_RANGE}",
        )
        for kind, count in (("float", 1e308), ("int", 10**308))  # the int was an OverflowError
    },
    "run-cv-class-sum-past-the-float-range": (  # gave a report: 'a' left every vocabulary
        lambda: run_cv(PAST_RANGE_ROWS, 2, 1, ClassifierConfig("multinomial")),
        ValueError, f"class 'x': {SUM_PAST_RANGE}",
    ),
    "predict-multinomial-every-class-past-the-float-range": (  # was (nan, nan)
        lambda: predict_multinomial(APART, {"a": 1.7e308}),
        ValueError, "the log-likelihood of every class runs past the float range",
    ),
    "lexicon-int-past-the-float-range": (  # was an OverflowError
        lambda: AffectLexicon({"a": (10**400, 0.5, 0.5)}),
        ValueError, f"word 'a': means ({10**400}, 0.5, 0.5) are not three finite values in [0, 1]",
    ),
    "score-windows-naive-origin": (
        lambda: score_windows([], make_lexicon({"x": TARGET}), timedelta(days=7), datetime(2013, 1, 7)),
        ValueError, "origin is naive",
    ),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_the_problem(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


BAD_COUNTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, True, False, None]),
    st.integers(max_value=0),
    st.integers(min_value=2**1024, max_value=10**400),  # ints that no float holds
    st.floats(max_value=0.0),
    st.text(max_size=2),
)
COUNT_ENTRIES = {  # each public entry that takes a term-count map, and its message prefix
    "score_counts": (lambda counts: score_counts(counts, AB_LEXICON), ""),
    "predict_multinomial": (lambda counts: predict_multinomial(MULTINOMIAL, counts), ""),
    "train_multinomial": (
        lambda counts: train_multinomial([{"a": 1}, counts, {"b": 1}], ["x", "x", "y"]),
        "instance 1: ",
    ),
}


@given(
    st.sampled_from(sorted(COUNT_ENTRIES)),
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "zz"]),
        st.one_of(st.integers(1, 2**60), st.floats(min_value=1e-300, max_value=1e300)),
        max_size=3,
    ),
    st.sampled_from(["a", "b", "zz"]),
    BAD_COUNTS,
    st.integers(0, 3),
)
@example("predict_multinomial", {}, "a", math.nan, 0)
@example("predict_multinomial", {}, "a", math.inf, 0)
@example("predict_multinomial", {}, "a", -3, 0)
@example("predict_multinomial", {}, "a", True, 0)
@example("predict_multinomial", {}, "a", 0, 0)
@example("train_multinomial", {}, "a", -1, 0)
@example("train_multinomial", {}, "a", math.nan, 0)
@example("train_multinomial", {}, "a", True, 0)
@example("score_counts", {"b": 1}, "a", -1, 0)
@example("score_counts", {}, "a", math.nan, 0)
@example("score_counts", {}, "a", -1, 0)
def test_a_count_outside_the_contract_is_refused_naming_the_term(entry, good, term, count, at):
    """One count that is not an int or float (a bool is neither), finite and
    above 0, among good ones, is a ValueError naming it: never another
    error, a score or a posterior."""
    pairs = [pair for pair in good.items() if pair[0] != term]
    pairs.insert(min(at, len(pairs)), (term, count))
    call, prefix = COUNT_ENTRIES[entry]
    message = f"{prefix}term {term!r} has count {count!r}, which is not a positive finite number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(dict(pairs))


POSITIVE_COUNT_ENTRIES = {  # the three entries again: the scorer on words at 1.0, the predictor on two models
    "score_counts": lambda counts: score_counts(counts, ONES_LEXICON),
    "predict_multinomial": COUNT_ENTRIES["predict_multinomial"][0],
    "predict_multinomial_apart": lambda counts: predict_multinomial(APART, counts),
    # the map twice in class x, so the class sums to twice the map's sum
    "train_multinomial": lambda counts: train_multinomial([counts, counts, {"b": 1}], list("xxy")),
}


@given(
    st.sampled_from(sorted(POSITIVE_COUNT_ENTRIES)),
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "zz"]),
        st.one_of(st.integers(1, 10**400), st.floats(min_value=5e-324, max_value=MAX_FLOAT)),
        max_size=3,
    ),
)
@example("predict_multinomial", {"a": 1e308, "b": 5e307})  # was an OverflowError from fsum
@example("predict_multinomial", {"a": 1e308, "b": 1e308})  # was an OverflowError from fsum
@example("predict_multinomial", {"a": 1.5e308})
@example("predict_multinomial_apart", {"a": 1.7e308})  # was (nan, nan)
@example("predict_multinomial", {"a": 10**400})  # was an OverflowError
@example("train_multinomial", {"a": 1e308})  # blamed alpha
@example("train_multinomial", {"a": 10**308})  # was an OverflowError
@example("train_multinomial", {"a": 10**400})  # was an OverflowError
@example("score_counts", {"a": 1e308, "b": 1e308})  # was a score over an inf total
@example("score_counts", {"a": 10**400})  # was an OverflowError
# sum gives MAX_FLOAT before Python 3.12; fsum overflowed in the products
@example("score_counts", {"a": MAX_FLOAT, "b": 2.0**969, "c": 2.0**969})
# exactly MAX_FLOAT as ints, past it as floats: fsum overflowed in the products
@example("score_counts", {"a": 2**1023 + 2**970 + 1, "b": int(MAX_FLOAT) - 2**1023 - 2**970 - 1})
def test_counts_give_a_finite_answer_or_a_one_line_value_error(entry, counts):
    """Any map of positive ints and floats, also past the float range, gives
    finite scores, finite posteriors that sum to 1 or a finite model, or a
    one-line ValueError: never NaN, an OverflowError or an AlphaError."""
    try:
        result = POSITIVE_COUNT_ENTRIES[entry](counts)
    except ValueError as error:
        assert not isinstance(error, AlphaError)
        assert "\n" not in str(error)
        return
    if isinstance(result, AffectScore):
        values = [*result[:6], result.matched_token_total]
    elif isinstance(result, Posterior):
        values = result.probabilities
        assert math.fsum(values) == pytest.approx(1.0, abs=1e-12)
    else:
        values = [*result.log_priors, *chain.from_iterable(result.log_term_probs)]
    assert all(map(math.isfinite, values))


ENTRY_MODELS = {"dense": DENSE_GAUSSIAN, "counts": COUNTS_GAUSSIAN, "multinomial": MULTINOMIAL}
ENTRY_QUERIES = {  # near each model's classes, far from them, and empty where it can be
    "dense": [[1.0, 2.0], [3.5, 0.5], [1e154, -1e154]],
    "counts": [{"a": 1}, {"b": 3}, {"a": 2, "b": 1e154}, {}],
    "multinomial": [{"a": 1}, {"b": 2}, {"a": 3, "b": 1e300}, {}],
}


def _indices(value):
    """Each index path to a number in a model field's value: (), (i,) or (i, j)."""
    if not isinstance(value, tuple):
        return [()]
    return [(i, *rest) for i, item in enumerate(value) for rest in _indices(item)]


MODEL_ENTRIES = [  # (kind, field, *index) for each number entry of the three models
    (kind, name, *index)
    for kind, model in ENTRY_MODELS.items()
    for name in ("means", "variances", "log_priors", "log_term_probs", "variance_floor", "alpha")
    if hasattr(model, name)
    for index in _indices(getattr(model, name))
]


@given(
    st.sampled_from(MODEL_ENTRIES),
    st.one_of(
        st.floats(),
        st.sampled_from([0, -0.0, 1e308, -1e308, 5e-324, 10**400, -(10**400)]),
        st.integers(-(10**400), 10**400),
    ),
)
@example(("dense", "variances", 0, 0), 10**400)  # was an OverflowError
@example(("counts", "variances", 0, 0), 10**400)  # was an OverflowError
@example(("counts", "means", 0, 0), 10**400)  # was an OverflowError
@example(("multinomial", "log_term_probs", 0, 1), 1e308)  # predicted (nan, nan)
def test_one_model_entry_gives_finite_posteriors_or_a_one_line_value_error(entry, value):
    """A trained model with any one number entry set to any number either
    loads and predicts finite posteriors that sum to 1 (or, for the
    multinomial, the ValueError of every class past the float range), or
    its loading is a one-line ValueError: never NaN or another error."""
    kind, *path = entry
    try:
        model = edited(ENTRY_MODELS[kind], *path, value=value)
    except ValueError as error:
        assert "\n" not in str(error)
        return
    predict = predict_multinomial if kind == "multinomial" else predict_gaussian
    for query in ENTRY_QUERIES[kind]:
        try:
            probabilities = predict(model, query).probabilities
        except ValueError as error:
            assert kind == "multinomial"
            assert str(error) == "the log-likelihood of every class runs past the float range"
            continue
        assert all(map(math.isfinite, probabilities))
        assert math.fsum(probabilities) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "counts, probabilities",
    [({"a": 1e308, "b": 5e307}, (1.0, 0.0)), ({"a": 1.5e308}, (1.0, 0.0))],
    ids=["sum-past-the-float-range", "product-past-the-float-range"],
)
def test_a_class_past_the_float_range_gets_probability_zero(counts, probabilities):
    # class x's log-likelihood is finite; y's exact sum, or a product, runs past the range
    assert predict_multinomial(MULTINOMIAL, counts) == Posterior(("x", "y"), probabilities)


def test_auc_ranks_an_int_past_the_float_range_exactly():
    assert auc_one_vs_rest([10**400, 0.5, 0.1], [True, False, False]) == 1.0  # was an OverflowError
