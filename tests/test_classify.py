"""Naive Bayes training, prediction, and serialization."""

from __future__ import annotations

import json
import math
import random
import re
from itertools import chain

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tvmood.classify import (
    VARIANCE_FLOOR_SCALE,
    GaussianNbModel,
    MultinomialNbModel,
    Posterior,
    _moments,
    model_from_json,
    model_to_json,
    multinomial_fold_models,
    predict_gaussian,
    predict_multinomial,
    train_gaussian,
    train_multinomial,
)


from oracles import (
    gaussian_posterior,
    misrounded_by_pow,
    moments_rounding_each_square_once,
    multinomial_posterior,
    predict_gaussian_absent_loop,
    predict_gaussian_dense,
    predict_multinomial_lookup,
    train_gaussian_dense,
    train_gaussian_per_feature,
    train_multinomial_counted,
)


def test_gaussian_hand_moments():
    model = train_gaussian([[0.0], [2.0], [4.0], [6.0]], ["A", "A", "B", "B"])
    assert model.class_labels == ("A", "B")
    assert model.means == ((1.0,), (5.0,))
    assert model.variances == ((1.0,), (1.0,))
    assert [math.exp(p) for p in model.log_priors] == pytest.approx([0.5, 0.5])


def test_gaussian_midpoint_is_symmetric():
    model = train_gaussian([[0.0], [2.0], [4.0], [6.0]], ["A", "A", "B", "B"])
    posterior = predict_gaussian(model, [3.0])
    assert posterior.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
    assert posterior.predicted_label == "A"  # first label wins exact ties


def test_gaussian_pulls_toward_nearer_class():
    model = train_gaussian([[0.0], [2.0], [4.0], [6.0]], ["A", "A", "B", "B"])
    assert predict_gaussian(model, [1.0]).probability("A") > 0.5
    assert predict_gaussian(model, [5.0]).probability("B") > 0.5


def test_predicted_label_takes_the_first_of_tied_maxima():
    assert Posterior(("a", "b", "c", "d"), (0.1, 0.3, 0.3, 0.3)).predicted_label == "b"
    assert Posterior(("a", "b", "c"), (1 / 3, 1 / 3, 1 / 3)).predicted_label == "a"
    assert Posterior(("a", "b", "c"), (-0.0, 0.0, -0.0)).predicted_label == "a"
    assert Posterior(("a", "b", "c"), (0.25, 0.25, 0.5)).predicted_label == "c"


def _assert_predictions_equal_the_absent_term_loop(model, queries):
    for query in queries:
        posterior = predict_gaussian(model, query)
        reference = predict_gaussian_absent_loop(model, query)
        assert repr((posterior.labels, posterior.probabilities)) == repr(reference), query


def test_gaussian_dense_prediction_equals_the_absent_term_loop():
    # class a never has feature 1 and class c has it missing too: their means are None
    rows = [[1.0, None, 2.0], [2.0, None, 3.0], [0.5, 4.0, None], [1.5, 5.0, 1.0], [3.0, None, 0.0]]
    model = train_gaussian(rows, ["a", "a", "b", "b", "c"])
    assert model.means[0][1] is None and model.means[2][1] is None
    rng = random.Random(47)
    drawn = [
        [None if rng.random() < 0.3 else rng.uniform(-5.0, 10.0) for _ in range(3)]
        for _ in range(300)
    ]
    special = [
        [None, None, None],  # no usable feature: the priors
        [1e300, 0.0, 0.0],  # a square overflows to inf: -inf terms
        [10**400, 1.0, 1.0],  # a value past the float range in every class: the priors
        [1.0, 10**400, 2.0],  # past the range only in class b, the one with a mean
    ]
    _assert_predictions_equal_the_absent_term_loop(model, special + drawn)


def test_gaussian_counts_prediction_equals_the_absent_term_loop():
    rng = random.Random(53)
    labels = ["a", "b", "c"] * 8
    instances = [
        {term: rng.randint(1, 9) for term in TERMS if rng.random() < 0.4} for _ in labels
    ]
    model = train_gaussian(instances, labels)
    terms = [*TERMS, "unseen"]
    drawn = [
        {term: rng.choice([0, rng.randint(1, 12), rng.uniform(0.0, 20.0)]) for term in terms
         if rng.random() < 0.4}
        for _ in range(300)
    ]
    special = [
        {},  # only the all-absent log-likelihood
        {"unseen": 4},  # outside the vocabulary: ignored
        {model.vocabulary[0]: 10**400},  # a count past the float range: the priors
        {model.vocabulary[0]: 1e200, model.vocabulary[-1]: 2},  # a square overflows to inf
    ]
    _assert_predictions_equal_the_absent_term_loop(model, special + drawn)


def test_gaussian_all_missing_falls_back_to_priors():
    model = train_gaussian(
        [[0.0], [2.0], [4.0]], ["A", "A", "B"]
    )
    posterior = predict_gaussian(model, [None])
    assert posterior.probabilities == pytest.approx((2 / 3, 1 / 3), abs=1e-12)


def test_gaussian_single_class_is_an_error():
    with pytest.raises(ValueError, match="single class"):
        train_gaussian([[1.0], [2.0]], ["A", "A"])


def test_gaussian_constant_feature_hits_floor():
    model = train_gaussian(
        [[1.0, 0.0], [1.0, 2.0], [1.0, 4.0], [1.0, 6.0]], ["A", "A", "B", "B"]
    )
    # feature 0 is constant in both classes; floored variance keeps it finite
    assert model.variances[0][0] == model.variance_floor
    posterior = predict_gaussian(model, [1.0, 3.0])
    assert all(math.isfinite(p) for p in posterior.probabilities)
    assert math.fsum(posterior.probabilities) == pytest.approx(1.0, abs=1e-9)


def test_gaussian_class_without_feature_values_is_skipped():
    instances = [[0.0, None], [2.0, None], [4.0, 1.0], [6.0, 3.0]]
    model = train_gaussian(instances, ["A", "A", "B", "B"])
    assert model.means[0][1] is None
    posterior = predict_gaussian(model, [3.0, 2.0])
    assert math.fsum(posterior.probabilities) == pytest.approx(1.0, abs=1e-9)


def test_gaussian_arity_mismatch():
    model = train_gaussian([[0.0], [4.0]], ["A", "B"])
    with pytest.raises(ValueError, match="features"):
        predict_gaussian(model, [1.0, 2.0])
    with pytest.raises(ValueError, match="features"):
        train_gaussian([[0.0], [4.0, 1.0]], ["A", "B"])


def test_gaussian_matches_density_oracle():
    rng = random.Random(53)
    for _ in range(100):
        n_classes = rng.randint(2, 3)
        n_features = rng.randint(1, 3)
        labels, instances = [], []
        for c in range(n_classes):
            for _ in range(rng.randint(1, 6)):
                labels.append(f"c{c}")
                instances.append(
                    [
                        None if rng.random() < 0.15 else rng.uniform(-5, 5)
                        for _ in range(n_features)
                    ]
                )
        if len(set(labels)) < 2:
            continue
        # ensure every class keeps at least one instance after masking
        model = train_gaussian(instances, labels)
        query = [None if rng.random() < 0.2 else rng.uniform(-5, 5) for _ in range(n_features)]
        posterior = predict_gaussian(model, query)
        oracle_labels, oracle_probs = gaussian_posterior(instances, labels, query)
        assert posterior.labels == tuple(oracle_labels)
        assert posterior.probabilities == pytest.approx(oracle_probs, abs=1e-9)


@st.composite
def dense_problems(draw):
    """Dense rows with missing, integer and 1e6-scale entries, at least two
    classes, plus a query row."""
    value = st.one_of(
        st.none(), st.integers(-(10**6), 10**6), st.floats(-1e6, 1e6, allow_nan=False)
    )
    width = draw(st.integers(1, 4))
    row = st.lists(value, min_size=width, max_size=width)
    classes = [f"c{c}" for c in range(draw(st.integers(2, 3)))]
    labels = classes + draw(st.lists(st.sampled_from(classes), max_size=8))
    return [draw(row) for _ in labels], labels, draw(row)


@given(dense_problems())
def test_gaussian_dense_rows_match_reference_bit_for_bit(problem):
    instances, labels, query = problem
    try:
        reference = train_gaussian_dense(instances, labels)
    except ValueError:  # a variance floor that underflows to 0 meets log(0)
        with pytest.raises(ValueError):
            train_gaussian(instances, labels)
        return
    model = train_gaussian(instances, labels)
    # the JSON holds every float in shortest round-trip form: equal text,
    # equal bits of means, variances, floor and priors
    assert model_to_json(model) == model_to_json(reference)
    posterior = predict_gaussian(model, query)
    assert (posterior.labels, posterior.probabilities) == predict_gaussian_dense(
        reference, query
    )
    reloaded = model_from_json(model_to_json(model))
    assert reloaded == model
    assert predict_gaussian(reloaded, query) == posterior


TERMS = ["t0", "t1", "t2", "t3", "t4", "t5"]


def densify(vector, vocabulary):
    return [float(vector.get(term, 0)) for term in vocabulary]


@st.composite
def counts_problems(draw, counts=st.integers(1, 9)):
    """Term-count training data with at least two classes and one term, plus a query.

    Queries may hold terms outside the training vocabulary, or none at all.
    """
    n_classes = draw(st.integers(2, 3))
    classes = [f"c{c}" for c in range(n_classes)]
    labels = classes + draw(st.lists(st.sampled_from(classes), max_size=8))
    vector = st.dictionaries(st.sampled_from(TERMS), counts, max_size=4)
    instances = [draw(vector) for _ in labels]
    instances[0] = instances[0] or {"t0": 1}
    query = draw(st.dictionaries(st.sampled_from(TERMS + ["oov"]), counts, max_size=5))
    return instances, labels, query


@given(counts_problems(counts=st.one_of(st.integers(1, 9), st.integers(1, 10**6))))
def test_gaussian_counts_equal_dense_rows_bit_for_bit(problem):
    instances, labels, query = problem
    model = train_gaussian(instances, labels)
    vocabulary = sorted({term for vector in instances for term in vector})
    dense = train_gaussian([densify(x, vocabulary) for x in instances], labels)
    assert model.vocabulary == tuple(vocabulary)
    assert model.means == dense.means
    assert model.variances == dense.variances
    assert model.variance_floor == dense.variance_floor
    posterior = predict_gaussian(model, query)
    assert posterior == predict_gaussian(dense, densify(query, vocabulary))
    reloaded = model_from_json(model_to_json(model))
    assert reloaded == model
    assert predict_gaussian(reloaded, query) == posterior


@given(st.one_of(dense_problems(), counts_problems()), st.data())
def test_gaussian_prediction_refuses_a_nan_naming_its_position_or_term(problem, data):
    instances, labels, query = problem
    try:
        model = train_gaussian(instances, labels)
    except ValueError:  # a variance floor that underflows to 0 meets log(0)
        assume(False)
    if isinstance(query, dict):  # a term of the vocabulary, of the query or neither
        feature = data.draw(st.sampled_from(TERMS + ["oov"]))
    else:
        feature = data.draw(st.integers(0, len(query) - 1))
    query[feature] = math.nan
    with pytest.raises(ValueError, match=f"^feature {re.escape(repr(feature))} is NaN$"):
        predict_gaussian(model, query)


@st.composite
def spread_counts_problems(draw):
    """Term-count training data where every class holds 3-5 instances, plus a query."""
    row = st.lists(st.integers(0, 5), min_size=3, max_size=3)
    labels, instances = [], []
    for c in range(draw(st.integers(2, 3))):
        for _ in range(draw(st.integers(3, 5))):
            labels.append(f"c{c}")
            instances.append({t: n for t, n in zip(TERMS, draw(row)) if n})
    query = draw(st.dictionaries(st.sampled_from(TERMS[:3] + ["oov"]), st.integers(1, 5)))
    return instances, labels, query


@given(spread_counts_problems())
def test_gaussian_counts_match_density_oracle(problem):
    """The counts path against the density oracle, on well-conditioned problems.

    When floored variances give two classes log-likelihoods of order 1e10
    that nearly cancel, double precision resolves the posterior to about
    1e-6 only, on the dense path too; so no variance here is floored.
    """
    instances, labels, query = problem
    assume(any(instances))
    model = train_gaussian(instances, labels)
    assume(all(v > model.variance_floor for row in model.variances for v in row))
    vocabulary = model.vocabulary
    posterior = predict_gaussian(model, query)
    oracle_labels, oracle_probs = gaussian_posterior(
        [densify(x, vocabulary) for x in instances], labels, densify(query, vocabulary)
    )
    assert posterior.labels == tuple(oracle_labels)
    assert posterior.probabilities == pytest.approx(oracle_probs, abs=1e-9)


def test_gaussian_counts_unseen_terms_and_empty_query():
    instances = [{"a": 2, "b": 1}, {"a": 1}, {"c": 4}, {"c": 2, "b": 3}]
    labels = ["x", "x", "y", "y"]
    model = train_gaussian(instances, labels)
    dense = train_gaussian([densify(x, "abc") for x in instances], labels)
    # class y never saw "a": a point mass at zero, held up by the floor
    y, a = model.class_labels.index("y"), model.term_index["a"]
    assert model.means[y][a] == 0.0
    assert model.variances[y][a] == model.variance_floor
    empty = predict_gaussian(model, {})
    assert empty == predict_gaussian(dense, [0.0, 0.0, 0.0])
    assert predict_gaussian(model, {"zzz": 5}) == empty
    for query in ({"a": 1, "zzz": 2}, {"c": 3}, {"a": 1, "b": 1, "c": 1}):
        assert predict_gaussian(model, query) == predict_gaussian(dense, densify(query, "abc"))


def test_gaussian_counts_and_dense_rows_do_not_mix():
    with pytest.raises(ValueError, match="mix"):
        train_gaussian([{"a": 1}, [1.0]], ["x", "y"])
    with pytest.raises(ValueError, match="mix"):
        train_gaussian([[1.0], {"a": 1}], ["x", "y"])
    with pytest.raises(ValueError, match="vocabulary"):
        train_gaussian([{}, {}], ["x", "y"])
    counts_model = train_gaussian([{"a": 1}, {"b": 1}], ["x", "y"])
    with pytest.raises(ValueError, match="mapping"):
        predict_gaussian(counts_model, [1.0, 0.0])
    dense_model = train_gaussian([[0.0], [4.0]], ["x", "y"])
    for query in ({"a": 1}, {0: 2.0}):  # not a row, even when keyed by position
        with pytest.raises(ValueError, match="mapping"):
            predict_gaussian(dense_model, query)


def _assert_same_fits(model, reference):
    """Means, variances and floor with equal bits; repr tells -0.0 from 0.0."""
    assert repr(model.means) == repr(reference.means)
    assert repr(model.variances) == repr(reference.variances)
    assert repr(model.variance_floor) == repr(reference.variance_floor)


@st.composite
def repeated_counts_problems(draw):
    """Counts of 1 or 2 over six terms in at most 12 instances, so that
    most (term, class) value patterns repeat across terms and classes."""
    classes = [f"c{c}" for c in range(draw(st.integers(2, 3)))]
    labels = classes + draw(st.lists(st.sampled_from(classes), max_size=12 - len(classes)))
    vector = st.dictionaries(st.sampled_from(TERMS), st.integers(1, 2), max_size=6)
    instances = [draw(vector) for _ in labels]
    instances[0] = instances[0] or {"t0": 1}
    return instances, labels


@given(repeated_counts_problems())
def test_gaussian_counts_with_repeated_patterns_match_dense_reference(problem):
    """The trainer fits each distinct value pattern once; the reference
    rescans every (class, feature) pair of the densified rows."""
    instances, labels = problem
    model = train_gaussian(instances, labels)
    densified = [densify(x, model.vocabulary) for x in instances]
    _assert_same_fits(model, train_gaussian_dense(densified, labels))


def test_gaussian_equal_patterns_of_signed_zeros_and_ints_share_exact_fits():
    # -0.0 == 0.0 and 1 == 1.0, so these patterns share one fit whichever comes first
    for first, second in ((-0.0, 0.0), (0.0, -0.0), (1, 1.0), (1.0, 1)):
        dense = [[first, first], [2.0, second], [second, 1.0], [2.0, 1], [first, -0.0]]
        labels = ["a", "a", "b", "b", "c"]
        reference = train_gaussian_dense(dense, labels)
        _assert_same_fits(train_gaussian(dense, labels), reference)
        counts = [{"x": first, "y": 2.0}, {"x": second}, {"y": first}, {"x": second, "y": 1}]
        labels = ["a", "a", "b", "b"]
        reference = train_gaussian_dense([densify(x, "xy") for x in counts], labels)
        _assert_same_fits(train_gaussian(counts, labels), reference)


def test_gaussian_equal_overflowing_patterns_name_the_first_feature():
    # "b" is seen first, but "a" comes first in vocabulary order, and a failed fit is not shared
    with pytest.raises(ValueError, match=r"^feature 'a': .* not finite"):
        train_gaussian([{"b": 1e300, "a": 1e300}, {"c": 1}], ["x", "y"])
    with pytest.raises(ValueError, match=r"^feature 0: .* not finite"):
        train_gaussian([[1e300, 1e300], [0.0, 0.0], [1.0, 1.0]], ["x", "y", "y"])


@st.composite
def recurring_pattern_problems(draw):
    """Classes of different sizes in which each shared term holds one value
    list, so that equal values meet different zero counts; plus a few terms
    with counts of their own."""
    values = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    sizes = draw(
        st.lists(st.integers(len(values), 6), min_size=2, max_size=3, unique=True)
    )
    shared = TERMS[: draw(st.integers(1, 3))]
    instances, labels = [], []
    for c, size in enumerate(sizes):
        rows = draw(st.permutations(range(size)))[: len(values)]
        for i in range(size):
            labels.append(f"c{c}")
            instances.append(draw(st.dictionaries(st.sampled_from(TERMS[3:]), st.integers(1, 3))))
        for term in shared:
            for row, value in zip(rows, values):
                instances[len(instances) - size + row][term] = value
    return instances, labels, shared


@given(recurring_pattern_problems())
def test_gaussian_recurring_values_fit_apart_per_class_size(problem):
    instances, labels, shared = problem
    model = train_gaussian(instances, labels)
    densified = [densify(x, model.vocabulary) for x in instances]
    _assert_same_fits(model, train_gaussian_dense(densified, labels))
    # one value list, as many zero counts as classes: the fits must not mix sizes
    for term in shared:
        column = model.term_index[term]
        assert len({row[column] for row in model.means}) == len(model.class_labels)


# values near the float range, where a mean's fsum or a square overflows
_HUGE = st.floats(1e307, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def collecting_problems(draw):
    """Dense rows with None, integers and floats, or count maps with int and
    float counts, over at least two classes; values near 1e308 in half."""
    classes = [f"c{c}" for c in range(draw(st.integers(2, 3)))]
    labels = classes + draw(st.lists(st.sampled_from(classes), max_size=8))
    number = st.one_of(st.integers(-(10**6), 10**6), st.floats(-1e6, 1e6))
    if draw(st.booleans()):  # in half the problems, so that half fit at all
        number |= _HUGE
    if draw(st.booleans()):
        width = draw(st.integers(1, 4))
        row = st.lists(st.one_of(st.none(), number), min_size=width, max_size=width)
    else:
        row = st.dictionaries(st.sampled_from(TERMS), number, max_size=4)
    return [draw(row) for _ in labels], labels


def _trained(train, instances, labels):
    """The model's repr, or the ValueError's message."""
    try:
        return repr(train(instances, labels))
    except ValueError as error:
        return f"ValueError: {error}"


@given(collecting_problems())
def test_gaussian_per_class_collecting_equals_per_feature_collecting(problem):
    """Equal models by repr (so -0.0 and 0.0 differ), or equal refusals."""
    instances, labels = problem
    expected = _trained(train_gaussian_per_feature, instances, labels)
    assert _trained(train_gaussian, instances, labels) == expected


def test_gaussian_equal_fits_share_their_derived_floats():
    # a, b, d and e each hold (1,) in class x, and b and e hold nothing in class y
    instances = [{"a": 1, "b": 1, "c": 2}, {"d": 1, "e": 1}, {"c": 1}, {"a": 2, "c": 1}, {"d": 2}]
    labels = ["x", "x", "x", "y", "y"]
    model = train_gaussian(instances, labels)
    for copy in (model, model_from_json(model_to_json(model))):
        variances = list(chain.from_iterable(copy.variances))
        pairs = list(zip(chain.from_iterable(copy.means), variances))
        norms = list(chain.from_iterable(copy.log_norms))
        absent = list(chain.from_iterable(copy.absent_terms))
        assert len(set(pairs)) < len(pairs)
        # one float object per distinct value, shared by every entry equal to it
        assert len(set(map(id, norms))) == len(set(variances))
        assert len(set(map(id, absent))) == len(set(pairs))
        for variance, norm in zip(variances, norms):
            assert norm is norms[variances.index(variance)]
        for pair, term in zip(pairs, absent):
            assert term is absent[pairs.index(pair)]


def test_multinomial_hand_smoothing():
    model = train_multinomial([{"a": 2, "b": 1}, {"c": 3}], ["x", "y"], alpha=1.0)
    x_row = model.log_term_probs[model.class_labels.index("x")]
    probs = {t: math.exp(x_row[model.vocabulary.index(t)]) for t in model.vocabulary}
    assert probs["a"] == pytest.approx(3 / 6)  # (2+1)/(3+3)
    assert probs["b"] == pytest.approx(2 / 6)
    assert probs["c"] == pytest.approx(1 / 6)  # absent term stays positive
    assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_a_float_class_is_totalled_with_one_rounding_on_every_python():
    """A class's float counts are totalled by ``math.fsum``, not by ``sum``,
    which compensates only from Python 3.12 on; at a tiny alpha, each
    log-probability of class x shows the total's last bit."""
    rows, labels = [{"a": 0.1, "b": 0.2, "c": 0.3}, {"d": 1}], ["x", "y"]
    model = train_multinomial(rows, labels, alpha=1e-17)
    assert repr(model) == repr(train_multinomial_counted(rows, labels, 1e-17))
    assert [value.hex() for value in model.log_term_probs[0][:3]] == [
        "-0x1.cab0bfa2a2001p+0", "-0x1.193ea7aad030ap+0", "-0x1.62e42fefa39f0p-1",
    ]


def test_zero_count_terms_are_in_no_vocabulary():
    # train_multinomial refuses a zero count. The trusted fold counting, in the
    # one-fold call train_multinomial makes (every row in fold 1) and per fold,
    # leaves out a term whose total count is not positive
    rows = [{"x": 1, "q": 0}, {"x": 2}, {"x": 1}, {"x": 3}]
    labels = ["a", "b", "a", "b"]
    with pytest.raises(ValueError, match="^instance 0: term 'q' has count 0, "):
        train_multinomial(rows, labels)
    model = next(multinomial_fold_models(rows, labels, [1] * 4, 2, 1.0))
    assert model.vocabulary == ("x",)
    assert repr(model) == repr(train_multinomial_counted(rows, labels, 1.0))
    folds = multinomial_fold_models(rows, labels, [0, 0, 1, 1], 2, 1.0)
    assert [fold.vocabulary for fold in folds] == [("x",), ("x",)]


def test_model_from_json_refuses_a_repeated_key():
    text = model_to_json(train_multinomial([{"a": 1}, {"b": 1}], ["x", "y"]))
    repeated = text.replace('"alpha": 1.0', '"alpha": 1.0, "alpha": 2.0')
    assert repeated != text
    with pytest.raises(ValueError, match=r"^repeated key 'alpha'$"):
        model_from_json(repeated)


def test_multinomial_large_alpha_approaches_uniform():
    model = train_multinomial([{"a": 5}, {"b": 5}], ["x", "y"], alpha=1e9)
    for row in model.log_term_probs:
        for log_prob in row:
            assert math.exp(log_prob) == pytest.approx(0.5, rel=1e-6)


def test_multinomial_empty_instance_returns_priors():
    model = train_multinomial([{"a": 1}, {"a": 1}, {"b": 1}], ["x", "x", "y"])
    posterior = predict_multinomial(model, {})
    assert posterior.probabilities == pytest.approx((2 / 3, 1 / 3), abs=1e-12)


def test_multinomial_unknown_terms_are_ignored():
    model = train_multinomial([{"a": 1}, {"b": 1}], ["x", "y"])
    with_unknown = predict_multinomial(model, {"a": 2, "zzz": 50})
    without = predict_multinomial(model, {"a": 2})
    assert with_unknown == without


def test_multinomial_prefers_matching_class():
    model = train_multinomial(
        [{"goal": 3, "match": 2}, {"vote": 4, "poll": 1}], ["sport", "politics"]
    )
    assert predict_multinomial(model, {"goal": 2}).predicted_label == "sport"
    assert predict_multinomial(model, {"poll": 2}).predicted_label == "politics"


def test_multinomial_doubling_counts_keeps_argmax():
    rng = random.Random(59)
    model = train_multinomial(
        [{"a": 3, "b": 1}, {"b": 4, "c": 2}, {"c": 5}], ["x", "y", "y"]
    )
    for _ in range(30):
        instance = {t: rng.randint(1, 6) for t in rng.sample(["a", "b", "c"], rng.randint(1, 3))}
        single = predict_multinomial(model, instance)
        doubled = predict_multinomial(model, {t: 2 * c for t, c in instance.items()})
        probs = sorted(single.probabilities, reverse=True)
        if probs[0] > probs[1]:  # strict ordering only
            assert doubled.predicted_label == single.predicted_label


def test_multinomial_errors():
    with pytest.raises(ValueError, match="single class"):
        train_multinomial([{"a": 1}, {"b": 1}], ["x", "x"])
    with pytest.raises(ValueError, match="vocabulary"):
        train_multinomial([{}, {}], ["x", "y"])
    for alpha in (0.0, -1.0, math.nan, math.inf, -math.inf, 1e308):  # 1e308 * |V| overflows
        with pytest.raises(ValueError, match="alpha"):
            train_multinomial([{"a": 1}, {"b": 1}], ["x", "y"], alpha=alpha)


def test_multinomial_matches_fraction_oracle():
    rng = random.Random(61)
    vocabulary = [f"t{i}" for i in range(8)]
    for _ in range(100):
        n_classes = rng.randint(2, 3)
        labels, instances = [], []
        for c in range(n_classes):
            for _ in range(rng.randint(1, 5)):
                labels.append(f"c{c}")
                terms = rng.sample(vocabulary, rng.randint(1, 4))
                instances.append({t: rng.randint(1, 5) for t in terms})
        alpha = rng.choice([1.0, 0.5, 2.0])
        model = train_multinomial(instances, labels, alpha)
        query_terms = rng.sample(vocabulary + ["zzz"], rng.randint(0, 4))
        query = {t: rng.randint(1, 4) for t in query_terms}
        posterior = predict_multinomial(model, query)
        oracle_labels, oracle_probs = multinomial_posterior(instances, labels, alpha, query)
        assert posterior.labels == tuple(oracle_labels)
        assert posterior.probabilities == pytest.approx(oracle_probs, abs=1e-9)


@given(
    counts_problems(
        # a float count of 1.0 is left unscaled, as the int 1 is: 1.0 * x == x
        counts=st.one_of(
            st.integers(1, 9), st.integers(1, 2**53), st.sampled_from([1.0, 2.5])
        )
    ),
    st.sampled_from([1.0, 0.5, 1e-3, 7.25]),
)
def test_multinomial_equals_per_class_lookup_bit_for_bit(problem, alpha):
    instances, labels, query = problem
    model = train_multinomial(instances, labels, alpha)
    for instance in (query, {}, {"oov": 3}):
        posterior = predict_multinomial(model, instance)
        labels_, probabilities = predict_multinomial_lookup(model, instance)
        assert posterior.labels == labels_
        assert repr(posterior.probabilities) == repr(probabilities)


def test_posteriors_sum_to_one_and_stay_finite():
    rng = random.Random(67)
    for _ in range(50):
        instances = [[rng.uniform(-1e3, 1e3) for _ in range(2)] for _ in range(8)]
        labels = [rng.choice(["a", "b", "c"]) for _ in range(8)]
        if len(set(labels)) < 2:
            continue
        model = train_gaussian(instances, labels)
        posterior = predict_gaussian(model, [rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)])
        assert math.fsum(posterior.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 and math.isfinite(p) for p in posterior.probabilities)


def _assert_distribution(posterior):
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in posterior.probabilities)
    assert math.fsum(posterior.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_variance_floor_stays_positive_for_tiny_variances():
    # the largest variance is about 2e-321, so 1e-9 times it underflows to 0
    model = train_gaussian([[0.0], [1e-160], [0.0], [0.0]], ["a", "a", "b", "b"])
    assert model.variance_floor > 0
    assert all(v >= model.variance_floor for row in model.variances for v in row)
    for query in ([0.0], [1e-160], [1.0], [1e300]):
        _assert_distribution(predict_gaussian(model, query))


def test_gaussian_overflowing_terms_fall_back_to_priors():
    labels = ["a", "a", "b", "b", "b"]
    model = train_gaussian([[0.0], [1.0], [2.0], [3.0], [4.0]], labels)
    posterior = predict_gaussian(model, [1e300])  # the square of value - mean overflows
    _assert_distribution(posterior)
    assert posterior.probabilities == pytest.approx((0.4, 0.6), abs=1e-12)
    # every term is finite, but their sum runs past the float range
    wide = train_gaussian([[float(v)] * 4 for v in range(5)], labels)
    posterior = predict_gaussian(wide, [1e154] * 4)
    _assert_distribution(posterior)
    assert posterior.probabilities == pytest.approx((0.4, 0.6), abs=1e-12)
    # a class past the range gets probability 0 while another stays finite
    posterior = predict_gaussian(model, [-1e154])
    _assert_distribution(posterior)
    assert posterior.probabilities == (0.0, 1.0)


def test_gaussian_overflowing_training_values_name_the_feature():
    labels = ["a", "a", "b", "b"]
    # a square, a sum of squares, or a value itself that is not finite
    for first, second in ((1e300, 0.0), (1e154, -1e154), (math.nan, 0.0)):
        with pytest.raises(ValueError, match=r"^feature 0: ") as excinfo:
            train_gaussian([[first], [second], [1.0], [2.0]], labels)
        assert "not finite" in str(excinfo.value)
    with pytest.raises(ValueError, match=r"^feature 1: "):
        train_gaussian([[0.0, 1e300], [1.0, 0.0], [2.0, 1.0], [3.0, 2.0]], labels)


def test_gaussian_counts_absent_and_present_squares_overflow_apart():
    # an absent term whose square overflows is refused, so prediction never adds
    # its negation, +inf, to a present square's -inf (fsum raises on that mix)
    message = (
        "class 'a', feature 'x': the log-density of a zero count is not finite "
        "for mean -1e+155, variance 1.0"
    )
    variances = ((1.0,), (1.0,))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GaussianNbModel(("a", "b"), (0.0, 0.0), ((-1e155,), (0.0,)), variances, 1e-9, 1, ("x",))
    # class a's absent term, about -5e307, is finite; the present square of 2e154 is not
    priors = (math.log(0.5),) * 2
    model = GaussianNbModel(("a", "b"), priors, ((-1e154,), (0.0,)), variances, 1e-9, 1, ("x",))
    assert model.absent_terms[0][0] == pytest.approx(-5e307)
    assert predict_gaussian(model, {"x": 1e154}).probabilities == (0.0, 1.0)
    # both classes' squares overflow: the priors
    assert predict_gaussian(model, {"x": 1e160}).probabilities == (0.5, 0.5)


@pytest.mark.parametrize("zeros", [0, 1, 3])
def test_moments_round_each_square_once(zeros):
    # x and -x have mean 0.0, so x is a deviation; C pow squares these x wrongly
    # (none on a C library whose pow rounds correctly)
    misrounded = misrounded_by_pow(60)
    rng = random.Random(zeros)
    drawn = [[rng.uniform(-1e3, 1e3) for _ in range(rng.randint(1, 6))] for _ in range(200)]
    for values in [[x, -x] for x in misrounded] + drawn:
        assert _moments(values, zeros) == moments_rounding_each_square_once(values, zeros)


def test_gaussian_variance_with_infinite_log_norm_names_class_and_feature():
    # the variance is finite, about 2.9e307, but 2*pi times it is not
    labels = ["a", "a", "b", "b"]
    with pytest.raises(ValueError, match=r"^class 'a', feature 0: 2\*pi\*variance is not finite"):
        train_gaussian([[5.4e153], [-5.4e153], [1.0], [2.0]], labels)
    model = train_gaussian([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.0, 1.0]], labels)
    for variance in (1e308, math.inf, math.nan):
        payload = json.loads(model_to_json(model))
        payload["variances"][1][1] = variance
        with pytest.raises(ValueError, match=r"^class 'b', feature 1: .* not finite"):
            model_from_json(json.dumps(payload))


def test_gaussian_variance_not_positive_names_class_and_feature():
    model = train_gaussian([[1.0], [2.0], [1.0], [3.0]], ["a", "a", "b", "b"])
    for variance in (0.0, -0.0, -1.0):
        payload = json.loads(model_to_json(model))
        payload["variances"][1][0] = variance
        with pytest.raises(ValueError) as excinfo:
            model_from_json(json.dumps(payload))
        assert str(excinfo.value) == (
            f"class 'b', feature 0: variance {variance!r} is not positive"
        )


def test_prediction_is_deterministic():
    model = train_gaussian([[0.0], [2.0], [4.0], [6.0]], ["A", "A", "B", "B"])
    first = predict_gaussian(model, [2.5])
    second = predict_gaussian(model, [2.5])
    assert first == second


def test_gaussian_serialization_round_trip_is_bit_exact():
    rng = random.Random(71)
    instances = [
        [rng.uniform(-3, 3), None if rng.random() < 0.2 else rng.uniform(-3, 3)]
        for _ in range(12)
    ]
    labels = [rng.choice(["a", "b", "c"]) for _ in range(12)]
    model = train_gaussian(instances, labels)
    reloaded = model_from_json(model_to_json(model))
    assert isinstance(reloaded, GaussianNbModel)
    assert reloaded == model
    for _ in range(20):
        query = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
        assert predict_gaussian(reloaded, query) == predict_gaussian(model, query)


def test_multinomial_serialization_round_trip_is_bit_exact():
    model = train_multinomial(
        [{"a": 2, "b": 1}, {"c": 3}, {"a": 1, "c": 1}], ["x", "y", "y"], alpha=0.7
    )
    reloaded = model_from_json(model_to_json(model))
    assert isinstance(reloaded, MultinomialNbModel)
    assert reloaded == model
    for query in ({"a": 2}, {"b": 1, "c": 4}, {}, {"zzz": 9}):
        assert predict_multinomial(reloaded, query) == predict_multinomial(model, query)


def test_model_json_rejects_bad_payloads():
    model = train_multinomial([{"a": 1}, {"b": 1}], ["x", "y"])
    text = model_to_json(model)
    with pytest.raises(ValueError, match="version"):
        model_from_json(text.replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(ValueError, match="kind"):
        model_from_json(text.replace('"kind": "multinomial"', '"kind": "forest"'))


# Written by model_to_json before it wrote each model's fields in constructor
# order: format_version, kind, class_labels, log_priors, variance_floor,
# feature_count, means, variances, then vocabulary when set. Fields are read by
# name, so this still loads.
_OLD_ORDER_GAUSSIAN = (
    '{"format_version": 1, "kind": "gaussian", "class_labels": ["news", "sport"], '
    '"log_priors": [-0.5, -1.0], "variance_floor": 1e-09, "feature_count": 2, '
    '"means": [[0.5, 2.0], [1.5, -0.0]], "variances": [[0.25, 1.0], [1.0, 0.5]], '
    '"vocabulary": ["calm", "fire"]}'
)
_OLD_ORDER_MULTINOMIAL = (
    '{"format_version": 1, "kind": "multinomial", "class_labels": ["news", "sport"], '
    '"log_priors": [-0.5, -1.0], "alpha": 0.5, "vocabulary": ["calm", "fire"], '
    '"log_term_probs": [[-0.25, -1.5], [-2.0, -0.125]]}'
)


def test_model_json_in_the_old_key_order_still_loads():
    gaussian = GaussianNbModel(
        ("news", "sport"),
        (-0.5, -1.0),
        ((0.5, 2.0), (1.5, -0.0)),
        ((0.25, 1.0), (1.0, 0.5)),
        1e-9,
        2,
        ("calm", "fire"),
    )
    multinomial = MultinomialNbModel(
        ("news", "sport"), (-0.5, -1.0), ("calm", "fire"), ((-0.25, -1.5), (-2.0, -0.125)), 0.5
    )
    for text, model in ((_OLD_ORDER_GAUSSIAN, gaussian), (_OLD_ORDER_MULTINOMIAL, multinomial)):
        reloaded = model_from_json(text)
        assert repr(reloaded) == repr(model)  # -0.0 stays -0.0
        assert model_to_json(reloaded) == model_to_json(model)


def test_model_json_holds_the_fields_in_constructor_order():
    gaussian = model_from_json(_OLD_ORDER_GAUSSIAN)
    assert list(json.loads(model_to_json(gaussian))) == [
        "format_version", "kind", *GaussianNbModel._fields
    ]
    dense = train_gaussian([[0.0], [1.0], [2.0], [4.0]], ["a", "a", "b", "b"])
    assert list(json.loads(model_to_json(dense))) == [
        "format_version", "kind", *GaussianNbModel._fields[:-1]  # no vocabulary
    ]
    multinomial = model_from_json(_OLD_ORDER_MULTINOMIAL)
    assert list(json.loads(model_to_json(multinomial))) == [
        "format_version", "kind", *MultinomialNbModel._fields
    ]


_labels = st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True).map(tuple)
_terms = st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=4, unique=True).map(tuple)
_values = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6)
# a counts model's absent-feature term, mean**2 / variance, stays finite
_variances = st.floats(1e-6, 1e300)


@st.composite
def models(draw):
    """A dense or counts Gaussian model, or a multinomial model, built directly."""
    labels = draw(_labels)
    terms = draw(_terms)
    priors = tuple(draw(_values) for _ in labels)
    kind = draw(st.sampled_from(["dense", "counts", "multinomial"]))
    if kind == "multinomial":
        rows = tuple(tuple(draw(_values) for _ in terms) for _ in labels)
        return MultinomialNbModel(labels, priors, terms, rows, draw(st.floats(1e-3, 1e3)))
    means, variances = [], []
    for _ in labels:
        # a dense model may lack a (class, feature) pair; a counts model has them all
        present = [kind == "counts" or draw(st.booleans()) for _ in terms]
        means.append(tuple(draw(_values) if p else None for p in present))
        variances.append(tuple(draw(_variances) if p else None for p in present))
    vocabulary = terms if kind == "counts" else None
    floor = draw(_variances)
    return GaussianNbModel(
        labels, priors, tuple(means), tuple(variances), floor, len(terms), vocabulary
    )


@given(models())
def test_model_json_round_trip_keeps_every_field_bit_for_bit(model):
    text = model_to_json(model)
    reloaded = model_from_json(text)
    assert type(reloaded) is type(model)
    assert repr(reloaded) == repr(model)  # repr, unlike ==, tells -0.0 from 0.0
    assert model_to_json(reloaded) == text


_DROP = object()


def _edited(text, **changes):
    """The JSON ``text`` with fields set, or dropped where given ``_DROP``."""
    payload = json.loads(text)
    for name, value in changes.items():
        if value is _DROP:
            del payload[name]
        else:
            payload[name] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "text, message",
    [
        # a counts model with a null mean: was a TypeError from the absent-term table
        (
            _edited(_OLD_ORDER_GAUSSIAN, means=[[0.5, 2.0], [1.5, None]]),
            "class 'sport', feature 'fire': mean None, variance 0.5: a counts model has no None",
        ),
        # feature_count 3 over two-wide rows: loaded, then prediction raised IndexError
        (
            _edited(_OLD_ORDER_GAUSSIAN, feature_count=3, vocabulary=_DROP),
            "means: class 'news' has 2 entries, not 3",
        ),
        # no means: was a KeyError
        (_edited(_OLD_ORDER_GAUSSIAN, means=_DROP), "gaussian model: missing field 'means'"),
        # not an object: was an AttributeError
        ("[1]", "a model is a JSON object, not list"),
        (
            _edited(_OLD_ORDER_GAUSSIAN, vocabulary=["calm"]),
            "vocabulary: not 2 distinct strings",
        ),
        (
            _edited(_OLD_ORDER_GAUSSIAN, vocabulary=["calm", "calm"]),
            "vocabulary: not 2 distinct strings",
        ),
        (
            _edited(_OLD_ORDER_GAUSSIAN, vocabulary=["calm", 7]),
            "vocabulary: not 2 distinct strings",
        ),
        (_edited(_OLD_ORDER_GAUSSIAN, log_priors=[-0.5]), "log_priors: 1 entries for 2 classes"),
        (
            _edited(_OLD_ORDER_GAUSSIAN, variances=[[0.25, 1.0]]),
            "variances: 1 entries for 2 classes",
        ),
        (
            _edited(_OLD_ORDER_GAUSSIAN, variances=[[0.25, 1.0], [1.0]]),
            "variances: class 'sport' has 1 entries, not 2",
        ),
        # a dense model may miss a pair, but then both its mean and variance
        (
            _edited(_OLD_ORDER_GAUSSIAN, vocabulary=_DROP, variances=[[0.25, None], [1.0, 0.5]]),
            "class 'news', feature 1: mean 2.0, variance None: only one is None",
        ),
        (
            _edited(_OLD_ORDER_GAUSSIAN, vocabulary=_DROP, means=[[0.5, 2.0], [None, 0.0]]),
            "class 'sport', feature 0: mean None, variance 1.0: only one is None",
        ),
        (_edited(_OLD_ORDER_GAUSSIAN, alpha=1.0), "gaussian model: unknown field 'alpha'"),
        (_edited(_OLD_ORDER_GAUSSIAN, kind=["gaussian"]), r"unknown model kind \['gaussian'\]"),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, log_term_probs=[[-0.25, -1.5], [-2.0]]),
            "log_term_probs: class 'sport' has 1 entries, not 2",
        ),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, log_priors=[-0.5, -1.0, -2.0]),
            "log_priors: 3 entries for 2 classes",
        ),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, vocabulary=["calm", "calm"]),
            "vocabulary: not 2 distinct strings",
        ),
        (_edited(_OLD_ORDER_MULTINOMIAL, alpha=_DROP), "multinomial model: missing field 'alpha'"),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, variance_floor=1e-9),
            "multinomial model: unknown field 'variance_floor'",
        ),
        # a field of the wrong JSON type: was a TypeError from the constructor
        (
            _edited(_OLD_ORDER_GAUSSIAN, means=5),
            "gaussian model: field 'means' is not an array of arrays of numbers and nulls",
        ),
        (
            _edited(_OLD_ORDER_GAUSSIAN, variances=[[0.25, "1.0"], [1.0, 0.5]]),
            "gaussian model: field 'variances' is not an array of arrays of numbers and nulls",
        ),
        (
            _edited(_OLD_ORDER_GAUSSIAN, feature_count=True),
            "gaussian model: field 'feature_count' is not an integer",
        ),
        (
            _edited(_OLD_ORDER_GAUSSIAN, class_labels="news"),
            "gaussian model: field 'class_labels' is not an array of strings",
        ),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, vocabulary=None),
            "multinomial model: field 'vocabulary' is not an array",
        ),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, log_term_probs=[-0.25, -1.5]),
            "multinomial model: field 'log_term_probs' is not an array of arrays of numbers",
        ),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, alpha=[0.5]),
            "multinomial model: field 'alpha' is not a number",
        ),
        # a zero count's log-density overflows: was an OverflowError
        (
            _edited(_OLD_ORDER_GAUSSIAN, means=[[0.5, 1e200], [1.5, -0.0]]),
            "class 'news', feature 'fire': the log-density of a zero count is not finite "
            "for mean 1e\\+200, variance 1.0",
        ),
        # nested past the decoder's depth: was a RecursionError
        (
            "[" * 100_000 + "]" * 100_000,
            "model JSON: maximum recursion depth exceeded while decoding a JSON array "
            "from a unicode string",
        ),
        # a repeated label: loaded, then predicted a posterior over ('news', 'news')
        (
            _edited(_OLD_ORDER_GAUSSIAN, class_labels=["news", "news"]),
            "class_labels: not 2 distinct strings",
        ),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, class_labels=["sport", "sport"]),
            "class_labels: not 2 distinct strings",
        ),
        # no classes: loaded, then prediction raised 'max() arg is an empty sequence'
        (
            _edited(_OLD_ORDER_GAUSSIAN, class_labels=[], log_priors=[], means=[], variances=[]),
            "class_labels: not 1 distinct strings",
        ),
        (
            _edited(_OLD_ORDER_MULTINOMIAL, class_labels=[], log_priors=[], log_term_probs=[]),
            "class_labels: not 1 distinct strings",
        ),
    ],
    ids=[
        "counts-null-mean",
        "feature-count-3-over-2-wide-rows",
        "no-means",
        "top-level-list",
        "short-vocabulary",
        "repeated-term",
        "non-string-term",
        "short-log-priors",
        "short-variances",
        "short-variance-row",
        "dense-null-variance-only",
        "dense-null-mean-only",
        "unknown-field",
        "list-kind",
        "multinomial-short-row",
        "multinomial-long-log-priors",
        "multinomial-repeated-term",
        "multinomial-no-alpha",
        "multinomial-unknown-field",
        "means-a-number",
        "string-variance",
        "boolean-feature-count",
        "string-class-labels",
        "multinomial-null-vocabulary",
        "multinomial-flat-rows",
        "multinomial-array-alpha",
        "counts-absent-term-overflows",
        "nested-too-deeply",
        "repeated-class-label",
        "multinomial-repeated-class-label",
        "no-class-labels",
        "multinomial-no-class-labels",
    ],
)
def test_model_json_of_the_wrong_shape_is_a_value_error_naming_the_field(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        model_from_json(text)


@pytest.mark.parametrize(
    "means, variances, message",
    [
        # the square overflowed: OverflowError (34, 'Numerical result out of range')
        (
            (1e200, 2.0, 0.0),
            (1.0, 1.0, 1.0),
            "class 'a', feature 'x': the log-density of a zero count is not finite "
            "for mean 1e+200, variance 1.0",
        ),
        # the term was -inf, and then its fsum met +inf: '-inf + inf in fsum'
        (
            (0.0, 1e6, 0.0),
            (1.0, 1e-300, 1.0),
            "class 'a', feature 'y': the log-density of a zero count is not finite "
            "for mean 1000000.0, variance 1e-300",
        ),
        # each term is finite, but their sum is not: 'intermediate overflow in fsum'
        (
            (1.3e154, 1.3e154, 1.3e154),
            (1.0, 1.0, 1.0),
            "class 'a', feature 'z': the log-likelihood of an all-zero instance "
            "runs past the float range",
        ),
    ],
    ids=["square-overflows", "term-is-minus-inf", "sum-overflows"],
)
def test_counts_model_refuses_an_absent_term_that_is_not_finite(means, variances, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GaussianNbModel(
            ("a", "b"), (0.0, 0.0), (means, (0.0,) * 3), (variances, (1.0,) * 3),
            1e-9, 3, ("x", "y", "z"),
        )
    # a dense model has no absent term: the same fields load and predict
    dense = GaussianNbModel(
        ("a", "b"), (0.0, 0.0), (means, (0.0,) * 3), (variances, (1.0,) * 3), 1e-9, 3
    )
    assert predict_gaussian(dense, [0.0, 0.0, 0.0]).predicted_label == "b"
