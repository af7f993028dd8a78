"""Naive Bayes training, prediction, and serialization."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tvmood.classify import (
    VARIANCE_FLOOR_SCALE,
    GaussianNbModel,
    MultinomialNbModel,
    model_from_json,
    model_to_json,
    predict_gaussian,
    predict_multinomial,
    train_gaussian,
    train_multinomial,
)


from oracles import (
    gaussian_posterior,
    multinomial_posterior,
    predict_gaussian_dense,
    predict_multinomial_lookup,
    train_gaussian_dense,
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


def test_multinomial_hand_smoothing():
    model = train_multinomial([{"a": 2, "b": 1}, {"c": 3}], ["x", "y"], alpha=1.0)
    x_row = model.log_term_probs[model.class_labels.index("x")]
    probs = {t: math.exp(x_row[model.vocabulary.index(t)]) for t in model.vocabulary}
    assert probs["a"] == pytest.approx(3 / 6)  # (2+1)/(3+3)
    assert probs["b"] == pytest.approx(2 / 6)
    assert probs["c"] == pytest.approx(1 / 6)  # absent term stays positive
    assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-12)


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
    counts_problems(counts=st.one_of(st.integers(1, 9), st.integers(1, 2**53))),
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
    posterior = predict_gaussian(model, [1e300])  # (value - mean) ** 2 overflows
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
