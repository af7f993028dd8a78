"""Library refusals that the command line never reaches, each with its exact
message: mismatched or empty inputs, unknown names and malformed records."""

from __future__ import annotations

import json
import re
from datetime import datetime, timedelta

import pytest

from tvmood.affect import AffectSeries, SeriesPoint, score_windows
from tvmood.classify import model_from_json, model_to_json, train_gaussian, train_multinomial
from tvmood.corpus import CorpusError, read_documents
from tvmood.evaluation import (
    ClassifierConfig,
    LabeledRow,
    auc_one_vs_rest,
    labeled_rows,
    run_cv,
    stratified_folds,
)
from tvmood.synth import GenreProfile, profile_from_json

from conftest import T0, make_lexicon

RECORD = '{"id": "a", "channel": "c", "timestamp": "2013-01-07T00:00:00Z", '
TARGET = (0.5, 0.5, 0.5)
TRAINERS = {"gaussian": train_gaussian, "multinomial": train_multinomial}


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
    "score-windows-naive-origin": (
        lambda: score_windows([], make_lexicon({"x": TARGET}), timedelta(days=7), datetime(2013, 1, 7)),
        ValueError, "origin is naive",
    ),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_the_problem(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
