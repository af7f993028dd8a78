"""The record types' contract, and what importing the command line loads.

Value records are ``typing.NamedTuple``s; records that check their fields
or derive state from them subclass ``tvmood.record.Record``. Both are
immutable, slotted, compared and hashed by the fields their constructor
takes, and shown as ``Name(field=value, ...)``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import pickle
import subprocess
import sys
from datetime import timedelta

import pytest

import tvmood
from tvmood.affect import AffectScore, AffectSeries, MatchStats, SeriesPoint
from tvmood.classify import (
    GaussianNbModel,
    MultinomialNbModel,
    Posterior,
    model_from_json,
    model_to_json,
    train_gaussian,
    train_multinomial,
)
from tvmood.corpus import Document
from tvmood.evaluation import ClassifierConfig, ClassMetrics, EvalReport, FoldAssignment
from tvmood.lexicon import AffectLexicon
from tvmood.record import Record, unique_keys
from tvmood.synth import GenreProfile

from conftest import T0

HALF = math.log(0.5)


def _score():
    return {
        "valence": 0.5,
        "arousal": 0.25,
        "dominance": 0.75,
        "valence_sd": 0.125,
        "arousal_sd": 0.0,
        "dominance_sd": 0.5,
        "matched_distinct_terms": 2,
        "matched_token_total": 3,
    }


def _point():
    return {"start": T0, "score": AffectScore(**_score())}


def _metrics():
    return {"label": "news", "support": 4, "tp_rate": 0.75, "fp_rate": 0.25, "auc": 0.875}


# each record type with a function that makes fresh, equal constructor
# arguments by field name, in constructor order; whether its fields hash
RECORDS = {
    "AffectScore": (AffectScore, _score, True),
    "SeriesPoint": (SeriesPoint, _point, True),
    "AffectSeries": (
        AffectSeries,
        lambda: {
            "channel": "cnn",
            "window_length": timedelta(weeks=1),
            "points": (SeriesPoint(**_point()), SeriesPoint(T0 + timedelta(weeks=1), None)),
        },
        True,
    ),
    "MatchStats": (
        MatchStats,
        lambda: {
            "counts": [1, 2],
            "values": ((0.25, 0.75), (0.5, 0.5), (0.0, 1.0)),
            "low": (0.25, 0.5, 0.0),
            "high": (0.75, 0.5, 1.0),
            "score": AffectScore(**_score()),
        },
        False,
    ),
    "Document": (
        Document,
        lambda: {
            "id": "a",
            "channel": "cnn",
            "term_counts": {"fire": 2, "calm": 1},
            "genre": "news",
            "timestamp": T0,
        },
        False,
    ),
    "AffectLexicon": (
        AffectLexicon,
        lambda: {"table": {"fire": (0.25, 0.75, 0.5)}},
        False,
    ),
    "Posterior": (
        Posterior,
        lambda: {"labels": ("news", "sport"), "probabilities": (0.25, 0.75)},
        True,
    ),
    "GaussianNbModel": (
        GaussianNbModel,
        lambda: {
            "class_labels": ("news", "sport"),
            "log_priors": (HALF, HALF),
            "means": ((0.5, None), (1.5, 2.0)),
            "variances": ((0.25, None), (1.0, 0.5)),
            "variance_floor": 1e-9,
            "feature_count": 2,
            "vocabulary": None,
        },
        True,
    ),
    "MultinomialNbModel": (
        MultinomialNbModel,
        lambda: {
            "class_labels": ("news", "sport"),
            "log_priors": (HALF, HALF),
            "vocabulary": ("calm", "fire"),
            "log_term_probs": ((math.log(0.25), math.log(0.75)), (HALF, HALF)),
            "alpha": 1.0,
        },
        True,
    ),
    "FoldAssignment": (
        FoldAssignment,
        lambda: {"k": 2, "assignment": {"a": 0, "b": 1}, "seed": 7},
        False,
    ),
    "ClassMetrics": (ClassMetrics, _metrics, True),
    "ClassifierConfig": (ClassifierConfig, lambda: {"kind": "multinomial", "alpha": 0.5}, True),
    "EvalReport": (
        EvalReport,
        lambda: {
            "class_metrics": (ClassMetrics(**_metrics()),),
            "class_order": ("news",),
            "confusion": ((4,),),
            "weighted_tp_rate": 0.75,
            "weighted_fp_rate": 0.25,
            "weighted_auc": 0.875,
            "config": {"k": 2, "seed": 7},
        },
        False,
    ),
    "GenreProfile": (
        GenreProfile,
        lambda: {
            "label": "news",
            "document_count": 3,
            "bias": 0.5,
            "target": (0.25, 0.5, 0.75),
            "token_range": (10, 20),
            "channel": None,
        },
        True,
    ),
}

# the value records: as tuples they are iterable, indexable and orderable
TUPLES = {
    "AffectScore", "SeriesPoint", "MatchStats",
    "Posterior", "FoldAssignment", "ClassMetrics", "EvalReport",
}


def test_every_public_record_type_is_covered():
    modules = [module for name, module in sys.modules.items() if name.startswith("tvmood.")]
    public = {
        name
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
        and not name.startswith("_") and not issubclass(value, Exception)
    }
    assert public - {"LabeledRow", "Record"} == set(RECORDS)  # LabeledRow was a NamedTuple already
    assert TUPLES < set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    cls, arguments, hashable = RECORDS[name]
    record, twin = cls(**arguments()), cls(**arguments())
    fields = list(arguments())
    assert isinstance(record, tuple) == (name in TUPLES)

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(twin, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert record == cls(**arguments())  # the set and delete attempts changed nothing

    assert record == twin and not record != twin and record is not twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    # the one behaviour a tuple adds to equality
    assert (record == tuple(arguments().values())) == (name in TUPLES)

    shown = ", ".join(f"{field}={value!r}" for field, value in arguments().items())
    assert repr(record) == f"{name}({shown})"

    for duplicate in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(duplicate) is cls and duplicate == record


def test_fields_are_the_leading_constructor_parameters_in_order():
    """``Record.__init__`` sets, and ``__reduce__`` rebuilds, the fields by
    position, so each subclass's ``__init__`` must take them first, in
    ``_fields`` order; any parameter after them is private."""
    records = {cls for cls, _, _ in RECORDS.values() if issubclass(cls, Record)}
    assert set(Record.__subclasses__()) == records
    for cls in records:
        code = cls.__init__.__code__
        parameters = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
        assert parameters[: len(cls._fields)] == cls._fields, cls.__name__
        assert all(name.startswith("_") for name in parameters[len(cls._fields) :]), cls.__name__


@pytest.mark.parametrize(
    "train,instances",
    [
        (train_gaussian, [[0.5, None], [1.0, 2.0], [3.0, 4.0], [3.5, 1.0]]),
        (train_gaussian, [{"calm": 1}, {"calm": 2, "fire": 1}, {"fire": 3}, {"fire": 1}]),
        (train_multinomial, [{"calm": 1}, {"calm": 2, "fire": 1}, {"fire": 3}, {"fire": 1}]),
    ],
    ids=["gaussian-dense", "gaussian-counts", "multinomial"],
)
def test_reloaded_model_equals_the_original_and_equality_ignores_derived_tables(train, instances):
    model = train(instances, ["news", "news", "sport", "sport"])
    reloaded = model_from_json(model_to_json(model))
    assert reloaded == model and hash(reloaded) == hash(model)
    # the derived lookup table: term_index for a Gaussian model, term_columns for a multinomial
    table = "term_index" if train is train_gaussian else "term_columns"
    assert getattr(reloaded, table) == getattr(model, table)
    assert getattr(reloaded, table) is not getattr(model, table)

    derived = [slot for slot in type(model).__slots__ if slot not in type(model)._fields]
    assert table in derived
    for slot in derived:
        assert f"{slot}=" not in repr(model)
        altered = model_from_json(model_to_json(model))
        object.__setattr__(altered, slot, None)  # only equality reads it here
        assert altered == model and hash(altered) == hash(model)


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect():
    """Each of them costs every command start-up time, and only class
    definitions would use them. ``-S`` keeps site-packages' own imports out."""
    source = os.path.dirname(os.path.dirname(tvmood.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    script = "import sys, tvmood.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


def test_unique_keys_builds_the_dict_or_names_the_first_repeated_key():
    text = '{"b": 1, "a": [{"c": 2}], "d": {}}'
    assert json.loads(text, object_pairs_hook=unique_keys) == json.loads(text)
    for text, key in (('{"a": 1, "b": 2, "b": 3, "a": 4}', "b"), ('{"a": {"c": 1, "c": 1}}', "c")):
        with pytest.raises(ValueError, match=f"^repeated key '{key}'$"):
            json.loads(text, object_pairs_hook=unique_keys)
