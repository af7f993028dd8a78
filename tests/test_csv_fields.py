"""Every CSV writer hands ``csv.writer`` raw values, which writes a float as
its ``repr``, ``None`` as an empty field and any other value as its ``str``.
Each writer must equal, byte for byte, the same rows formatted by hand
(``oracles.*_csv_formatted``), on floats that include the extremes:
negative zero, the smallest subnormal, large and small magnitudes and
sums that are not the decimal they print near.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from datetime import timedelta
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tvmood import affect
from tvmood.affect import AffectScore, AffectSeries, SeriesPoint, series_to_csv
from tvmood.cli import SCORE_VALUE_COLUMNS, main
from tvmood.evaluation import ClassMetrics, EvalReport, report_to_csv
from tvmood.features import features_to_csv

from conftest import T0, lexicon_csv, make_doc, make_lexicon, to_jsonl
from oracles import (
    features_csv_formatted,
    report_csv_formatted,
    score_csv_formatted,
    series_csv_formatted,
)

EXTREMES = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.0, 2.0**53, -1e308, math.inf, math.nan]
floats = st.sampled_from(EXTREMES) | st.floats()
counts = st.integers(0, 2**64)
scores = st.builds(AffectScore, *[floats] * 6, counts, counts)
labels = st.text(max_size=6)  # quotes, commas and line breaks too
# lexicon means lie in [0, 1]
unit_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1e-7, 0.1 + 0.2, 1.0]) | st.floats(0, 1)


@st.composite
def series_lists(draw):
    """Series whose windows are scored with drawn values, or gaps."""
    series_list = []
    for channel in draw(st.lists(labels, max_size=3)):
        window_scores = draw(st.lists(st.none() | scores, max_size=4))
        points = (SeriesPoint(T0 + i * timedelta(days=1), s) for i, s in enumerate(window_scores))
        series_list.append(AffectSeries(channel, timedelta(days=1), tuple(points)))
    return series_list


@settings(max_examples=200, deadline=None)
@given(series_list=series_lists())
def test_series_csv_equals_the_fields_formatted_by_hand(series_list):
    assert series_to_csv(series_list) == series_csv_formatted(series_list)


@settings(max_examples=200, deadline=None)
@given(
    metrics=st.lists(st.builds(ClassMetrics, labels, counts, floats, floats, floats), max_size=4),
    weighted=st.tuples(floats, floats, floats),
)
def test_report_csv_equals_the_fields_formatted_by_hand(metrics, weighted):
    report = EvalReport(tuple(metrics), (), (), *weighted, {})
    assert report_to_csv(report) == report_csv_formatted(report)


@settings(max_examples=150, deadline=None)
@given(
    means=st.lists(st.tuples(unit_floats, unit_floats, unit_floats), min_size=3, max_size=3),
    documents=st.lists(
        st.tuples(
            st.dictionaries(
                st.sampled_from(["w0", "w1", "w2", "other"]),
                st.sampled_from([1, 2**53]) | st.integers(1, 2**53),
                min_size=1,
            ),
            st.none() | st.sampled_from(["news", 'a "b", c']),
        ),
        max_size=5,
    ),
)
def test_features_csv_equals_the_fields_formatted_by_hand(means, documents):
    """Real feature rows, on a lexicon of extreme means and term counts up
    to 2**53, so that statistics are ``None`` or extreme and a document's
    token count, an int like the other stylistic counts, can pass 2**53."""
    lexicon = make_lexicon({f"w{i}": value for i, value in enumerate(means)})
    docs = [make_doc(f"d{i}", c, genre=g) for i, (c, g) in enumerate(documents)]
    out = io.StringIO()
    assert features_to_csv(docs, lexicon, out) == len(docs)
    assert out.getvalue() == features_csv_formatted(docs, lexicon)


@settings(max_examples=60, deadline=None)
@given(drawn=st.lists(scores, min_size=1, max_size=4))
def test_score_rows_equal_the_fields_formatted_by_hand(drawn):
    """``score --per-document`` rows, with each document's score drawn."""
    docs = [make_doc(f"d{i}", {"w0": 1}, channel=f"c,{i}", timestamp=T0) for i in range(len(drawn))]
    expected = score_csv_formatted(
        ("id", "channel") + SCORE_VALUE_COLUMNS,
        [((doc.id, doc.channel), score) for doc, score in zip(docs, drawn)],
    )
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: os.path.join(directory, name) for name in ("lex.csv", "c.jsonl", "s.csv")}
        lexicon = lexicon_csv(make_lexicon({"w0": (0.5, 0.5, 0.5)}))
        Path(paths["lex.csv"]).write_text(lexicon, encoding="utf-8")
        Path(paths["c.jsonl"]).write_text(to_jsonl(docs), encoding="utf-8")
        argv = ["score", "--lexicon", paths["lex.csv"], "--corpus", paths["c.jsonl"],
                "--format", "counts", "--per-document", "--out", paths["s.csv"]]
        next_score = iter(drawn).__next__
        with mock.patch.object(affect, "score_counts", lambda counts, lexicon: next_score()):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        assert Path(paths["s.csv"]).read_text(encoding="utf-8") == expected
