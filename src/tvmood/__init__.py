"""Affect analytics for television transcripts.

Scores text in a three-dimensional valence/arousal/dominance space using a
normalized word lexicon, aggregates scores per channel and time window,
turns documents into summary-statistic or term-count feature vectors, and
classifies program genre with Naive Bayes under stratified cross-validation.
"""

from .affect import (
    AffectScore,
    AffectSeries,
    NoSignalError,
    SeriesPoint,
    pool_channels,
    score_counts,
    score_windows,
    series_to_csv,
)
from .classify import (
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
from .corpus import (
    CorpusError,
    Document,
    count_terms,
    document_to_jsonl,
    filter_min_genre_support,
    read_documents,
    tokenize,
)
from .evaluation import (
    ClassifierConfig,
    ClassMetrics,
    EvalReport,
    FoldAssignment,
    LabeledRow,
    auc_one_vs_rest,
    confusion_and_rates,
    labeled_rows,
    report_to_csv,
    report_to_json,
    run_cv,
    stratified_folds,
)
from .features import (
    FEATURE_NAMES,
    VsmVector,
    extract_meta,
    extract_vsm,
    features_to_csv,
)
from .lexicon import (
    AffectLexicon,
    LexiconError,
    load_lexicon,
    normalize_rating,
    normalize_sd,
    parse_lexicon,
)
from .synth import GenreProfile, generate

__version__ = "0.1.0"
