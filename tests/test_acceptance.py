"""Acceptance gate.

Ten criteria, each with its pinned tolerance, each printing one pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them). The
published per-genre numbers are not reproducible without the original
proprietary transcript feed, so the gate rests on oracle equivalence,
invariants, and synthetic reproductions of the qualitative claims.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from datetime import timedelta

import pytest

from tvmood.affect import pool_channels, score_counts, score_windows
from tvmood.classify import (
    predict_gaussian,
    predict_multinomial,
    train_gaussian,
    train_multinomial,
)
from tvmood.cli import main
from tvmood.corpus import Document
from tvmood.evaluation import auc_one_vs_rest, stratified_folds
from tvmood.lexicon import normalize_rating
from tvmood.synth import GenreProfile, generate

from conftest import (
    T0,
    cross_validate,
    lexicon_csv,
    make_doc,
    make_lexicon,
    random_lexicon,
    to_jsonl,
)
from oracles import (
    expansion_stats,
    gaussian_posterior,
    multinomial_posterior,
    trapezoid_auc,
)

DIMENSIONS = ("valence", "arousal", "dominance")

# Class sizes follow the published 343-program genre distribution.
GENRE_SIZES = {
    "animated": 120,
    "documentary": 65,
    "horror": 24,
    "newscast": 41,
    "reality": 93,
}


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:02d} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {number:02d} {name} failed {detail}"


@pytest.fixture(scope="module")
def table3_setup():
    rng = random.Random(12345)
    lexicon = random_lexicon(rng, 300)
    profiles = [
        GenreProfile("animated", 120, 0.85, (0.90, 0.55, 0.60), (40, 90)),
        GenreProfile("documentary", 65, 0.85, (0.70, 0.50, 0.60), (40, 90)),
        GenreProfile("horror", 24, 0.85, (0.50, 0.65, 0.45), (40, 90)),
        GenreProfile("newscast", 41, 0.85, (0.30, 0.60, 0.50), (40, 90)),
        GenreProfile("reality", 93, 0.85, (0.10, 0.55, 0.55), (40, 90)),
    ]
    corpus = tuple(generate(profiles, lexicon, seed=42))
    return lexicon, corpus


def test_criterion_01_scoring_oracle():
    rng = random.Random(101)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        lexicon = random_lexicon(rng, rng.randint(10, 60))
        vocabulary = lexicon.words()
        n_terms = rng.randint(1, min(50, len(vocabulary)))
        counts = {
            term: rng.randint(1, 12) for term in rng.sample(vocabulary, n_terms)
        }
        # sprinkle unmatched terms without exceeding the 50-term cap
        for extra in range(rng.randint(0, min(3, 50 - n_terms))):
            counts[f"unmatched{extra}"] = rng.randint(1, 4)
        score = score_counts(counts, lexicon)
        for dim in DIMENSIONS:
            expected = expansion_stats(counts, lexicon, dim)["mean"]
            worst = max(worst, abs(getattr(score, dim) - expected))
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "scoring matches token-expansion oracle",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |err|={worst:.2e} over 1000 pairs in {elapsed:.2f}s (tol 1e-12, budget 5s)",
    )


def test_criterion_02_normalization_exact_and_affine():
    anchors_ok = (
        normalize_rating(1.0) == 0.0
        and normalize_rating(5.0) == 0.5
        and normalize_rating(9.0) == 1.0
    )
    rng = random.Random(102)
    slope = (normalize_rating(9.0) - normalize_rating(1.0)) / 8.0
    affine_ok = True
    for _ in range(1000):
        raw = rng.uniform(1.0, 9.0)
        if normalize_rating(raw) != (raw - 1.0) * slope:
            affine_ok = False
            break
    _verdict(
        2,
        "rating normalization exact at anchors and affine",
        anchors_ok and affine_ok,
        "{1,5,9}->{0,0.5,1}, 1000-point interpolation check exact",
    )


def test_criterion_03_naive_bayes_oracles():
    rng = random.Random(103)
    worst_gaussian = 0.0
    for _ in range(200):
        n_classes = rng.randint(2, 3)
        n_features = rng.randint(1, 3)
        labels, instances = [], []
        for c in range(n_classes):
            for _ in range(rng.randint(1, 20 // n_classes)):
                labels.append(f"c{c}")
                instances.append(
                    [
                        None if rng.random() < 0.15 else rng.uniform(-5, 5)
                        for _ in range(n_features)
                    ]
                )
        model = train_gaussian(instances, labels)
        query = [
            None if rng.random() < 0.2 else rng.uniform(-5, 5)
            for _ in range(n_features)
        ]
        posterior = predict_gaussian(model, query)
        _, expected = gaussian_posterior(instances, labels, query)
        worst_gaussian = max(
            worst_gaussian,
            max(abs(p - e) for p, e in zip(posterior.probabilities, expected)),
        )

    worst_multinomial = 0.0
    vocabulary = [f"t{i}" for i in range(8)]
    for _ in range(200):
        n_classes = rng.randint(2, 3)
        labels, instances = [], []
        for c in range(n_classes):
            for _ in range(rng.randint(1, 20 // n_classes)):
                labels.append(f"c{c}")
                terms = rng.sample(vocabulary, rng.randint(1, 4))
                instances.append({t: rng.randint(1, 5) for t in terms})
        alpha = rng.choice([0.5, 1.0, 2.0])
        model = train_multinomial(instances, labels, alpha)
        query_terms = rng.sample(vocabulary + ["zzz"], rng.randint(0, 4))
        query = {t: rng.randint(1, 4) for t in query_terms}
        posterior = predict_multinomial(model, query)
        _, expected = multinomial_posterior(instances, labels, alpha, query)
        worst_multinomial = max(
            worst_multinomial,
            max(abs(p - e) for p, e in zip(posterior.probabilities, expected)),
        )

    _verdict(
        3,
        "Naive Bayes posteriors match brute-force oracles",
        worst_gaussian <= 1e-9 and worst_multinomial <= 1e-9,
        f"gaussian max |err|={worst_gaussian:.2e}, multinomial max "
        f"|err|={worst_multinomial:.2e} over 200 problems each (tol 1e-9)",
    )


def test_criterion_04_auc_rank_equals_trapezoid():
    hand = auc_one_vs_rest([0.9, 0.4, 0.6, 0.2], [True, True, False, False])
    rng = random.Random(104)
    worst = 0.0
    checked = 0
    while checked < 500:
        size = rng.randint(2, 60)
        grid = [round(rng.random(), rng.choice([1, 1, 2])) for _ in range(6)]
        scores = [rng.choice(grid) for _ in range(size)]
        flags = [rng.random() < 0.5 for _ in range(size)]
        if not any(flags) or all(flags):
            continue
        checked += 1
        worst = max(
            worst, abs(auc_one_vs_rest(scores, flags) - trapezoid_auc(scores, flags))
        )
    _verdict(
        4,
        "rank AUC equals trapezoidal ROC integration",
        hand == 0.75 and worst <= 1e-12,
        f"hand case = {hand}, max |err|={worst:.2e} over 500 tied sets (tol 1e-12)",
    )


def test_criterion_05_stratification_bounds():
    rng = random.Random(105)
    ok = True
    for _ in range(100):
        n_classes = rng.randint(2, 6)
        sizes = []
        remaining = rng.randint(50, 400)
        for c in range(n_classes - 1):
            take = rng.randint(1, max(1, remaining - (n_classes - 1 - c)))
            sizes.append(take)
            remaining -= take
        sizes.append(max(1, remaining))
        labels = [f"c{i}" for i, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(labels)
        k = rng.randint(2, 8)
        if k > len(labels):
            k = 2
        seed = rng.randint(0, 2**62)
        first = stratified_folds(labels, k, seed)
        second = stratified_folds(labels, k, seed)
        if first != second:
            ok = False
            break
        if sorted(first.assignment) != list(range(len(labels))):
            ok = False
            break
        per_class: dict[str, Counter] = {}
        for position, fold in first.assignment.items():
            if not 0 <= fold < k:
                ok = False
            per_class.setdefault(labels[position], Counter())[fold] += 1
        for counter in per_class.values():
            counts = [counter.get(fold, 0) for fold in range(k)]
            if max(counts) - min(counts) > 1:
                ok = False
        if not ok:
            break
    _verdict(
        5,
        "stratified folds are disjoint, exhaustive, balanced, deterministic",
        ok,
        "100 random corpora (50-400 instances, 2-6 classes), per-class spread <= 1",
    )


def test_criterion_06_synthetic_genre_classification(table3_setup):
    lexicon, corpus = table3_setup
    sizes = Counter(doc.genre for doc in corpus)
    assert sizes == Counter(GENRE_SIZES)
    assert len(corpus) == 343

    started = time.perf_counter()
    vsm = cross_validate(corpus, lexicon, "vsm", k=5, seed=42)
    meta = cross_validate(corpus, lexicon, "meta", k=5, seed=42)
    elapsed = time.perf_counter() - started
    _verdict(
        6,
        "synthetic 343-program corpus classifies well under 5-fold CV",
        vsm.weighted_auc >= 0.80 and meta.weighted_auc >= 0.80 and elapsed < 30.0,
        f"weighted AUC vsm={vsm.weighted_auc:.3f}, meta={meta.weighted_auc:.3f} "
        f"in {elapsed:.2f}s (floor 0.80, budget 30s)",
    )


def test_criterion_07_label_shuffle_null(table3_setup):
    lexicon, corpus = table3_setup

    def shuffled(seed: int) -> tuple[Document, ...]:
        rng = random.Random(seed)
        genres = [doc.genre for doc in corpus]
        rng.shuffle(genres)
        return tuple(
            Document(doc.id, doc.channel, doc.term_counts, genre, doc.timestamp)
            for doc, genre in zip(corpus, genres)
        )

    means = {}
    for representation in ("vsm", "meta"):
        aucs = [
            cross_validate(
                shuffled(1000 + seed), lexicon, representation, k=5, seed=seed
            ).weighted_auc
            for seed in range(20)
        ]
        means[representation] = sum(aucs) / len(aucs)
    ok = all(0.4 <= mean <= 0.6 for mean in means.values())
    _verdict(
        7,
        "label-shuffled corpus scores at chance",
        ok,
        f"mean weighted AUC over 20 seeds: vsm={means['vsm']:.3f}, "
        f"meta={means['meta']:.3f} (window 0.5 +/- 0.1)",
    )


def test_criterion_08_channel_groups_rank_by_valence():
    rng = random.Random(108)
    lexicon = random_lexicon(rng, 200)
    low_channels = [f"low{i}" for i in range(3)]
    high_channels = [f"high{i}" for i in range(3)]
    profiles = [
        GenreProfile(f"genre-{ch}", 6, 1.0, (0.20, 0.55, 0.50), (40, 80), channel=ch)
        for ch in low_channels
    ] + [
        GenreProfile(f"genre-{ch}", 6, 1.0, (0.80, 0.55, 0.50), (40, 80), channel=ch)
        for ch in high_channels
    ]
    ok = True
    for seed in range(10):
        corpus = tuple(generate(profiles, lexicon, seed=seed))
        valence = {
            channel: score_counts(pool, lexicon).valence
            for channel, pool in pool_channels(corpus, lexicon).items()
        }
        if max(valence[ch] for ch in low_channels) >= min(
            valence[ch] for ch in high_channels
        ):
            ok = False
            break
    _verdict(
        8,
        "low-valence channels rank below high-valence channels",
        ok,
        "3 vs 3 channels, strict separation on mean valence over 10 seeds",
    )


def test_criterion_09_cli_determinism(tmp_path, table3_setup, capsys):
    lexicon, corpus = table3_setup
    lexicon_file = tmp_path / "lexicon.csv"
    lexicon_file.write_text(lexicon_csv(lexicon), encoding="utf-8")
    profiles_file = tmp_path / "profiles.json"
    profiles_file.write_text(
        json.dumps(
            [
                {
                    "label": genre,
                    "document_count": size,
                    "bias": 0.85,
                    "target": [0.5, 0.5, 0.5],
                    "token_range": [30, 60],
                }
                for genre, size in (("up", 30), ("down", 25))
            ]
        ),
        encoding="utf-8",
    )

    synth_outputs = []
    for run in (1, 2):
        out = tmp_path / f"synth{run}.jsonl"
        code = main(
            [
                "synth",
                "--lexicon", str(lexicon_file),
                "--profiles", str(profiles_file),
                "--out", str(out),
                "--seed", "7",
            ]
        )
        assert code == 0
        synth_outputs.append(out.read_bytes())

    corpus_file = tmp_path / "corpus.jsonl"
    corpus_file.write_text(to_jsonl(corpus), encoding="utf-8")
    eval_outputs = []
    for run in (1, 2):
        prefix = tmp_path / f"report{run}"
        code = main(
            [
                "evaluate",
                "--lexicon", str(lexicon_file),
                "--corpus", str(corpus_file),
                "--format", "counts",
                "--out", str(prefix),
                "--rep", "vsm",
                "--folds", "5",
                "--seed", "7",
            ]
        )
        assert code == 0
        eval_outputs.append(
            (
                (tmp_path / f"report{run}.json").read_bytes(),
                (tmp_path / f"report{run}.csv").read_bytes(),
            )
        )

    capsys.readouterr()  # drop CLI chatter before the verdict line
    ok = synth_outputs[0] == synth_outputs[1] and eval_outputs[0] == eval_outputs[1]
    _verdict(
        9,
        "synth and evaluate are byte-identical across reruns",
        ok,
        "identical flags and seed, identical output bytes",
    )


def test_criterion_10_windowing_and_gaps():
    lexicon = make_lexicon({"good": (0.8, 0.5, 0.5), "bad": (0.2, 0.5, 0.5)})
    week = timedelta(weeks=1)

    docs = tuple(
        make_doc(f"wk{i:02d}", {"good": 2, "bad": 1}, "cnn", timestamp=T0 + i * week)
        for i in range(52)
    )
    [series] = score_windows(docs, lexicon, 4 * week, T0)
    thirteen = len(series.points) == 13 and not any(p.is_gap for p in series.points)

    sparse_docs = (
        make_doc("early", {"good": 1}, "cnn", timestamp=T0),
        make_doc("late", {"bad": 1}, "cnn", timestamp=T0 + 9 * week),
    )
    [sparse] = score_windows(sparse_docs, lexicon, 4 * week, T0)
    gaps_ok = (
        [point.is_gap for point in sparse.points] == [False, True, False]
        and sparse.points[1].score is None
    )
    _verdict(
        10,
        "windowing yields 13 four-week points and honest gaps",
        thirteen and gaps_ok,
        f"52 weekly documents -> {len(series.points)} points; empty window "
        f"emits a gap marker",
    )
