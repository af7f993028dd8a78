"""In-process traced run: spans around the public calls of each tvmood module.

The traced run executes the workload's CLI commands through
``tvmood.cli.main`` in this process. For its duration, each public function
listed in ``TRACED`` is replaced, in every tvmood module that binds it, by
a wrapper that records a span (name, start, end, parent, run id). Spans
stay in memory and are written out when the benchmark ends. A function a
later version no longer has is skipped, and its metric reads 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable

# (module, function, span name). Two functions may share a span name.
TRACED = (
    ("lexicon", "load_lexicon", "lexicon.parse"),
    ("corpus", "load_corpus_file", "corpus.load"),
    ("corpus", "corpus_to_jsonl", "corpus.to_jsonl"),
    ("synth", "generate", "synth.generate"),
    ("affect", "score_channel", "affect.score_channel"),
    ("affect", "score_windows", "affect.score_windows"),
    ("affect", "score_counts", "affect.score_counts"),
    ("affect", "score_counts_with_spread", "affect.score_counts"),
    ("affect", "series_to_csv", "affect.series_to_csv"),
    ("features", "extract_meta", "features.extract_meta"),
    ("features", "extract_vsm", "features.extract_vsm"),
    ("features", "features_to_csv", "features.to_csv"),
    ("classify", "train_multinomial", "classify.train_multinomial"),
    ("classify", "predict_multinomial", "classify.predict_multinomial"),
    ("classify", "train_gaussian", "classify.train_gaussian"),
    ("classify", "predict_gaussian", "classify.predict_gaussian"),
    ("evaluation", "stratified_folds", "evaluation.folds"),
    ("evaluation", "auc_one_vs_rest", "evaluation.auc"),
    ("evaluation", "report_to_json", "evaluation.report_render"),
    ("evaluation", "report_to_csv", "evaluation.report_render"),
    ("evaluation", "run_cv", "evaluation.run_cv"),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans; a span is [name, start, end, parent index, run id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = ""
        self.folds: dict[str, list] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, time.perf_counter(), None, parent, self.run]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, function: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            # a nested call of the same layer belongs to the outer span
            if tracer.stack and tracer.spans[tracer.stack[-1]][0] == name:
                return function(*args, **kwargs)
            with tracer.span(name):
                result = function(*args, **kwargs)
            if name == "evaluation.folds":
                tracer.folds[tracer.run].append(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, package: str):
        """Swap every traced function for its wrapper in all package modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        swaps = []
        for module_name, function_name, span_name in TRACED:
            owner = sys.modules.get(f"{package}.{module_name}")
            original = getattr(owner, function_name, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swaps.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in swaps:
                setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def run_traced(tracer: Tracer, main: Callable, run: str, argv: list[str]) -> tuple[int, bytes]:
    """Run one CLI command in-process under a root span; return status and stdout."""
    tracer.run = run
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        with tracer.span(ROOT_SPAN):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc(file=sys.__stderr__)
                status = 1
    return status, stdout.getvalue().encode("utf-8")


def layer_times(tracer: Tracer, runs: dict[str, str]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self time per layer over the given runs.

    ``runs`` maps run id to the evaluate configuration it ran (empty for
    other commands). The configuration names the ``run_cv`` layer and tells
    the Gaussian classifier's meta input from its count input. A span's
    self time is its duration minus that of its direct children.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, run in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, run) in enumerate(tracer.spans):
        if run not in runs:
            continue
        config = runs[run]
        if name == "evaluation.run_cv":
            name = f"evaluation.run_cv_{config}"
        elif name.startswith("classify.") and "gaussian" in name:
            name += "_meta" if config.startswith("meta") else "_counts"
        totals[name] += end - start
        selfs[name] += end - start - child_time[index]
    return totals, selfs


def fold_vocabularies(folds, docs: list, lexicon_words: set) -> dict[str, float]:
    """Vocabulary and sparsity counts of the count representation, per fold.

    ``folds`` is the assignment ``stratified_folds`` returned in an evaluate
    command; ``docs`` are the generator's documents in corpus order.
    """
    assignment = folds.assignment
    terms = [frozenset(t for t in doc.counts if t in lexicon_words) for doc in docs]
    fold_of = [assignment[doc.id] for doc in docs]
    vocab_sizes = []
    useful = cells = 0
    for fold in sorted(set(fold_of)):
        vocabulary = set().union(*(t for t, f in zip(terms, fold_of) if f != fold))
        vocab_sizes.append(len(vocabulary))
        useful += sum(len(t & vocabulary) for t in terms)
        cells += len(docs) * len(vocabulary)
    return {
        "classify.vocab": sum(vocab_sizes) / len(vocab_sizes),
        "classify.nnz_per_doc": sum(len(t) for t in terms) / len(terms),
        "classify.dense_ratio": useful / cells,
    }
