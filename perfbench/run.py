"""Benchmark for the tvmood command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-text --seed 1 --seconds 25 --trace 0

The benchmark generates its inputs from ``--seed`` (``gen.py``), then runs
the workload's ``tvmood`` subcommands in fresh processes, one at a time,
repeating the whole set for about ``--seconds``. It checks every output against
an oracle built from the generated data (``oracle.py``) and prints the
end-to-end metrics, in reference seconds that take out the drift of the
machine's speed (``speed.py``). With ``--trace 1`` it runs the commands once more
in-process with spans around each module's public calls (``tracing.py``),
at the full and at half the document count, and prints per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. ``--workload all`` runs every workload and prints one such object
per workload, keyed by name.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SETUP_BATCH = 3  # lexicon-validate runs timed together as one set-up sample
MIN_PASSES = 2
RUN_DEADLINE_S = 165.0  # commands still running this long after a workload starts are killed
NPROC = len(os.sched_getaffinity(0))

COMMAND_METRICS = (
    "score_s", "window_s", "per_doc_s", "features_s",
    "synth_s", "evaluate_vsm_s", "evaluate_meta_s", "evaluate_vsm_gauss_s",
)
LAYER_METRICS = (
    "lexicon.parse_s", "corpus.load_s", "corpus.to_jsonl_s", "synth.generate_s",
    "affect.score_channel_s", "affect.score_windows_s", "affect.score_counts_s",
    "affect.series_to_csv_s", "features.extract_meta_s", "features.extract_vsm_s",
    "features.to_csv_s", "classify.train_multinomial_s", "classify.predict_multinomial_s",
    "classify.train_gaussian_meta_s", "classify.predict_gaussian_meta_s",
    "classify.train_gaussian_counts_s", "classify.predict_gaussian_counts_s",
    "evaluation.folds_s", "evaluation.auc_s", "evaluation.report_render_s",
    "evaluation.run_cv_vsm_multinomial_s", "evaluation.run_cv_meta_gaussian_s",
    "evaluation.run_cv_vsm_gaussian_s",
)
SELF_METRICS = (
    "cli.main", "features.to_csv", "evaluation.run_cv_vsm_multinomial",
    "evaluation.run_cv_meta_gaussian", "evaluation.run_cv_vsm_gaussian",
)
COUNT_METRICS = (
    "corpus.docs", "corpus.tokens", "corpus.bytes_in", "corpus.distinct_terms",
    "lexicon.entries", "lexicon.match_ratio", "affect.windows", "affect.gap_windows",
    "classify.vocab", "classify.nnz_per_doc", "classify.dense_ratio",
)


@dataclasses.dataclass
class Command:
    """One tvmood subcommand of a workload and the check of what it writes."""

    metric: str  # time metric name, e.g. "score_s"
    args: list[str]  # argv after the program name
    outputs: list[Path]  # files the command writes
    check: Optional[Callable[[list[bytes]], list[str]]] = None  # gets stdout + outputs
    config: str = ""  # evaluate configuration, e.g. "vsm_multinomial"
    tokens: int = 0  # tokens in the corpus the command reads


@dataclasses.dataclass
class Timing:
    """One run of a command."""

    wall_s: float
    cpu_s: float  # user + system time of the child
    ref_s: float  # cpu_s in reference seconds (speed.py)


@dataclasses.dataclass
class Plan:
    """Generated inputs of one workload at one seed."""

    validate: Command
    commands: dict[str, list[Command]]  # scale ("full", "half") -> commands
    oracle: oracle.Oracle
    corpus: gen.Corpus
    corpus_path: Path


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _corpus_files(work: Path, corpus: gen.Corpus, name: str = "corpus") -> dict[str, Path]:
    """The corpus and its every-other-line half for the scaling probe."""
    return {
        "full": _write(work / f"{name}.jsonl", "\n".join(corpus.lines) + "\n"),
        "half": _write(work / f"{name}-half.jsonl", "\n".join(corpus.lines[::2]) + "\n"),
    }


def _lexicon(seed: int, size: int, work: Path) -> tuple[gen.Lexicon, Path, Command]:
    lexicon = gen.make_lexicon(seed, size, set())
    path = _write(work / f"lexicon{size}.csv", gen.lexicon_csv(lexicon))
    validate = Command("setup_s", ["lexicon-validate", "--lexicon", str(path)], [],
                       lambda out: oracle.Oracle(lexicon).check_validate(out[0]))
    return lexicon, path, validate


def _scales(work: Path, build: Callable[[str, Path], list[Command]]) -> dict[str, list[Command]]:
    """Commands per scale; only the full-scale outputs have an oracle."""
    commands = {}
    for scale in ("full", "half"):
        out = work / f"out-{scale}"
        out.mkdir()
        commands[scale] = build(scale, out)
    commands["half"] = [dataclasses.replace(c, check=None) for c in commands["half"]]
    return commands


def plan_scan_text(seed: int, work: Path) -> Plan:
    """Text-mode read path: tokenizing, lexicon lookup, affect and meta features."""
    lexicon, lex_path, validate = _lexicon(seed, 14000, work)
    corpus = gen.text_corpus(seed, lexicon, docs=1000, tokens=600, channels=12)
    files = _corpus_files(work, corpus)
    check = oracle.Oracle(lexicon, corpus)

    tokens = sum(sum(d.counts.values()) for d in corpus.docs)

    def build(scale: str, out: Path) -> list[Command]:
        common = ["--lexicon", str(lex_path), "--corpus", str(files[scale]), "--format", "text"]
        return [
            Command("score_s", ["score", *common, "--out", str(out / "channels.csv")],
                    [out / "channels.csv"], lambda o: check.check_channels(o[1]), tokens=tokens),
            Command("window_s", ["score", *common, "--window", "1w", "--out", str(out / "weekly.csv")],
                    [out / "weekly.csv"], lambda o: check.check_series(o[1]), tokens=tokens),
            Command("per_doc_s", ["score", *common, "--per-document", "--out", str(out / "docs.csv")],
                    [out / "docs.csv"], lambda o: check.check_per_document(o[1]), tokens=tokens),
            Command("features_s", ["features", *common, "--out", str(out / "features.csv")],
                    [out / "features.csv"], lambda o: check.check_features(o[1]), tokens=tokens),
        ]

    return Plan(validate, _scales(work, build), check, corpus, files["full"])


def _evaluate(metric: str, lex_path: Path, corpus: Path, out: Path, rep: str, nb: str,
              supports: dict[str, int], tokens: int) -> Command:
    prefix = out / f"report-{rep}-{nb}"
    args = ["evaluate", "--lexicon", str(lex_path), "--corpus", str(corpus), "--format", "counts",
            "--rep", rep, "--nb", nb, "--seed", "42", "--out", str(prefix)]
    return Command(metric, args, [prefix.with_suffix(".json"), prefix.with_suffix(".csv")],
                   lambda o: oracle.check_report(o[1], o[2], supports, rep, nb), f"{rep}_{nb}", tokens)


CV_COUNTS_GENRES = [
    ("animated", 900, 0.8), ("documentary", 750, 0.65), ("horror", 300, 0.35),
    ("newscast", 600, 0.5), ("reality", 450, 0.2),
]
CV_COUNTS_TOKENS = (120, 240)
CV_COUNTS_BIAS = 0.10  # weak enough that neither classifier saturates AUC


def plan_cv_counts(seed: int, work: Path) -> Plan:
    """Counts read path (two classifiers) beside the corpus write path (synth)."""
    lexicon, lex_path, validate = _lexicon(seed, 1000, work)
    corpus = gen.counts_corpus(seed, lexicon, CV_COUNTS_GENRES, CV_COUNTS_TOKENS,
                               CV_COUNTS_BIAS, oov_share=0.1)
    files = _corpus_files(work, corpus)
    supports = {label: count for label, count, _ in CV_COUNTS_GENRES}
    tokens = sum(sum(d.counts.values()) for d in corpus.docs)

    def build(scale: str, out: Path) -> list[Command]:
        share = 1 if scale == "full" else 2
        genres = [(label, count // share, target) for label, count, target in CV_COUNTS_GENRES]
        profiles = gen.synth_profiles(genres, CV_COUNTS_TOKENS, bias=0.3)
        profile_path = _write(work / f"profiles-{scale}.json", json.dumps(profiles, indent=1))
        synth_out = out / "synth.jsonl"
        return [
            _evaluate("evaluate_vsm_s", lex_path, files[scale], out, "vsm", "multinomial", supports, tokens),
            _evaluate("evaluate_meta_s", lex_path, files[scale], out, "meta", "gaussian", supports, tokens),
            Command("synth_s", ["synth", "--lexicon", str(lex_path), "--profiles", str(profile_path),
                                "--seed", str(seed), "--out", str(synth_out)],
                    [synth_out], lambda o: oracle.check_synth(o[1], profiles, lexicon)),
        ]

    return Plan(validate, _scales(work, build), oracle.Oracle(lexicon, corpus), corpus, files["full"])


# 300 documents on a 5k lexicon: each holds about 5% of the training vocabulary
CV_WIDE_GENRES = [
    ("animated", 75, 0.9), ("documentary", 65, 0.7), ("horror", 50, 0.3),
    ("newscast", 60, 0.5), ("reality", 50, 0.1),
]


def plan_cv_gauss_wide(seed: int, work: Path) -> Plan:
    """Gaussian NB over wide sparse counts: the O(N*V*C) densifying path."""
    lexicon, lex_path, validate = _lexicon(seed, 5000, work)
    corpus = gen.counts_corpus(seed, lexicon, CV_WIDE_GENRES, (250, 350), bias=0.5, oov_share=0.1)
    files = _corpus_files(work, corpus)
    supports = {label: count for label, count, _ in CV_WIDE_GENRES}
    tokens = sum(sum(d.counts.values()) for d in corpus.docs)

    def build(scale: str, out: Path) -> list[Command]:
        return [_evaluate("evaluate_vsm_gauss_s", lex_path, files[scale], out, "vsm", "gaussian",
                          supports, tokens)]

    return Plan(validate, _scales(work, build), oracle.Oracle(lexicon, corpus), corpus, files["full"])


WORKLOADS = {
    "scan-text": plan_scan_text,
    "cv-counts": plan_cv_counts,
    "cv-gauss-wide": plan_cv_gauss_wide,
}


class Tally:
    """Commands attempted and failed, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])


class Cli:
    """Runs tvmood subcommands in fresh processes and checks their outputs."""

    def __init__(self, work: Path, tally: Tally, reference: speed.Reference) -> None:
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        # the children see the same interpreter settings wherever this runs:
        # sources from the checkout, bytecode cached once under the work dir
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        self.work = work
        self.tally = tally
        self.reference = reference
        self.peak_kb: dict[str, int] = {}  # largest ru_maxrss per command metric
        self.first: dict[str, tuple[list[bytes], bool]] = {}

    def run(self, command: Command, repeat: int = 1) -> tuple[Timing, list[bytes]]:
        """Run ``repeat`` times back to back; return the mean timing and the
        last [stdout, *outputs]. Every run's output is checked."""
        mark = self.reference.reading()
        wall = cpu = 0.0
        for _ in range(repeat):
            elapsed, usage, produced = self.once(command)
            wall += elapsed
            cpu += usage.ru_utime + usage.ru_stime
        return Timing(wall / repeat, cpu / repeat, self.reference.scale(cpu, mark) / repeat), produced

    def once(self, command: Command) -> tuple[float, os.struct_rusage, list[bytes]]:
        with open(self.work / "stdout", "w+b") as out, open(self.work / "stderr", "w+b") as err:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "tvmood.cli", *command.args],
                                     stdout=out, stderr=err, env=self.env, cwd=self.work)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            elapsed = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            produced = [out.read()]
            message = err.read().decode("utf-8", "replace").strip()
        self.peak_kb[command.metric] = max(self.peak_kb.get(command.metric, 0), usage.ru_maxrss)
        problems = []
        if child.returncode != 0:
            problems.append(f"exit status {child.returncode}: {message[-300:]}")
        else:
            for path in command.outputs:
                try:
                    produced.append(path.read_bytes())
                except OSError as exc:
                    problems.append(f"missing output: {exc}")
        if not problems:
            problems = self.compare(command, produced)
        self.tally.record(command.metric, problems)
        return elapsed, usage, produced

    def expected(self, command: Command) -> list[bytes]:
        """What the first run of ``command`` printed and wrote."""
        return self.first[" ".join(command.args)][0]

    def compare(self, command: Command, produced: list[bytes]) -> list[str]:
        """Check the first run with the oracle; later runs must repeat its bytes."""
        key = " ".join(command.args)
        if key not in self.first:
            problems = command.check(produced) if command.check else []
            self.first[key] = (produced, not problems)
            return problems
        first, ok = self.first[key]
        if not ok:
            return ["repeats an output that failed its check"]
        return [] if produced == first else ["output bytes differ from the first run"]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(plan: Plan, cli: Cli, seconds: float) -> dict[str, float]:
    """Untraced end-to-end metrics: set-up, then whole passes for ``seconds``.

    A pass runs each command once; passes repeat until the commands have
    run for about ``seconds`` of wall time in total. Times are in reference
    seconds (``speed.py``). ``job_s`` sums each command's median.
    """
    cli.run(plan.validate)  # fills the bytecode cache; not timed
    setup = [cli.run(plan.validate, SETUP_BATCH)[0] for _ in range(SETUP_REPEATS)]
    times: dict[str, list[Timing]] = {c.metric: [] for c in plan.commands["full"]}
    passes = 0
    start = time.perf_counter()
    # stop before a pass that would run more than half of itself past ``seconds``
    while passes < MIN_PASSES or ((time.perf_counter() - start) * (1 + 0.5 / passes) < seconds
                                  and time.monotonic() < cli.deadline):
        passes += 1
        # one more set-up sample per pass spreads them over the whole run
        setup.append(cli.run(plan.validate, SETUP_BATCH)[0])
        for command in plan.commands["full"]:
            times[command.metric].append(cli.run(command)[0])
    setup += [cli.run(plan.validate, SETUP_BATCH)[0] for _ in range(SETUP_REPEATS)]
    per_command = {name: median([t.ref_s for t in values]) for name, values in times.items()}
    metrics = {
        "setup_s": median([t.ref_s for t in setup]),
        "job_s": sum(per_command.values()),
        "peak_rss_mb": max(cli.peak_kb[name] for name in times) / 1024.0,
    }
    print("samples as reference s (wall s, cpu s):")
    for name, values in {"setup_s": setup, **times}.items():
        print(f"  {name}: " + ", ".join(f"{t.ref_s:.4f} ({t.wall_s:.3f}, {t.cpu_s:.3f})" for t in values))
    for name, value in {**metrics, **per_command}.items():
        print(f"{name:24} {value:12.4f} {unit_of(name)}")
    wall = sum(median([t.wall_s for t in values]) for values in times.values())
    print(f"{'job wall time':24} {wall:12.4f} s, not scaled to the reference")
    return metrics


def traced(plan: Plan, cli: Cli, seconds: float, spans_path: Path) -> dict[str, float]:
    """Per-layer metrics from repeats of an untraced pass, then traced in-process passes.

    Each repeat runs the commands in fresh processes, then in-process under
    spans at full and at half size. ``cli.overhead_s`` pairs each untraced
    pass with the traced pass right after it, so both see the same machine;
    it compares wall times. The per-command metrics are in reference seconds,
    like ``job_s``.
    """
    cli.run(plan.validate)  # fills the bytecode cache
    sys.path.insert(0, str(ROOT / "src"))
    import tvmood.cli

    gc.collect()
    gc.freeze()  # keep the benchmark's own data out of the collections it times
    tracer = tracing.Tracer()
    samples: dict[str, list[dict[str, float]]] = {"full": [], "half": []}
    untraced: dict[str, list[float]] = {c.metric: [] for c in plan.commands["full"]}
    overheads = []
    folds: list = []
    start = time.perf_counter()
    repeat = 0
    # stop before a repeat that would run more than half of itself past ``seconds``
    while repeat == 0 or ((time.perf_counter() - start) * (1 + 0.5 / repeat) < seconds
                          and time.monotonic() < cli.deadline):
        job = 0.0
        for command in plan.commands["full"]:
            timing, _ = cli.run(command)
            untraced[command.metric].append(timing.ref_s)
            job += timing.wall_s
        for scale in ("full", "half"):
            runs = {}
            for command in plan.commands[scale]:
                run_id = f"{scale}{repeat}:{command.metric}"
                runs[run_id] = command.config
                with tracer.patched("tvmood"):
                    status, stdout = tracing.run_traced(tracer, tvmood.cli.main, run_id, command.args)
                problems = [f"traced exit status {status}"] if status else []
                if scale == "full" and not problems:
                    produced = [stdout] + [p.read_bytes() for p in command.outputs]
                    if produced != cli.expected(command):
                        problems.append("traced run wrote other bytes than the untraced run")
                cli.tally.record(f"traced {command.metric}", problems)
                if scale == "full" and command.config.startswith("vsm"):
                    folds = tracer.folds[run_id]
            totals, selfs = tracing.layer_times(tracer, runs)
            sample = {name: totals.get(name[:-2], 0.0) for name in LAYER_METRICS}
            sample.update({f"{name}_self_s": selfs.get(name, 0.0) for name in SELF_METRICS})
            root = tracing.ROOT_SPAN
            sample["layers_s"] = totals.get(root, 0.0) - selfs.get(root, 0.0)
            samples[scale].append(sample)
        overheads.append(job - samples["full"][-1]["layers_s"])
        repeat += 1
    tracer.dump(spans_path)

    full = {name: median([s[name] for s in samples["full"]]) for name in samples["full"][0]}
    half = {name: median([s[name] for s in samples["half"]]) for name in samples["half"][0]}
    metrics = {name: full[name] for name in LAYER_METRICS}
    for name in SELF_METRICS:
        metrics[f"{name}_self_s"] = full[f"{name}_self_s"]
    metrics["cli.overhead_s"] = median(overheads)
    metrics.update({name: median(untraced.get(name, [])) for name in COMMAND_METRICS})
    for name in LAYER_METRICS:
        ok = full[name] > 0 and half[name] > 0
        metrics[f"{name}.scale_exp"] = math.log2(full[name] / half[name]) if ok else 0.0
    metrics.update(counts(plan, folds))
    loaded = sum(c.tokens for c in plan.commands["full"])
    metrics["corpus.tokens_per_s"] = loaded / full["corpus.load_s"] if full["corpus.load_s"] else 0.0
    print(f"repeats: {repeat}; cli.overhead_s per repeat: " + ", ".join(f"{v:.3f}" for v in overheads))
    print(f"{'layer':42} {'full_s':>10} {'half_s':>10} {'scale_exp':>9}")
    for name in LAYER_METRICS + tuple(f"{n}_self_s" for n in SELF_METRICS):
        if full[name] and half[name]:
            exp = math.log2(full[name] / half[name])
            print(f"{name:42} {full[name]:10.4f} {half[name]:10.4f} {exp:9.3f}")
    for name in COMMAND_METRICS + ("cli.overhead_s", "corpus.tokens_per_s") + COUNT_METRICS:
        print(f"{name:42} {metrics[name]:10.4f} {unit_of(name)}")
    return metrics


def counts(plan: Plan, folds: list) -> dict[str, float]:
    """Deterministic work counts of the workload's full-scale inputs."""
    docs = plan.corpus.docs
    words = set(plan.oracle.lexicon.words)
    result = {name: 0.0 for name in COUNT_METRICS}
    result.update({
        "corpus.docs": float(len(docs)),
        "corpus.tokens": float(sum(sum(d.counts.values()) for d in docs)),
        "corpus.bytes_in": float(plan.corpus_path.stat().st_size),
        "corpus.distinct_terms": float(sum(len(d.counts) for d in docs)),
        "lexicon.entries": float(len(words)),
        "lexicon.match_ratio": plan.oracle.match_ratio(),
    })
    if any(c.metric == "window_s" for c in plan.commands["full"]):
        series = plan.oracle.series()
        result["affect.windows"] = float(len(series))
        result["affect.gap_windows"] = float(sum(1 for row in series if row[2] is None))
    if folds:
        result.update(tracing.fold_vocabularies(folds[-1], docs, words))
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, measure and check one workload; return its JSON result."""
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = WORKLOADS[name](seed, work)
        tally = Tally()
        print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
              f"sha={git_sha()} python={platform.python_version()} nproc={NPROC}")
        print(f"inputs: lexicon {len(plan.oracle.lexicon.words)} words, corpus {len(plan.corpus.docs)} "
              f"docs, {plan.corpus_path.stat().st_size} bytes")
        with speed.Reference() as reference:
            cli = Cli(work, tally, reference)
            if trace:
                (WORK / "traces").mkdir(exist_ok=True)
                metrics = traced(plan, cli, seconds, WORK / "traces" / f"{name}-seed{seed}.jsonl")
            else:
                metrics = measure(plan, cli, seconds)
        for problem in tally.problems[:10]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"error_rate: {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted} commands)")
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(".scale_exp"):
        return "log2"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "corpus.bytes_in":
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tvmood" / "cli.py").is_file():
        print(f"error: no tvmood sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the commands and the speed reference share one CPU, so both see it at the same speed
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
