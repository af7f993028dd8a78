"""Command-line front end.

Subcommands: ``lexicon-validate``, ``score``, ``features``, ``synth``,
``evaluate``. All randomness flows from ``--seed`` (default 42), so every
invocation is replayable. Exit status is 0 exactly when all requested
outputs were fully written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import re
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from functools import partial
from typing import Callable, NoReturn

from . import affect, classify, evaluation, features, synth
from .corpus import (
    Corpus,
    corpus_to_jsonl,
    filter_min_genre_support,
    format_timestamp,
    load_corpus_file,
    parse_timestamp,
)
from .lexicon import load_lexicon

_WINDOW_RE = re.compile(r"^(\d+)([dw])$")

SCORE_VALUE_COLUMNS = (
    "valence",
    "arousal",
    "dominance",
    "valence_sd",
    "arousal_sd",
    "dominance_sd",
    "matched_distinct_terms",
    "matched_tokens",
)


def parse_window(spec: str) -> timedelta:
    """Parse a window length such as ``7d`` or ``4w``."""
    match = _WINDOW_RE.match(spec.strip().lower())
    if not match or int(match.group(1)) == 0:
        raise ValueError(f"--window {spec!r} is not a length such as '7d' or '4w'")
    days = int(match.group(1)) * (1 if match.group(2) == "d" else 7)
    try:
        return timedelta(days=days)
    except OverflowError:
        raise ValueError(
            f"--window {spec!r} is longer than {timedelta.max.days} days"
        ) from None


def default_origin(corpus: Corpus) -> datetime:
    """Earliest timestamp of a loaded corpus (whole seconds), truncated to midnight UTC."""
    if not corpus.documents:
        raise ValueError("corpus has no documents, so --window needs --origin")
    return min(doc.timestamp for doc in corpus.documents).replace(hour=0, minute=0, second=0)


def _write_all(outputs: dict[str, str]) -> None:
    """Write every ``path -> content`` or, on failure, none of them.

    Each content goes to a temporary file beside its target; the temporaries
    replace the targets only after all are written, and are removed on
    failure. A FIFO or device such as ``/dev/stdout`` is not replaced but
    written in place, once its content is encoded and the temporaries are
    written. A directory target is refused before anything is written.
    """
    for path in outputs:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    direct = {
        path: content.encode("utf-8")
        for path, content in outputs.items()
        if os.path.exists(path) and not os.path.isfile(path)
    }
    temps: dict[str, str] = {}  # target -> its temporary
    try:
        for path, content in outputs.items():
            if path in direct:
                continue
            target = os.path.realpath(path)  # replace a symlink's target, not the link
            directory, name = os.path.split(target)
            temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
            try:
                handle = open(temp, "x", encoding="utf-8", newline="")
            except OSError as exc:  # name the target, not its temporary
                raise type(exc)(exc.errno, exc.strerror, path) from None
            temps[target] = temp
            with handle:
                handle.write(content)
        for path, data in direct.items():
            with open(path, "wb") as handle:
                handle.write(data)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:  # after a failure; once replaced, a temporary no longer exists
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _read(flag: str, load: Callable, path: str, *args: str):
    """``load(path, *args)``, with a file that is not UTF-8 named by its flag."""
    try:
        return load(path, *args)
    except UnicodeDecodeError as exc:  # its message names neither file nor flag
        raise ValueError(f"{flag} {path}: {exc}") from None


def cmd_lexicon_validate(args: argparse.Namespace) -> int:
    lexicon = _read("--lexicon", load_lexicon, args.lexicon)
    columns = zip(affect.DIMENSIONS, zip(*lexicon.table.values()))
    ranges = [f"{dim} [{min(means):.4f}, {max(means):.4f}]" for dim, means in columns]
    print(f"{len(lexicon)} entries; " + "; ".join(ranges))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if args.origin is not None and args.window is None:
        raise ValueError("--origin is only allowed with --window")
    lexicon = _read("--lexicon", load_lexicon, args.lexicon)
    corpus = _read("--corpus", load_corpus_file, args.corpus, args.format)

    if args.window is not None:
        window = parse_window(args.window)
        origin = (
            default_origin(corpus)
            if args.origin is None
            else _parse_cli_timestamp(args.origin, "--origin")
        )
        try:  # a loaded corpus is timestamped, so only a window start can fail
            series = [
                affect.score_windows(corpus, channel, lexicon, window, origin)
                for channel in corpus.channels()
            ]
        except ValueError as exc:
            raise ValueError(f"--window {args.window!r}: {exc}") from None
        _write_all({args.out: affect.series_to_csv(series)})
        points = sum(len(s.points) for s in series)
        print(f"wrote {points} series points to {args.out}")
        return 0

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    # each job is (leading row fields, scorer); the first field names a skip
    if args.per_document:
        writer.writerow(("id", "channel") + SCORE_VALUE_COLUMNS)
        jobs = [
            ((doc.id, doc.channel), partial(affect.score_counts, doc.term_counts, lexicon))
            for doc in corpus.documents
        ]
    else:
        writer.writerow(("channel",) + SCORE_VALUE_COLUMNS)
        jobs = [
            ((channel,), partial(affect.score_channel, corpus, channel, lexicon))
            for channel in corpus.channels()
        ]
    skipped: list[tuple[str, str]] = []
    rows = 0
    for key, scorer in jobs:
        try:
            score, spread = scorer()
        except affect.NoSignalError:
            skipped.append((key[0], "no lexicon matches"))
            continue
        writer.writerow(
            [*key, *affect.value_fields(score, spread)]
            + [str(score.matched_distinct_terms), str(score.matched_token_total)]
        )
        rows += 1

    if skipped:
        writer.writerow([])
        writer.writerow(("skipped_id", "reason"))
        for item, reason in skipped:
            writer.writerow((item, reason))
    if rows == 0:
        print("error: no document or channel matched the lexicon", file=sys.stderr)
        return 2
    _write_all({args.out: buffer.getvalue()})
    print(f"wrote {rows} rows ({len(skipped)} skipped) to {args.out}")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    lexicon = _read("--lexicon", load_lexicon, args.lexicon)
    corpus = _read("--corpus", load_corpus_file, args.corpus, args.format)
    _write_all({args.out: features.features_to_csv(corpus, lexicon)})
    print(f"wrote {len(corpus)} feature rows to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    lexicon = _read("--lexicon", load_lexicon, args.lexicon)
    with open(args.profiles, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8 or too many nesting levels
            raise ValueError(f"--profiles {args.profiles}: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"--profiles {args.profiles}: the file must hold a JSON array")
    profiles = [synth.profile_from_json(index, item) for index, item in enumerate(raw)]
    start = (
        synth.DEFAULT_START
        if args.start is None
        else _parse_cli_timestamp(args.start, "--start")
    )
    try:
        corpus = synth.generate(profiles, lexicon, args.seed, start=start)
    except OverflowError:  # from start + n * spacing, the timestamp of document n
        raise ValueError(
            f"--start {format_timestamp(start)}: the document timestamps run past "
            f"the datetime range"
        ) from None
    _write_all({args.out: corpus_to_jsonl(corpus)})
    print(f"wrote {len(corpus)} documents to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    kind = args.nb or evaluation.DEFAULT_NB[args.rep]
    evaluation.check_representation(args.rep, kind)
    config = evaluation.ClassifierConfig(kind=kind, alpha=args.alpha)
    lexicon = _read("--lexicon", load_lexicon, args.lexicon)
    corpus = _read("--corpus", load_corpus_file, args.corpus, args.format)
    corpus = filter_min_genre_support(corpus, args.min_genre_support)
    support = Counter(doc.genre for doc in corpus.documents)
    if len(support) < 2:
        raise ValueError(
            f"--min-genre-support {args.min_genre_support}: fewer than two genres "
            f"have that support"
        )
    smallest = min(support.values())
    if args.folds > smallest:
        raise ValueError(f"--folds {args.folds} exceeds the smallest genre support, {smallest}")
    report = evaluation.run_cv(
        corpus, lexicon, args.rep, args.folds, args.seed, config
    )

    prefix = args.out[:-5] if args.out.endswith(".json") else args.out
    json_path = prefix + ".json"
    csv_path = prefix + ".csv"
    _write_all(
        {
            json_path: evaluation.report_to_json(report),
            csv_path: evaluation.report_to_csv(report),
        }
    )
    print(
        f"weighted_average tp_rate={report.weighted_tp_rate:.4f} "
        f"fp_rate={report.weighted_fp_rate:.4f} auc={report.weighted_auc:.4f}"
    )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def _parse_cli_timestamp(value: str, flag: str) -> datetime:
    try:
        return parse_timestamp(value)
    except ValueError as exc:
        try:  # bare dates such as 2013-1-7 are common on the command line
            return datetime.strptime(value, "%Y-%m-%d").replace(tzinfo=timezone.utc)
        except ValueError:
            raise ValueError(f"{flag}: {exc}") from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)  # a ValueError is reported as an invalid int value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line and exit status 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tvmood",
        description=(
            "Affect scoring and genre classification for television "
            "transcripts, driven by a valence/arousal/dominance word lexicon."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser, corpus: bool = True, seed: bool = False) -> None:
        sub.add_argument("--lexicon", required=True, help="lexicon CSV path")
        if corpus:
            sub.add_argument("--corpus", required=True, help="corpus JSONL path")
            sub.add_argument(
                "--format",
                choices=("text", "counts"),
                default="text",
                help="corpus record mode (default: text)",
            )
        if seed:  # only synth and evaluate draw random numbers
            sub.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")

    sub = subparsers.add_parser(
        "lexicon-validate", help="parse a lexicon and print a summary"
    )
    sub.add_argument("--lexicon", required=True, help="lexicon CSV path")
    sub.set_defaults(handler=cmd_lexicon_validate)

    sub = subparsers.add_parser(
        "score", help="score channels (or documents, or time windows) to CSV"
    )
    common(sub)
    sub.add_argument("--out", required=True, help="output CSV path")
    rows = sub.add_mutually_exclusive_group()
    rows.add_argument("--per-document", action="store_true", help="one row per document")
    rows.add_argument("--window", help="window length such as 7d or 4w; emits a series CSV")
    sub.add_argument(
        "--origin",
        help="window origin (ISO-8601), only with --window; default: earliest "
        "timestamp at midnight UTC",
    )
    sub.set_defaults(handler=cmd_score)

    sub = subparsers.add_parser(
        "features", help="export the 19-feature matrix as CSV"
    )
    common(sub)
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.set_defaults(handler=cmd_features)

    sub = subparsers.add_parser(
        "synth", help="generate a synthetic labeled corpus"
    )
    common(sub, corpus=False, seed=True)
    sub.add_argument(
        "--profiles", required=True, help="JSON array of genre profiles"
    )
    sub.add_argument("--out", required=True, help="output JSONL path")
    sub.add_argument("--start", help="first document timestamp (ISO-8601)")
    sub.set_defaults(handler=cmd_synth)

    sub = subparsers.add_parser(
        "evaluate", help="stratified cross-validation; writes JSON + CSV reports"
    )
    common(sub, seed=True)
    sub.add_argument("--out", required=True, help="output path prefix (or .json path)")
    sub.add_argument(
        "--rep", choices=evaluation.REPRESENTATIONS, default="vsm",
        help="document representation (default: vsm)",
    )
    sub.add_argument(
        "--nb",
        choices=("gaussian", "multinomial"),
        default=None,
        help="classifier variant (default: "
        + ", ".join(f"{nb} for {rep}" for rep, nb in evaluation.DEFAULT_NB.items())
        + ")",
    )
    sub.add_argument(
        "--alpha", type=float, default=1.0, help="multinomial smoothing (default 1.0)"
    )
    sub.add_argument(
        "--folds", type=_int_at_least(2), default=5, help="fold count (default 5)"
    )
    sub.add_argument(
        "--min-genre-support",
        type=_int_at_least(1),
        default=20,
        help="drop genres with fewer documents (default 20)",
    )
    sub.set_defaults(handler=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except classify.AlphaError as exc:  # only evaluate's --alpha sets the weight
        print(f"error: --alpha: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # bad input data, flag or file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
