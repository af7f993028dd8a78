"""Command-line front end.

Subcommands: ``lexicon-validate``, ``score``, ``features``, ``synth``,
``evaluate``. All randomness flows from ``--seed`` (default 42), so every
invocation is replayable. Exit status is 0 exactly when all requested
outputs were fully written.

:func:`main` pauses automatic garbage collection for the whole command and
restores the caller's setting on the way out. tvmood's working set holds no
reference cycles: documents, rows, pools, fit tables and models are
acyclic, and each command leaves the same few hundred unreachable objects
(the argument parser's, and the report encoder's) at any corpus size. So
the collector would find nothing. On perfbench's cv-gauss-wide
``evaluate``, where Gaussian training collects each class's values in
fresh lists and tuples, its 280 collections took about 6% of the CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import os
import re
import stat
import sys
from collections import Counter, deque
from datetime import datetime, timedelta, timezone
from typing import Callable, Iterator, NoReturn, TextIO

from . import affect, classify, evaluation, features, synth
from .corpus import (
    CorpusError,
    Document,
    document_to_jsonl,
    filter_min_genre_support,
    format_timestamp,
    parse_timestamp,
    read_documents,
    read_records,
)
from .lexicon import AffectLexicon, load_lexicon, text_unmatchable
from .record import unique_keys

_WINDOW_RE = re.compile(r"^([0-9]+)([dw])$")

SCORE_VALUE_COLUMNS = (*affect.VALUE_COLUMNS, "matched_distinct_terms", "matched_tokens")


def parse_window(spec: str) -> timedelta:
    """Parse a window length such as ``7d`` or ``4w``."""
    match = _WINDOW_RE.match(spec.strip().lower())
    count = match.group(1).lstrip("0") if match else ""
    if not count:
        raise ValueError(f"--window {spec!r} is not a length such as '7d' or '4w'")
    # a count longer than the largest day count is out of range; int() refuses 4,301 digits
    if len(count) <= len(str(timedelta.max.days)):
        with contextlib.suppress(OverflowError):
            return timedelta(days=int(count) * (1 if match.group(2) == "d" else 7))
    raise ValueError(f"--window {spec!r} is longer than {timedelta.max.days} days")


@contextlib.contextmanager
def _write_all(*paths: str) -> Iterator[list[TextIO]]:
    """Open one text handle per path; write every target or, on failure, none.

    Each handle writes a temporary file beside its target; the temporaries
    replace the targets only when the block ends without an error, and are
    removed otherwise. A FIFO or device such as ``/dev/stdout`` is not
    replaced: its handle buffers in memory, and the content is encoded and
    written in place once the block has ended and the temporaries are
    written. A directory target is refused before anything is written.
    """
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    direct: dict[str, io.StringIO] = {}  # FIFO or device target -> its buffer
    temps: dict[str, str] = {}  # target -> its temporary
    files = contextlib.ExitStack()  # the open temporaries
    try:
        handles: list[TextIO] = []
        for path in paths:
            if os.path.exists(path) and not os.path.isfile(path):
                handles.append(direct.setdefault(path, io.StringIO()))
                continue
            target = os.path.realpath(path)  # replace a symlink's target, not the link
            directory, name = os.path.split(target)
            temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
            try:
                handle = open(temp, "x", encoding="utf-8", newline="")
            except OSError as exc:  # name the target, not its temporary
                raise type(exc)(exc.errno, exc.strerror, path) from None
            temps[target] = temp
            handles.append(files.enter_context(handle))
        yield handles
        files.close()  # flushed before anything is replaced
        encoded = {path: buffer.getvalue().encode("utf-8") for path, buffer in direct.items()}
        for path, data in encoded.items():
            with open(path, "wb") as handle:
                handle.write(data)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:  # after a failure; once replaced, a temporary no longer exists
        files.close()
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _outputs(args: argparse.Namespace) -> tuple[str, ...]:
    """The files a command writes: ``--out``, or evaluate's two report paths."""
    if getattr(args, "out", None) is None:
        return ()
    if args.command != "evaluate":
        return (args.out,)
    prefix = args.out[:-5] if args.out.endswith(".json") else args.out
    return (prefix + ".json", prefix + ".csv")


def _refuse_overwriting_inputs(args: argparse.Namespace) -> None:
    """Refuse an output that is an existing regular file the command reads.

    A FIFO or device is not refused: ``/dev/stdin`` and ``/dev/stdout`` may
    be one terminal.
    """
    for out in filter(os.path.isfile, _outputs(args)):
        for flag in ("--corpus", "--lexicon", "--profiles"):
            source = getattr(args, flag[2:], None)
            with contextlib.suppress(OSError):  # a missing input is named when it is read
                if source is not None and os.path.samefile(out, source):
                    raise ValueError(f"--out {out} is the {flag} file")


def _lexicon(args: argparse.Namespace) -> AffectLexicon:
    """The ``--lexicon`` file, named by its flag when it is not UTF-8."""
    try:
        return load_lexicon(args.lexicon)
    except UnicodeDecodeError as exc:  # its message names neither file nor flag
        raise ValueError(f"--lexicon {args.lexicon}: {exc}") from None


def _lines(args: argparse.Namespace) -> Iterator[str]:
    """The ``--corpus`` lines, read lazily; bad UTF-8 is named by its flag, wherever it lies."""
    try:
        with open(args.corpus, encoding="utf-8") as handle:
            yield from handle
    except UnicodeDecodeError as exc:  # its message names neither file nor flag
        raise CorpusError(f"--corpus {args.corpus}: {exc}") from None


def _documents(args: argparse.Namespace) -> Iterator[Document]:
    """The ``--corpus`` documents; a corpus error is raised when the pass reaches it."""
    return read_documents(_lines(args), args.format)


def _origin(args: argparse.Namespace) -> datetime:
    """``--origin``, or else the earliest ``--corpus`` timestamp at midnight
    UTC, from a first pass of the corpus reader's record checks."""
    if args.origin is not None:
        return _parse_cli_timestamp(args.origin, "--origin")
    mode = os.stat(args.corpus).st_mode  # a missing file is named here
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):  # a pipe cannot be read twice
        raise ValueError(f"--corpus {args.corpus} is not a regular file, so --window needs --origin")
    try:
        earliest = min((r[-1] for _, r in read_records(_lines(args), args.format)), default=None)
    except CorpusError:  # report the first fault in file order, which may be a document's
        deque(_documents(args), maxlen=0)
        raise
    if earliest is None:
        raise ValueError("corpus has no documents, so --window needs --origin")
    return earliest.replace(hour=0, minute=0, second=0)


def cmd_lexicon_validate(args: argparse.Namespace) -> int:
    lexicon = _lexicon(args)
    columns = zip(affect.DIMENSIONS, zip(*lexicon.table.values()))
    ranges = [f"{dim} [{min(means):.4f}, {max(means):.4f}]" for dim, means in columns]
    print(f"{len(lexicon)} entries; " + "; ".join(ranges))
    if unmatchable := text_unmatchable(lexicon):
        entries = "entry" if len(unmatchable) == 1 else "entries"
        print(
            f"{len(unmatchable)} {entries} can never match a text token; "
            f"first: {unmatchable[0]!r}"
        )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if args.origin is not None and args.window is None:
        raise ValueError("--origin is only allowed with --window")
    lexicon = _lexicon(args)

    if args.window is not None:
        window = parse_window(args.window)
        origin = _origin(args)
        try:
            series = affect.score_windows(_documents(args), lexicon, window, origin)
        except CorpusError:
            raise
        except ValueError as exc:  # loaded documents are timestamped: a window start failed
            raise ValueError(f"--window {args.window!r}: {exc}") from None
        if args.origin is None and any(s.points[0].start < origin for s in series):
            raise ValueError(
                f"--corpus {args.corpus} gained an earlier document after the pass "
                f"that found the default --origin; give --origin"
            )
        with _write_all(args.out) as (out,):
            out.write(affect.series_to_csv(series))
        points = sum(len(s.points) for s in series)
        print(f"wrote {points} series points to {args.out}")
        return 0

    # (leading row fields, term counts); the first field names a skip
    if args.per_document:
        header = ("id", "channel")
        scored = (((doc.id, doc.channel), doc.term_counts) for doc in _documents(args))
    else:
        header = ("channel",)
        pools = affect.pool_channels(_documents(args), lexicon)
        scored = (((channel,), pool) for channel, pool in pools.items())
    skipped: list[tuple[str, str]] = []
    rows = 0
    with _write_all(args.out) as (out,):
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header + SCORE_VALUE_COLUMNS)
        for key, counts in scored:
            try:
                score = affect.score_counts(counts, lexicon)
            except affect.NoSignalError:
                skipped.append((key[0], "no lexicon matches"))
                continue
            writer.writerow([*key, *score])
            rows += 1
        if rows == 0:
            raise ValueError("no document or channel matched the lexicon")
        if skipped:
            writer.writerow([])
            writer.writerow(("skipped_id", "reason"))
            writer.writerows(skipped)
    print(f"wrote {rows} rows ({len(skipped)} skipped) to {args.out}")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    lexicon = _lexicon(args)
    with _write_all(args.out) as (out,):
        rows = features.features_to_csv(_documents(args), lexicon, out)
    print(f"wrote {rows} feature rows to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    lexicon = _lexicon(args)
    with open(args.profiles, encoding="utf-8") as handle:
        try:
            raw = json.load(handle, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, a repeated key or nesting
            raise ValueError(f"--profiles {args.profiles}: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"--profiles {args.profiles}: the file must hold a JSON array")
    if not raw:
        raise ValueError(f"--profiles {args.profiles}: the file holds no profiles")
    profiles = [synth.profile_from_json(index, item) for index, item in enumerate(raw)]
    start = (
        synth.DEFAULT_START
        if args.start is None
        else _parse_cli_timestamp(args.start, "--start")
    )
    documents = synth.generate(profiles, lexicon, args.seed, start=start)
    written = 0
    try:
        with _write_all(args.out) as (out,):
            for doc in documents:
                out.write(document_to_jsonl(doc))
                written += 1
    except OverflowError:  # from start + n * SPACING, the timestamp of document n
        raise ValueError(
            f"--start {format_timestamp(start)}: the document timestamps run past "
            f"the datetime range"
        ) from None
    print(f"wrote {written} documents to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    kind = args.nb or evaluation.DEFAULT_NB[args.rep]
    try:
        evaluation.check_representation(args.rep, kind)
    except ValueError as exc:  # only --nb can name a kind that --rep refuses
        raise ValueError(f"--rep {args.rep} --nb {kind}: {exc}") from None
    config = evaluation.ClassifierConfig(kind=kind, alpha=args.alpha)
    lexicon = _lexicon(args)
    rows = evaluation.labeled_rows(_documents(args), lexicon, args.rep)
    rows = filter_min_genre_support(rows, args.min_genre_support)
    support = Counter(row.genre for row in rows)
    if len(support) < 2:
        raise ValueError(
            f"--min-genre-support {args.min_genre_support}: fewer than two genres "
            f"have that support"
        )
    smallest = min(support.values())
    if args.folds > smallest:
        raise ValueError(f"--folds {args.folds} exceeds the smallest genre support, {smallest}")
    report = evaluation.run_cv(rows, args.folds, args.seed, config)

    json_path, csv_path = _outputs(args)
    with _write_all(json_path, csv_path) as (json_out, csv_out):
        json_out.write(evaluation.report_to_json(report))
        csv_out.write(evaluation.report_to_csv(report))
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
    common(sub, corpus=False)
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
        "timestamp at midnight UTC, found in a first pass over a regular --corpus file",
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
        choices=tuple(classify.MODEL_KINDS),
        help="classifier variant (default: "
        + ", ".join(f"{nb} for {rep}" for rep, nb in evaluation.DEFAULT_NB.items())
        + ")",
    )
    sub.add_argument(
        "--alpha", type=float, default=classify.DEFAULT_ALPHA,
        help=f"multinomial smoothing (default {classify.DEFAULT_ALPHA})",
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
    """Run one command with automatic garbage collection paused, argument
    parsing included; the caller's setting is restored on every exit."""
    enabled = gc.isenabled()
    gc.disable()  # no cycles to find: the garbage per command is a constant few hundred objects
    try:
        args = build_parser().parse_args(argv)
        try:
            _refuse_overwriting_inputs(args)
            return args.handler(args)
        except classify.AlphaError as exc:  # only evaluate's --alpha sets the weight
            print(f"error: --alpha: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OSError) as exc:  # bad input data, flag or file
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
