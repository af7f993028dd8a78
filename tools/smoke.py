"""Smoke run of every tvmood subcommand on the sample data, outside pytest.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/smoke.py   # runs python -m tvmood.cli
    python3 tools/smoke.py tvmood           # runs the installed console script

The one argument is the command prefix, split as a shell splits it; the
default runs ``-m tvmood.cli`` under this interpreter. The tests call the
``[project.scripts]`` entry point only as ``tvmood.cli.main``, so this is the
run that exercises the console script. Between them the runs build every
record type of the package: 17 subcommand runs on ``sample_data/`` and on a
counts-mode synth corpus, two byte comparisons, a lexicon-validate run whose
stdout must be two lines, and four refusals. Outputs go to a temporary
directory. The run stops at the first failed check, with one line on stderr
that names it, and exits 1.
"""

from __future__ import annotations

import argparse
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NoReturn, Optional

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "sample_data"


def fail(check: str, problem: str) -> NoReturn:
    sys.exit(f"smoke check {check!r} failed: {problem}")


def run(prefix: list[str], check: str, args: list[str],
        stdin: Optional[bytes]) -> subprocess.CompletedProcess[bytes]:
    """Run one command from the checkout's root; ``stdin`` goes through a pipe."""
    print(f"{check}: {shlex.join(args)}", flush=True)
    return subprocess.run([*prefix, *args], cwd=ROOT, input=stdin, capture_output=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = shlex.join([sys.executable, "-m", "tvmood.cli"])
    parser.add_argument("command", nargs="?", default=default,
                        help="the command prefix (default: %(default)s)")
    prefix = shlex.split(parser.parse_args().command)
    corpus_bytes = (SAMPLE / "corpus.jsonl").read_bytes()
    with tempfile.TemporaryDirectory(prefix="smoke-") as name:
        temp = Path(name)

        def out(file: str) -> list[str]:
            return ["--out", str(temp / file)]

        lexicon = ["--lexicon", str(SAMPLE / "lexicon.csv")]
        corpus = [*lexicon, "--corpus", str(SAMPLE / "corpus.jsonl")]
        # the sample corpus holds four documents per genre
        two_folds = ["--folds", "2", "--min-genre-support", "1"]
        # the synth corpus, read as term counts by every streaming command
        synth = [*lexicon, "--corpus", str(temp / "synth.jsonl"), "--format", "counts"]
        # a lexicon entry that no text token can match is named on a second line
        hyphen = (SAMPLE / "lexicon.csv").read_text(encoding="utf-8").splitlines(keepends=True)[:2]
        (temp / "hyphen.csv").write_text("".join(hyphen) + "well-being,7.5,1.0,5.0,1.0,6.0,1.0\n",
                                         encoding="utf-8")
        (temp / "repeated.jsonl").write_text(
            '{"id":"a","channel":"c","timestamp":"2013-01-07T00:00:00Z","id":"b",'
            '"term_counts":{"fire":1,"fire":2}}\n', encoding="utf-8")
        shutil.copyfile(SAMPLE / "corpus.jsonl", temp / "same.jsonl")
        (temp / "empty.json").write_text("[]\n", encoding="utf-8")

        # (check, arguments, stdin): each run exits 0
        runs = [
            ("validate", ["lexicon-validate", *lexicon], None),
            ("features", ["features", *corpus, *out("f.csv")], None),
            ("channels", ["score", *corpus, *out("channels.csv")], None),
            ("windows", ["score", *corpus, "--window", "1w", *out("windows.csv")], None),
            # a bare date takes the --origin fallback past parse_timestamp
            ("windows-origin", ["score", *corpus, "--window", "1w", "--origin", "2013-1-7",
                                *out("windows-origin.csv")], None),
            ("documents", ["score", *corpus, "--per-document", *out("documents.csv")], None),
            ("synth", ["synth", *lexicon, "--profiles", str(SAMPLE / "profiles.json"),
                       *out("synth.jsonl")], None),
            ("vsm", ["evaluate", *corpus, "--rep", "vsm", *two_folds, *out("vsm")], None),
            ("meta", ["evaluate", *corpus, "--rep", "meta", *two_folds, *out("meta")], None),
            ("synth-features", ["features", *synth, *out("synth-features.csv")], None),
            ("synth-documents", ["score", *synth, "--per-document",
                                 *out("synth-documents.csv")], None),
            # without --origin, a first pass of the corpus reader's record checks, here in
            # counts mode, finds the earliest timestamp; synth's corpus starts at 2013-01-01
            ("synth-windows", ["score", *synth, "--window", "1w",
                               *out("synth-windows.csv")], None),
            ("synth-windows-origin", ["score", *synth, "--window", "1w", "--origin", "2013-01-01",
                                      *out("synth-windows-origin.csv")], None),
            ("synth-vsm", ["evaluate", *synth, "--rep", "vsm", *out("synth-vsm")], None),
            ("synth-meta", ["evaluate", *synth, "--rep", "meta", *out("synth-meta")], None),
            # a pipe cannot be read twice, so --window there needs --origin: refused without
            # it (below), the file's bytes with it. stdin must be a real pipe: a file handle,
            # as a < redirect gives, is a regular file, which the refusal never meets
            ("piped-origin", ["score", *lexicon, "--corpus", "/dev/stdin", "--window", "1w",
                              "--origin", "2013-01-07", *out("piped.csv")], corpus_bytes),
            ("hyphen", ["lexicon-validate", "--lexicon", str(temp / "hyphen.csv")], None),
        ]
        # (check, arguments, stdin): each exits with status 2 and one line on stderr
        refusals = [
            # a repeated JSON key is refused
            ("repeated", ["score", *lexicon, "--corpus", str(temp / "repeated.jsonl"),
                          "--format", "counts", *out("repeated.csv")], None),
            ("piped", ["score", *lexicon, "--corpus", "/dev/stdin", "--window", "1w",
                       *out("piped-refused.csv")], corpus_bytes),
            # an output that is one of the command's inputs is refused before anything is
            # written, and the input keeps its bytes (checked below)
            ("same", ["score", *lexicon, "--corpus", str(temp / "same.jsonl"),
                      *out("same.jsonl")], None),
            # a profiles file without profiles is refused
            ("empty", ["synth", *lexicon, "--profiles", str(temp / "empty.json"),
                       *out("empty.jsonl")], None),
        ]
        # (check, file, file): the two files hold the same bytes
        same_bytes = [
            ("synth-windows-cmp", temp / "synth-windows.csv", temp / "synth-windows-origin.csv"),
            ("piped-cmp", temp / "piped.csv", temp / "windows-origin.csv"),
            ("same-keeps-bytes", temp / "same.jsonl", SAMPLE / "corpus.jsonl"),
        ]

        stdout = {}
        for check, args, stdin in runs:
            done = run(prefix, check, args, stdin)
            sys.stdout.write(done.stdout.decode(errors="replace"))
            if done.returncode != 0:
                lines = done.stderr.decode(errors="replace").strip().splitlines() or [""]
                fail(check, f"exited {done.returncode}: {lines[-1]}")
            stdout[check] = done.stdout
        if stdout["hyphen"].count(b"\n") != 2:
            fail("hyphen", f"stdout is not two lines: {stdout['hyphen']!r}")
        for check, args, stdin in refusals:
            done = run(prefix, check, args, stdin)
            err = done.stderr.decode(errors="replace")
            sys.stdout.write(err)
            if done.returncode != 2 or err.count("\n") != 1 or not err.endswith("\n"):
                fail(check, f"exited {done.returncode} with stderr {err[-300:]!r}, "
                            "not 2 with one line")
        for check, first, second in same_bytes:
            if first.read_bytes() != second.read_bytes():
                fail(check, f"{first.name} and {second.name} differ")
    print(f"all {len(runs) + 1 + len(refusals) + len(same_bytes)} smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
