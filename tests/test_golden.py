"""Golden outputs: the exact bytes ``score``, ``features``, ``synth`` and
``evaluate`` write.

Each case runs the CLI on fixed inputs and compares the files it writes
byte for byte with the files in ``tests/golden/``. Refactors and
performance changes must keep these bytes; a change that means to alter
them replaces the golden files and says why. The sample cases also run
in fresh interpreters under two fixed ``PYTHONHASHSEED``s: tests run in
one process under one hash seed, so they could not see an output that
follows the iteration order of a set of strings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tvmood.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "sample_data"
GOLDEN = Path(__file__).resolve().parent / "golden"

VARIANTS = (("vsm", "gaussian"), ("vsm", "multinomial"), ("meta", "gaussian"))

SYNTH_PROFILES = [
    {"label": "dark", "document_count": 20, "bias": 0.25, "target": [0.2, 0.6, 0.4], "token_range": [10, 30]},
    {"label": "plain", "document_count": 20, "bias": 0.25, "target": [0.5, 0.5, 0.5], "token_range": [10, 30]},
    {"label": "sunny", "document_count": 20, "bias": 0.25, "target": [0.8, 0.4, 0.6], "token_range": [10, 30]},
]


def synth_lexicon_text(size: int = 240) -> str:
    """A lexicon from a fixed formula, so the inputs need no RNG."""
    lines = ["word,valence_mean,valence_sd,arousal_mean,arousal_sd,dominance_mean,dominance_sd"]
    for i in range(size):
        v, a, d = (1 + (i * step % 241) / 30 for step in (37, 53, 71))
        lines.append(f"w{i:03d},{v:.4f},1.0,{a:.4f},1.0,{d:.4f},1.0")
    return "\n".join(lines) + "\n"


def synth_args(tmp_path: Path, corpus: str) -> list[str]:
    """``synth`` arguments (no ``--out``) that generate the ``corpus`` case."""
    if corpus == "sample":
        return [
            "--lexicon", str(SAMPLE / "lexicon.csv"),
            "--profiles", str(SAMPLE / "profiles.json"),
        ]
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text(synth_lexicon_text(), encoding="utf-8")
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps(SYNTH_PROFILES), encoding="utf-8")
    return ["--lexicon", str(lexicon), "--profiles", str(profiles), "--seed", "5"]


def sample_inputs(tmp_path: Path) -> list[str]:
    return [
        "--lexicon", str(SAMPLE / "lexicon.csv"),
        "--corpus", str(SAMPLE / "corpus.jsonl"),
        "--format", "text",
    ]


def synth_inputs(tmp_path: Path) -> list[str]:
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", *synth_args(tmp_path, "synth"), "--out", str(corpus)]) == 0
    return [
        "--lexicon", str(tmp_path / "lexicon.csv"),
        "--corpus", str(corpus),
        "--format", "counts",
    ]


INPUTS = {"sample": sample_inputs, "synth": synth_inputs}

EVALUATE_FLAGS = {
    "sample": ["--folds", "2", "--min-genre-support", "1"],
    "synth": ["--folds", "3", "--seed", "11"],
}

# golden file stem -> subcommand and flags; each writes one CSV to --out
CSV_COMMANDS = {
    "score": ["score"],
    "score_per_document": ["score", "--per-document"],
    "score_window_1w": ["score", "--window", "1w"],
    "features": ["features"],
}


def evaluate_reports(tmp_path: Path, corpus: str, rep: str, nb: str) -> tuple[bytes, bytes]:
    """Run ``evaluate`` on one golden case; return the JSON and CSV bytes."""
    out = tmp_path / "report"
    argv = [
        "evaluate", *INPUTS[corpus](tmp_path), *EVALUATE_FLAGS[corpus],
        "--rep", rep, "--nb", nb, "--out", str(out),
    ]
    assert main(argv) == 0
    return (tmp_path / "report.json").read_bytes(), (tmp_path / "report.csv").read_bytes()


def csv_output(tmp_path: Path, corpus: str, command: str) -> bytes:
    """Run one of ``CSV_COMMANDS`` on a golden corpus; return the CSV bytes."""
    out = tmp_path / "out.csv"
    assert main([*CSV_COMMANDS[command], *INPUTS[corpus](tmp_path), "--out", str(out)]) == 0
    return out.read_bytes()


def synth_output(tmp_path: Path, corpus: str) -> bytes:
    """Run ``synth`` for one golden case; return the JSON-lines bytes."""
    out = tmp_path / "synth.jsonl"
    assert main(["synth", *synth_args(tmp_path, corpus), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("rep,nb", VARIANTS)
@pytest.mark.parametrize("corpus", sorted(INPUTS))
def test_evaluate_report_bytes(tmp_path, corpus, rep, nb):
    report_json, report_csv = evaluate_reports(tmp_path, corpus, rep, nb)
    stem = GOLDEN / f"evaluate_{corpus}_{rep}_{nb}"
    assert report_json == stem.with_suffix(".json").read_bytes()
    assert report_csv == stem.with_suffix(".csv").read_bytes()


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
@pytest.mark.parametrize("corpus", sorted(INPUTS))
def test_csv_output_bytes(tmp_path, corpus, command):
    golden = GOLDEN / f"{command}_{corpus}.csv"
    assert csv_output(tmp_path, corpus, command) == golden.read_bytes()


@pytest.mark.parametrize("corpus", sorted(INPUTS))
def test_synth_output_bytes(tmp_path, corpus):
    golden = GOLDEN / f"synth_{corpus}.jsonl"
    assert synth_output(tmp_path, corpus) == golden.read_bytes()


def _run_cli_under_hash_seed(seed: str, argv: list[str]) -> None:
    """Run the CLI in a fresh interpreter whose string hashes use ``seed``."""
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "tvmood.cli", *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_csv_output_bytes_do_not_depend_on_hash_seed(tmp_path, command, seed):
    """No output may follow the hash order of a set of terms."""
    out = tmp_path / "out.csv"
    _run_cli_under_hash_seed(seed, [*CSV_COMMANDS[command], *sample_inputs(tmp_path), "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{command}_sample.csv").read_bytes()


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("nb", ["gaussian", "multinomial"])
def test_vsm_report_bytes_do_not_depend_on_hash_seed(tmp_path, nb, seed):
    out = tmp_path / "report"
    argv = ["evaluate", *sample_inputs(tmp_path), *EVALUATE_FLAGS["sample"], "--rep", "vsm"]
    _run_cli_under_hash_seed(seed, [*argv, "--nb", nb, "--out", str(out)])
    stem = GOLDEN / f"evaluate_sample_vsm_{nb}"
    assert (tmp_path / "report.json").read_bytes() == stem.with_suffix(".json").read_bytes()
    assert (tmp_path / "report.csv").read_bytes() == stem.with_suffix(".csv").read_bytes()
