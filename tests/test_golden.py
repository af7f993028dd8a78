"""Golden outputs: the exact bytes ``evaluate`` writes.

Each case runs the CLI on fixed inputs and compares the JSON and CSV
reports byte for byte with the files in ``tests/golden/``. Refactors and
performance changes must keep these bytes; a change that means to alter
them replaces the golden files and says why.
"""

from __future__ import annotations

import json
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


def sample_inputs(tmp_path: Path) -> list[str]:
    return [
        "--lexicon", str(SAMPLE / "lexicon.csv"),
        "--corpus", str(SAMPLE / "corpus.jsonl"),
        "--format", "text",
        "--folds", "2",
        "--min-genre-support", "1",
    ]


def synth_inputs(tmp_path: Path) -> list[str]:
    lexicon = tmp_path / "lexicon.csv"
    lexicon.write_text(synth_lexicon_text(), encoding="utf-8")
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps(SYNTH_PROFILES), encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    code = main(
        [
            "synth", "--lexicon", str(lexicon), "--profiles", str(profiles),
            "--out", str(corpus), "--seed", "5",
        ]
    )
    assert code == 0
    return [
        "--lexicon", str(lexicon),
        "--corpus", str(corpus),
        "--format", "counts",
        "--folds", "3",
        "--seed", "11",
    ]


INPUTS = {"sample": sample_inputs, "synth": synth_inputs}


def evaluate_reports(tmp_path: Path, corpus: str, rep: str, nb: str) -> tuple[bytes, bytes]:
    """Run ``evaluate`` on one golden case; return the JSON and CSV bytes."""
    out = tmp_path / "report"
    argv = ["evaluate", *INPUTS[corpus](tmp_path), "--rep", rep, "--nb", nb, "--out", str(out)]
    assert main(argv) == 0
    return (tmp_path / "report.json").read_bytes(), (tmp_path / "report.csv").read_bytes()


@pytest.mark.parametrize("rep,nb", VARIANTS)
@pytest.mark.parametrize("corpus", sorted(INPUTS))
def test_evaluate_report_bytes(tmp_path, corpus, rep, nb):
    report_json, report_csv = evaluate_reports(tmp_path, corpus, rep, nb)
    stem = GOLDEN / f"evaluate_{corpus}_{rep}_{nb}"
    assert report_json == stem.with_suffix(".json").read_bytes()
    assert report_csv == stem.with_suffix(".csv").read_bytes()
