"""Golden artifacts: the CLI pipeline reproduces committed outputs byte for byte.

A 3-per-type, 2-day corpus is synthesized from a spec file, then run through
features, train (10 trees), classify in both averaging modes, flag, the
percentage protocol on both schemes, and subset search. Every artifact is
compared with its copy under tests/golden/. The corpus itself is checked by
a digest, so a change in synth shows up as such and not as a forest change.

The golden files were written by the code that introduced this test. A
refactor that claims "same behaviour" must pass it without editing them. To
rewrite them after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from sensorclass.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
SPEC = {"name": "golden", "seed": 5, "traces_per_type": 3, "duration_s": 172800}

ARTIFACTS = [
    "features.csv",
    "model.json",
    "preds_paper.csv",
    "preds_standard.csv",
    "flags.csv",
    *[
        f"eval/{stem}_{scheme}.csv"
        for stem in ("accuracy", "predictions", "roc", "cdf")
        for scheme in ("rich8", "baseline2")
    ],
    "eval/accuracy.txt",
    "subsets/subset_search.csv",
]


def corpus_digest(corpus: Path) -> str:
    """sha256 over every corpus file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in corpus.rglob("*") if p.is_file()):
        h.update(path.relative_to(corpus).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pipeline(root: Path) -> Path:
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    corpus = root / "corpus"
    manifest = str(corpus / "manifest.csv")
    features = str(root / "features.csv")
    model = str(root / "model.json")
    steps = [
        ["synth", "--spec", str(spec), "--out", str(corpus)],
        ["features", "--manifest", manifest, "--out", features],
        ["train", "--features", features, "--trees", "10", "--out", model],
        ["classify", "--model", model, "--features", features, "--averaging", "paper",
         "--out", str(root / "preds_paper.csv")],
        ["classify", "--model", model, "--features", features, "--averaging", "standard",
         "--out", str(root / "preds_standard.csv")],
        ["flag", "--predictions", str(root / "preds_paper.csv"), "--manifest", manifest,
         "--out", str(root / "flags.csv")],
        ["eval", "--protocol", "percentage", "--manifest", manifest, "--scheme", "both",
         "--trees", "10", "--out-dir", str(root / "eval")],
        ["eval", "--protocol", "subset-search", "--manifest", manifest,
         "--out-dir", str(root / "subsets")],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    return root


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


def test_golden_corpus_digest(outputs):
    expected = (GOLDEN / "corpus.sha256").read_text().strip()
    assert corpus_digest(outputs / "corpus") == expected


@pytest.mark.parametrize("name", ARTIFACTS)
def test_golden_artifact_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def regenerate(scratch: Path) -> None:
    root = run_pipeline(scratch)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in ARTIFACTS:
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / name, GOLDEN / name)
    (GOLDEN / "corpus.sha256").write_text(corpus_digest(root / "corpus") + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print(f"rewrote {len(ARTIFACTS) + 1} files under {GOLDEN}", file=sys.stderr)
