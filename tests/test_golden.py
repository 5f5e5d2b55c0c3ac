"""Golden artifacts: the CLI pipeline reproduces committed outputs byte for byte.

A 3-per-type, 2-day corpus is synthesized from a spec file, then run through
features, train (10 trees), classify in both averaging modes, flag, every
eval protocol (percentage, loo and inter on both schemes, window-sweep with
and without a second corpus) and subset search. The second corpus, for inter
and the transfer window sweep, comes from the same spec with seed 6. Every
artifact is compared with its copy under tests/golden/. Each corpus is
checked by a digest, so a change in synth shows up as such and not as a
forest change. Every shipped preset is pinned the same way, by the digest
of a one-trace-per-type corpus built from `--preset`, from a spec file
naming the preset, and from two spec files that layer keys over one.

The golden files were written by the code that introduced this test. A
refactor that claims "same behaviour" must pass it without editing them. To
rewrite them after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff. It
rewrites every file under tests/golden/, the tree digest that
test_forest.py checks (grower.sha256) included.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from sensorclass.cli import EXIT_OK, main
from sensorclass.synth import PRESET_NAMES

GOLDEN = Path(__file__).parent / "golden"
SPEC = {"name": "golden", "seed": 5, "traces_per_type": 3, "duration_s": 172800}
SPEC_B = dict(SPEC, seed=6)
CORPORA = {"corpus": SPEC, "corpus_b": SPEC_B}

PRESET_SPEC = {"seed": 1, "traces_per_type": 1, "duration_s": 86400}
PRESET_CASES = {
    **{f"{name}-cli": ["--preset", name, "--seed", "1", "--traces-per-type", "1"]
       for name in PRESET_NAMES},
    **{f"{name}-spec": dict(PRESET_SPEC, preset=name) for name in PRESET_NAMES},
    "building-b-co2-shift": dict(PRESET_SPEC, preset="building-b",
                                 climate_shift={"co2": {"offset": 30.0, "scale": 1.5}}),
    "overlap-humidity-noise": dict(PRESET_SPEC, preset="overlap",
                                   profiles={"humidity": {"noise_std": 0.5}}),
}
PRESET_DIGESTS = GOLDEN / "presets.sha256"

SCHEME_EVAL_DIRS = ("eval", "loo", "inter")

ARTIFACTS = [
    "features.csv",
    "model.json",
    "preds_paper.csv",
    "preds_standard.csv",
    "flags.csv",
    *[
        f"{out}/{stem}_{scheme}.csv"
        for out in SCHEME_EVAL_DIRS
        for stem in ("accuracy", "predictions", "roc", "cdf")
        for scheme in ("rich8", "baseline2")
    ],
    *[f"{out}/accuracy.txt" for out in SCHEME_EVAL_DIRS],
    "sweep/window_sweep.csv",
    "sweep_b/window_sweep.csv",
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
    steps = []
    for name, spec in CORPORA.items():
        spec_file = root / f"{name}_spec.json"
        spec_file.write_text(json.dumps(spec))
        steps.append(["synth", "--spec", str(spec_file), "--out", str(root / name)])
    manifest = str(root / "corpus" / "manifest.csv")
    manifest_b = str(root / "corpus_b" / "manifest.csv")
    features = str(root / "features.csv")
    model = str(root / "model.json")
    steps += [
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
        ["eval", "--protocol", "loo", "--manifest", manifest, "--scheme", "both",
         "--trees", "10", "--out-dir", str(root / "loo")],
        ["eval", "--protocol", "inter", "--manifest", manifest, "--manifest-b", manifest_b,
         "--scheme", "both", "--fractions", "0.2,1.0,0.5", "--trees", "10",
         "--out-dir", str(root / "inter")],
        ["eval", "--protocol", "window-sweep", "--manifest", manifest, "--windows", "30,45,60",
         "--trees", "10", "--out-dir", str(root / "sweep")],
        ["eval", "--protocol", "window-sweep", "--manifest", manifest, "--manifest-b", manifest_b,
         "--windows", "30,45,60", "--trees", "10", "--out-dir", str(root / "sweep_b")],
        ["eval", "--protocol", "subset-search", "--manifest", manifest,
         "--out-dir", str(root / "subsets")],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    return root


def synth_preset_case(root: Path, case: str) -> Path:
    """Synthesize one PRESET_CASES corpus under root; return its directory."""
    flags = PRESET_CASES[case]
    if isinstance(flags, dict):
        spec_file = root / f"{case}_spec.json"
        spec_file.write_text(json.dumps(flags))
        flags = ["--spec", str(spec_file)]
    out = root / case
    assert main(["synth", *flags, "--out", str(out)]) == EXIT_OK, case
    return out


def preset_digests() -> dict[str, str]:
    lines = PRESET_DIGESTS.read_text().splitlines()
    return {case: digest for digest, case in (line.split() for line in lines)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


def check_corpus_digest(outputs: Path, name: str) -> None:
    expected = (GOLDEN / f"{name}.sha256").read_text().strip()
    assert corpus_digest(outputs / name) == expected


def test_golden_corpus_digest(outputs):
    check_corpus_digest(outputs, "corpus")


def test_golden_corpus_b_digest(outputs):
    check_corpus_digest(outputs, "corpus_b")


@pytest.mark.parametrize("case", PRESET_CASES)
def test_golden_preset_digest(tmp_path, case):
    assert corpus_digest(synth_preset_case(tmp_path, case)) == preset_digests()[case]


@pytest.mark.parametrize("name", ARTIFACTS)
def test_golden_artifact_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def regenerate(scratch: Path) -> None:
    from test_forest import GROWER_DIGEST, grower_digest  # only the regenerator needs them

    root = run_pipeline(scratch)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in ARTIFACTS:
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / name, GOLDEN / name)
    for name in CORPORA:
        (GOLDEN / f"{name}.sha256").write_text(corpus_digest(root / name) + "\n")
    PRESET_DIGESTS.write_text("".join(
        f"{corpus_digest(synth_preset_case(scratch, case))}  {case}\n" for case in PRESET_CASES
    ))
    GROWER_DIGEST.write_text(grower_digest() + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print(f"rewrote {len(ARTIFACTS) + len(CORPORA) + 2} files under {GOLDEN}", file=sys.stderr)
