"""Fuzz gate: a corrupted input file ends in an exit code, never a traceback.

Copies of the golden feature matrix, model and predictions, of the manifest
and of one trace file of a small synthesized corpus, of a corpus spec and
of a relabel answers file are mutated (a flipped byte, a truncation, a
dropped or repeated line, one cell or JSON scalar set to nan, NaN, 1e309,
-1, 0, null, true, "" or subset:zz, or one number set to 1e12 or 1e15,
such as a timestamp decades or millennia away or an event rate of a
trillion a day) and handed to the commands that read them, in process
through cli.main. A spec is configuration, so synth must exit 0 or 2;
features on a corrupted trace must exit 0 or 3, relabel 0, 2 or 3, and
the other commands 0, 2, 3 or 4. Any exception fails.

The number of examples per file comes from the hypothesis profile (see
conftest.py): 40 by default, 1,000 with --hypothesis-profile=deep.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorclass.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_UNDEFINED, main

GOLDEN = Path(__file__).parent / "golden"
SPEC = {"name": "fuzz", "seed": 5, "traces_per_type": 1, "duration_s": 86400}
# One day and one trace per type, so no single mutation makes synth slow.
FUZZ_SPEC = dict(
    SPEC,
    preset="overlap",
    interval_s=60.0,
    climate_shift={"co2": {"offset": 60.0, "scale": 1.15}, "air_volume": {"scale": 1.1}},
    profiles={
        "co2": {"burst_rate_per_day": 5.0},
        "setpoint": {"step_rate_per_day": 2.0, "step_levels": [55.0, 58.0, 61.0]},
        "air_volume": {"high_level": 1100.0, "switch_rate_per_day": 4.0, "clamp": [0.0, 1600.0]},
        "other_temp": {"band_split": True, "high_level": None, "period_days": 1.5},
    },
)
ANSWERS = "\nkeep\nhumidity\nco2\ny\nq\n"
CELL_VALUES = (b"nan", b"NaN", b"1e309", b"-1", b"0", b"null", b"true", b"", b"subset:zz")
CELL = re.compile(rb'[^,\s"=\[\]{}]+')  # a CSV cell, a metadata value or a JSON scalar
NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
HUGE_VALUES = (b"1e12", b"1e15")
HEAD_LINES = 24  # metadata, header and the model's config live at the top of a file
ANY_EXIT = (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_UNDEFINED)
EXITS = {
    "spec": (EXIT_OK, EXIT_CONFIG),
    "answers": (EXIT_OK, EXIT_CONFIG, EXIT_DATA),
    "trace": (EXIT_OK, EXIT_DATA),
}
FUZZED_TRACE = "fuzz-co2-000"  # the trace whose file is mutated


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["synth", "--spec", str(spec), "--out", str(root / "corpus")]) == EXIT_OK
    (root / "fuzz_spec.json").write_text(json.dumps(FUZZ_SPEC, indent=1) + "\n")
    (root / "answers.txt").write_text(ANSWERS)
    steps = [
        ["features", "--manifest", str(root / "corpus" / "manifest.csv"),
         "--out", str(root / "features.csv")],
        ["train", "--features", str(root / "features.csv"), "--trees", "2",
         "--out", str(root / "model.json")],
        ["classify", "--model", str(root / "model.json"), "--features",
         str(root / "features.csv"), "--out", str(root / "preds.csv")],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    # the corpus manifest, with the fuzzed file in place of one trace's
    manifest = (root / "corpus" / "manifest.csv").read_text()
    assert f"traces/{FUZZED_TRACE}.csv" in manifest
    (root / "corpus" / "trace_manifest.csv").write_text(
        manifest.replace(f"traces/{FUZZED_TRACE}.csv", "fuzzed.csv"))
    return root


def commands(artifact: str, path: Path, work: Path) -> list[list[str]]:
    """The CLI runs that read the artifact at path."""
    out = str(work / "out")
    return {
        "features": [
            ["train", "--features", str(path), "--trees", "2", "--out", out],
            ["classify", "--model", str(GOLDEN / "model.json"), "--features", str(path),
             "--out", out],
        ],
        "model": [["classify", "--model", str(path), "--features", str(GOLDEN / "features.csv"),
                   "--out", out]],
        "predictions": [["flag", "--predictions", str(path), "--out", out]],
        "manifest": [["features", "--manifest", str(path), "--out", out]],
        "trace": [["features", "--manifest", str(work / "corpus" / "trace_manifest.csv"),
                   "--out", out]],
        "spec": [["synth", "--spec", str(path), "--out", str(work / "out_corpus")]],
        "answers": [["relabel", "--predictions", str(work / "preds.csv"),
                     "--manifest", str(work / "corpus" / "manifest.csv"),
                     "--features", str(work / "features.csv"), "--model", str(work / "model.json"),
                     "--answers", str(path), "--out-manifest", out,
                     "--out-model", str(work / "out_model")]],
    }[artifact]


def source(artifact: str, work: Path) -> Path:
    return {
        "features": GOLDEN / "features.csv",
        "model": GOLDEN / "model.json",
        "predictions": GOLDEN / "preds_paper.csv",
        "manifest": work / "corpus" / "manifest.csv",
        "trace": work / "corpus" / "traces" / f"{FUZZED_TRACE}.csv",
        "spec": work / "fuzz_spec.json",
        "answers": work / "answers.txt",
    }[artifact]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(["flip", "truncate", "drop", "repeat", "cell", "huge"]))
    if kind == "huge":
        numbers = list(NUMBER.finditer(data))
        if not numbers:
            return data
        m = draw(st.sampled_from(numbers))
        return data[:m.start()] + draw(st.sampled_from(HUGE_VALUES)) + data[m.end():]
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    # half the line picks go to the head of the file, where one cell can change every row
    i = draw(st.integers(0, min(len(lines), HEAD_LINES) - 1) | st.integers(0, len(lines) - 1))
    if kind == "cell":
        line = lines[i]
        value_at = line.index(b"=") + 1 if line.startswith(b"# ") and b"=" in line else 0
        cells = list(CELL.finditer(line, value_at))  # of a "# key=value" line, its value only
        if not cells:
            return data
        m = draw(st.sampled_from(cells))
        line = line[:m.start()] + draw(st.sampled_from(CELL_VALUES)) + line[m.end():]
        return b"".join(lines[:i] + [line] + lines[i + 1:])
    if kind == "drop":
        return b"".join(lines[:i] + lines[i + 1:])
    return b"".join(lines[:i + 1] + lines[i:])  # line i twice


@pytest.mark.parametrize(
    "artifact", ["features", "model", "predictions", "manifest", "trace", "spec", "answers"]
)
@given(data=st.data())
def test_corrupted_input_exits_cleanly(work, artifact, data):
    original = source(artifact, work)
    path = work / "corpus" / f"fuzzed{original.suffix}"  # where manifest paths resolve
    path.write_bytes(data.draw(mutated(original.read_bytes())))
    for argv in commands(artifact, path, work):
        assert main(argv) in EXITS.get(artifact, ANY_EXIT), argv
