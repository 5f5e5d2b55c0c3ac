"""Fuzz gate: a corrupted input file ends in an exit code, never a traceback.

Copies of the golden feature matrix, model and predictions, and of the
manifest of a small synthesized corpus, are mutated (a flipped byte, a
truncation, a dropped or repeated line, or one cell set to nan, 1e309, ""
or subset:zz) and handed to the commands that read them, in process
through cli.main. Each run must return 0, 2, 3 or 4; any exception fails.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorclass.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_UNDEFINED, main

GOLDEN = Path(__file__).parent / "golden"
SPEC = {"name": "fuzz", "seed": 5, "traces_per_type": 1, "duration_s": 86400}
CELL_VALUES = (b"nan", b"1e309", b"", b"subset:zz")
CELL = re.compile(rb'[^,\s"=\[\]{}]+')  # a CSV cell, a metadata value or a JSON scalar
HEAD_LINES = 24  # metadata, header and the model's config live at the top of a file


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["synth", "--spec", str(spec), "--out", str(root / "corpus")]) == EXIT_OK
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
    }[artifact]


def source(artifact: str, work: Path) -> Path:
    return {
        "features": GOLDEN / "features.csv",
        "model": GOLDEN / "model.json",
        "predictions": GOLDEN / "preds_paper.csv",
        "manifest": work / "corpus" / "manifest.csv",
    }[artifact]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(["flip", "truncate", "drop", "repeat", "cell"]))
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


@pytest.mark.parametrize("artifact", ["features", "model", "predictions", "manifest"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_input_exits_cleanly(work, artifact, data):
    original = source(artifact, work)
    path = work / "corpus" / f"fuzzed{original.suffix}"  # where manifest paths resolve
    path.write_bytes(data.draw(mutated(original.read_bytes())))
    for argv in commands(artifact, path, work):
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_UNDEFINED), argv
