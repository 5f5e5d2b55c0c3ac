"""CSV artifact formats shared by the CLI and the evaluation code.

Every artifact this package writes is a CSV whose first lines are
`# key=value` metadata: the resolved run configuration and the tool
version travel with the data. Readers skip those lines; writers emit keys
sorted, floats through repr. Identical inputs therefore produce
byte-identical artifacts, which the test suite relies on.

Formats:

* manifest:        trace_id,path,label      (label may be empty; paths are
                                             relative to the manifest file)
* feature matrix:  trace_id,label,f0..fN    (schema recorded in metadata)
* predictions:     trace_id,predicted,p_<type>...,entropy
* flag report:     trace_id,predicted,entropy,flagged
* roc curve:       threshold,tpr,fpr,ppv    (undefined cells left empty)
* entropy cdf:     group,entropy,cum_prob
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError
from .features import schema_length
from .trace import CLASS_LABELS, SensorTrace, SensorType, read_trace_csv, read_utf8
from .uncertainty import FlagReport, Prediction

META_PREFIX = "# "


def fmt(value) -> str:
    """Canonical cell text: repr for floats, '' for None/undefined."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    meta: Mapping[str, object] | None = None,
) -> None:
    with open(path, "w", newline="") as fh:
        for key in sorted(meta or {}):
            fh.write(f"{META_PREFIX}{key}={fmt(meta[key])}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def _read_table(path: str | Path) -> tuple[dict[str, str], list[str], list[tuple[int, list[str]]]]:
    """(metadata, header, (line number, cells) of each row) of an artifact CSV."""
    meta: dict[str, str] = {}
    lines = io.StringIO(read_utf8(Path(path)).decode("utf-8"), newline="").readlines()
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        body = lines[start][1:].strip()
        if "=" in body:
            k, v = body.split("=", 1)
            meta[k.strip()] = v
        start += 1
    reader = csv.reader(lines[start:])
    try:
        rows = [(start + reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"{path}, line {start + reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no header row found")
    return meta, rows[0][1], rows[1:]


def read_rows(
    path: str | Path,
    header: Sequence[str] | Callable[[dict[str, str]], Sequence[str]],
    text_cells: int,
) -> tuple[dict[str, str], list[tuple[list[str], list[float]]]]:
    """(metadata, rows) of an artifact CSV keyed by the id in its first column.

    The header must equal `header`, or header(metadata). Each row becomes
    (its first text_cells cells, the rest parsed as floats). Raises
    DataError naming the file and line of the first row with a wrong cell
    count, a cell that is not a finite number, or an id seen before.
    """
    meta, found, rows = _read_table(path)
    expected = list(header(meta) if callable(header) else header)
    if found != expected:
        raise DataError(f"{path}: expected header {expected}, got {found}")
    out = []
    first_line: dict[str, int] = {}
    for line, row in rows:
        where = f"{path}, line {line}"
        if len(row) != len(expected):
            raise DataError(f"{where}: {len(row)} cells, expected {len(expected)}")
        if row[0] in first_line:
            raise DataError(f"{where}: id {row[0]!r} repeats line {first_line[row[0]]}")
        first_line[row[0]] = line
        try:
            numbers = [float(cell) for cell in row[text_cells:]]
        except ValueError:
            raise DataError(f"{where}: non-numeric cell in {row!r}") from None
        if not all(map(math.isfinite, numbers)):
            raise DataError(f"{where}: non-finite number in {row!r}")
        out.append((row[:text_cells], numbers))
    return meta, out


# --- manifest ----------------------------------------------------------------

MANIFEST_HEADER = ["trace_id", "path", "label"]


def write_manifest(
    path: str | Path,
    entries: Sequence[tuple[str, str, SensorType | None]],
    meta: Mapping[str, object] | None = None,
) -> None:
    rows = [(tid, p, lab.label if lab is not None else "") for tid, p, lab in entries]
    write_csv(path, MANIFEST_HEADER, rows, meta)


def parse_manifest(
    path: str | Path,
) -> tuple[list[tuple[str, str, SensorType | None]], dict[str, str]]:
    """Entries as written, paths still relative; header, rows, ids and labels checked."""
    meta, rows = read_rows(path, MANIFEST_HEADER, 3)
    out = [(tid, rel, SensorType.from_label(lab) if lab else None) for (tid, rel, lab), _ in rows]
    return out, meta


def read_manifest(
    path: str | Path,
) -> tuple[list[tuple[str, Path, SensorType | None]], dict[str, str]]:
    """Entries with paths resolved against the manifest's directory."""
    path = Path(path)
    entries, meta = parse_manifest(path)
    for tid, rel, _ in entries:
        if "\0" in rel:  # Path.resolve raises ValueError on it
            raise DataError(f"{path}: trace {tid!r}: file path holds a NUL byte")
    return [(tid, (path.parent / rel).resolve(), lab) for tid, rel, lab in entries], meta


class ManifestTraces(Iterator[SensorTrace]):
    """The traces of some manifest entries, in entry order, one at a time.

    Each trace file is read when the iterator reaches it, and nothing here
    keeps a trace once it has been handed out. `entries` holds every
    (trace id, resolved path, label) the iterator reads, so a contiguous
    run of them makes another ManifestTraces for a worker to read.
    """

    def __init__(self, entries: Sequence[tuple[str, Path, SensorType | None]]):
        self.entries = entries
        self._traces = (read_trace_csv(p, trace_id=tid, label=lab) for tid, p, lab in entries)

    def __next__(self) -> SensorTrace:
        return next(self._traces)


def load_manifest_traces(path: str | Path) -> ManifestTraces:
    """The traces a manifest points at, in manifest order, one at a time.

    The manifest is read and checked now, so its errors come before any
    trace file is opened, and a manifest that lists no traces is a data
    error. Each trace file is read when the iterator reaches it.
    """
    entries, _ = read_manifest(path)
    if not entries:
        raise DataError(f"{path}: lists no traces")
    return ManifestTraces(entries)


# --- feature matrix -----------------------------------------------------------


def write_feature_matrix(
    path: str | Path,
    ids: Sequence[str],
    labels: Sequence[SensorType | None],
    features: np.ndarray,
    schema: str,
    meta: Mapping[str, object] | None = None,
) -> None:
    d = features.shape[1]
    header = ["trace_id", "label"] + [f"f{i}" for i in range(d)]
    rows = []
    for tid, lab, vec in zip(ids, labels, features):
        rows.append([tid, lab.label if lab is not None else ""] + [float(v) for v in vec])
    full_meta = dict(meta or {})
    full_meta["schema"] = schema
    write_csv(path, header, rows, full_meta)


def read_feature_matrix(
    path: str | Path,
) -> tuple[list[str], list[SensorType | None], np.ndarray, str, dict[str, str]]:
    def header(meta: dict[str, str]) -> list[str]:
        if "schema" not in meta:
            raise DataError(f"{path}: feature matrix is missing its schema metadata line")
        return ["trace_id", "label"] + [f"f{i}" for i in range(schema_length(meta["schema"]))]

    meta, rows = read_rows(path, header, 2)
    schema = meta["schema"]
    ids = [tid for (tid, _), _ in rows]
    labels = [SensorType.from_label(lab) if lab else None for (_, lab), _ in rows]
    feats = np.array([values for _, values in rows], dtype=float)
    return ids, labels, feats.reshape(len(rows), schema_length(schema)), schema, meta


# --- predictions ---------------------------------------------------------------

PREDICTION_HEADER = ["trace_id", "predicted"] + [f"p_{lab}" for lab in CLASS_LABELS] + ["entropy"]


def write_predictions(
    path: str | Path,
    predictions: Sequence[Prediction],
    meta: Mapping[str, object] | None = None,
) -> None:
    rows = []
    for p in predictions:
        rows.append([p.trace_id, p.predicted.label] + [float(x) for x in p.probs] + [p.entropy])
    write_csv(path, PREDICTION_HEADER, rows, meta)


def read_predictions(
    path: str | Path,
) -> tuple[list[Prediction], dict[str, str]]:
    meta, rows = read_rows(path, PREDICTION_HEADER, 2)
    out = [
        Prediction(tid, SensorType.from_label(predicted), np.array(numbers[:-1]), numbers[-1])
        for (tid, predicted), numbers in rows
    ]
    return out, meta


# --- flag report / roc / cdf ---------------------------------------------------

FLAG_HEADER = ["trace_id", "predicted", "entropy", "flagged"]


def write_flag_report(
    path: str | Path,
    predictions: Sequence[Prediction],
    report: FlagReport,
    meta: Mapping[str, object] | None = None,
) -> None:
    full_meta = dict(meta or {})
    full_meta["threshold"] = report.threshold
    for name in ("tpr", "fpr", "ppv"):
        value = getattr(report, name)
        full_meta[name] = "undefined" if value is None else value
    rows = [
        [p.trace_id, p.predicted.label, p.entropy, int(p.trace_id in report.flagged)]
        for p in predictions
    ]
    write_csv(path, FLAG_HEADER, rows, full_meta)


def write_roc(path: str | Path, points, meta: Mapping[str, object] | None = None) -> None:
    rows = [[p.threshold, p.tpr, p.fpr, p.ppv] for p in points]
    write_csv(path, ["threshold", "tpr", "fpr", "ppv"], rows, meta)


def write_cdf(
    path: str | Path,
    curves: Mapping[str, Sequence[tuple[float, float]]],
    meta: Mapping[str, object] | None = None,
) -> None:
    rows = []
    for group in sorted(curves):
        for entropy, cum in curves[group]:
            rows.append([group, entropy, cum])
    write_csv(path, ["group", "entropy", "cum_prob"], rows, meta)
