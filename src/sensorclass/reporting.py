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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .features import schema_length
from .trace import CLASS_LABELS, SensorType, read_trace_csv, read_utf8
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


def read_csv(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata, header, rows) of an artifact CSV."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    text = read_utf8(Path(path)).decode("utf-8")
    with io.StringIO(text, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k.strip()] = v
                continue
            # hand the rest to the csv reader
            rest = [line] + list(fh)
            reader = csv.reader(rest)
            parsed = [row for row in reader if row]
            if not parsed:
                break
            header = parsed[0]
            rows = parsed[1:]
            break
    if not header:
        raise DataError(f"{path}: no header row found")
    return meta, header, rows


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
    """Entries as written, paths still relative; header, row length and labels checked."""
    meta, header, rows = read_csv(path)
    if header != MANIFEST_HEADER:
        raise DataError(f"{path}: expected header {MANIFEST_HEADER}, got {header}")
    out = []
    for row in rows:
        if len(row) != 3:
            raise DataError(f"{path}: bad manifest row {row!r}")
        tid, rel, lab = row
        out.append((tid, rel, SensorType.from_label(lab) if lab else None))
    return out, meta


def read_manifest(
    path: str | Path,
) -> tuple[list[tuple[str, Path, SensorType | None]], dict[str, str]]:
    """Entries with paths resolved against the manifest's directory."""
    path = Path(path)
    entries, meta = parse_manifest(path)
    return [(tid, (path.parent / rel).resolve(), lab) for tid, rel, lab in entries], meta


def load_manifest_traces(path: str | Path):
    """Read every trace a manifest points at. Returns list[SensorTrace]."""
    entries, _ = read_manifest(path)
    return [read_trace_csv(p, trace_id=tid, label=lab) for tid, p, lab in entries]


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
    meta, header, rows = read_csv(path)
    if "schema" not in meta:
        raise DataError(f"{path}: feature matrix is missing its schema metadata line")
    schema = meta["schema"]
    d = schema_length(schema)
    if header[:2] != ["trace_id", "label"] or len(header) != 2 + d:
        raise DataError(f"{path}: expected trace_id,label,f0..f{d - 1} header, got {header}")
    ids, labels, feats = [], [], []
    for row in rows:
        if len(row) != 2 + d:
            raise DataError(f"{path}: row {row[0]!r} has {len(row)} cells, expected {2 + d}")
        ids.append(row[0])
        labels.append(SensorType.from_label(row[1]) if row[1] else None)
        try:
            feats.append([float(x) for x in row[2:]])
        except ValueError:
            raise DataError(f"{path}: non-numeric feature in row for {row[0]!r}") from None
    return ids, labels, np.asarray(feats, dtype=float).reshape(len(rows), d), schema, meta


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
    meta, header, rows = read_csv(path)
    if header != PREDICTION_HEADER:
        raise DataError(f"{path}: expected predictions header {PREDICTION_HEADER}")
    out = []
    for row in rows:
        tid = row[0]
        predicted = SensorType.from_label(row[1])
        probs = np.array([float(x) for x in row[2:-1]])
        out.append(Prediction(tid, predicted, probs, float(row[-1])))
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
