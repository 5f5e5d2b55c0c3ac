"""Output checks, computed apart from the program.

Each check reads artifacts with this file's own CSV reader and compares them
against an independent recomputation (trace CSVs parsed with np.loadtxt, the
benchmark's own window grid and statistics, its own ID3 tree) or against
properties the method must have (posteriors sum to 1, entropy is -sum p ln p,
flag metrics follow from the labels). Nothing is compared against a stored
copy of earlier output.

A check returns None when it passes and a one-line reason when it fails.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# The artifact formats name classes and rich8 entries; these are the names the
# README and the file headers use, in vector order.
CLASSES = ("co2", "humidity", "room_temp", "setpoint", "air_volume", "other_temp")
RICH8_NAMES = ("min_wmed", "max_wmed", "med_wmed", "var_wmed",
               "min_wvar", "max_wvar", "med_wvar", "var_wvar")

FEATURE_RTOL = 1e-9
FEATURE_ATOL = 1e-12
PROB_TOL = 1e-9
ROC_GRID_POINTS = 37
TRANSFER_FLOOR = 0.70  # acceptance criterion 6
LOO_FLOOR = 0.90  # acceptance criterion 4


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_artifact(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata, header, rows) of a `# key=value`-prefixed CSV."""
    meta: dict[str, str] = {}
    body: list[str] = []
    with open(path, newline="") as fh:
        for line in fh:
            if not body and line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
            else:
                body.append(line)
    rows = [r for r in csv.reader(body) if r]
    _require(bool(rows), f"{path.name}: no header")
    return meta, rows[0], rows[1:]


def read_manifest(path: Path) -> list[tuple[str, Path, str]]:
    _, header, rows = read_artifact(path)
    _require(header == ["trace_id", "path", "label"], f"{path.name}: bad manifest header")
    return [(tid, path.parent / rel, label) for tid, rel, label in rows]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _undefined_or(cell: str) -> float | None:
    return None if cell in ("", "undefined") else float(cell)


def _same_metric(cell: str, expected: float | None) -> bool:
    got = _undefined_or(cell)
    if expected is None or got is None:
        return got is None and expected is None
    return _close(got, expected, 1e-12)


# --- features -----------------------------------------------------------------


def _pvar(block: np.ndarray) -> np.ndarray:
    return block.var(axis=-1)


def recompute_rich8(trace_csv: Path, window_len: float) -> np.ndarray:
    """The eight windowed statistics of one trace file."""
    data = np.loadtxt(trace_csv, delimiter=",", skiprows=1, comments="#", ndmin=2)
    order = np.argsort(data[:, 0], kind="stable")
    ts, vs = data[order, 0], data[order, 1]
    last = np.append(ts[1:] != ts[:-1], True)  # last write of a timestamp wins
    ts, vs = ts[last], vs[last]
    k = int((ts[-1] - ts[0]) // window_len)
    _require(k >= 1, f"{trace_csv.name}: shorter than one window")
    bounds = np.searchsorted(ts, ts[0] + np.arange(k + 1) * window_len, side="left")
    lo, size = bounds[:-1], np.diff(bounds)
    med, var = np.empty(k), np.empty(k)
    # windows of equal sample count are stacked and reduced together
    for n in np.unique(size[size > 0]):
        sel = np.nonzero(size == n)[0]
        block = vs[lo[sel, None] + np.arange(n)]
        med[sel] = np.median(block, axis=1)
        var[sel] = _pvar(block)
    med, var = med[size > 0], var[size > 0]
    return np.array([med.min(), med.max(), np.median(med), _pvar(med),
                     var.min(), var.max(), np.median(var), _pvar(var)])


def read_features(path: Path) -> tuple[list[str], list[str], np.ndarray, dict[str, str]]:
    meta, header, rows = read_artifact(path)
    _require(header[:2] == ["trace_id", "label"], f"{path.name}: bad header")
    ids = [r[0] for r in rows]
    labels = [r[1] for r in rows]
    return ids, labels, np.array([[float(x) for x in r[2:]] for r in rows]), meta


def check_features(features_csv: Path, manifest: Path, window_len: float) -> None:
    """Every rich8 row matches a recomputation from the trace CSV."""
    ids, labels, feats, meta = read_features(features_csv)
    entries = read_manifest(manifest)
    _require(meta.get("schema") == "rich8", f"{features_csv.name}: schema is not rich8")
    _require(ids == [e[0] for e in entries], f"{features_csv.name}: ids differ from manifest")
    _require(labels == [e[2] for e in entries], f"{features_csv.name}: labels differ from manifest")
    _require(feats.shape == (len(entries), 8), f"{features_csv.name}: shape {feats.shape}")
    for row, (tid, trace_csv, _) in zip(feats, entries):
        want = recompute_rich8(trace_csv, window_len)
        for j in range(8):
            _require(_close(row[j], want[j], FEATURE_RTOL, FEATURE_ATOL),
                     f"{features_csv.name}: {tid} {RICH8_NAMES[j]} {float(row[j])!r} != {float(want[j])!r}")


# --- predictions and flags ------------------------------------------------------


def read_predictions(path: Path) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    _, header, rows = read_artifact(path)
    _require(header == ["trace_id", "predicted"] + [f"p_{c}" for c in CLASSES] + ["entropy"],
             f"{path.name}: bad predictions header")
    ids = [r[0] for r in rows]
    predicted = [r[1] for r in rows]
    probs = np.array([[float(x) for x in r[2:-1]] for r in rows])
    entropy = np.array([float(r[-1]) for r in rows])
    return ids, predicted, probs, entropy


def check_posteriors(path: Path) -> None:
    """Non-negative posteriors summing to 1, first-argmax labels, -sum p ln p."""
    ids, predicted, probs, entropy = read_predictions(path)
    _require(len(ids) > 0, f"{path.name}: no rows")
    for tid, pred, p, h in zip(ids, predicted, probs, entropy):
        _require((p >= 0).all(), f"{path.name}: {tid} has a negative probability")
        _require(abs(p.sum() - 1.0) <= PROB_TOL, f"{path.name}: {tid} sums to {p.sum()!r}")
        _require(pred == CLASSES[int(np.argmax(p))], f"{path.name}: {tid} predicted {pred}, "
                 f"argmax is {CLASSES[int(np.argmax(p))]}")
        nz = p[p > 0]
        want = float(-(nz * np.log(nz)).sum())
        _require(_close(h, want, PROB_TOL, 1e-12), f"{path.name}: {tid} entropy {h!r} != {want!r}")


def _correctness(path: Path, manifest: Path) -> tuple[list[str], list[bool], np.ndarray, dict[str, str]]:
    ids, predicted, _, entropy = read_predictions(path)
    truth = {tid: label for tid, _, label in read_manifest(manifest)}
    _require(all(truth.get(t) for t in ids), f"{path.name}: rows without a manifest label")
    return ids, [p == truth[t] for t, p in zip(ids, predicted)], entropy, truth


def _flag_metrics(flagged: np.ndarray, ok: np.ndarray) -> tuple[float | None, ...]:
    wrong, right = ~ok, ok
    s2 = int((flagged & wrong).sum())
    s3 = int((flagged & right).sum())
    s1 = int(flagged.sum())
    return (s2 / int(wrong.sum()) if wrong.any() else None,
            s3 / int(right.sum()) if right.any() else None,
            s2 / s1 if s1 else None)


def check_transfer_accuracy(predictions: Path, manifest: Path) -> None:
    _, ok, _, _ = _correctness(predictions, manifest)
    acc = sum(ok) / len(ok)
    _require(acc >= TRANSFER_FLOOR, f"fleet accuracy {acc:.3f} < {TRANSFER_FLOOR}")


def check_flags(flags_csv: Path, predictions: Path, manifest: Path, threshold: float) -> None:
    """Flagged rows are exactly those above the threshold; tpr/fpr/ppv recomputed."""
    ids, ok, entropy, _ = _correctness(predictions, manifest)
    meta, header, rows = read_artifact(flags_csv)
    _require(header == ["trace_id", "predicted", "entropy", "flagged"], "flags: bad header")
    _require([r[0] for r in rows] == ids, "flags: ids differ from predictions")
    _require(float(meta["threshold"]) == threshold, f"flags: threshold {meta['threshold']}")
    flagged = np.array([r[3] == "1" for r in rows])
    _require(all(float(r[2]) == h for r, h in zip(rows, entropy)), "flags: entropy differs")
    _require((flagged == (entropy > threshold)).all(), "flags: flagged set is not entropy > threshold")
    for name, want in zip(("tpr", "fpr", "ppv"), _flag_metrics(flagged, np.array(ok))):
        _require(_same_metric(meta[name], want), f"flags: {name}={meta[name]} expected {want}")


# --- eval percentage -------------------------------------------------------------


def _repeats(column: str) -> int:
    if column == "loo":
        return 1
    return int(math.floor(100.0 / float(column.rstrip("%")) + 0.5))


def check_loo_column(eval_dir: Path, manifest: Path, scheme: str) -> None:
    """The loo column is the share of correct rows, overall and per class."""
    ids, ok, _, truth = _correctness(eval_dir / f"predictions_{scheme}.csv", manifest)
    _require(sorted(ids) == sorted(truth), f"{scheme}: LOO does not predict every trace once")
    _, header, rows = read_artifact(eval_dir / f"accuracy_{scheme}.csv")
    col = header.index("loo")
    table = {r[0]: r[col] for r in rows}
    for cls in CLASSES + ("overall",):
        sel = [o for t, o in zip(ids, ok) if cls == "overall" or truth[t] == cls]
        want = sum(sel) / len(sel) if sel else None
        _require(_same_metric(table[cls], want), f"{scheme}: loo {cls}={table[cls]} expected {want}")
    if scheme == "rich8":
        acc = sum(ok) / len(ok)
        _require(acc >= LOO_FLOOR, f"rich8 LOO accuracy {acc:.3f} < {LOO_FLOOR}")


def check_roc(eval_dir: Path, manifest: Path, scheme: str) -> None:
    """Every ROC row follows from the LOO predictions at its threshold."""
    _, ok, entropy, _ = _correctness(eval_dir / f"predictions_{scheme}.csv", manifest)
    _, header, rows = read_artifact(eval_dir / f"roc_{scheme}.csv")
    _require(header == ["threshold", "tpr", "fpr", "ppv"], f"roc_{scheme}: bad header")
    _require(len(rows) == ROC_GRID_POINTS, f"roc_{scheme}: {len(rows)} rows")
    thresholds = [float(r[0]) for r in rows]
    _require(thresholds == sorted(thresholds), f"roc_{scheme}: thresholds not sorted")
    _require(thresholds[0] == 0.0 and _close(thresholds[-1], math.log(len(CLASSES)), 1e-11),
             f"roc_{scheme}: grid does not span 0..ln 6")
    for row in rows:
        flagged = entropy > float(row[0])
        for name, cell, want in zip(("tpr", "fpr", "ppv"), row[1:], _flag_metrics(flagged, np.array(ok))):
            _require(_same_metric(cell, want), f"roc_{scheme}: {name} at {row[0]} is {cell}, expected {want}")


def check_repeats(eval_dir: Path, scheme: str) -> None:
    """Each fraction column ran round(1/f) repeats; the loo column one."""
    meta, header, _ = read_artifact(eval_dir / f"accuracy_{scheme}.csv")
    _require(header[1:] == ["5%", "10%", "20%", "33%", "50%", "loo"], f"{scheme}: columns {header}")
    for col in header[1:]:
        got = meta.get(f"repeats.{col}")
        _require(got == str(_repeats(col)), f"{scheme}: repeats.{col}={got}, expected {_repeats(col)}")


# --- subset search ------------------------------------------------------------------


def _entropy(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1)
    p = counts / totals[:, None]
    safe = np.where(counts > 0, p, 1.0)
    return -np.where(counts > 0, p * np.log(safe), 0.0).sum(axis=1)


def _id3(x: np.ndarray, y: np.ndarray) -> tuple:
    """Fully grown ID3 tree: entropy gain over midpoint thresholds, every
    feature tried at every node, ties to the lowest feature and then the
    smallest threshold, leaves at purity or when no gain is positive."""
    n = len(y)
    counts = np.bincount(y, minlength=len(CLASSES)).astype(float)
    if counts.max() == n:
        return ("leaf", counts)
    parent = _entropy(counts[None, :])[0]
    best, best_gain = None, 0.0
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        cuts = np.nonzero(xs[:-1] < xs[1:])[0]
        if cuts.size == 0:
            continue
        left = np.cumsum(np.eye(len(CLASSES))[y[order]], axis=0)[cuts]
        n_left = cuts + 1.0
        n_right = n - n_left
        gain = parent - (n_left * _entropy(left) + n_right * _entropy(counts - left)) / n
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            best_gain = float(gain[j])
            best = (f, float((xs[cuts[j]] + xs[cuts[j] + 1]) / 2.0))
    if best is None:
        return ("leaf", counts)
    f, threshold = best
    go_left = x[:, f] <= threshold
    return ("split", f, threshold, _id3(x[go_left], y[go_left]), _id3(x[~go_left], y[~go_left]))


def _id3_predict(node: tuple, row: np.ndarray) -> int:
    while node[0] == "split":
        node = node[3] if row[node[1]] <= node[2] else node[4]
    return int(np.argmax(node[1]))


def id3_loo_correct(x: np.ndarray, y: np.ndarray) -> int:
    """Leave-one-out count of correct single-tree predictions."""
    n = len(y)
    keep = np.ones(n, dtype=bool)
    correct = 0
    for i in range(n):
        keep[i] = False
        correct += _id3_predict(_id3(x[keep], y[keep]), x[i]) == y[i]
        keep[i] = True
    return correct


def check_subset_table(subset_csv: Path, n_traces: int) -> None:
    """255 distinct masks, names and counts from the bits, ranked order,
    accuracies on the 1/n grid."""
    _, header, rows = read_artifact(subset_csv)
    _require(header == ["mask", "features", "n_features", "accuracy"], "subset: bad header")
    masks = [int(r[0], 16) for r in rows]
    _require(sorted(masks) == list(range(1, 256)), "subset: masks are not 1..255 once each")
    keys = []
    for row, mask in zip(rows, masks):
        bits = [i for i in range(8) if mask >> i & 1]
        _require(int(row[2]) == len(bits), f"subset: {row[0]} n_features {row[2]}")
        _require(row[1] == "+".join(RICH8_NAMES[i] for i in bits), f"subset: {row[0]} names {row[1]}")
        acc = float(row[3])
        _require(abs(acc * n_traces - round(acc * n_traces)) < 1e-9,
                 f"subset: {row[0]} accuracy {acc} is not a multiple of 1/{n_traces}")
        keys.append((-acc, len(bits), mask))
    _require(keys == sorted(keys), "subset: rows are not ordered by (-accuracy, n_features, mask)")


def subset_id3_masks(subset_csv: Path) -> list[int]:
    """Masks the ID3 check covers: the top one, the three lowest, and ff."""
    _, _, rows = read_artifact(subset_csv)
    masks = [int(r[0], 16) for r in rows]
    return list(dict.fromkeys([masks[0]] + masks[-3:] + [0xFF]))


def check_subset_id3(subset_csv: Path, features_csv: Path, mask: int) -> None:
    """One mask's single-tree LOO accuracy matches the benchmark's ID3."""
    _, labels, feats, _ = read_features(features_csv)
    y = np.array([CLASSES.index(lab) for lab in labels])
    _, _, rows = read_artifact(subset_csv)
    acc = {int(r[0], 16): float(r[3]) for r in rows}[mask]
    cols = [i for i in range(8) if mask >> i & 1]
    correct = id3_loo_correct(feats[:, cols], y)
    _require(round(acc * len(y)) == correct,
             f"subset: mask {mask:02x} accuracy {acc} but ID3 gets {correct}/{len(y)}")


def run_check(fn, *args) -> str | None:
    """None when the check passes, else the reason it failed."""
    try:
        fn(*args)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
