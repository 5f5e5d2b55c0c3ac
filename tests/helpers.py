"""Shared builders and independent oracles used across the test modules.

The tree-induction oracle here is deliberately written from the definition
(brute force over every feature and every midpoint between consecutive
distinct values) rather than reusing any library code, so the tests check
the implementation against an independent derivation.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from sensorclass.errors import DataError
from sensorclass.features import mask_indices, subset_schema
from sensorclass.forest import (
    ForestConfig,
    LabeledDataset,
    RandomForest,
    predict_matrix,
    train_tree,
)
from sensorclass.trace import (
    CLASS_COUNT,
    TRACE_HEADER,
    SensorType,
    population_var,
    segment_windows,
    validate_trace,
)

# Hand-computed rich8 vector for the two-window fixture with window values
# {1,2,3} and {10,10,16}: MED = {2, 10}, VAR = {2/3, 8}.
F_ORACLE = (2.0, 10.0, 6.0, 16.0, 2.0 / 3.0, 8.0, 13.0 / 3.0, 121.0 / 9.0)


def make_trace(trace_id, timestamps, values, label=None):
    return validate_trace(trace_id, zip(timestamps, values), label)


def two_window_trace(label=None):
    """Six samples at 1 Hz; window_len 3.0 gives the F_ORACLE windows.

    A seventh sample sits exactly at the tiled end and must be dropped.
    """
    ts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    vs = [1.0, 2.0, 3.0, 10.0, 10.0, 16.0, 99.0]
    return make_trace("two-window", ts, vs, label)


def constant_trace(value=5.0, n=12, interval=1.0, label=None):
    ts = [i * interval for i in range(n)]
    return make_trace("constant", ts, [value] * n, label)


def reference_read_trace_csv(path, trace_id=None, label=None):
    """The trace CSV reader as a plain csv-module loop, for the np.loadtxt
    reader to agree with: one float() per cell, exactly two cells per row,
    and empty rows, rows whose first cell starts with `#` and the
    `timestamp,value` header skipped."""
    path = Path(path)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row == TRACE_HEADER:
                continue
            bad_row = DataError(f"trace file {path}: bad row {row!r}")
            if len(row) != 2:
                raise bad_row
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise bad_row from None
    return validate_trace(trace_id if trace_id is not None else path.stem, rows, label)


def reference_med_var(trace, window_len):
    """Per-window (medians, variances) from Window objects, one window at a time."""
    windows = segment_windows(trace, window_len)
    med = np.array([float(np.median(w.values)) for w in windows])
    var = np.array([population_var(w.values) for w in windows])
    return med, var


def int_dataset(seed, n, d=2, classes=3, max_val=5, schema="baseline2"):
    """Small integer-valued dataset; duplicates and ties are likely."""
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, max_val + 1, size=(n, d)).astype(float)
    labels = rng.integers(0, classes, size=n)
    if len(set(labels.tolist())) == 1 and n > 1:
        labels[0] = (labels[0] + 1) % classes
    ids = tuple(f"r{i}" for i in range(n))
    return LabeledDataset(ids, feats, labels, schema)


def reference_subset_search(dataset, masks=range(1, 256)):
    """feature_subset_search by training every (mask, fold) tree: train_tree
    with identity_bootstrap and m_try = D on the other rows, then the
    held-out row through the one-tree forest in "standard" mode. Over fewer
    masks it is the full list with the other masks left out."""
    n = len(dataset)
    results = []
    for mask in masks:
        idx = mask_indices(mask)
        sub = LabeledDataset(dataset.ids, dataset.features[:, idx], dataset.labels,
                             subset_schema(mask))
        config = ForestConfig(n_trees=1, m_try=len(idx), seed=0)
        correct = 0
        for i in range(n):
            rest = np.delete(np.arange(n), i)
            tree = train_tree(sub.subset(rest), config, 0, identity_bootstrap=True)
            forest = RandomForest((tree,), config, tuple(SensorType), sub.schema)
            probs = predict_matrix(forest, sub.features[i : i + 1], sub.schema, "standard")
            correct += int(np.argmax(probs[0])) == int(sub.labels[i])
        results.append((mask, correct / n))
    results.sort(key=lambda item: (-item[1], len(mask_indices(item[0])), item[0]))
    return results


# --- independent tree-induction oracle ---------------------------------------


def oracle_entropy(counts) -> float:
    total = float(sum(counts))
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log(p)
    return h


def oracle_best_split(x: np.ndarray, y: np.ndarray):
    """Exhaustive search over all (feature, midpoint) pairs.

    Midpoints lie between consecutive distinct sorted values, gain must be
    strictly positive, and ties resolve to the lowest feature index then the
    smallest threshold. Returns (feature, threshold) or None.
    """
    n, d = x.shape
    parent = oracle_entropy(np.bincount(y, minlength=CLASS_COUNT))
    best = None
    best_gain = 0.0
    for j in range(d):
        vals = np.unique(x[:, j])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            mask = x[:, j] <= thr
            n_l = float(mask.sum())
            n_r = n - n_l
            h_l = oracle_entropy(np.bincount(y[mask], minlength=CLASS_COUNT))
            h_r = oracle_entropy(np.bincount(y[~mask], minlength=CLASS_COUNT))
            gain = parent - (n_l * h_l + n_r * h_r) / n
            if gain > best_gain:
                best_gain = gain
                best = (j, thr)
    return best


def assert_tree_matches_oracle(tree, x: np.ndarray, y: np.ndarray) -> None:
    """Walk a trained tree's preorder arrays alongside the oracle's recursive
    choice of splits; every node must be visited once, in preorder."""
    visited = []

    def walk(node: int, x: np.ndarray, y: np.ndarray) -> None:
        visited.append(node)
        counts = np.bincount(y, minlength=CLASS_COUNT)
        expected = None if counts.max() == len(y) else oracle_best_split(x, y)
        if expected is None:
            assert tree.feature[node] == -1, (
                f"expected a leaf, found split ({tree.feature[node]}, {tree.threshold[node]})"
            )
            assert tree.right[node] == -1
            assert (tree.value[node] == counts / len(y)).all()
            return
        feature, threshold = expected
        assert tree.feature[node] != -1, f"expected split {expected}, found a leaf"
        assert tree.feature[node] == feature
        assert tree.threshold[node] == threshold
        assert (tree.value[node] == 0).all()
        mask = x[:, feature] <= threshold
        walk(node + 1, x[mask], y[mask])
        walk(tree.right[node], x[~mask], y[~mask])

    walk(0, x, y)
    assert visited == list(range(len(tree.feature)))


def oracle_fully_separates(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether greedy positive-gain induction reaches all-pure leaves.

    A distinct-row dataset can still stall: on a 2x2 XOR layout every single
    split has zero gain, so induction stops at an impure root.
    """
    counts = np.bincount(y, minlength=CLASS_COUNT)
    if counts.max() == len(y):
        return True
    split = oracle_best_split(x, y)
    if split is None:
        return False
    feature, threshold = split
    mask = x[:, feature] <= threshold
    return oracle_fully_separates(x[mask], y[mask]) and oracle_fully_separates(
        x[~mask], y[~mask]
    )


def resubstitution_accuracy(tree, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy of a tree on rows routed one at a time, node by node."""
    hits = 0
    for row, truth in zip(x, y):
        node = 0
        while tree.feature[node] != -1:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = node + 1
            else:
                node = tree.right[node]
        hits += int(np.argmax(tree.value[node])) == truth
    return hits / len(y)


def label_of(code: int) -> str:
    return SensorType(code).label
