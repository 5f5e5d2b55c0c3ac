"""Shared builders and independent oracles used across the test modules.

The tree-induction oracle here is deliberately written from the definition
(brute force over every feature and every midpoint between consecutive
distinct values) rather than reusing any library code, so the tests check
the implementation against an independent derivation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sensorclass import seeding
from sensorclass.errors import DataError, NoWindows
from sensorclass.features import mask_indices, subset_schema
from sensorclass.forest import (
    _TREE_TAG,
    DecisionTree,
    ForestConfig,
    LabeledDataset,
    RandomForest,
    _entropy,
    predict_matrix,
)
from sensorclass.reporting import _read_table
from sensorclass.trace import (
    CLASS_COUNT,
    TRACE_HEADER,
    SensorType,
    validate_trace,
    window_spans,
)

# Hand-computed rich8 vector for the two-window fixture with window values
# {1,2,3} and {10,10,16}: MED = {2, 10}, VAR = {2/3, 8}.
F_ORACLE = (2.0, 10.0, 6.0, 16.0, 2.0 / 3.0, 8.0, 13.0 / 3.0, 121.0 / 9.0)


def entropy_impurity(counts):
    """Shannon entropy of a count vector, in nats, by the split kernel's own
    rule, so it is bit-identical to the kernel's parent entropy. Zero counts
    contribute 0."""
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if total <= 0:
        raise DataError("entropy of an empty count vector is undefined")
    return float(_entropy(c[:, None], np.array([total]))[0])


def read_csv(path):
    """(metadata, header, rows) of an artifact CSV."""
    meta, header, rows = _read_table(path)
    return meta, header, [row for _, row in rows]


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


@dataclass(frozen=True, eq=False)
class Window:
    """One segmentation window and the sample values that fell inside it."""

    start: float
    length: float
    values: np.ndarray = field(repr=False)


def reference_window_spans(trace, window_len):
    """window_spans from the edge array of the whole span: edge j is
    t0 + j * window_len, and each window's samples run from the searchsorted
    (side left) position of its start edge to that of its end edge. Memory
    grows with the number of windows in the span."""
    ts = trace.timestamps
    t0 = ts[0]
    k = int((ts[-1] - t0) // window_len)
    if k == 0:
        raise NoWindows(trace.trace_id, trace.span, window_len)
    edges = t0 + np.arange(k + 1) * window_len
    bounds = np.searchsorted(ts, edges, side="left")
    counts = np.diff(bounds)
    keep = counts > 0
    return edges[:-1][keep], bounds[:-1][keep], counts[keep]


def segment_windows(trace, window_len):
    """The non-empty windows of window_spans, each with its sample values."""
    starts, firsts, counts = window_spans(trace, window_len)
    return [
        Window(start, float(window_len), trace.values[first:first + count])
        for start, first, count in zip(starts.tolist(), firsts.tolist(), counts.tolist())
    ]


def reference_var(values):
    """np.var of a 1-d vector, exactly 0.0 when every entry is equal."""
    return 0.0 if (values == values[0]).all() else float(np.var(values))


def reference_med_var(trace, window_len):
    """Per-window (medians, variances) from Window objects, one window at a time."""
    windows = segment_windows(trace, window_len)
    med = np.array([float(np.median(w.values)) for w in windows])
    var = np.array([reference_var(w.values) for w in windows])
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
    """feature_subset_search by training every (mask, fold) tree:
    reference_train_tree with identity_bootstrap and m_try = D on the other rows, then the
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
            tree = reference_train_tree(sub.subset(rest), config, 0, identity_bootstrap=True)
            forest = RandomForest((tree,), config, sub.schema)
            probs = predict_matrix(forest, sub.features[i : i + 1], sub.schema, "standard")
            correct += int(np.argmax(probs[0])) == int(sub.labels[i])
        results.append((mask, correct / n))
    results.sort(key=lambda item: (-item[1], len(mask_indices(item[0])), item[0]))
    return results


# --- the recursive grower, the reference for the lockstep one ---------------
#
# One node at a time: each node's rows are copied out, each candidate column
# is argsorted on its own, and the children are grown by recursion. It makes
# the same draws from the same generator in the same order as forest.py, so
# its trees must match the lockstep grower's byte for byte.

_ONE_HOT = np.eye(CLASS_COUNT)


def _reference_entropy_rows(counts, totals):
    p = counts / totals[:, None]
    plogp = np.where(counts > 0, p * np.log(np.where(counts > 0, p, 1.0)), 0.0)
    return -plogp.sum(axis=1)


def reference_column_split(col, labels, counts, parent):
    """(gain, threshold) of the best cut of one feature column, or None when
    the column is constant; the first of equal gains, the smallest threshold, wins."""
    n = len(labels)
    order = np.argsort(col, kind="stable")
    sv = col[order]
    cuts = np.nonzero(sv[:-1] < sv[1:])[0]
    if cuts.size == 0:
        return None
    cum = np.cumsum(_ONE_HOT[labels[order]], axis=0)
    left = cum[cuts]
    n_left = (cuts + 1).astype(float)
    n_right = n - n_left
    h = _reference_entropy_rows(np.vstack([left, counts - left]),
                                np.concatenate([n_left, n_right]))
    child = n_left * h[: len(cuts)] + n_right * h[len(cuts):]
    gains = parent - child / n
    i = int(np.argmax(gains))
    cut = cuts[i]
    return float(gains[i]), float((sv[cut] + sv[cut + 1]) / 2.0)


def reference_best_split(features, labels, candidates):
    """The first ascending candidate with the strictly highest positive gain."""
    counts = np.bincount(labels, minlength=CLASS_COUNT).astype(float)
    parent = _reference_entropy_rows(counts[None, :], np.array([float(len(labels))]))[0]
    best = None
    best_gain = 0.0
    for f in sorted(set(int(c) for c in candidates)):
        score = reference_column_split(features[:, f], labels, counts, parent)
        if score is None or score[0] <= best_gain:
            continue
        best_gain, threshold = score
        best = (f, threshold)
    return best


def reference_train_tree(dataset, config, tree_index, *, identity_bootstrap=False):
    """train_tree by recursion: the bootstrap, then one feature subset per
    impure node in preorder, from the generator at (seed, tree index)."""
    rng = seeding.generator(config.seed, _TREE_TAG, tree_index)
    n = len(dataset)
    d = dataset.feature_count
    m_try = config.resolve_m_try(d)
    chosen = np.arange(n) if identity_bootstrap else rng.integers(0, n, size=n)
    x = dataset.features[chosen]
    y = dataset.labels[chosen]
    all_features = np.arange(d)
    nodes = []  # [feature, threshold, right, value] per node, preorder

    def grow(sel):
        counts = np.bincount(y[sel], minlength=CLASS_COUNT).astype(float)
        split = None
        if counts.max() < len(sel):  # impure
            cand = all_features if m_try == d else rng.choice(d, size=m_try, replace=False)
            split = reference_best_split(x[sel], y[sel], cand)
        if split is None:
            nodes.append([-1, 0.0, -1, counts / len(sel)])
            return
        f, t = split
        node = [f, t, -1, np.zeros(CLASS_COUNT)]
        nodes.append(node)
        go_left = x[sel, f] <= t
        grow(sel[go_left])
        node[2] = len(nodes)
        grow(sel[~go_left])

    grow(np.arange(n))
    return DecisionTree(*zip(*nodes))


def tree_bytes(tree):
    """A tree's four arrays, with their dtypes and shapes, as bytes."""
    return b"|".join(
        f"{a.dtype}{a.shape}".encode() + np.ascontiguousarray(a).tobytes()
        for a in (tree.feature, tree.threshold, tree.right, tree.value)
    )


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
