"""Random forest classifier, written out in full.

Induction follows the classic recipe. Each tree draws a bootstrap sample
of the same size as the dataset (with replacement); at every node a fresh
subset of m_try features is drawn without replacement and the split with
the highest information gain (Shannon entropy, natural log) over midpoint
thresholds is taken; growth continues until nodes are pure or no split
has positive gain. No pruning. Leaves store the class distribution of the
training instances that reached them, so a tree predicts a posterior, not
a vote.

Forest posteriors combine tree posteriors in one of two modes:

* "standard": plain mean over all trees.
* "paper": per class, the mean is taken only over trees that assign that
  class a nonzero probability, and the resulting vector is L1-normalized.
  This weights rare-but-confident leaf evidence more heavily. Example:
  trees {0.5, 0.5, 0, ...} and {1, 0, 0, ...} give raw entries
  0.75 = (0.5+1)/2 and 0.5 = 0.5/1, normalized to {0.6, 0.4, 0, ...}.

Trees are held as parallel preorder arrays (see DecisionTree), and
predict_matrix is the one path that routes feature rows through them.

Trees grow in lockstep: the trees of a forest, or of every fold of an
evaluation protocol, grow together, and at each step every one of them
splits its next impure node. One segmented kernel scores all those
(node, candidate feature) pairs at once (a stable sort by (segment,
value), a running count of classes, one entropy call over every cut),
and _best_splits applies the one split rule; node_splits applies it to
one node under many candidate sets. The growing trees are arrays in the
node and sample layout of Louppe, Understanding Random Forests
(arXiv:1407.7502), ch. 5: a node is a slice of its tree's bootstrap row
indices that a split partitions in place. Each node's candidate features
are decoded, for all the step's nodes at once, from words its tree's bit
generator output in advance, so no Python runs per node. The trees
growing at once and the entries per kernel call are capped, so the
grower's memory stays bounded however many folds a protocol has.

Determinism: every tree's RNG derives from (config.seed, tree index), and
its draws happen in its own preorder: the bootstrap, then one feature
subset per impure node. Each is what Generator.integers(0, n, size=n),
then Generator.choice(D, m_try, replace=False), would draw on that
stream, decoded from its words: every word is a uint32 half of one of
PCG64's raw outputs, low half first, as numpy's generators read them.
So a tree does not depend on the trees it grew beside, and the forest
is a pure function of (dataset, config).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import seeding
from .config import AVERAGING_MODES, ForestConfig
from .errors import DataError, InvalidConfig, SchemaMismatch
from .features import FeatureVector, schema_length
from .trace import CLASS_COUNT, CLASS_LABELS, SensorType, read_utf8, run_starts, unique_keys

MODEL_FORMAT = "sensorclass-forest-v1"

# derivation tag separating tree RNG streams from other consumers of a seed
_TREE_TAG = 101

# Bounds on the memory of one lockstep grow, whatever its number of folds:
# trees growing at once, and (row, candidate feature) entries per kernel call.
_TREES_IN_FLIGHT = 256
_KERNEL_ENTRIES = 4096
# words a growing tree reads from its bit generator at a time, for its candidate
# features; even, since each raw output is two words
_WORDS = 32
_MASK32 = 0xFFFFFFFF

_NO_POSTERIOR = np.zeros(CLASS_COUNT)  # value row of a split node
_CLASSES = np.arange(CLASS_COUNT)[:, None]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix with labels, ids, and the schema the rows follow."""

    ids: tuple[str, ...]
    features: np.ndarray  # (n, D) float
    labels: np.ndarray  # (n,) int codes from SensorType
    schema: str

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] != len(self.ids) or labs.shape != (len(self.ids),):
            raise DataError("dataset ids, features, and labels are misaligned")
        if feats.shape[0] == 0:
            raise DataError("dataset is empty")
        if feats.shape[1] != schema_length(self.schema):
            raise DataError(
                f"schema {self.schema!r} expects {schema_length(self.schema)} features, "
                f"matrix has {feats.shape[1]}"
            )
        if not np.isfinite(feats).all():
            raise DataError("dataset features contain non-finite entries")
        if labs.min() < 0 or labs.max() >= CLASS_COUNT:
            raise DataError(f"labels must be codes in 0..{CLASS_COUNT - 1}")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "ids", tuple(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray | Sequence[int]) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            tuple(self.ids[i] for i in idx),
            self.features[idx],
            self.labels[idx],
            self.schema,
        )


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """One tree as parallel arrays indexed by node, nodes in preorder.

    At a split node i, a row x goes to node i + 1, its left child, when
    x[feature[i]] <= threshold[i], and to node right[i] otherwise. A leaf
    has feature -1 and right -1, and value[i] is its class posterior; the
    value rows of split nodes are zero. This is the array layout of Louppe,
    Understanding Random Forests (arXiv:1407.7502), ch. 5.
    """

    feature: np.ndarray  # (nodes,) int
    threshold: np.ndarray  # (nodes,) float
    right: np.ndarray  # (nodes,) int
    value: np.ndarray  # (nodes, CLASS_COUNT) float

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.intp))
        object.__setattr__(self, "threshold", np.asarray(self.threshold, dtype=float))
        object.__setattr__(self, "right", np.asarray(self.right, dtype=np.intp))
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))


@dataclass(frozen=True, eq=False)
class RandomForest:
    trees: tuple[DecisionTree, ...]
    config: ForestConfig  # m_try resolved to a concrete value
    feature_schema: str


def _entropy(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropy of every column of a (classes, k) count matrix; shared by
    parent and child paths so that identical distributions produce
    bit-identical values. Class-major, so every step runs over contiguous
    rows of k; the column sums still add the classes in order."""
    p = counts / totals
    plogp = p + (counts == 0)  # log(1) = 0: a zero count adds 0 * 0
    np.log(plogp, out=plogp)
    plogp *= p
    return -plogp.sum(axis=0)


def _column_ranks(x: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column: equal values share a
    rank, and a larger value has a larger rank."""
    order = np.argsort(x, axis=0, kind="stable")
    sx = np.take_along_axis(x, order, axis=0)
    steps = np.zeros(x.shape, dtype=np.intp)
    steps[1:] = sx[1:] > sx[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def _segment_scores(
    x: np.ndarray,
    y: np.ndarray,
    ranks: np.ndarray,
    rows: np.ndarray,
    n_rows: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    n_cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(gain, threshold) of the best cut of every (node, candidate) segment.

    Node k holds the next n_rows[k] entries of rows (indices into x and
    y), has class counts counts[k] (floats) and is scored on the next
    n_cand[k] features of candidates; ranks is _column_ranks(x). Segments
    are node-major, candidates in the given order. A segment whose column
    is constant has gain -inf. Within a segment the first of equal
    gains, the smallest threshold, wins. Segments are scored in calls of at
    most _KERNEL_ENTRIES entries (one segment alone may exceed it).
    """
    seg_node = np.repeat(np.arange(len(n_rows)), n_cand)
    seg_feature = candidates
    seg_len = n_rows[seg_node]
    seg_row0 = (np.cumsum(n_rows) - n_rows)[seg_node]  # the node's first entry in rows
    counts = np.ascontiguousarray(counts.T)  # class-major
    parent = _entropy(counts, n_rows.astype(float))
    gain = np.full(len(seg_node), -np.inf)
    threshold = np.zeros(len(seg_node))
    n_ranks = int(ranks.max()) + 1
    ends = np.cumsum(seg_len)
    a = 0
    while a < len(seg_node):
        done = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, done + _KERNEL_ENTRIES, side="right")))
        lens = seg_len[a:b]
        seg = np.repeat(np.arange(b - a), lens)  # chunk-local segment of each entry
        first = np.cumsum(lens) - lens
        entry_rows = rows[seg_row0[a:b][seg] + np.arange(ends[b - 1] - done) - first[seg]]
        entry_features = seg_feature[a:b][seg]
        # sort by (segment, value): a value's column rank orders it in its
        # segment. Equal values may come in any order, since cuts fall only
        # between distinct values.
        key = seg * n_ranks + ranks[entry_rows, entry_features]
        order = np.argsort(key.astype(np.min_scalar_type((b - a) * n_ranks)), kind="stable")
        sk = key[order]
        cut = np.flatnonzero((sk[:-1] < sk[1:]) & (seg[:-1] == seg[1:]))
        if cut.size:
            # cum[c, i]: entries of class c among the first i, as exact counts
            labels = y[entry_rows[order]]
            cum = np.zeros((CLASS_COUNT, len(seg) + 1), dtype=np.int32)
            np.cumsum(labels == _CLASSES, axis=1, out=cum[:, 1:])
            cs = seg[cut]
            left = cum.take(cut + 1, axis=1)
            left -= cum.take(first[cs], axis=1)
            left = left.astype(float)
            node = seg_node[a:b][cs]
            n = lens[cs].astype(float)
            n_left = (cut - first[cs] + 1).astype(float)
            n_right = n - n_left
            h_left = _entropy(left, n_left)
            h_right = _entropy(counts.take(node, axis=1) - left, n_right)
            gains = parent[node] - (n_left * h_left + n_right * h_right) / n
            starts = run_starts(cs)
            scored = a + cs[starts]  # the segments with a cut
            gain[scored] = np.maximum.reduceat(gains, starts)
            hit = np.flatnonzero(gains == gain[a + cs])
            at = cut[hit[run_starts(cs[hit])]]  # the first best cut of each segment
            lo, hi = order[at], order[at + 1]  # the entries either side of it
            threshold[scored] = (x[entry_rows[lo], entry_features[lo]]
                                 + x[entry_rows[hi], entry_features[hi]]) / 2.0
        a = b
    return gain, threshold


def _best_splits(
    gain: np.ndarray, threshold: np.ndarray, candidates: np.ndarray, n_cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(feature, threshold) of each node's split, feature -1 for none: the
    first ascending candidate with the strictly highest positive gain, from
    the _segment_scores of node k's next n_cand[k] candidates."""
    seg_node = np.repeat(np.arange(len(n_cand)), n_cand)
    top = np.maximum.reduceat(gain, np.cumsum(n_cand) - n_cand)
    hit = np.flatnonzero(gain == top[seg_node])  # -inf == -inf: every node has a hit
    pick = hit[run_starts(seg_node[hit])]
    feature = np.where(top > 0, candidates[pick], -1)
    return feature, threshold[pick]


def node_splits(
    features: np.ndarray, labels: np.ndarray, candidates: np.ndarray, n_cand: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(feature, threshold) of a node's split under each candidate set, by
    _best_splits: set k is the next n_cand[k] >= 1 candidates, ascending and
    distinct. The node's columns are scored once, however many sets share them."""
    n, d = features.shape
    counts = np.bincount(labels, minlength=CLASS_COUNT).astype(float)
    gain, threshold = _segment_scores(features, labels, _column_ranks(features), np.arange(n),
                                      np.array([n]), counts[None], np.arange(d), np.array([d]))
    return _best_splits(gain[candidates], threshold[candidates], candidates, n_cand)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices starts[k], ..., starts[k] + lens[k] - 1 of every k, end to end."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(offsets[-1] + lens[-1])


def _widen(a: np.ndarray, cols: int) -> np.ndarray:
    """a with its second axis zero-padded to cols entries."""
    out = np.zeros((a.shape[0], cols, *a.shape[2:]), dtype=a.dtype)
    out[:, :a.shape[1]] = a
    return out


def _raw_draws(bitgen: np.random.BitGenerator, r: int, size: int,
               width: int) -> tuple[np.ndarray, np.ndarray]:
    """(integers(0, r, size=size) of a generator on bitgen, then the at
    most width >= 1 words left after them), decoded from one random_raw
    call, or more where rejections leave it short. A word is a uint32 half
    of a 64-bit raw output, low half first, as numpy's generators read
    them. A draw in [0, r), r < 2**32, is Lemire's on the next word,
    rejected as in _draw_candidates; r == 1 reads none. The bit
    generator's next output continues the words' stream.
    """
    reads = size if r > 1 else 0
    halves = bitgen.random_raw((reads + width) // 2).astype("<u8", copy=False).view("<u4")
    if not reads:
        return np.zeros(size, dtype=np.int64), halves
    # widened before the product: numpy keeps uint32 * r, r a Python int, in uint32
    wide, floor = halves.astype(np.uint64), (2**32 - r) % r
    prod = wide[:size] * r
    if (prod & _MASK32).min() >= floor:  # no half rejected, nearly always
        return prod >> 32, halves[size:]
    while (kept := np.flatnonzero(wide * r & _MASK32 >= floor)).size < size:
        more = bitgen.random_raw((size - kept.size + 1) // 2)
        halves = np.concatenate([halves, more.astype("<u8", copy=False).view("<u4")])
        wide = halves.astype(np.uint64)
    return wide[kept[:size]] * r >> 32, halves[kept[size - 1] + 1:]


def _refill(words: np.ndarray, cursor: np.ndarray, bitgens: list, slots: np.ndarray) -> None:
    """Fill the buffer of each slot, every word of it read, with the next
    words of its bit generator's raw outputs, as _raw_draws reads them."""
    for s in slots.tolist():
        words[s] = bitgens[s].random_raw(words.shape[1] // 2).astype("<u8", copy=False).view("<u4")
        cursor[s] = 0


def _draw_candidates(
    words: np.ndarray, cursor: np.ndarray, bitgens: list, slots: np.ndarray, m: np.ndarray, d: int
) -> np.ndarray:
    """(len(slots), d) mask of the m[k] features node k draws from slot
    slots[k]'s bit generator: all d, with no draw, where m[k] == d, and
    otherwise the set Generator(bitgens[s]).choice(d, size=m[k], replace=False)
    would draw, decoded from its words. Slot s reads words[s, cursor[s]] and
    advances cursor[s]; a buffer whose words are all read is refilled first.

    This is numpy's algorithm for d <= 10,000 (a changed one is named by
    tests/test_numpy_canary.py). Floyd's: for j = d - m, ..., d - 1, draw v
    in [0, j] and take v, or j if v is already taken (j >= 1, so every j
    draws a word); then choice shuffles the m picks, drawing i in [0, k]
    for k = m - 1, ..., 1, words read and discarded here. Every draw in
    [0, r) is Lemire's: (word * r) >> 32, unless the product's low half is
    below (2**32 - r) % r, which rejects the word for the next one.
    """
    mask = np.zeros((len(slots), d), dtype=bool)
    mask[m == d] = True
    draws = np.where(m < d, 2 * m - 1, 0)
    for t in range(int(draws.max(initial=0))):  # node k's draw t, for every k drawing one
        node = np.flatnonzero(t < draws)
        s, mm = slots[node], m[node]
        r = np.where(t < mm, d - mm + t + 1, 2 * mm - t)  # Floyd's j + 1, then the shuffle's k + 1
        floor = (2**32 - r) % r
        prod = np.zeros(len(node), dtype=np.int64)
        read = np.arange(len(node))  # a word for every node, then one more for each rejected
        while (at := s[read]).size:
            _refill(words, cursor, bitgens, at[cursor[at] == words.shape[1]])
            prod[read] = words[at, cursor[at]] * r[read]
            cursor[at] += 1
            read = read[(prod[read] & _MASK32) < floor[read]]
        floyd = t < mm
        node, j, v = node[floyd], (d - mm + t)[floyd], (prod >> 32)[floyd]
        mask[node, np.where(mask[node, v], j, v)] = True
    return mask


def _grow(
    x: np.ndarray, y: np.ndarray, jobs: Iterable[tuple[np.ndarray, ForestConfig, int, bool]]
) -> Iterator[DecisionTree]:
    """Grow the tree of each (rows, config, tree index, identity bootstrap)
    job in lockstep; yield the trees in job order.

    At most _TREES_IN_FLIGHT trees grow at once, tree s in row s of every
    array below. Node [lo, hi) of a tree holds rows[s, lo:hi], and a split
    partitions that slice stably in place, left rows first. A stack entry
    is (lo, hi, the split node whose right child it is or -1, the node's
    class counts); it is pure when one count is hi - lo, and a leaf's
    posterior is counts / (hi - lo). Stacks and outputs double when outgrown.

    At each step every tree emits the pure nodes on top of its stack as
    leaves, then pops its next impure node; one _draw_candidates call, one
    _segment_scores call and one partition split all those nodes. Each
    admitted tree gets a new PCG64 bit generator, seeded by
    seeding.seed_sequence(config.seed, _TREE_TAG, index), whose first
    random_raw call gives the bootstrap and first words (_raw_draws).
    After the bootstrap a tree's bit generator outputs only candidates'
    words, a buffer at a time, in the tree's preorder, so a tree does not
    depend on the trees it grows beside.
    """
    d = x.shape[1]
    ranks = _column_ranks(x)
    queue = enumerate(jobs)
    cap = _TREES_IN_FLIGHT
    job = np.full(cap, -1)  # the position of each slot's job; -1 for a free slot
    bitgens: list[np.random.PCG64 | None] = [None] * cap
    words = np.zeros((cap, _WORDS), dtype=np.uint32)
    cursor = np.zeros(cap, dtype=np.intp)  # words[s, cursor[s]:] are slot s's unread words
    m_try = np.zeros(cap, dtype=np.intp)
    sp = np.zeros(cap, dtype=np.intp)  # stack sizes
    size = np.zeros(cap, dtype=np.intp)  # nodes emitted
    rows = np.zeros((cap, 0), dtype=np.intp)
    stack = np.zeros((cap, 1, 3 + CLASS_COUNT), dtype=np.intp)
    feature = np.zeros((cap, 0), dtype=np.intp)
    threshold = np.zeros((cap, 0))
    right = np.zeros((cap, 0), dtype=np.intp)
    value = np.zeros((cap, 0, CLASS_COUNT))
    finished: dict[int, DecisionTree] = {}
    next_out = 0

    def emit(s, f, t, v, parent):
        """Write node (f, t, v) next in the preorder of each slot in s, as
        the right child of parent where parent >= 0; returns the indices."""
        at = size[s]
        feature[s, at] = f
        threshold[s, at] = t
        right[s, at] = -1
        value[s, at] = v
        up = parent >= 0
        right[s[up], parent[up]] = at[up]
        size[s] += 1
        return at

    while True:
        free = np.flatnonzero(job < 0).tolist()
        admitted = list(itertools.islice(queue, len(free)))
        for s, (pos, (fold_rows, config, index, identity)) in zip(free, admitted):
            bitgen = bitgens[s] = np.random.PCG64(
                seeding.seed_sequence(config.seed, _TREE_TAG, index))
            n = len(fold_rows)
            draws, tail = _raw_draws(bitgen, n, 0 if identity else n, _WORDS)
            if not identity:
                fold_rows = fold_rows[draws]
            if n > rows.shape[1]:
                rows = _widen(rows, n)
            rows[s, :n] = fold_rows
            cursor[s] = _WORDS - len(tail)
            words[s, cursor[s]:] = tail
            stack[s, 0] = (0, n, -1, *np.bincount(y[fold_rows], minlength=CLASS_COUNT))
            job[s], m_try[s], sp[s], size[s] = pos, config.resolve_m_try(d), 1, 0
        live = np.flatnonzero(job >= 0)
        if not live.size:
            return
        # a step pops at most the whole stack and pushes one more entry
        if (need := int(sp.max()) + 1) > stack.shape[1]:
            stack = _widen(stack, 2 * need)
        if (need := int((size + sp).max())) > feature.shape[1]:
            feature, threshold, right, value = (
                _widen(a, 2 * need) for a in (feature, threshold, right, value))
        while True:  # every pure node on top of a stack becomes a leaf
            s = live[sp[live] > 0]
            top = stack[s, sp[s] - 1]
            leaf = top[:, 3:].max(axis=1) == (n := top[:, 1] - top[:, 0])
            if not leaf.any():
                break
            s, top = s[leaf], top[leaf]
            emit(s, -1, 0.0, top[:, 3:] / n[leaf, None], top[:, 2])
            sp[s] -= 1
        for s in live[sp[live] == 0].tolist():
            m = size[s]
            finished[int(job[s])] = DecisionTree(feature[s, :m].copy(), threshold[s, :m].copy(),
                                                 right[s, :m].copy(), value[s, :m].copy())
            job[s] = -1
        while next_out in finished:
            yield finished.pop(next_out)
            next_out += 1
        s = live[sp[live] > 0]
        if not s.size:
            continue
        # pop each tree's impure top and draw its candidates, in the tree's preorder
        sp[s] -= 1
        lo, hi, parent = stack[s, sp[s], :3].T
        n = hi - lo
        counts = stack[s, sp[s], 3:].astype(float)
        n_cand = m_try[s]
        cand = np.nonzero(_draw_candidates(words, cursor, bitgens, s, n_cand, d))[1]  # each ascending
        at_rows = _ranges(s * rows.shape[1] + lo, n)
        node_rows = rows.reshape(-1)[at_rows]
        entry = np.repeat(np.arange(len(s)), n)
        f, t = _best_splits(*_segment_scores(x, y, ranks, node_rows, n, counts, cand, n_cand),
                            cand, n_cand)
        split = f >= 0
        at = emit(s, f, np.where(split, t, 0.0),
                  np.where(split[:, None], 0.0, counts / n[:, None]), parent)
        # partition each split node's slice: left rows, then right rows, each in slice order
        child = 2 * entry + ((x[node_rows, np.maximum(f, 0)[entry]] > t[entry]) & split[entry])
        order = np.argsort(child.astype(np.min_scalar_type(2 * len(s))), kind="stable")
        rows.reshape(-1)[at_rows] = node_rows[order]
        child_counts = np.bincount(child * CLASS_COUNT + y[node_rows],
                                   minlength=2 * len(s) * CLASS_COUNT).reshape(-1, 2, CLASS_COUNT)
        s, lo, hi, at, child_counts = (a[split] for a in (s, lo, hi, at, child_counts))
        mid = lo + child_counts[:, 0].sum(axis=1)
        # the right child goes below the left one, so the left subtree pops first
        stack[s, sp[s]] = np.column_stack([mid, hi, at, child_counts[:, 1]])
        stack[s, sp[s] + 1] = np.column_stack([lo, mid, np.full_like(lo, -1), child_counts[:, 0]])
        sp[s] += 2


def train_tree(
    dataset: LabeledDataset,
    config: ForestConfig,
    tree_index: int,
    *,
    identity_bootstrap: bool = False,
) -> DecisionTree:
    """Grow one fully-developed tree.

    The tree's RNG comes from (config.seed, tree_index) alone; draws happen
    in a fixed order (bootstrap first, then per-node feature subsets in
    preorder), so retraining reproduces the tree exactly. identity_bootstrap
    skips resampling and trains on the dataset as-is, for a deterministic
    single tree.
    """
    job = (np.arange(len(dataset)), config, tree_index, identity_bootstrap)
    return next(_grow(dataset.features, dataset.labels, [job]))


def train_forests(
    dataset: LabeledDataset, folds: Sequence[tuple[np.ndarray, ForestConfig]]
) -> Iterator[RandomForest]:
    """The forest of each (training rows, config) fold, in fold order.

    Tree k of a fold's forest is train_tree(dataset.subset(rows), config,
    k): its bootstrap draws from the fold's rows. The trees of all folds
    grow in lockstep, and each forest is yielded once its last tree is out.
    """
    if any(len(rows) == 0 for rows, _ in folds):
        raise DataError("a fold has no training rows")
    d = dataset.feature_count
    folds = [(np.asarray(rows, dtype=np.intp), replace(config, m_try=config.resolve_m_try(d)))
             for rows, config in folds]
    jobs = ((rows, config, k, False) for rows, config in folds for k in range(config.n_trees))
    trees = _grow(dataset.features, dataset.labels, jobs)
    for _, config in folds:
        forest = tuple(itertools.islice(trees, config.n_trees))
        yield RandomForest(forest, config, dataset.schema)


def train_forest(dataset: LabeledDataset, config: ForestConfig) -> RandomForest:
    """Train config.n_trees trees, tree k from train_tree(..., k)."""
    return next(train_forests(dataset, [(np.arange(len(dataset)), config)]))


def check_schema(forest: RandomForest, schema: str) -> None:
    """Raises SchemaMismatch unless schema is the one forest was trained on."""
    if schema != forest.feature_schema:
        raise SchemaMismatch(f"model expects schema {forest.feature_schema!r}, got {schema!r}")


def predict_matrix(
    forest: RandomForest, features: np.ndarray, schema: str, mode: str | None = None
) -> np.ndarray:
    """Posteriors for a whole (n, D) matrix at once; rows sum to 1.

    Every row goes down every tree together, one depth level per step, so
    the Python loop runs once per level, not once per row and node. The
    trees' leaf posteriors are then combined in the given averaging mode.
    """
    check_schema(forest, schema)
    mode = mode or forest.config.averaging_mode
    if mode not in AVERAGING_MODES:
        raise InvalidConfig(f"averaging mode must be one of {AVERAGING_MODES}, got {mode!r}")
    x = np.asarray(features, dtype=float)
    d = schema_length(schema)
    if x.ndim != 2 or x.shape[1] != d:
        raise DataError(f"schema {schema!r} expects (n, {d}) features, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataError("feature matrix contains non-finite entries")
    # every tree's arrays end to end, tree t from roots[t] on (leaves' right is never read)
    trees = forest.trees
    roots = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    right = np.concatenate([t.right + r for t, r in zip(trees, roots)])
    rows = np.tile(np.arange(len(x)), len(trees))
    node = np.repeat(roots, len(x))
    f = feature[node]
    while (inner := f >= 0).any():
        go_left = x[rows, f] <= threshold[node]
        node = np.where(inner, np.where(go_left, node + 1, right[node]), node)
        f = feature[node]
    value = np.concatenate([t.value for t in trees])
    stack = value[node].reshape(len(trees), len(x), CLASS_COUNT)
    if mode == "standard":
        return stack.mean(axis=0)
    nonzero = np.count_nonzero(stack, axis=0)
    raw = np.where(nonzero > 0, stack.sum(axis=0) / np.maximum(nonzero, 1), 0.0)
    return raw / raw.sum(axis=1, keepdims=True)


def classify(
    forest: RandomForest, fv: FeatureVector, mode: str | None = None
) -> tuple[SensorType, np.ndarray]:
    """(predicted type, posterior). Probability ties go to the lowest code."""
    probs = predict_matrix(forest, fv.values[None, :], fv.schema, mode)[0]
    return SensorType(int(np.argmax(probs))), probs


# --- model file -------------------------------------------------------------
#
# JSON, self-describing, versioned by the "format" key. Trees are stored as
# preorder node lists: ["s", feature, threshold] for a split node whose two
# subtrees follow immediately (left first), ["l", [p0..p5]] for a leaf.
# Floats round-trip exactly through repr, so save -> load -> save is
# byte-identical.


def _tree_to_nodes(tree: DecisionTree) -> list:
    return [
        ["s", f, t] if f >= 0 else ["l", v]
        for f, t, v in zip(tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist())
    ]


def _nodes_to_tree(entries: list, feature_count: int) -> DecisionTree:
    nodes: list[list] = []  # as in train_tree
    open_splits: list[list] = []  # split nodes still waiting for their right child
    for tag, *fields in entries:
        if nodes and nodes[-1][0] < 0:  # a leaf just closed a left subtree
            if not open_splits:
                raise DataError("tree node list continues after its last leaf")
            open_splits.pop()[2] = len(nodes)
        if tag == "s":
            f, t = fields
            # a JSON number loads as int or float; true and false load as bool, an int
            if not (type(f) is int and 0 <= f < feature_count
                    and type(t) in (int, float) and np.isfinite(t)):
                raise DataError(f"split on feature {f!r} at {t!r}: need a feature in "
                                f"0..{feature_count - 1} and a finite threshold")
            nodes.append([f, float(t), -1, _NO_POSTERIOR])
            open_splits.append(nodes[-1])
        elif tag == "l":
            (post,) = fields
            if not (isinstance(post, list) and all(type(p) in (int, float) for p in post)):
                raise DataError(f"leaf {post!r} is not a list of numbers")
            post = np.asarray(post, dtype=float)
            if post.shape != (CLASS_COUNT,) or not (
                np.isfinite(post).all() and (post >= 0).all()
                and abs(post.sum() - 1.0) <= 1e-9
            ):
                raise DataError(f"leaf {post.tolist()} is not a {CLASS_COUNT}-class distribution")
            nodes.append([-1, 0.0, -1, post])
        else:
            raise DataError(f"unknown node tag {tag!r} in model file")
    if not nodes or open_splits:
        raise DataError("tree node list is empty or ends before every split has two subtrees")
    return DecisionTree(*zip(*nodes))


def model_document(forest: RandomForest, run_meta: dict | None = None) -> dict:
    """The JSON document a model file holds, built in a fixed key order."""
    doc = {
        "format": MODEL_FORMAT,
        "config": asdict(forest.config),
        "class_labels": list(CLASS_LABELS),
        "feature_schema": forest.feature_schema,
    }
    if run_meta:
        doc["run"] = dict(sorted(run_meta.items()))
    doc["trees"] = [_tree_to_nodes(t) for t in forest.trees]
    return doc


def save_model(forest: RandomForest, path: str | Path, run_meta: dict | None = None) -> None:
    doc = model_document(forest, run_meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_model(path: str | Path) -> tuple[RandomForest, dict]:
    """Read a model file back; returns (forest, run metadata dict).

    A malformed document of any kind, NaN or Infinity or a repeated key
    anywhere in it included, raises DataError.
    """
    text = read_utf8(Path(path)).decode("utf-8")
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=unique_keys)
    except ValueError as exc:  # a JSONDecodeError, a constant or a repeated key
        raise DataError(f"model file {path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError(f"model file {path}: not a {MODEL_FORMAT} document")
    try:
        cfg = doc["config"]
        for key in ("n_trees", "m_try", "seed"):
            if type(cfg[key]) is not int:
                raise DataError(f"config {key} must be an integer, got {cfg[key]!r}")
        config = ForestConfig(**{f.name: cfg[f.name] for f in fields(ForestConfig)})
        if doc["class_labels"] != list(CLASS_LABELS):
            raise DataError(f"class_labels must be {list(CLASS_LABELS)}")
        schema = str(doc["feature_schema"])
        feature_count = schema_length(schema)
        config.resolve_m_try(feature_count)
        trees = tuple(_nodes_to_tree(nodes, feature_count) for nodes in doc["trees"])
        run = doc.get("run", {})
        if not isinstance(run, dict):
            raise DataError(f"run must be a JSON object, got {type(run).__name__}")
    except (KeyError, TypeError, ValueError, OverflowError, InvalidConfig) as exc:
        raise DataError(f"model file {path}: malformed ({type(exc).__name__}: {exc})") from None
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from None
    if len(trees) != config.n_trees:
        raise DataError(f"model file {path}: tree count does not match config")
    return RandomForest(trees, config, schema), run
