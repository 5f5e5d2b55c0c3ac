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

Determinism: every tree's RNG derives from (config.seed, tree index), so
the forest is a pure function of (dataset, config) no matter in what order
its trees are built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import seeding
from .errors import DataError, InvalidConfig, SchemaMismatch
from .features import FeatureVector, schema_length
from .trace import CLASS_COUNT, SensorType, read_utf8

MODEL_FORMAT = "sensorclass-forest-v1"

AVERAGING_MODES = ("paper", "standard")

# derivation tag separating tree RNG streams from other consumers of a seed
_TREE_TAG = 101

_NO_POSTERIOR = np.zeros(CLASS_COUNT)  # value row of a split node
_ONE_HOT = np.eye(CLASS_COUNT)  # row c is the one-hot vector of class c


@dataclass(frozen=True)
class ForestConfig:
    """Training knobs.

    m_try of None means "decide at training time": floor(sqrt(D)) with a
    floor of 1, where D is the dataset's feature count.
    """

    n_trees: int = 50
    m_try: int | None = None
    seed: int = 0
    averaging_mode: str = "paper"

    def __post_init__(self):
        if self.n_trees < 1:
            raise InvalidConfig(f"n_trees must be >= 1, got {self.n_trees}")
        if self.m_try is not None and self.m_try < 1:
            raise InvalidConfig(f"m_try must be >= 1, got {self.m_try}")
        if self.averaging_mode not in AVERAGING_MODES:
            raise InvalidConfig(
                f"averaging_mode must be one of {AVERAGING_MODES}, got {self.averaging_mode!r}"
            )

    def resolve_m_try(self, feature_count: int) -> int:
        m = self.m_try if self.m_try is not None else max(1, int(np.sqrt(feature_count)))
        if m > feature_count:
            raise InvalidConfig(f"m_try {m} exceeds feature count {feature_count}")
        return m


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
    class_labels: tuple[SensorType, ...]
    feature_schema: str


def entropy_impurity(counts: np.ndarray | Sequence[float]) -> float:
    """Shannon entropy of a count vector, in nats. Zero counts contribute 0."""
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if total <= 0:
        raise DataError("entropy of an empty count vector is undefined")
    return float(_entropy_rows(c[None, :], np.array([total]))[0])


def _entropy_rows(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Row-wise entropy of count matrices; shared by parent and child paths
    so that identical distributions produce bit-identical values."""
    p = counts / totals[:, None]
    plogp = np.where(counts > 0, p * np.log(np.where(counts > 0, p, 1.0)), 0.0)
    return -plogp.sum(axis=1)


def _column_split(
    col: np.ndarray, labels: np.ndarray, counts: np.ndarray, parent: float
) -> tuple[float, float] | None:
    """(gain, threshold) of the best cut of one feature column, or None when
    the column is constant. counts and parent are the node's class counts
    and entropy; the first of equal gains, the smallest threshold, wins."""
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
    # both sides' entropies in one call: rows [0, k) are left, [k, 2k) right
    h = _entropy_rows(np.vstack([left, counts - left]), np.concatenate([n_left, n_right]))
    child = n_left * h[: len(cuts)] + n_right * h[len(cuts) :]
    gains = parent - child / n
    i = int(np.argmax(gains))
    cut = cuts[i]
    return float(gains[i]), float((sv[cut] + sv[cut + 1]) / 2.0)


def _node_entropy(labels: np.ndarray) -> tuple[np.ndarray, float]:
    """(class counts as floats, entropy) of the rows at a node."""
    counts = np.bincount(labels, minlength=CLASS_COUNT).astype(float)
    return counts, _entropy_rows(counts[None, :], np.array([float(len(labels))]))[0]


def best_split(
    features: np.ndarray, labels: np.ndarray, candidates: Sequence[int]
) -> tuple[int, float] | None:
    """Highest-information-gain split over the candidate features.

    Returns (feature, threshold): go left when value[feature] <= threshold.
    Thresholds are midpoints of consecutive distinct sorted values, so a
    split never produces an empty side. Returns None when no candidate has
    two distinct values or when the best achievable gain is not positive.
    Ties break toward the lowest feature index, then the smallest threshold.
    """
    counts, parent = _node_entropy(labels)
    best: tuple[int, float] | None = None
    best_gain = 0.0
    for f in sorted(set(int(c) for c in candidates)):
        score = _column_split(features[:, f], labels, counts, parent)
        if score is None or score[0] <= best_gain:
            continue
        best_gain, threshold = score
        best = (f, threshold)
    return best


def split_table(features: np.ndarray, labels: np.ndarray) -> list[tuple[float, float] | None]:
    """(gain, threshold) of the best cut of every feature column of a node's
    rows, None for a constant column. table_split picks from it as
    best_split would, so a node shared by many candidate sets is scored once."""
    counts, parent = _node_entropy(labels)
    return [_column_split(col, labels, counts, parent) for col in features.T]


def table_split(
    table: Sequence[tuple[float, float] | None], candidates: Sequence[int]
) -> tuple[int, float] | None:
    """best_split over ascending, distinct candidates, from the node's
    split_table: the first candidate with the strictly highest positive gain."""
    best: tuple[int, float] | None = None
    best_gain = 0.0
    for f in candidates:
        score = table[f]
        if score is None or score[0] <= best_gain:
            continue
        best_gain, threshold = score
        best = (f, threshold)
    return best


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
    skips resampling and trains on the dataset as-is; evaluation code uses
    it where a deterministic single tree is wanted.
    """
    rng = seeding.generator(config.seed, _TREE_TAG, tree_index)
    n = len(dataset)
    d = dataset.feature_count
    m_try = config.resolve_m_try(d)
    chosen = np.arange(n) if identity_bootstrap else rng.integers(0, n, size=n)
    x = dataset.features[chosen]
    y = dataset.labels[chosen]
    all_features = np.arange(d)
    nodes: list[list] = []  # [feature, threshold, right, value] per node, preorder

    def grow(sel: np.ndarray) -> None:
        counts = np.bincount(y[sel], minlength=CLASS_COUNT).astype(float)
        split = None
        if counts.max() < len(sel):  # impure
            cand = all_features if m_try == d else rng.choice(d, size=m_try, replace=False)
            split = best_split(x[sel], y[sel], cand)
        if split is None:
            nodes.append([-1, 0.0, -1, counts / len(sel)])
            return
        f, t = split
        node = [f, t, -1, _NO_POSTERIOR]
        nodes.append(node)
        go_left = x[sel, f] <= t
        grow(sel[go_left])
        node[2] = len(nodes)
        grow(sel[~go_left])

    grow(np.arange(n))
    return DecisionTree(*zip(*nodes))


def train_forest(dataset: LabeledDataset, config: ForestConfig) -> RandomForest:
    """Train config.n_trees trees, tree k from train_tree(..., k)."""
    resolved = replace(config, m_try=config.resolve_m_try(dataset.feature_count))
    trees = tuple(train_tree(dataset, resolved, i) for i in range(resolved.n_trees))
    return RandomForest(trees, resolved, tuple(SensorType), dataset.schema)


def predict_matrix(
    forest: RandomForest, features: np.ndarray, schema: str, mode: str | None = None
) -> np.ndarray:
    """Posteriors for a whole (n, D) matrix at once; rows sum to 1.

    Every row goes down every tree together, one depth level per step, so
    the Python loop runs once per level, not once per row and node. The
    trees' leaf posteriors are then combined in the given averaging mode.
    """
    if schema != forest.feature_schema:
        raise SchemaMismatch(f"model expects schema {forest.feature_schema!r}, got {schema!r}")
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
            if not (isinstance(f, int) and 0 <= f < feature_count and np.isfinite(t)):
                raise DataError(f"split on feature {f!r} at {t!r}: need a feature in "
                                f"0..{feature_count - 1} and a finite threshold")
            nodes.append([f, float(t), -1, _NO_POSTERIOR])
            open_splits.append(nodes[-1])
        elif tag == "l":
            (post,) = fields
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
        "config": {
            "n_trees": forest.config.n_trees,
            "m_try": forest.config.m_try,
            "seed": forest.config.seed,
            "averaging_mode": forest.config.averaging_mode,
        },
        "class_labels": [t.label for t in forest.class_labels],
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


def load_model(path: str | Path) -> tuple[RandomForest, dict]:
    """Read a model file back; returns (forest, run metadata dict).

    A malformed document of any kind raises DataError.
    """
    text = read_utf8(Path(path)).decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError(f"model file {path}: not a {MODEL_FORMAT} document")
    try:
        cfg = doc["config"]
        config = ForestConfig(
            n_trees=int(cfg["n_trees"]),
            m_try=int(cfg["m_try"]),
            seed=int(cfg["seed"]),
            averaging_mode=str(cfg["averaging_mode"]),
        )
        labels = tuple(SensorType.from_label(s) for s in doc["class_labels"])
        schema = str(doc["feature_schema"])
        feature_count = schema_length(schema)
        trees = tuple(_nodes_to_tree(nodes, feature_count) for nodes in doc["trees"])
        run = dict(doc.get("run", {}))
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise DataError(f"model file {path}: malformed ({type(exc).__name__}: {exc})") from None
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from None
    if len(trees) != config.n_trees:
        raise DataError(f"model file {path}: tree count does not match config")
    return RandomForest(trees, config, labels, schema), run
