"""Tree induction, forest training, posterior averaging, and serialization.

The split finder is checked node by node against an exhaustive oracle in
helpers.py that searches every (feature, midpoint) candidate from the
definition alone.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_tree_matches_oracle,
    entropy_impurity,
    int_dataset,
    oracle_best_split,
    oracle_fully_separates,
    reference_best_split,
    reference_column_split,
    reference_train_tree,
    resubstitution_accuracy,
    tree_bytes,
)
from sensorclass import forest as forest_module
from sensorclass.errors import DataError, InvalidConfig, SchemaMismatch
from sensorclass.features import FeatureVector, mask_indices, subset_schema
from sensorclass.forest import (
    DecisionTree,
    ForestConfig,
    LabeledDataset,
    RandomForest,
    classify,
    load_model,
    model_document,
    node_splits,
    predict_matrix,
    save_model,
    train_forest,
    train_forests,
    train_tree,
)
from sensorclass.trace import CLASS_COUNT
from sensorclass.trace import SensorType

LN2 = math.log(2.0)
LN6 = math.log(6.0)


def two_feature_dataset(rows, labels, schema="baseline2"):
    ids = tuple(f"i{k}" for k in range(len(rows)))
    return LabeledDataset(ids, np.asarray(rows, dtype=float), np.asarray(labels), schema)


# --- entropy impurity -----------------------------------------------------------


def test_entropy_pure_counts():
    assert entropy_impurity([4, 0, 0, 0, 0, 0]) == 0.0


def test_entropy_two_even_classes():
    assert entropy_impurity([2, 2, 0, 0, 0, 0]) == pytest.approx(LN2, abs=1e-15)


def test_entropy_uniform_six():
    assert entropy_impurity([1, 1, 1, 1, 1, 1]) == pytest.approx(LN6, abs=1e-15)


def test_entropy_scale_invariant():
    assert entropy_impurity([2, 2]) == entropy_impurity([7, 7])


def test_entropy_empty_counts_rejected():
    with pytest.raises(DataError):
        entropy_impurity([0, 0, 0])


# --- best split of a node: node_splits under one candidate set -----------------


def best_split(x, y, candidates):
    """node_splits of one ascending candidate set: (feature, threshold) or None."""
    f, t = node_splits(x, y, np.array(candidates), np.array([len(candidates)]))
    return None if f[0] < 0 else (int(f[0]), float(t[0]))


def test_best_split_two_points():
    x = np.array([[1.0], [3.0]])
    y = np.array([0, 1])
    split = best_split(x, y, [0])
    assert split == (0, 2.0)


def test_best_split_pure_labels_returns_none():
    x = np.array([[1.0], [3.0], [9.0]])
    y = np.array([2, 2, 2])
    assert best_split(x, y, [0]) is None


def test_best_split_constant_feature_returns_none():
    x = np.array([[5.0], [5.0], [5.0]])
    y = np.array([0, 1, 0])
    assert best_split(x, y, [0]) is None


def test_best_split_ignores_non_candidate_features():
    x = np.array([[1.0, 10.0], [3.0, 20.0]])
    y = np.array([0, 1])
    assert best_split(x, y, [1]) == (1, 15.0)


def test_best_split_tie_prefers_lowest_feature():
    # both columns separate the labels identically; feature 0 must win
    x = np.array([[1.0, 100.0], [3.0, 300.0]])
    y = np.array([0, 1])
    assert best_split(x, y, [0, 1])[0] == 0


def test_best_split_tie_prefers_smallest_threshold():
    # thresholds 1.5 and 2.5 both isolate one class member perfectly:
    # labels A A B around values 1, 2, 3 -> cutting at 1.5 gives ({A},{A,B}),
    # cutting at 2.5 gives ({A,A},{B}); only 2.5 is optimal. For a true tie
    # use symmetric labels A B around 1, 3 with a duplicate pair.
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    split = best_split(x, y, [0])
    assert split == (0, 2.5)
    # symmetric two-cut tie: values 1,2,3 with labels A,B,A; the cuts at 1.5
    # and 2.5 have equal gain, so the smaller threshold wins
    x2 = np.array([[1.0], [2.0], [3.0]])
    y2 = np.array([0, 1, 0])
    split2 = best_split(x2, y2, [0])
    assert split2 == (0, 1.5)


def test_best_split_matches_oracle_on_random_fixtures():
    for seed in range(60):
        ds = int_dataset(seed, n=2 + seed % 11, d=2, classes=3)
        got = best_split(ds.features, ds.labels, [0, 1])
        expected = oracle_best_split(ds.features, ds.labels)
        assert got == expected


# --- train_tree against the exhaustive oracle ------------------------------------


def tree_config(m_try=2, seed=0):
    return ForestConfig(n_trees=1, m_try=m_try, seed=seed)


def handcrafted_fixtures():
    yield two_feature_dataset([[1.0, 0.0], [3.0, 0.0]], [0, 1])
    yield two_feature_dataset([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]], [0, 1, 1, 0])
    yield two_feature_dataset([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]], [0, 1, 0])
    yield two_feature_dataset([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0], [4.0, 6.0]], [0, 0, 1, 1])
    yield two_feature_dataset([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]], [2, 2, 5])
    yield two_feature_dataset(
        [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
        [0, 1, 2, 0, 1, 2],
    )


def test_trained_trees_match_exhaustive_oracle():
    fixtures = list(handcrafted_fixtures())
    fixtures += [int_dataset(seed, n=2 + seed % 11, d=2, classes=3) for seed in range(40)]
    for ds in fixtures:
        assert len(ds) <= 12 and ds.feature_count == 2
        tree = train_tree(ds, tree_config(), 0, identity_bootstrap=True)
        assert_tree_matches_oracle(tree, ds.features, ds.labels)


def test_resubstitution_perfect_when_rows_distinct():
    # skips datasets where the oracle itself stalls on zero gain (XOR-like
    # layouts), since no positive-gain tree can separate those
    checked = 0
    fixtures = list(handcrafted_fixtures())
    fixtures += [int_dataset(seed, n=2 + seed % 11, d=2, classes=3) for seed in range(40)]
    for ds in fixtures:
        rows = [tuple(r) for r in ds.features]
        if len(set(rows)) != len(rows):
            continue
        if not oracle_fully_separates(ds.features, ds.labels):
            continue
        tree = train_tree(ds, tree_config(), 0, identity_bootstrap=True)
        assert resubstitution_accuracy(tree, ds.features, ds.labels) == 1.0
        checked += 1
    assert checked >= 20


def test_xor_layout_stalls_like_the_oracle():
    # every axis split of the XOR square has zero gain, so induction must
    # stop at an impure root; the oracle walk in assert_tree_matches_oracle
    # demands exactly that leaf
    ds = two_feature_dataset([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]], [0, 1, 1, 0])
    tree = train_tree(ds, tree_config(), 0, identity_bootstrap=True)
    assert tree.feature.tolist() == [-1]
    assert tree.value[0].tolist() == [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
    assert not oracle_fully_separates(ds.features, ds.labels)


def test_tree_leaf_posteriors_are_class_fractions():
    ds = two_feature_dataset([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]], [0, 0, 0, 1])
    tree = train_tree(ds, tree_config(), 0, identity_bootstrap=True)
    assert tree.feature.tolist() == [-1]
    assert tree.value[0].tolist() == [0.75, 0.25, 0.0, 0.0, 0.0, 0.0]


def wrap_tree(tree, config, schema):
    return RandomForest((tree,), config, tuple(SensorType), schema)


def test_identity_bootstrap_ignores_tree_index():
    ds = int_dataset(5, n=10)
    a = train_tree(ds, tree_config(), 0, identity_bootstrap=True)
    b = train_tree(ds, tree_config(), 7, identity_bootstrap=True)
    assert model_document(wrap_tree(a, tree_config(), ds.schema)) == model_document(
        wrap_tree(b, tree_config(), ds.schema)
    )


def test_bootstrap_trees_vary_with_index():
    ds = int_dataset(5, n=12)
    docs = {
        json.dumps(model_document(wrap_tree(train_tree(ds, tree_config(seed=1), k), tree_config(seed=1), ds.schema)))
        for k in range(6)
    }
    assert len(docs) > 1


# --- the lockstep grower against the recursive reference ---------------------------


@st.composite
def small_int_datasets(draw, d=None):
    """1-15 rows of d (else 1, 2, 3 or 8) small-integer features: gains tie
    across features and thresholds, some columns are constant, duplicate
    rows are likely and classes absent."""
    d = d or draw(st.sampled_from([1, 2, 3, 8]))
    n = draw(st.integers(1, 15))
    classes = draw(st.integers(1, CLASS_COUNT))
    cells = st.integers(0, draw(st.integers(1, 3)))
    feats = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                                   min_size=n, max_size=n)), dtype=float)
    for col in draw(st.sets(st.integers(0, d - 1))):
        feats[:, col] = feats[0, col]
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    return LabeledDataset(tuple(f"r{i}" for i in range(n)), feats, labels,
                          subset_schema((1 << d) - 1))


@settings(max_examples=150, deadline=None)
@given(small_int_datasets(), st.sampled_from(["1", "2", "D"]), st.booleans(),
       st.integers(0, 50), st.integers(0, 9), st.data())
def test_grower_equals_recursive_reference(dataset, m_try, identity, seed, index, data):
    d = dataset.feature_count
    config = ForestConfig(n_trees=1, m_try={"1": 1, "2": min(2, d), "D": d}[m_try], seed=seed)
    tree = train_tree(dataset, config, index, identity_bootstrap=identity)
    expected = reference_train_tree(dataset, config, index, identity_bootstrap=identity)
    assert tree_bytes(tree) == tree_bytes(expected)

    x, y = dataset.features, dataset.labels
    candidates = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d))
    split = best_split(x, y, sorted(set(candidates)))
    assert split == reference_best_split(x, y, candidates)
    n = len(y)
    counts = np.bincount(y, minlength=CLASS_COUNT).astype(float)
    gain, threshold = forest_module._segment_scores(
        x, y, forest_module._column_ranks(x), np.arange(n), np.array([n]), counts[None],
        np.arange(d), np.array([d]))
    parent = entropy_impurity(counts)
    assert [None if g == -np.inf else (float(g), float(t)) for g, t in zip(gain, threshold)] \
        == [reference_column_split(x[:, f], y, counts, parent) for f in range(d)]


@settings(max_examples=150, deadline=None)
@given(small_int_datasets(d=8))
def test_node_splits_of_every_mask_equal_the_reference(dataset):
    # all 255 candidate sets of eight columns at once, as the subset search asks
    x, y = dataset.features, dataset.labels
    sets = [mask_indices(mask) for mask in range(1, 256)]
    f, t = node_splits(x, y, np.concatenate(sets), np.array([len(c) for c in sets]))
    got = [None if fk < 0 else (fk, tk) for fk, tk in zip(f.tolist(), t.tolist())]
    assert got == [reference_best_split(x, y, c) for c in sets]


def batch_jobs():
    """Trees from folds of one dataset that differ in row count, m_try (1, 2
    and D) and bootstrap mode: (rows, config, tree index, identity bootstrap)."""
    ds = int_dataset(21, n=40, d=8, classes=5, max_val=4, schema="rich8")
    rng = np.random.default_rng(5)
    jobs = []
    for k, (size, m_try, identity) in enumerate(
        [(40, 2, False), (7, 1, False), (23, 8, True), (2, 2, False), (31, 1, True),
         (40, 8, False), (12, 2, True), (1, 1, False), (19, 8, False)]
    ):
        rows = np.sort(rng.choice(40, size=size, replace=False))
        jobs.append((rows, ForestConfig(n_trees=1, m_try=m_try, seed=100 + k), k, identity))
    return ds, jobs


@pytest.mark.parametrize("in_flight, entries", [(64, 4096), (3, 4096), (9, 1), (2, 50)])
def test_tree_does_not_depend_on_its_batch(monkeypatch, in_flight, entries):
    # every tree grown alone, then all of them grown in one lockstep batch,
    # with small caps so batches and kernel calls are cut in many places
    ds, jobs = batch_jobs()
    x, y = ds.features, ds.labels
    alone = [tree_bytes(next(forest_module._grow(x, y, [job]))) for job in jobs]
    monkeypatch.setattr(forest_module, "_TREES_IN_FLIGHT", in_flight)
    monkeypatch.setattr(forest_module, "_KERNEL_ENTRIES", entries)
    batched = [tree_bytes(tree) for tree in forest_module._grow(x, y, jobs)]
    assert batched == alone
    for (rows, config, index, identity), got in zip(jobs, batched):
        expected = reference_train_tree(ds.subset(rows), config, index,
                                        identity_bootstrap=identity)
        assert got == tree_bytes(expected)


def test_train_forests_equals_one_forest_per_fold(small_dataset):
    n = len(small_dataset)
    folds = [(np.delete(np.arange(n), i), ForestConfig(n_trees=3 + i % 2, seed=i))
             for i in range(0, n, 3)]
    folds.append((np.arange(n)[::2], ForestConfig(n_trees=2, m_try=8, seed=7)))
    forests = list(train_forests(small_dataset, folds))
    assert len(forests) == len(folds)
    for (rows, config), got in zip(folds, forests):
        expected = train_forest(small_dataset.subset(rows), config)
        assert model_document(got) == model_document(expected)


def test_train_forests_rejects_a_fold_without_rows(small_dataset):
    folds = [(np.arange(3), ForestConfig(n_trees=1)), (np.array([], dtype=int), ForestConfig())]
    with pytest.raises(DataError):
        list(train_forests(small_dataset, folds))


# --- routing through the preorder arrays -------------------------------------------


def one_tree_forest(tree, schema="baseline2"):
    config = ForestConfig(n_trees=1, m_try=1, seed=0, averaging_mode="standard")
    return RandomForest((tree,), config, tuple(SensorType), schema)


def manual_tree():
    # node 0 splits on feature 1 at 4.0; node 1 (left) and node 2 (right) are leaves
    return DecisionTree(
        feature=[1, -1, -1],
        threshold=[4.0, 0.0, 0.0],
        right=[2, -1, -1],
        value=[[0.0] * 6, [1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]],
    )


def test_predict_routes_boundary_left():
    forest = one_tree_forest(manual_tree())
    rows = np.array([[0.0, 4.0], [0.0, 4.0001], [99.0, -1.0]])
    probs = predict_matrix(forest, rows, "baseline2")
    assert probs[0].tolist()[0] == 1.0  # == goes left
    assert probs[1].tolist()[1] == 1.0
    assert probs[2].tolist()[0] == 1.0


def reference_posterior(forest, row, mode):
    """One row, one tree at a time, node by node; then the per-class combine."""
    stack = []
    for tree in forest.trees:
        node = 0
        while tree.feature[node] != -1:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = node + 1 if go_left else tree.right[node]
        stack.append(tree.value[node])
    stack = np.array(stack)
    if mode == "standard":
        return stack.mean(axis=0)
    nonzero = np.count_nonzero(stack, axis=0)
    raw = np.where(nonzero > 0, stack.sum(axis=0) / np.maximum(nonzero, 1), 0.0)
    return raw / raw.sum()


def test_predict_matrix_equals_per_row_reference(small_dataset):
    rng = np.random.default_rng(3)
    lo, hi = small_dataset.features.min(axis=0), small_dataset.features.max(axis=0)
    queries = np.vstack([small_dataset.features, rng.uniform(lo, hi, size=(40, 8))])
    for seed in range(3):
        forest = train_forest(small_dataset, ForestConfig(n_trees=9, seed=seed))
        for mode in ("paper", "standard"):
            probs = predict_matrix(forest, queries, "rich8", mode)
            expected = np.array([reference_posterior(forest, q, mode) for q in queries])
            assert np.array_equal(probs, expected)


def test_predict_matrix_rejects_non_finite_and_ragged_input():
    forest = one_tree_forest(manual_tree())
    with pytest.raises(DataError):
        predict_matrix(forest, np.array([[0.0, np.nan]]), "baseline2")
    with pytest.raises(DataError):
        predict_matrix(forest, np.zeros((2, 3)), "baseline2")


# --- forest posterior and averaging modes ------------------------------------------


def leaf_tree(posterior):
    return DecisionTree([-1], [0.0], [-1], [posterior])


def leaf_forest(posteriors, mode="paper"):
    trees = tuple(leaf_tree(p) for p in posteriors)
    config = ForestConfig(n_trees=len(trees), m_try=1, seed=0, averaging_mode=mode)
    return RandomForest(trees, config, None, "baseline2")


def posterior(forest, fv, mode=None):
    return classify(forest, fv, mode)[1]


def test_standard_averaging_means_all_trees():
    forest = leaf_forest([[0.5, 0.5, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]])
    fv = FeatureVector(np.zeros(2), "baseline2")
    probs = posterior(forest, fv, "standard")
    assert probs.tolist() == [0.75, 0.25, 0.0, 0.0, 0.0, 0.0]


def test_selective_averaging_skips_zero_trees_then_renormalizes():
    # class 0 averages over both trees (0.75); class 1 only over the tree
    # that gave it mass (0.5); renormalizing {0.75, 0.5} gives {0.6, 0.4}
    forest = leaf_forest([[0.5, 0.5, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]])
    fv = FeatureVector(np.zeros(2), "baseline2")
    probs = posterior(forest, fv, "paper")
    assert probs == pytest.approx([0.6, 0.4, 0, 0, 0, 0], abs=1e-15)


def test_mode_defaults_to_forest_config():
    forest = leaf_forest([[0.5, 0.5, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]], mode="standard")
    fv = FeatureVector(np.zeros(2), "baseline2")
    assert posterior(forest, fv).tolist() == [0.75, 0.25, 0.0, 0.0, 0.0, 0.0]


def test_unanimous_trees_agree_in_both_modes():
    forest = leaf_forest([[0, 0, 1.0, 0, 0, 0]] * 5)
    fv = FeatureVector(np.zeros(2), "baseline2")
    for mode in ("paper", "standard"):
        assert posterior(forest, fv, mode).tolist() == [0, 0, 1.0, 0, 0, 0]


def test_posteriors_sum_to_one_in_both_modes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        posts = rng.dirichlet(np.ones(6), size=k)
        # zero out a random subset of entries, renormalize rows
        mask = rng.random(posts.shape) < 0.4
        posts = np.where(mask, 0.0, posts)
        posts = posts[posts.sum(axis=1) > 0]
        if len(posts) == 0:
            continue
        posts = posts / posts.sum(axis=1, keepdims=True)
        forest = leaf_forest(posts.tolist())
        fv = FeatureVector(np.zeros(2), "baseline2")
        for mode in ("paper", "standard"):
            assert posterior(forest, fv, mode).sum() == pytest.approx(1.0, abs=1e-9)


def test_classify_tie_breaks_to_lowest_code():
    forest = leaf_forest([[0, 0, 0, 0, 0.5, 0.5]] * 3)
    fv = FeatureVector(np.zeros(2), "baseline2")
    predicted, probs = classify(forest, fv)
    assert predicted is SensorType.AIR_VOLUME  # code 4 beats code 5 on a tie
    assert probs.tolist() == [0, 0, 0, 0, 0.5, 0.5]


def test_classify_invalid_mode_rejected():
    forest = leaf_forest([[1.0, 0, 0, 0, 0, 0]])
    fv = FeatureVector(np.zeros(2), "baseline2")
    with pytest.raises(InvalidConfig):
        classify(forest, fv, "median")


def test_classify_schema_mismatch():
    forest = leaf_forest([[1.0, 0, 0, 0, 0, 0]])
    with pytest.raises(SchemaMismatch):
        classify(forest, FeatureVector(np.zeros(8), "rich8"))


# --- forest training ---------------------------------------------------------------


def test_train_forest_deterministic(small_dataset):
    config = ForestConfig(n_trees=12, seed=9)
    doc1 = model_document(train_forest(small_dataset, config))
    doc2 = model_document(train_forest(small_dataset, config))
    assert doc1 == doc2


def test_train_forest_seed_changes_trees(small_dataset):
    a = model_document(train_forest(small_dataset, ForestConfig(n_trees=4, seed=1)))
    b = model_document(train_forest(small_dataset, ForestConfig(n_trees=4, seed=2)))
    assert a != b


def test_forest_tree_k_equals_train_tree_k(small_dataset):
    config = ForestConfig(n_trees=5, seed=3)
    forest = train_forest(small_dataset, config)
    for k in (0, 2, 4):
        solo = train_tree(small_dataset, config, k)
        lone = RandomForest((solo,), config, forest.class_labels, small_dataset.schema)
        wrapped = RandomForest((forest.trees[k],), config, forest.class_labels, small_dataset.schema)
        assert model_document(lone) == model_document(wrapped)


def test_label_permutation_symmetry():
    # swapping two label codes permutes resubstitution predictions the same way
    ds = int_dataset(17, n=10, d=2, classes=2, max_val=9)
    swap = {0: 1, 1: 0}
    swapped = LabeledDataset(
        ds.ids, ds.features, np.array([swap[int(l)] for l in ds.labels]), ds.schema
    )
    config = ForestConfig(n_trees=7, seed=2)
    probs_a = predict_matrix(train_forest(ds, config), ds.features, ds.schema)
    probs_b = predict_matrix(train_forest(swapped, config), ds.features, ds.schema)
    for row_a, row_b in zip(probs_a, probs_b):
        assert row_a[0] == pytest.approx(row_b[1], abs=1e-12)
        assert row_a[1] == pytest.approx(row_b[0], abs=1e-12)


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        ForestConfig(n_trees=0)
    with pytest.raises(InvalidConfig):
        ForestConfig(m_try=0)
    with pytest.raises(InvalidConfig):
        ForestConfig(averaging_mode="vote")
    with pytest.raises(InvalidConfig):
        ForestConfig(m_try=9).resolve_m_try(8)


def test_default_m_try_is_sqrt_floor():
    assert ForestConfig().resolve_m_try(8) == 2
    assert ForestConfig().resolve_m_try(2) == 1
    assert ForestConfig(m_try=5).resolve_m_try(8) == 5


# --- serialization ------------------------------------------------------------------


def test_model_round_trip_bytes(tmp_path, small_dataset):
    config = ForestConfig(n_trees=6, seed=4)
    forest = train_forest(small_dataset, config)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(forest, p1, {"note": "x"})
    loaded, run = load_model(p1)
    assert run == {"note": "x"}
    save_model(loaded, p2, run)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_document_shape(small_dataset):
    forest = train_forest(small_dataset, ForestConfig(n_trees=2, seed=0))
    doc = model_document(forest, {"b": "2", "a": "1"})
    assert doc["format"] == "sensorclass-forest-v1"
    # the stored config carries the resolved m_try, not the None placeholder
    assert doc["config"] == {"n_trees": 2, "m_try": 2, "seed": 0, "averaging_mode": "paper"}
    assert doc["feature_schema"] == "rich8"
    assert list(doc["run"].keys()) == ["a", "b"]
    assert len(doc["trees"]) == 2


def test_model_predictions_survive_round_trip(tmp_path, small_dataset):
    forest = train_forest(small_dataset, ForestConfig(n_trees=6, seed=4))
    path = tmp_path / "m.json"
    save_model(forest, path)
    loaded, _ = load_model(path)
    a = predict_matrix(forest, small_dataset.features, small_dataset.schema)
    b = predict_matrix(loaded, small_dataset.features, small_dataset.schema)
    assert np.array_equal(a, b)


def test_load_model_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other-v9"}))
    with pytest.raises(DataError):
        load_model(path)


def test_predict_matrix_schema_mismatch(small_dataset):
    forest = train_forest(small_dataset, ForestConfig(n_trees=2, seed=0))
    with pytest.raises(SchemaMismatch):
        predict_matrix(forest, small_dataset.features[:, :2], "baseline2")
