"""Tree induction, forest training, posterior averaging, and serialization.

The split finder is checked node by node against an exhaustive oracle in
helpers.py that searches every (feature, midpoint) candidate from the
definition alone.
"""

import hashlib
import json
import math
from pathlib import Path

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
from sensorclass import seeding
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


@pytest.mark.parametrize("ids, features, labels, message", [
    (("a", "b"), np.zeros((1, 2)), [0], "misaligned"),
    ((), np.zeros((0, 2)), np.zeros(0, dtype=int), "empty"),
    (("a",), np.zeros((1, 3)), [0], "expects 2 features, matrix has 3"),
    (("a",), [[0.0, np.inf]], [0], "non-finite"),
    (("a",), np.zeros((1, 2)), [CLASS_COUNT], "labels must be codes"),
    (("a",), np.zeros((1, 2)), [-1], "labels must be codes"),
], ids=["misaligned", "empty", "schema-width", "non-finite", "label-above", "label-below"])
def test_dataset_rejects_a_malformed_part(ids, features, labels, message):
    with pytest.raises(DataError, match=message):
        LabeledDataset(ids, features, np.asarray(labels), "baseline2")


# --- best split of a node: the split kernel under one candidate set ------------


def node_splits(x, y, candidates, n_cand):
    """(feature, threshold) of the node of all of x's rows under each candidate
    set, set k the next n_cand[k] candidates: every column scored once by
    _segment_scores, then _best_splits, as evaluate's subset search scores a node."""
    n, d = x.shape
    counts = np.bincount(y, minlength=CLASS_COUNT).astype(float)
    gain, threshold = forest_module._segment_scores(
        x, y, forest_module._column_ranks(x), np.arange(n), np.array([n]), counts[None],
        np.arange(d), np.array([d]))
    return forest_module._best_splits(gain[candidates], threshold[candidates], candidates, n_cand)


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
    return RandomForest((tree,), config, schema)


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


# the seed of LOO fold 3 at seed 42, as evaluate derives it: past 63 bits
FOLD_SEED = seeding.derive_seed(42, 202, 3)
assert 2**63 <= FOLD_SEED < 2**64


@settings(max_examples=150, deadline=None)
@given(small_int_datasets(), st.sampled_from(["1", "2", "D"]), st.booleans(),
       st.integers(0, 50) | st.sampled_from([FOLD_SEED, 2**100]), st.integers(0, 9), st.data())
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


@settings(max_examples=150, deadline=None)
@given(small_int_datasets(d=8), st.data())
def test_a_node_scores_the_same_on_the_datasets_ranks_as_on_its_own(dataset, data):
    # the subset search scores a node's row indices on the whole dataset's ranks
    x, y = dataset.features, dataset.labels
    n, d = x.shape
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    counts = np.bincount(y[rows], minlength=CLASS_COUNT).astype(float)[None]
    k, every = np.array([len(rows)]), np.arange(d)
    shared = forest_module._segment_scores(x, y, forest_module._column_ranks(x), rows, k, counts,
                                           every, np.array([d]))
    xr, yr = x[rows], y[rows]
    alone = forest_module._segment_scores(xr, yr, forest_module._column_ranks(xr),
                                          np.arange(len(rows)), k, counts, every, np.array([d]))
    assert [a.tobytes() for a in shared] == [a.tobytes() for a in alone]


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


def decode(words, cursor, bitgens, m, d):
    """Each slot's candidates, ascending, from one _draw_candidates call (slot k draws m[k])."""
    mask = forest_module._draw_candidates(words, cursor, bitgens, np.arange(len(m)), np.array(m), d)
    return [np.flatnonzero(row).tolist() for row in mask]


def bootstrapped(bitgen, twin, n, words, k):
    """Bootstrap n rows from bitgen, checked against twin.integers(0, n, size=n), and put
    the words left after it at the end of slot k's buffer, as the grower admits a tree."""
    draws, tail = forest_module._raw_draws(bitgen, n, n, words.shape[1])
    assert draws.tolist() == twin.integers(0, n, size=n).tolist()
    words[k, words.shape[1] - len(tail):] = tail
    return words.shape[1] - len(tail)


@pytest.mark.parametrize("offset", ["odd", "even"])
@pytest.mark.parametrize("d", range(2, 9))
def test_decoded_candidates_equal_choice(d, offset):
    # every 1 <= m < d (and m = d, which takes every feature with no draw), each slot on
    # its own stream after a bootstrap of odd or even length, as in the grower; a 16-word
    # buffer makes many draws straddle a refill
    for seed in range(40):
        ms = list(range(1, d + 1))
        bitgens = [seeding.generator(seed, d, m).bit_generator for m in ms]
        twins = [seeding.generator(seed, d, m) for m in ms]
        words = np.zeros((len(ms), 16), dtype=np.uint32)
        cursor = np.zeros(len(ms), dtype=np.intp)
        for k, (a, b) in enumerate(zip(bitgens, twins)):
            n = 2 * (seed + k) + 1 if offset == "odd" else 2 * (seed + k) + 2
            cursor[k] = bootstrapped(a, b, n, words, k)
        for _ in range(4):
            expected = [sorted(b.choice(d, size=m, replace=False).tolist()) if m < d
                        else list(range(d)) for b, m in zip(twins, ms)]
            assert decode(words, cursor, bitgens, ms, d) == expected


def test_a_rejected_word_gives_way_to_the_next():
    # d = 3, m = 1 draws once, in [0, 3): word 0 has low half 0 < (2**32 - 3) % 3 = 1, so it
    # is rejected and word 2**31 decides: (2**31 * 3) >> 32 = 1
    words = np.array([[0, 2**31, 7]], dtype=np.uint32)
    cursor = np.array([0])
    assert decode(words, cursor, [None], [1], 3) == [[1]]
    assert cursor.tolist() == [2]
    # the same rejection on the buffer's last word: the next word comes from the bit generator
    bitgen, twin = seeding.generator(5, 1).bit_generator, seeding.generator(5, 1)
    words = np.array([[9, 0]], dtype=np.uint32)
    cursor = np.array([1])
    assert decode(words, cursor, [bitgen], [1], 3) == [twin.choice(3, size=1, replace=False).tolist()]
    assert cursor.tolist() == [1]
    # three unread words, three needed (d = 8, m = 2), but the first is rejected in
    # [0, 7) (low half 0 < (2**32 - 7) % 7 = 4): the two words left, an identity
    # bootstrap's, supply two draws, and a refill supplies the third
    bitgen, twin = seeding.generator(9, 7).bit_generator, seeding.generator(9, 7)
    words = np.array([[9, 0, 0, 0]], dtype=np.uint32)
    _, words[0, 2:] = forest_module._raw_draws(bitgen, 8, 0, 2)
    cursor = np.array([1])
    assert decode(words, cursor, [bitgen], [2], 8) == [sorted(twin.choice(8, 2, replace=False).tolist())]
    assert cursor.tolist() == [1]
    assert (twin.integers(0, 2**32, size=1, dtype=np.uint32) == words[0, 1]).all()


def test_a_draw_straddles_a_refill():
    # three words left after a bootstrap of 5 rows, five needed (d = 8, m = 3): the
    # buffer is refilled after the third, and the last two come from its front
    bitgen, twin = seeding.generator(9, 4).bit_generator, seeding.generator(9, 4)
    words = np.zeros((1, 4), dtype=np.uint32)
    cursor = np.array([bootstrapped(bitgen, twin, 5, words, 0)])
    assert cursor.tolist() == [1]
    assert decode(words, cursor, [bitgen], [3], 8) == [sorted(twin.choice(8, 3, replace=False).tolist())]
    assert cursor.tolist() == [2]
    assert (twin.integers(0, 2**32, size=1, dtype=np.uint32) == words[0, 2]).all()


@pytest.mark.parametrize("width", [2, 4, 32])
def test_trees_do_not_depend_on_the_buffer_width(monkeypatch, width):
    # the words a tree reads are its stream's, however many a refill takes at once
    ds, jobs = batch_jobs()
    digest = grower_digest(datasets=40)
    monkeypatch.setattr(forest_module, "_WORDS", width)
    assert grower_digest(datasets=40) == digest
    for (rows, config, index, identity), tree in zip(jobs, forest_module._grow(
            ds.features, ds.labels, jobs)):
        expected = reference_train_tree(ds.subset(rows), config, index,
                                        identity_bootstrap=identity)
        assert tree_bytes(tree) == tree_bytes(expected)


def assert_raw_draws_equal_integers(k, r, size, width):
    """_raw_draws on generator k against integers(0, r, size=size) and then uint32 words on
    a twin; the generator reads on where the decoded words end."""
    rng, twin = seeding.generator(k), seeding.generator(k)
    draws, words = forest_module._raw_draws(rng.bit_generator, r, size, width)
    assert draws.tolist() == twin.integers(0, r, size=size).tolist()
    assert len(words) <= width
    after = rng.integers(0, 2**32, size=40, dtype=np.uint32).tolist()
    assert [*words.tolist(), *after] == twin.integers(0, 2**32, size=len(words) + 40,
                                                      dtype=np.uint32).tolist()
    return words


def test_raw_bootstrap_and_words_equal_integers():
    # a tree's bootstrap, integers(0, n, size=n), and the words after it: n == 1 and the
    # identity bootstrap (size 0) read no half, and the words fill all but at most one slot
    for n in range(1, 301):
        words = assert_raw_draws_equal_integers(n, n, n, 32)
        assert len(words) == (32 if n == 1 else 32 - n % 2)
        assert len(assert_raw_draws_equal_integers(n, n, 0, 32)) == 32


def test_raw_draws_are_taken_from_the_64_bit_product():
    # a half times r needs 64 bits: kept in 32 bits, as numpy 1.x keeps uint32 * np.uint64(r),
    # every draw would read 0 and every bootstrap would repeat its first row
    for r in (255, 2**31):
        draws, _ = forest_module._raw_draws(seeding.generator(5).bit_generator, r, 64, 32)
        assert draws.max() > r // 2


def test_raw_draws_reject_as_lemire_does():
    # r = 3 * 2**30 + 7 rejects a half whose product's low 32 bits are below
    # (2**32 - r) % r = 2**30 - 7, one in four: 942 halves over these 300 streams, counted
    # here from the raw outputs. With one word of room, the first outputs fall short of nine
    # draws, and more are read
    r = 3 * 2**30 + 7
    rejected = 0
    for k in range(300):
        for width in (32, 1):
            assert_raw_draws_equal_integers(k, r, 9, width)
        halves = [h for w in seeding.generator(k).bit_generator.random_raw(40).tolist()
                  for h in (w & 0xFFFFFFFF, w >> 32)]
        kept = [i for i, h in enumerate(halves) if (h * r) & 0xFFFFFFFF >= 2**30 - 7]
        rejected += kept[8] - 8  # the halves read before the ninth kept one, less eight
    assert rejected == 942


GROWER_DIGEST = Path(__file__).parent / "golden" / "grower.sha256"


def grower_digest(datasets=400):
    """sha256 over tree_bytes of the trees grown on a fixed, seeded set of random
    small-integer datasets: 1-40 rows, 1-8 features, m_try 1, 2 and D, both
    bootstrap modes and three tree indices per dataset, in one _grow call each."""
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for k in range(datasets):
        n, d = int(rng.integers(1, 41)), int(rng.integers(1, 9))
        x = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)).astype(float)
        y = rng.integers(0, int(rng.integers(1, CLASS_COUNT + 1)), size=n)
        jobs = [(np.arange(n), ForestConfig(n_trees=1, m_try=m_try, seed=k), index, identity)
                for m_try in sorted({1, min(2, d), d}) for identity in (False, True)
                for index in (0, 1, 7)]
        for tree in forest_module._grow(x, y, jobs):
            h.update(tree_bytes(tree))
    return h.hexdigest()


def test_grower_digest_is_unchanged():
    # any change to a tree's bytes, on any of these datasets, shows here
    assert grower_digest() == GROWER_DIGEST.read_text().strip()


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
    return RandomForest((tree,), config, schema)


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
    return RandomForest(trees, config, "baseline2")


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
        lone = RandomForest((solo,), config, small_dataset.schema)
        wrapped = RandomForest((forest.trees[k],), config, small_dataset.schema)
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


def test_load_model_rejects_a_repeated_key(tmp_path):
    # the golden model with a second "trees" list, of one-leaf trees, after the first
    text = (Path(__file__).parent / "golden" / "model.json").read_text().rstrip()
    leaf = ["l", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
    path = tmp_path / "twice.json"
    path.write_text(text[:-1] + ', "trees": ' + json.dumps([[leaf]] * 10) + "}\n")
    with pytest.raises(DataError, match="repeated key 'trees'"):
        load_model(path)


def test_predict_matrix_schema_mismatch(small_dataset):
    forest = train_forest(small_dataset, ForestConfig(n_trees=2, seed=0))
    with pytest.raises(SchemaMismatch):
        predict_matrix(forest, small_dataset.features[:, :2], "baseline2")
