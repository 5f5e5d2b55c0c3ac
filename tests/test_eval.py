"""Evaluation protocols: stratified percentage runs, leave-one-out,
cross-corpus transfer, window sweeps, and the feature-subset search."""

import multiprocessing
import os
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_trace, reference_subset_search
from sensorclass import evaluate, seeding
from sensorclass.errors import DataError, DegenerateFraction, NoWindows, SchemaMismatch
from sensorclass.evaluate import (
    FULL_COLUMN,
    LOO_COLUMN,
    ROW_NAMES,
    AccuracyCell,
    accuracy_column,
    build_dataset,
    feature_subset_search,
    fraction_column_name,
    fraction_splits,
    inter_corpus,
    loo_cv,
    per_class_accuracy,
    percentage_protocol,
    render_table_text,
    repeats_for_fraction,
    stratified_split,
    table_csv_rows,
    window_sweep,
)
from sensorclass.forest import ForestConfig, LabeledDataset, predict_matrix, train_forest
from sensorclass.trace import CLASS_COUNT, SensorType


def dataset_with_counts(counts, schema="baseline2", feature_fn=None):
    """counts: class code -> number of instances."""
    rows, labels, ids = [], [], []
    i = 0
    for code, n in counts.items():
        for k in range(n):
            value = float(code * 100 + k) if feature_fn is None else feature_fn(code, k)
            rows.append([value, 0.0])
            labels.append(code)
            ids.append(f"c{code}-{k}")
            i += 1
    return LabeledDataset(tuple(ids), np.array(rows), np.array(labels), schema)


# --- stratified_split ---------------------------------------------------------


def test_split_ten_per_class_at_twenty_percent():
    ds = dataset_with_counts({0: 10, 1: 10})
    train, test = stratified_split(ds, 0.2, np.random.default_rng(0))
    assert len(train) == 4 and len(test) == 16
    for code in (0, 1):
        assert (ds.labels[train] == code).sum() == 2
        assert (ds.labels[test] == code).sum() == 8


def test_split_three_per_class_at_twenty_percent():
    ds = dataset_with_counts({0: 3, 1: 3})
    train, test = stratified_split(ds, 0.2, np.random.default_rng(0))
    for code in (0, 1):
        assert (ds.labels[train] == code).sum() == 1
        assert (ds.labels[test] == code).sum() == 2


def test_split_keeps_both_sides_populated_per_class():
    # 0.9 of 2 instances rounds to 2, but the clamp keeps one for testing
    ds = dataset_with_counts({0: 2, 1: 2})
    train, test = stratified_split(ds, 0.9, np.random.default_rng(0))
    for code in (0, 1):
        assert (ds.labels[train] == code).sum() == 1
        assert (ds.labels[test] == code).sum() == 1


def test_split_singleton_class_goes_to_train():
    ds = dataset_with_counts({0: 1, 1: 4})
    train, test = stratified_split(ds, 0.5, np.random.default_rng(0))
    assert (ds.labels[train] == 0).sum() == 1
    assert (ds.labels[test] == 0).sum() == 0


def test_split_is_a_partition():
    ds = dataset_with_counts({0: 7, 1: 5, 3: 6})
    train, test = stratified_split(ds, 0.33, np.random.default_rng(3))
    merged = np.sort(np.concatenate([train, test]))
    assert merged.tolist() == list(range(len(ds)))


def test_split_rejects_degenerate_fractions():
    ds = dataset_with_counts({0: 4, 1: 4})
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DegenerateFraction):
            stratified_split(ds, bad, np.random.default_rng(0))


def test_split_rejects_a_fraction_that_leaves_a_side_empty():
    # singleton classes all go to train, so nothing is left to test on
    ds = dataset_with_counts({0: 1, 1: 1, 2: 1})
    with pytest.raises(DegenerateFraction, match="test=0"):
        stratified_split(ds, 0.5, np.random.default_rng(0))


def test_split_deterministic_for_a_seeded_rng():
    ds = dataset_with_counts({0: 9, 1: 9})
    a = stratified_split(ds, 0.33, np.random.default_rng(7))
    b = stratified_split(ds, 0.33, np.random.default_rng(7))
    assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=2, max_value=25), min_size=1, max_size=4),
    fraction=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=999),
)
def test_split_train_counts_track_fraction(sizes, fraction, seed):
    ds = dataset_with_counts({code: n for code, n in enumerate(sizes)})
    train, _ = stratified_split(ds, fraction, np.random.default_rng(seed))
    for code, n_c in enumerate(sizes):
        got = int((ds.labels[train] == code).sum())
        assert abs(got - fraction * n_c) <= 1.0
        assert 1 <= got <= n_c - 1


# --- per-class accuracy ----------------------------------------------------------


def test_per_class_accuracy_micro_overall():
    truth = [0, 0, 1, 1, 1, 4]
    pred = [0, 1, 1, 1, 0, 4]
    acc = per_class_accuracy(truth, pred)
    assert acc.overall == pytest.approx(4 / 6)
    assert acc.per_class[SensorType.CO2] == pytest.approx(0.5)
    assert acc.per_class[SensorType.HUMIDITY] == pytest.approx(2 / 3)
    assert acc.per_class[SensorType.AIR_VOLUME] == 1.0
    assert acc.per_class[SensorType.SETPOINT] is None  # absent from truth
    assert acc.support[SensorType.SETPOINT] == 0
    assert acc.support[SensorType.HUMIDITY] == 3


def test_per_class_accuracy_rejects_empty_or_misaligned():
    with pytest.raises(DataError):
        per_class_accuracy([], [])
    with pytest.raises(DataError):
        per_class_accuracy([0, 1], [0])


# --- repeats and column names ------------------------------------------------------


def test_repeats_examples():
    assert repeats_for_fraction(0.05) == 20
    assert repeats_for_fraction(0.5) == 2
    assert repeats_for_fraction(0.33) == 3
    assert repeats_for_fraction(0.1) == 10
    assert repeats_for_fraction(1 / 1000.4) == 1000  # the cap is inclusive


def test_repeats_rejects_degenerate():
    for bad in (0.0, 1.0, -1.0, 1 / 1000.6, 1e-9, 5e-324):  # the last three exceed 1,000 repeats
        with pytest.raises(DegenerateFraction):
            repeats_for_fraction(bad)


def test_fraction_column_names():
    assert fraction_column_name(0.05) == "5%"
    assert fraction_column_name(0.33) == "33%"
    assert fraction_column_name(0.125) == "12.5%"


# --- percentage protocol -------------------------------------------------------------


def test_percentage_table_shape_and_repeats(small_dataset):
    config = ForestConfig(n_trees=8, seed=5)
    [(table, _)] = percentage_protocol([small_dataset], (0.33, 0.5), config)
    assert list(table) == ["33%", "50%", "loo"]
    assert all(list(cells) == ROW_NAMES for cells in table.values())
    for name in ("33%", "50%"):
        cell = table[name]["overall"]
        assert isinstance(cell, AccuracyCell)
        assert cell.mean is not None and 0.0 <= cell.mean <= 1.0
    assert table["33%"]["overall"].repeats == 3
    assert table["50%"]["overall"].repeats == 2


def test_percentage_deterministic(small_dataset):
    config = ForestConfig(n_trees=6, seed=9)
    [(a, _)] = percentage_protocol([small_dataset], (0.5,), config)
    [(b, _)] = percentage_protocol([small_dataset], (0.5,), config)
    assert a == b


def test_percentage_protocol_ends_with_the_loo_run(small_dataset):
    # the fraction folds and the LOO folds grow in one call; the LOO column
    # and records are those loo_cv gives, in the same entropy base
    config = ForestConfig(n_trees=4, seed=12)
    [(table, loo)] = percentage_protocol([small_dataset], (0.33, 0.5), config, "bits")
    expected = loo_cv(small_dataset, config, "bits")
    assert [(p.trace_id, p.predicted, p.entropy, p.probs.tolist()) for p in loo.predictions] == [
        (p.trace_id, p.predicted, p.entropy, p.probs.tolist()) for p in expected.predictions]
    assert loo.truth == expected.truth
    assert table["loo"] == accuracy_column([expected.accuracy])
    [(alone, _)] = percentage_protocol([small_dataset], (0.33,), config)
    assert table["33%"] == alone["33%"]


def test_fraction_splits_follow_the_seed_path(small_dataset):
    config = ForestConfig(n_trees=3, seed=17)
    folds = list(fraction_splits(small_dataset, 0.33, config, 201, 1))
    assert len(folds) == repeats_for_fraction(0.33)
    for rep, (train_idx, test_idx, fold_config) in enumerate(folds):
        want = stratified_split(small_dataset, 0.33, seeding.generator(17, 201, 1, rep, 0))
        assert np.array_equal(train_idx, want[0]) and np.array_equal(test_idx, want[1])
        assert fold_config == replace(config, seed=seeding.derive_seed(17, 201, 1, rep, 1))


# --- leave-one-out ---------------------------------------------------------------------


def test_loo_two_instances_two_classes_scores_zero():
    ds = dataset_with_counts({0: 1, 1: 1})
    result = loo_cv(ds, ForestConfig(n_trees=3, seed=0))
    assert result.accuracy.overall == 0.0
    assert all(not ok for ok in result.correctness.values())


def test_loo_covers_every_instance(small_dataset):
    result = loo_cv(small_dataset, ForestConfig(n_trees=8, seed=1))
    assert {p.trace_id for p in result.predictions} == set(small_dataset.ids)
    assert set(result.truth) == set(small_dataset.ids)
    for p in result.predictions:
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_loo_single_instance_rejected():
    ds = dataset_with_counts({0: 1})
    with pytest.raises(DataError):
        loo_cv(ds, ForestConfig())


@pytest.mark.parametrize("m_try", [1, 8], ids=["m-try-1", "m-try-D"])
def test_loo_matches_one_forest_per_held_out_row(small_dataset, m_try):
    # row i's posteriors are those of a forest trained on the other rows
    # alone, seeded at (seed, 202, i), from the one-forest entry point
    config = ForestConfig(n_trees=3, m_try=m_try, seed=23)
    result = loo_cv(small_dataset, config, "bits")
    n = len(small_dataset)
    assert [p.trace_id for p in result.predictions] == list(small_dataset.ids)
    for i, p in enumerate(result.predictions):
        others = small_dataset.subset(np.delete(np.arange(n), i))
        forest = train_forest(others, replace(config, seed=seeding.derive_seed(23, 202, i)))
        want = predict_matrix(forest, small_dataset.features[[i]], small_dataset.schema)[0]
        assert p.probs.tolist() == want.tolist(), i
        assert p.predicted == SensorType(int(want.argmax()))


def test_loo_deterministic(small_dataset):
    config = ForestConfig(n_trees=6, seed=2)
    a = loo_cv(small_dataset, config)
    b = loo_cv(small_dataset, config)
    assert a.accuracy == b.accuracy
    assert [p.entropy for p in a.predictions] == [p.entropy for p in b.predictions]


# --- inter corpus ------------------------------------------------------------------------


def test_inter_full_fraction_returns_result(small_dataset):
    [(table, full)] = inter_corpus([small_dataset], [small_dataset], (1.0,),
                                   ForestConfig(n_trees=8, seed=3))
    assert full is not None
    assert list(table) == [FULL_COLUMN]
    # resubstitution with a forest on its own training set is near-perfect
    assert full.accuracy.overall >= 0.9


def test_inter_without_full_fraction_returns_none(small_dataset):
    [(table, full)] = inter_corpus([small_dataset], [small_dataset], (0.5,),
                                   ForestConfig(n_trees=4, seed=3))
    assert full is None
    assert list(table) == ["50%"]
    assert table["50%"]["overall"].repeats == 2


def test_inter_missing_class_scores_zero(small_dataset):
    keep = np.nonzero(small_dataset.labels != int(SensorType.SETPOINT))[0]
    train = small_dataset.subset(keep)
    [(_, full)] = inter_corpus([train], [small_dataset], (1.0,), ForestConfig(n_trees=8, seed=4))
    assert full.accuracy.per_class[SensorType.SETPOINT] == 0.0


def test_inter_schema_mismatch(small_corpus, small_dataset):
    ds_b = build_dataset(small_corpus, 2700.0, "baseline2")
    with pytest.raises(SchemaMismatch):
        inter_corpus([small_dataset], [ds_b], (1.0,), ForestConfig())


# --- window sweep -----------------------------------------------------------------------


def sweep_traces():
    # four types, two traces each, distinct bands; spans of one hour
    traces = []
    rng = np.random.default_rng(0)
    for code, level in ((0, 400.0), (1, 40.0), (2, 70.0), (4, 200.0)):
        for k in range(2):
            ts = [60.0 * i for i in range(61)]
            vs = level + rng.normal(0, 1 + code, size=61)
            traces.append(make_trace(f"s{code}-{k}", ts, vs.tolist(), SensorType(code)))
    return traces


def test_window_sweep_returns_requested_grid():
    points = window_sweep(sweep_traces(), (15, 30), config=ForestConfig(n_trees=5, seed=0))
    assert [m for m, _ in points] == [15, 30]
    for _, acc in points:
        assert 0.0 <= acc <= 1.0


def test_window_sweep_skips_window_longer_than_every_trace():
    points = window_sweep(sweep_traces(), (30, 90), config=ForestConfig(n_trees=5, seed=0))
    assert [m for m, _ in points] == [30]  # hour-long traces cannot fill 90 min


def test_window_sweep_drops_short_traces_only():
    traces = sweep_traces()
    short = make_trace("tiny", [0.0, 60.0, 120.0], [1.0, 2.0, 3.0], SensorType.SETPOINT)
    points_with = window_sweep(traces + [short], (15,), config=ForestConfig(n_trees=5, seed=0))
    points_without = window_sweep(traces, (15,), config=ForestConfig(n_trees=5, seed=0))
    assert points_with == points_without


def test_window_sweep_second_corpus_transfer():
    cfg = ForestConfig(n_trees=5, seed=2)
    half_hour = [
        make_trace(t.trace_id, t.timestamps[:31].tolist(), t.values[:31].tolist(), t.label)
        for t in sweep_traces()
    ]
    points = window_sweep(sweep_traces(), (15, 45), config=cfg, traces_b=half_hour)
    assert [m for m, _ in points] == [15]  # 45 min fits the first corpus only
    assert 0.0 <= points[0][1] <= 1.0
    assert points == window_sweep(sweep_traces(), (15, 45), config=cfg, traces_b=half_hour)


def mislabeled_sweep_corpus(n=13):
    """n one-hour traces in sweep_traces' bands; every third carries the next band's label."""
    rng = np.random.default_rng(1)
    bands = ((0, 400.0), (1, 40.0), (2, 70.0), (4, 200.0))
    traces = []
    for k in range(n):
        code, level = bands[k % 4]
        label = bands[(k + 1) % 4][0] if k % 3 == 0 else code
        vs = level + rng.normal(0, 1 + code, size=61)
        traces.append(make_trace(f"b{k}", [60.0 * i for i in range(61)], vs.tolist(),
                                 SensorType(label)))
    return traces


def test_window_sweep_transfer_is_the_mean_of_fold_accuracies():
    cfg = ForestConfig(n_trees=5, seed=2)
    traces_b = mislabeled_sweep_corpus()
    [(_, got)] = window_sweep(sweep_traces(), (15,), config=cfg, traces_b=traces_b)
    # recomputed by hand: a forest on all of corpus A at seed (2, 204, 0, 1), scored on ten
    # folds of corpus B permuted at (2, 204, 0, 0); 13 rows split into folds of 2 and of 1
    forest = train_forest(build_dataset(sweep_traces(), 900.0),
                          replace(cfg, seed=seeding.derive_seed(2, 204, 0, 1)))
    ds_b = build_dataset(traces_b, 900.0)
    hits = predict_matrix(forest, ds_b.features, ds_b.schema).argmax(axis=1) == ds_b.labels
    folds = np.array_split(seeding.generator(2, 204, 0, 0).permutation(len(ds_b)), 10)
    fold_mean = float(np.mean([hits[rows].mean() for rows in folds if len(rows)]))
    assert got == fold_mean
    assert abs(fold_mean - hits.mean()) > 0.01  # the fold mean is not the pooled accuracy


def test_window_sweep_scores_loo_without_prediction_records(monkeypatch):
    cfg = ForestConfig(n_trees=5, seed=3)
    expected = loo_cv(build_dataset(mislabeled_sweep_corpus(), 900.0), cfg).accuracy.overall

    def no_records(*args):
        raise AssertionError("window_sweep built a Prediction record")

    monkeypatch.setattr(evaluate, "make_prediction", no_records)
    assert window_sweep(mislabeled_sweep_corpus(), (15,), config=cfg) == [(15, expected)]


def test_window_sweep_deterministic():
    cfg = ForestConfig(n_trees=5, seed=8)
    assert window_sweep(sweep_traces(), (15, 30), config=cfg) == window_sweep(
        sweep_traces(), (15, 30), config=cfg
    )


# --- fold workers -----------------------------------------------------------------------------


@pytest.fixture
def fold_workers(workers, monkeypatch):
    """run(cpus, fn, *args): fn(*args) with `cpus` usable CPUs; returns (fn's result, every
    fold posterior in fold order, the worker processes started)."""
    fold_posteriors = evaluate._fold_posteriors

    def run(cpus, fn, *args, **kwargs):
        started, posteriors = workers(cpus), []

        def recording(*a):
            block = list(fold_posteriors(*a))
            posteriors.extend(block)
            return iter(block)

        monkeypatch.setattr(evaluate, "_fold_posteriors", recording)
        result = fn(*args, **kwargs)
        assert multiprocessing.active_children() == []
        return result, posteriors, started

    return run


def assert_same_posteriors(a, b):
    assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_percentage_protocol_is_the_same_on_one_and_two_workers(small_dataset, fold_workers):
    config = ForestConfig(n_trees=4, seed=31)
    [(table1, loo1)], probs1, started1 = fold_workers(1, percentage_protocol, [small_dataset],
                                                      (0.33, 0.5), config)
    [(table2, loo2)], probs2, started2 = fold_workers(2, percentage_protocol, [small_dataset],
                                                      (0.33, 0.5), config)
    assert (len(started1), len(started2)) == (0, 2)
    assert table1 == table2
    assert_same_posteriors(probs1, probs2)
    assert_same_posteriors([p.probs for p in loo1.predictions], [p.probs for p in loo2.predictions])
    assert [p.entropy for p in loo1.predictions] == [p.entropy for p in loo2.predictions]


def test_inter_corpus_is_the_same_on_one_and_two_workers(small_dataset, fold_workers):
    config = ForestConfig(n_trees=4, seed=32)
    test = small_dataset.subset(np.arange(0, len(small_dataset), 2))
    [(table1, full1)], probs1, started1 = fold_workers(1, inter_corpus, [small_dataset], [test],
                                                       (0.33, 0.5, 1.0), config)
    [(table2, full2)], probs2, started2 = fold_workers(2, inter_corpus, [small_dataset], [test],
                                                       (0.33, 0.5, 1.0), config)
    assert (len(started1), len(started2)) == (0, 2)
    assert table1 == table2
    assert_same_posteriors(probs1, probs2)
    assert_same_posteriors([p.probs for p in full1.predictions],
                           [p.probs for p in full2.predictions])


def test_window_sweep_loo_is_the_same_on_one_and_two_workers(fold_workers):
    config = ForestConfig(n_trees=4, seed=33)
    points1, probs1, started1 = fold_workers(1, window_sweep, mislabeled_sweep_corpus(),
                                             (15, 30), config)
    points2, probs2, started2 = fold_workers(2, window_sweep, mislabeled_sweep_corpus(),
                                             (15, 30), config)
    assert (len(started1), len(started2)) == (0, 4)  # two per window length
    assert points1 == points2
    assert_same_posteriors(probs1, probs2)


def test_a_worker_data_error_reaches_the_caller_unchanged(small_dataset, fold_workers):
    config = ForestConfig(n_trees=2, seed=34)
    folds = [(np.arange(5), [5], config, True), (np.array([], dtype=np.intp), [6], config, True)]
    messages = []
    for cpus in (1, 2):
        with pytest.raises(DataError) as raised:
            fold_workers(cpus, lambda: list(evaluate._fold_posteriors(
                [(small_dataset, small_dataset)], folds)))
        assert type(raised.value) is DataError
        messages.append(str(raised.value))
        assert multiprocessing.active_children() == []
    assert messages == ["a fold has no training rows"] * 2


def test_a_worker_that_dies_unheard_is_an_error(small_dataset, fold_workers, monkeypatch):
    parent = os.getpid()
    block_posteriors = evaluate._block_posteriors

    def dies_in_a_worker(*args):
        if os.getpid() != parent:
            os._exit(7)
        return block_posteriors(*args)

    monkeypatch.setattr(evaluate, "_block_posteriors", dies_in_a_worker)
    with pytest.raises(RuntimeError, match="exited with code 7"):
        fold_workers(2, loo_cv, small_dataset, ForestConfig(n_trees=2, seed=36))


def test_a_second_live_thread_keeps_the_folds_in_process(small_dataset, fold_workers):
    config = ForestConfig(n_trees=3, seed=35)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        result, probs, started = fold_workers(2, loo_cv, small_dataset, config)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert started == []
    _, probs_alone, started_alone = fold_workers(2, loo_cv, small_dataset, config)
    assert len(started_alone) == 2
    assert_same_posteriors(probs, probs_alone)


@pytest.mark.parametrize("protocol", ["percentage", "inter"])
def test_every_scheme_grows_in_one_round_as_it_would_alone(small_corpus, fold_workers, protocol):
    # the rich8 and baseline2 datasets of a corpus share one split draw and one block-map round:
    # two workers, where a call per scheme starts four. Each scheme's results are its own
    # call's, and a worker sends back the predicted codes of a fold that only scores them
    datasets = build_dataset(small_corpus, 2700.0, ["rich8", "baseline2"])
    config = ForestConfig(n_trees=3, seed=37)

    def run(ds):
        if protocol == "percentage":
            return percentage_protocol(ds, (0.33, 0.5), config)
        return inter_corpus(ds, [d.subset(np.arange(0, len(d), 2)) for d in ds], (0.5, 1.0),
                            config)

    def records(result):
        return [(p.trace_id, p.predicted, p.entropy, p.probs.tolist()) for p in result.predictions]

    both, probs, started = fold_workers(2, run, datasets)
    alone = [fold_workers(2, run, [ds]) for ds in datasets]
    assert [len(started)] + [len(s) for _, _, s in alone] == [2, 2, 2]
    assert_same_posteriors(probs, [p for _, ps, _ in alone for p in ps])
    codes_then_posteriors = ([1] * 5 + [2] * len(datasets[0]) if protocol == "percentage"
                             else [1, 1, 2])
    assert [p.ndim for p in probs] == codes_then_posteriors * 2
    for (table, result), ([(table_alone, result_alone)], _, _) in zip(both, alone):
        assert table == table_alone
        assert records(result) == records(result_alone)


def test_a_protocols_datasets_are_views_of_the_same_rows(small_dataset, small_corpus):
    config = ForestConfig(n_trees=2, seed=38)
    relabeled = LabeledDataset(small_dataset.ids, small_dataset.features,
                               np.roll(small_dataset.labels, 1), small_dataset.schema)
    reordered = small_dataset.subset(np.arange(len(small_dataset))[::-1])
    for datasets in ([small_dataset, relabeled], [small_dataset, reordered], []):
        with pytest.raises(DataError, match="views of the same labeled rows"):
            percentage_protocol(datasets, (0.5,), config)
        with pytest.raises(DataError, match="views of the same labeled rows"):
            inter_corpus(datasets, datasets, (1.0,), config)
    baseline2 = build_dataset(small_corpus, 2700.0, "baseline2")
    with pytest.raises(SchemaMismatch):  # the schemes of the two corpora pair up in order
        inter_corpus([small_dataset, baseline2], [baseline2, small_dataset], (1.0,), config)


def run_keys(results):
    """The runs a recording block function saw, in order, from its per-item results."""
    return list(dict.fromkeys(results))


def test_fold_blocks_are_contiguous_and_balanced_by_rows_times_trees(workers, monkeypatch):
    # each fold is named by its first test row; every fold's result is the names of its run
    monkeypatch.setattr(evaluate, "_block_posteriors", lambda pairs, run: [
        tuple(int(te[0]) for _, (_, te, _, _) in run)] * len(run))

    def runs(cpus, folds):
        workers(cpus)
        results = list(evaluate._fold_posteriors([None], [(*fold, False) for fold in folds]))
        assert results == [key for key in run_keys(results) for _ in key]  # one per fold, in order
        return run_keys(results)

    small, big = ForestConfig(n_trees=1), ForestConfig(n_trees=10)
    folds = [(np.arange(n), [k], cfg) for k, (n, cfg) in
             enumerate(((10, small), (10, small), (10, small), (10, big), (5, small)))]
    assert runs(2, folds) == [(0, 1, 2), (3, 4)]
    assert runs(1, folds) == [(0, 1, 2, 3, 4)]
    # a fold's test rows count as its training rows do: 2 + 48 rows weigh as 49 + 1
    fractions_then_loo = [(np.arange(2), np.full(48, k), small) for k in range(2)] + [
        (np.arange(49), [k], small) for k in range(2, 4)]
    assert runs(2, fractions_then_loo) == [(0, 1), (2, 3)]
    loo = [(np.arange(9), [k], small) for k in range(10)]
    assert [len(run) for run in runs(2, loo)] == [5, 5]
    assert [len(run) for run in runs(3, loo)] == [3, 4, 3]


def test_trace_blocks_are_contiguous_and_balanced_by_file_size(tmp_path, workers, monkeypatch):
    from sensorclass import reporting
    sizes = {"a": 100, "b": 100, "c": 100, "d": 300, "e": 50}
    for name, size in sizes.items():
        (tmp_path / f"{name}.csv").write_bytes(b"x" * size)
    reporting.write_manifest(tmp_path / "m.csv", [(name, f"{name}.csv", None) for name in sizes]
                             + [("gone", "gone.csv", None)])  # a missing file weighs nothing
    # the "trace" read is its id, and fn records the process that read it
    monkeypatch.setattr(reporting, "read_trace_csv", lambda path, trace_id, label: trace_id)

    def blocks(cpus):
        started = workers(cpus)
        results = evaluate.map_traces(lambda tid: (os.getpid(), tid),
                                      reporting.load_manifest_traces(tmp_path / "m.csv"))
        assert [tid for _, tid in results] == [*sizes, "gone"]  # one per trace, in order
        pids = run_keys(pid for pid, _ in results)
        assert pids == ([os.getpid()] if cpus == 1 else [p.pid for p in started])
        return ["".join(tid for p, tid in results if p == pid) for pid in pids]

    assert blocks(1) == ["abcdegone"]
    assert blocks(2) == ["abc", "degone"]
    assert blocks(3) == ["ab", "c", "degone"]
    assert blocks(9) == ["a", "b", "c", "d", "egone"]  # at most one per trace, none empty
    started = workers(9)
    traces = [make_trace("t", [0.0, 1.0], [0.0, 1.0])] * 3
    results = evaluate.map_traces(lambda trace: (os.getpid(), trace), traces)
    assert results == [(os.getpid(), trace) for trace in traces]  # traces in memory stay here
    assert started == []


# --- feature subset search ------------------------------------------------------------------


def feature0_dataset():
    """Only feature 0 carries signal; the other seven are constant."""
    rows, labels, ids = [], [], []
    for code in (0, 1):
        for k in range(6):
            row = [float(code)] + [0.0] * 7
            rows.append(row)
            labels.append(code)
            ids.append(f"f{code}-{k}")
    return LabeledDataset(tuple(ids), np.array(rows), np.array(labels), "rich8")


def test_subset_search_covers_all_masks():
    results = feature_subset_search(feature0_dataset())
    assert len(results) == 255
    assert {mask for mask, _ in results} == set(range(1, 256))


def test_subset_search_best_at_least_full_mask():
    results = feature_subset_search(feature0_dataset())
    by_mask = dict(results)
    assert results[0][1] >= by_mask[255]


def test_subset_search_top_masks_contain_the_informative_feature():
    results = feature_subset_search(feature0_dataset())
    best_acc = results[0][1]
    assert best_acc == 1.0
    top = [mask for mask, acc in results if acc == best_acc]
    assert all(mask & 1 for mask in top)
    # and masks without feature 0 cannot beat chance here
    assert all(acc == 0.0 for mask, acc in results if not mask & 1)


def test_subset_search_tie_order_prefers_fewer_features_then_smaller_mask():
    results = feature_subset_search(feature0_dataset())
    assert results[0][0] == 0x01
    assert results[1][0] == 0x03
    assert results[2][0] == 0x05
    accs = [acc for _, acc in results]
    assert accs == sorted(accs, reverse=True)


def test_subset_search_requires_rich8(small_corpus):
    ds = build_dataset(small_corpus, 2700.0, "baseline2")
    with pytest.raises(SchemaMismatch):
        feature_subset_search(ds)


def test_subset_search_needs_two_instances():
    one = LabeledDataset(("a",), np.zeros((1, 8)), np.array([0]), "rich8")
    with pytest.raises(DataError):
        feature_subset_search(one)


@st.composite
def small_rich8_datasets(draw):
    """2-15 rows of small integers, so gains tie across features and
    thresholds; some columns constant, duplicate rows likely, classes absent."""
    n = draw(st.integers(2, 15))
    classes = draw(st.integers(1, CLASS_COUNT))
    cells = st.integers(0, draw(st.integers(1, 3)))
    feats = np.array(draw(st.lists(st.lists(cells, min_size=8, max_size=8),
                                   min_size=n, max_size=n)), dtype=float)
    for col in draw(st.sets(st.integers(0, 7))):
        feats[:, col] = feats[0, col]
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    return LabeledDataset(tuple(f"r{i}" for i in range(n)), feats, labels, "rich8")


@settings(max_examples=100, deadline=None)
@given(small_rich8_datasets(), st.sets(st.integers(1, 255), min_size=1, max_size=6))
def test_subset_search_equals_one_tree_per_fold(dataset, masks):
    # the reference trains 255 x n trees for the whole list, so it checks a
    # sample of masks; the fixed cases below compare whole lists
    found = [item for item in feature_subset_search(dataset) if item[0] in masks]
    assert found == reference_subset_search(dataset, sorted(masks))


@pytest.mark.parametrize("seed", [3, 4])
def test_subset_search_whole_list_equals_one_tree_per_fold(seed):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 3, size=(7, 8)).astype(float)
    feats[:, 5] = 1.0
    feats[6] = feats[2]
    dataset = LabeledDataset(tuple(f"r{i}" for i in range(7)), feats,
                             rng.integers(0, 3, size=7), "rich8")
    assert feature_subset_search(dataset) == reference_subset_search(dataset)


def test_subset_search_holds_one_folds_nodes_at_a_time(monkeypatch):
    # 60 rows of heavily overlapping classes, where folds share the most row sets
    rng = np.random.default_rng(3)
    labels = rng.integers(0, CLASS_COUNT, size=60)
    feats = rng.normal(size=(60, 8)) + labels[:, None]
    dataset = LabeledDataset(tuple(f"r{i}" for i in range(60)), feats, labels, "rich8")
    made = alive = most = 0

    def gone():
        nonlocal alive
        alive -= 1

    class Counted(evaluate._PathNode):
        def __init__(self, *args):
            nonlocal made, alive, most
            super().__init__(*args)
            made, alive = made + 1, alive + 1
            most = max(most, alive)
            weakref.finalize(self, gone)

    monkeypatch.setattr(evaluate, "_PathNode", Counted)
    feature_subset_search(dataset)
    assert most * 10 < made, (most, made)


def tied_pair_dataset(good):
    """Two features split every LOO training set with the same gain at the
    root, but send the held-out row h different ways; the other six are
    constant. Feature `good` puts h with its class, the other feature does not."""
    other = 1 - good
    rows = [(0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1), (0, 1, 0)]  # last row is h
    feats = np.zeros((len(rows), 8))
    for i, (g, o, _) in enumerate(rows):
        feats[i, good], feats[i, other] = g, o
    labels = np.array([label for *_, label in rows])
    return LabeledDataset(tuple(f"r{i}" for i in range(len(rows))), feats, labels, "rich8")


@pytest.mark.parametrize("good, both_acc", [(0, 1.0), (1, 0.8)])
def test_subset_search_tie_goes_to_the_lower_feature(good, both_acc):
    dataset = tied_pair_dataset(good)
    by_mask = dict(feature_subset_search(dataset))
    assert by_mask[1 << good] == 1.0
    assert by_mask[1 << (1 - good)] == 0.4
    # with both features the lower one wins the tie, whichever it is
    assert by_mask[0b11] == both_acc
    assert feature_subset_search(dataset) == reference_subset_search(dataset)


# --- table helpers ---------------------------------------------------------------------------


def test_accuracy_column_of_one_run_is_that_run(small_dataset):
    result = loo_cv(small_dataset, ForestConfig(n_trees=4, seed=6))
    cells = accuracy_column([result.accuracy])
    for st in SensorType:
        value = result.accuracy.per_class[st]
        assert cells[st.label] == AccuracyCell(value, 0 if value is None else 1)
    assert cells["overall"] == AccuracyCell(result.accuracy.overall, 1)


def test_loo_column_and_render(small_dataset):
    config = ForestConfig(n_trees=6, seed=2)
    result = loo_cv(small_dataset, config)
    table = {LOO_COLUMN: accuracy_column([result.accuracy])}
    cell = table[LOO_COLUMN]["overall"]
    assert cell.repeats == 1
    assert cell.mean == pytest.approx(result.accuracy.overall)
    text = render_table_text(table, title="check")
    assert "overall" in text and "loo" in text
    header, rows = table_csv_rows(table)
    assert header[0] == "type" and "loo" in header
    assert len(rows) == len(ROW_NAMES)


def test_render_marks_an_undefined_cell_with_a_dash():
    # only CO2 and humidity were tested, so every other class row reads "-"
    table = {LOO_COLUMN: accuracy_column([per_class_accuracy([0, 1], [0, 0])])}
    rows = {line.split()[0]: line.split()[1:]
            for line in render_table_text(table).splitlines()[1:]}
    assert rows[SensorType(0).label] == ["100.0"] and rows[SensorType(1).label] == ["0.0"]
    assert [rows[SensorType(c).label] for c in range(2, CLASS_COUNT)] == [["-"]] * (CLASS_COUNT - 2)
    assert rows["overall"] == ["50.0"]


def test_build_dataset_requires_labels():
    tr = make_trace("t", [60.0 * i for i in range(61)], list(range(61)))
    with pytest.raises(DataError):
        build_dataset([tr], 900.0)


def test_build_dataset_shapes(small_corpus):
    ds = build_dataset(small_corpus, 2700.0)
    assert ds.schema == "rich8"
    assert ds.features.shape == (len(small_corpus), 8)
    assert len(ds.ids) == len(small_corpus)
    assert sorted(set(ds.labels.tolist())) == [0, 1, 2, 3, 4, 5]


def test_build_dataset_reads_its_traces_once_for_every_view(small_corpus):
    views = [(w, s) for w in (1800.0, 2700.0) for s in ("rich8", "baseline2")]
    datasets = build_dataset(iter(small_corpus), (1800.0, 2700.0), ["rich8", "baseline2"])
    assert len(datasets) == len(views)
    for (w, s), ds in zip(views, datasets):
        alone = build_dataset(small_corpus, w, s)
        assert ds.schema == s and ds.ids == alone.ids
        assert np.array_equal(ds.features, alone.features)
        assert np.array_equal(ds.labels, alone.labels)
    [one] = build_dataset(iter(small_corpus), 2700.0, ["rich8"])
    assert np.array_equal(one.features, build_dataset(small_corpus, 2700.0).features)


def test_build_dataset_skip_short_drops_a_trace_per_window_length(caplog):
    traces = sweep_traces()  # one hour each
    twenty = make_trace("twenty", [60.0 * i for i in range(21)], [1.0, 2.0] * 10 + [1.0],
                        SensorType.CO2)
    unlabeled = make_trace("tiny", [0.0, 60.0, 120.0], [1.0, 2.0, 3.0])  # never used
    with caplog.at_level("WARNING"):
        by_window = build_dataset([twenty, unlabeled] + traces, (900.0, 1800.0, 5400.0),
                                  "rich8", skip_short=True)
    ids = tuple(t.trace_id for t in traces)
    assert [ds and ds.ids for ds in by_window] == [("twenty",) + ids, ids, None]
    assert "trace twenty span 1200s < window 1800s, skipped" in caplog.text
    assert "trace tiny span 120s < window 900s, skipped" in caplog.text
    with pytest.raises(NoWindows):
        build_dataset([twenty], 1800.0)
