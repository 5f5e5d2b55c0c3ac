"""Acceptance gate: the eleven end-to-end properties the tool must hold.

Each test is numbered and self-contained so `pytest -v` reads as a
checklist. They favor independent oracles and hand-computed values over
reuse of library internals; runtime-heavy checks state their budget.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    F_ORACLE,
    assert_tree_matches_oracle,
    int_dataset,
    oracle_fully_separates,
    resubstitution_accuracy,
    two_window_trace,
)
from sensorclass.cli import EXIT_OK, main
from sensorclass.evaluate import (
    build_dataset,
    feature_subset_search,
    inter_corpus,
    loo_cv,
    percentage_protocol,
    repeats_for_fraction,
    stratified_split,
)
from sensorclass.features import FeatureVector, extract, subset_schema
from sensorclass.forest import (
    ForestConfig,
    LabeledDataset,
    classify,
    train_forest,
    train_tree,
)
from sensorclass.synth import generate_corpus, preset_spec
from sensorclass.trace import SensorType
from sensorclass.uncertainty import (
    attach_metrics,
    class_entropy,
    flag_above_threshold,
    make_prediction,
    max_entropy,
    roc_sweep,
)

WINDOW_45_MIN = 45.0 * 60.0
LN6 = math.log(6.0)


def two_feature_dataset(rows, labels, schema="baseline2"):
    ids = tuple(f"r{i}" for i in range(len(rows)))
    return LabeledDataset(ids, np.array(rows, dtype=float), np.array(labels), schema)


def fixture_datasets():
    """Six handcrafted layouts plus forty seeded integer datasets (<=12x2)."""
    yield two_feature_dataset([[1.0, 0.0], [3.0, 0.0]], [0, 1])
    yield two_feature_dataset([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]], [0, 1, 1, 0])
    yield two_feature_dataset([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]], [0, 1, 0])
    yield two_feature_dataset([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0], [4.0, 6.0]], [0, 0, 1, 1])
    yield two_feature_dataset([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]], [2, 2, 5])
    yield two_feature_dataset(
        [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
        [0, 1, 2, 0, 1, 2],
    )
    for seed in range(40):
        yield int_dataset(seed, n=2 + seed % 11, d=2, classes=3)


def test_criterion_01_feature_oracle():
    # windows {1,2,3} and {10,10,16}: MED {2,10}, VAR {2/3,8}, summarized
    fv = extract(two_window_trace(), 3.0, "rich8")
    assert fv.values == pytest.approx(F_ORACLE, abs=1e-12)


def test_criterion_02_tree_induction_matches_exhaustive_oracle():
    full_m = ForestConfig(n_trees=1, m_try=2, seed=0)
    checked_resubstitution = 0
    for ds in fixture_datasets():
        assert len(ds) <= 12 and ds.feature_count == 2
        tree = train_tree(ds, full_m, 0, identity_bootstrap=True)
        assert_tree_matches_oracle(tree, ds.features, ds.labels)
        rows = [tuple(r) for r in ds.features]
        if len(set(rows)) != len(rows):
            continue
        if not oracle_fully_separates(ds.features, ds.labels):
            # greedy induction requires strictly positive gain, so layouts
            # where every single split has zero gain (the 2x2 XOR square)
            # stall at an impure root for the oracle and the tree alike
            continue
        assert resubstitution_accuracy(tree, ds.features, ds.labels) == 1.0
        checked_resubstitution += 1
    assert checked_resubstitution >= 20


def test_criterion_03_probability_laws():
    rng = np.random.default_rng(2024)
    for i in range(1000):
        d = 2 if i % 2 == 0 else 3
        schema = "baseline2" if d == 2 else subset_schema(0b111)
        n = int(rng.integers(3, 13))
        classes = int(rng.integers(2, 5))
        ds = int_dataset(int(rng.integers(0, 1 << 30)), n=n, d=d,
                         classes=classes, schema=schema)
        config = ForestConfig(n_trees=int(rng.integers(2, 7)), seed=i)
        forest = train_forest(ds, config)
        queries = [ds.features[0], rng.uniform(-1.0, 6.0, d), rng.uniform(-1.0, 6.0, d)]
        for q in queries:
            fv = FeatureVector(np.asarray(q, dtype=float), schema)
            for mode in ("paper", "standard"):
                _, probs = classify(forest, fv, mode)
                assert abs(probs.sum() - 1.0) <= 1e-9
                h = class_entropy(probs)
                assert 0.0 <= h <= LN6 + 1e-12
    assert class_entropy([0.9, 0.0, 0.0, 0.0, 0.0, 0.1]) == pytest.approx(0.3251, abs=1e-3)
    assert class_entropy([0.3, 0.25, 0.1, 0.0, 0.15, 0.2]) == pytest.approx(1.5445, abs=1e-3)


def test_criterion_04_intra_corpus_accuracy_and_time():
    started = time.perf_counter()
    traces = generate_corpus(preset_spec("default", seed=42))
    assert len(traces) == 120
    dataset = build_dataset(traces, WINDOW_45_MIN, "rich8")
    result = loo_cv(dataset, ForestConfig())
    elapsed = time.perf_counter() - started
    assert result.accuracy.overall >= 0.90
    assert elapsed < 120.0


def test_criterion_05_windowed_features_beat_whole_trace_baseline():
    traces = generate_corpus(preset_spec("overlap", seed=42))
    colliding = (SensorType.HUMIDITY, SensorType.ROOM_TEMP)

    def pair_accuracy(schema):
        dataset = build_dataset(traces, WINDOW_45_MIN, schema)
        result = loo_cv(dataset, ForestConfig())
        hits = total = 0
        for tid, truth in result.truth.items():
            if truth in colliding:
                total += 1
                hits += result.correctness[tid]
        assert total == 40
        return hits / total

    assert pair_accuracy("baseline2") <= 0.75
    assert pair_accuracy("rich8") >= 0.90


def test_criterion_06_cross_corpus_transfer_and_missing_class():
    ds_a = build_dataset(generate_corpus(preset_spec("default", seed=42)),
                         WINDOW_45_MIN, "rich8")
    ds_b = build_dataset(generate_corpus(preset_spec("building-b", seed=43)),
                         WINDOW_45_MIN, "rich8")
    [(_, full)] = inter_corpus([ds_a], [ds_b], (1.0,), ForestConfig())
    assert full.accuracy.overall >= 0.70

    without = ds_a.subset(np.nonzero(ds_a.labels != int(SensorType.SETPOINT))[0])
    [(_, crippled)] = inter_corpus([without], [ds_b], (1.0,), ForestConfig())
    assert crippled.accuracy.per_class[SensorType.SETPOINT] <= 0.05


def test_criterion_07_uncertainty_separates_misclassifications():
    traces = generate_corpus(preset_spec("confusable", seed=42))
    dataset = build_dataset(traces, WINDOW_45_MIN, "rich8")
    result = loo_cv(dataset, ForestConfig())
    correctness = result.correctness
    wrong = [p.entropy for p in result.predictions if not correctness[p.trace_id]]
    right = [p.entropy for p in result.predictions if correctness[p.trace_id]]
    assert wrong and right
    assert np.mean(wrong) > np.mean(right)

    grid = [round(float(x), 12) for x in np.linspace(0.0, max_entropy("nats"), 37)]
    points = roc_sweep(result.predictions, correctness, grid)
    assert any(p.tpr is not None and p.tpr >= 0.30 for p in points)


def test_criterion_08_flag_metric_identities():
    probs_mid = np.array([0.6, 0.4, 0.0, 0.0, 0.0, 0.0])
    probs_low = np.array([0.9, 0.1, 0.0, 0.0, 0.0, 0.0])
    preds = [
        make_prediction(f"w{i}", SensorType.CO2, probs_mid) for i in range(2)
    ] + [
        make_prediction(f"c{i}", SensorType.CO2, probs_low) for i in range(4)
    ]
    correctness = {p.trace_id: p.trace_id.startswith("c") for p in preds}
    assert all(p.entropy > 0.0 for p in preds)

    at_zero = attach_metrics(flag_above_threshold(preds, 0.0), correctness)
    assert at_zero.tpr == 1.0 and at_zero.fpr == 1.0

    above = attach_metrics(
        flag_above_threshold(preds, max_entropy("nats") + 1e-9), correctness
    )
    assert above.tpr == 0.0 and above.fpr == 0.0 and above.ppv is None

    wrong_ids = {tid for tid, ok in correctness.items() if not ok}
    for threshold in np.linspace(0.0, LN6, 37):
        report = flag_above_threshold(preds, float(threshold))
        s1 = report.flagged
        s2 = s1 & wrong_ids
        s3 = s1 - wrong_ids
        assert len(s1) == len(s2) + len(s3)


def test_criterion_09_byte_identical_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"name": "det", "seed": 11, "traces_per_type": 3, "duration_s": 172800}
    ))

    def pipeline(root, threads):
        root.mkdir()
        corpus = root / "corpus"
        assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK
        manifest = str(corpus / "manifest.csv")
        features = str(root / "features.csv")
        model = str(root / "model.json")
        preds = str(root / "preds.csv")
        assert main(["features", "--manifest", manifest, "--out", features]) == EXIT_OK
        assert main(["train", "--features", features, "--trees", "20",
                     "--threads", str(threads), "--out", model]) == EXIT_OK
        assert main(["classify", "--model", model, "--features", features,
                     "--out", preds]) == EXIT_OK
        assert main(["eval", "--protocol", "loo", "--manifest", manifest,
                     "--trees", "8", "--out-dir", str(root / "eval")]) == EXIT_OK
        return root

    a = pipeline(tmp_path / "a", threads=1)
    b = pipeline(tmp_path / "b", threads=1)
    c = pipeline(tmp_path / "c", threads=4)
    for other in (b, c):
        for name in ("model.json", "preds.csv", "features.csv",
                     "eval/accuracy_rich8.csv", "eval/predictions_rich8.csv",
                     "eval/roc_rich8.csv"):
            assert (a / name).read_bytes() == (other / name).read_bytes(), name


def test_criterion_10_stratification_and_repeats(default_dataset):
    fractions = (0.05, 0.1, 0.2, 0.33, 0.5)
    for fi, fraction in enumerate(fractions):
        for rep in range(3):
            rng = np.random.default_rng(100 * fi + rep)
            train_idx, test_idx = stratified_split(default_dataset, fraction, rng)
            for code in range(6):
                n_c = int((default_dataset.labels == code).sum())
                got = int((default_dataset.labels[train_idx] == code).sum())
                assert abs(got - fraction * n_c) <= 1.0
            assert len(train_idx) + len(test_idx) == len(default_dataset)

    assert repeats_for_fraction(0.05) == 20
    assert repeats_for_fraction(0.5) == 2
    [(table, _)] = percentage_protocol([default_dataset], (0.05, 0.5),
                                     ForestConfig(n_trees=2, seed=3))
    assert table["5%"]["overall"].repeats == 20
    assert table["50%"]["overall"].repeats == 2


def test_criterion_11_feature_subset_search(small_dataset):
    results = feature_subset_search(small_dataset)
    assert len(results) == 255
    assert {mask for mask, _ in results} == set(range(1, 256))
    by_mask = dict(results)
    assert results[0][1] >= by_mask[255]

    # a dataset only feature 0 can separate
    rows = [[float(code)] + [0.0] * 7 for code in (0, 1) for _ in range(6)]
    labels = [code for code in (0, 1) for _ in range(6)]
    ids = tuple(f"s{i}" for i in range(12))
    ds = LabeledDataset(ids, np.array(rows), np.array(labels), "rich8")
    ranked = feature_subset_search(ds)
    best_acc = ranked[0][1]
    top = [mask for mask, acc in ranked if acc == best_acc]
    assert best_acc == 1.0
    assert all(mask & 1 for mask in top)
