"""End-to-end command-line flows, run in-process through cli.main."""

import builtins
import contextlib
import errno
import io
import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from sensorclass import evaluate, reporting
from sensorclass.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_UNDEFINED, main
from sensorclass.errors import DataError, InvalidConfig
from sensorclass.forest import ForestConfig, train_forests
from sensorclass.reporting import (
    read_feature_matrix,
    read_manifest,
    read_predictions,
    write_predictions,
)
from sensorclass.trace import SensorType, write_trace_csv
from sensorclass.uncertainty import rank_by_uncertainty
from tests.helpers import make_trace, read_csv

MINI_SPEC = {"name": "mini", "seed": 11, "traces_per_type": 3, "duration_s": 172800}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A corpus synthesized, featurized, trained, and classified via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps(MINI_SPEC))
    corpus = root / "corpus"
    features = root / "features.csv"
    model = root / "model.json"
    preds = root / "preds.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK
    manifest = corpus / "manifest.csv"
    assert main(["features", "--manifest", str(manifest), "--out", str(features)]) == EXIT_OK
    assert main(["train", "--features", str(features), "--trees", "30",
                 "--out", str(model)]) == EXIT_OK
    assert main(["classify", "--model", str(model), "--features", str(features),
                 "--out", str(preds)]) == EXIT_OK
    return SimpleNamespace(root=root, spec=spec, corpus=corpus, manifest=manifest,
                           features=features, model=model, preds=preds)


def test_synth_writes_traces_and_manifest(ws):
    entries, meta = read_manifest(ws.manifest)
    assert len(entries) == 18
    assert meta["corpus"] == "mini" and meta["seed"] == "11"
    for tid, path, label in entries:
        assert path.exists()
        assert label is not None
        assert tid.startswith("mini-")


def test_synth_is_reproducible(ws, tmp_path):
    assert main(["synth", "--spec", str(ws.spec), "--out", str(tmp_path / "again")]) == EXIT_OK
    again = tmp_path / "again"
    assert (again / "manifest.csv").read_bytes() == ws.manifest.read_bytes()
    name = "traces/mini-co2-000.csv"
    assert (again / name).read_bytes() == (ws.corpus / name).read_bytes()


def test_features_matrix_shape(ws):
    ids, labels, feats, schema, meta = read_feature_matrix(ws.features)
    assert len(ids) == 18 and feats.shape == (18, 8)
    assert schema == "rich8"
    assert meta["window_mins"] == "45.0"
    assert all(lab is not None for lab in labels)


def test_features_rejects_scheme_both(tmp_path, capsys):
    manifest = _missing_trace(tmp_path)  # so only a check before reading gives exit 2
    capsys.readouterr()
    rc = main(["features", "--manifest", str(manifest), "--scheme", "both",
               "--out", str(tmp_path / "f.csv")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: features writes a single matrix") and err.count("\n") == 1
    assert not (tmp_path / "f.csv").exists()


def test_features_skips_short_trace_with_warning(ws, tmp_path, caplog):
    tiny = make_trace("tiny", [0.0, 60.0, 120.0], [1.0, 2.0, 3.0], SensorType.CO2)
    write_trace_csv(tiny, tmp_path / "tiny.csv")
    full = make_trace("full", [60.0 * i for i in range(61)],
                      [float(i) for i in range(61)], SensorType.CO2)
    write_trace_csv(full, tmp_path / "full.csv")
    from sensorclass.reporting import write_manifest
    write_manifest(tmp_path / "m.csv",
                   [("tiny", "tiny.csv", SensorType.CO2), ("full", "full.csv", SensorType.CO2)])
    out = tmp_path / "f.csv"
    with caplog.at_level(logging.WARNING):
        assert main(["features", "--manifest", str(tmp_path / "m.csv"),
                     "--window-mins", "30", "--out", str(out)]) == EXIT_OK
    assert "tiny" in caplog.text and "skipped" in caplog.text
    ids, _, _, _, _ = read_feature_matrix(out)
    assert ids == ["full"]


def test_features_all_short_is_an_error(ws, tmp_path):
    tiny = make_trace("tiny", [0.0, 60.0], [1.0, 2.0], SensorType.CO2)
    write_trace_csv(tiny, tmp_path / "tiny.csv")
    from sensorclass.reporting import write_manifest
    write_manifest(tmp_path / "m.csv", [("tiny", "tiny.csv", SensorType.CO2)])
    rc = main(["features", "--manifest", str(tmp_path / "m.csv"),
               "--out", str(tmp_path / "f.csv")])
    assert rc == EXIT_DATA


def test_synth_invalid_spec_exits_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"windows": 5}))
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("n", ["0", "-2"])
def test_synth_non_positive_traces_per_type_exits_config(tmp_path, capsys, n):
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["synth", "--traces-per-type", n, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "traces_per_type" in err and err.count("\n") == 1
    assert not (out / "manifest.csv").exists()


def test_train_negative_seed_exits_config(ws, tmp_path, capsys):
    capsys.readouterr()
    rc = main(["train", "--features", str(ws.features), "--seed", "-1",
               "--out", str(tmp_path / "m.json")])
    assert rc == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err


def test_train_mtry_above_the_matrix_feature_count_names_its_flag(ws, tmp_path, capsys):
    features = tmp_path / "fb.csv"
    assert main(["features", "--manifest", str(ws.manifest), "--scheme", "baseline2",
                 "--out", str(features)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--mtry", "3",
               "--out", str(tmp_path / "m.json")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --mtry 3 exceeds feature count 2 of baseline2\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("schema", ["subset:zz", "subset:00", "subset:-1"])
def test_malformed_schema_in_feature_matrix_exits_data(ws, tmp_path, capsys, schema):
    feats = tmp_path / "f.csv"
    feats.write_text(ws.features.read_text().replace("# schema=rich8\n", f"# schema={schema}\n"))
    capsys.readouterr()
    rc = main(["train", "--features", str(feats), "--trees", "2",
               "--out", str(tmp_path / "m.json")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and schema in err and err.count("\n") == 1, err


def test_classify_resubstitution_is_accurate(ws, tmp_path):
    preds, meta = read_predictions(ws.preds)
    assert len(preds) == 18
    assert meta["averaging"] == "paper"
    # standard averaging recalls every training instance; paper-mode
    # averaging can tie two classes whenever a lone tree dissents, so it
    # is not the right mode for a resubstitution check
    out = tmp_path / "std.csv"
    assert main(["classify", "--model", str(ws.model), "--features", str(ws.features),
                 "--averaging", "standard", "--out", str(out)]) == EXIT_OK
    std_preds, _ = read_predictions(out)
    entries, _ = read_manifest(ws.manifest)
    truth = {tid: lab for tid, _, lab in entries}
    assert all(p.predicted is truth[p.trace_id] for p in std_preds)


def test_classify_deterministic(ws, tmp_path):
    out = tmp_path / "p2.csv"
    assert main(["classify", "--model", str(ws.model), "--features", str(ws.features),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == ws.preds.read_bytes()


def test_classify_schema_mismatch_exits_data(ws, tmp_path):
    base_features = tmp_path / "fb.csv"
    assert main(["features", "--manifest", str(ws.manifest), "--scheme", "baseline2",
                 "--out", str(base_features)]) == EXIT_OK
    rc = main(["classify", "--model", str(ws.model), "--features", str(base_features),
               "--out", str(tmp_path / "p.csv")])
    assert rc == EXIT_DATA


def test_train_thread_count_does_not_change_the_model(ws, tmp_path):
    out = tmp_path / "model4.json"
    assert main(["train", "--features", str(ws.features), "--trees", "30",
                 "--threads", "4", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == ws.model.read_bytes()


def test_flag_with_labels_writes_metrics(ws, tmp_path, capsys):
    out = tmp_path / "flags.csv"
    rc = main(["flag", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--threshold", "0.2", "--out", str(out)])
    assert rc == EXIT_OK
    meta, header, rows = read_csv(out)
    assert header == ["trace_id", "predicted", "entropy", "flagged"]
    assert len(rows) == 18
    assert meta["threshold"] == "0.2"
    assert "fpr" in meta
    assert "flagged" in capsys.readouterr().out


def test_flag_empty_predictions_has_no_defined_metric(ws, tmp_path):
    empty = tmp_path / "empty.csv"
    write_predictions(empty, [])
    rc = main(["flag", "--predictions", str(empty), "--manifest", str(ws.manifest),
               "--out", str(tmp_path / "flags.csv")])
    assert rc == EXIT_UNDEFINED
    meta, _, rows = read_csv(tmp_path / "flags.csv")
    assert rows == []
    assert meta["tpr"] == meta["fpr"] == meta["ppv"] == "undefined"


def test_eval_percentage_writes_tables_and_curves(ws, tmp_path):
    out = tmp_path / "eval"
    rc = main(["eval", "--protocol", "percentage", "--manifest", str(ws.manifest),
               "--fractions", "0.5", "--trees", "10", "--out-dir", str(out)])
    assert rc == EXIT_OK
    meta, header, rows = read_csv(out / "accuracy_rich8.csv")
    assert header == ["type", "50%", "loo"]
    assert len(rows) == 7
    assert meta["repeats.50%"] == "2" and meta["repeats.loo"] == "1"
    overall = rows[-1]
    assert overall[0] == "overall" and 0.0 <= float(overall[1]) <= 1.0
    assert (out / "accuracy.txt").read_text().startswith("accuracy % with rich8")
    _, roc_header, roc_rows = read_csv(out / "roc_rich8.csv")
    assert roc_header == ["threshold", "tpr", "fpr", "ppv"]
    assert len(roc_rows) == 37
    preds, _ = read_predictions(out / "predictions_rich8.csv")
    assert len(preds) == 18
    _, cdf_header, cdf_rows = read_csv(out / "cdf_rich8.csv")
    assert cdf_header == ["group", "entropy", "cum_prob"]
    assert cdf_rows


def test_eval_is_deterministic(ws, tmp_path):
    args = ["eval", "--protocol", "loo", "--manifest", str(ws.manifest), "--trees", "10"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
    for name in ("accuracy_rich8.csv", "predictions_rich8.csv", "roc_rich8.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_eval_both_schemes_render_side_by_side(ws, tmp_path):
    out = tmp_path / "eval"
    rc = main(["eval", "--protocol", "loo", "--manifest", str(ws.manifest),
               "--scheme", "both", "--trees", "10", "--out-dir", str(out)])
    assert rc == EXIT_OK
    assert (out / "accuracy_rich8.csv").exists()
    assert (out / "accuracy_baseline2.csv").exists()
    text = (out / "accuracy.txt").read_text()
    assert "(" in text and text.startswith("accuracy % as rich8 (baseline2)")


def test_eval_inter_needs_second_manifest(ws, tmp_path):
    rc = main(["eval", "--protocol", "inter", "--manifest", str(ws.manifest),
               "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_eval_unknown_protocol(ws, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--protocol", "holdout", "--manifest", str(ws.manifest),
              "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_eval_window_sweep(ws, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["eval", "--protocol", "window-sweep", "--manifest", str(ws.manifest),
               "--windows", "30,45", "--trees", "8", "--out-dir", str(out)])
    assert rc == EXIT_OK
    meta, header, rows = read_csv(out / "window_sweep.csv")
    assert header == ["window_mins", "accuracy"]
    assert [r[0] for r in rows] == ["30", "45"]
    assert meta["protocol"] == "window-sweep/intra_loo"


def test_eval_subset_search(ws, tmp_path, capsys):
    out = tmp_path / "subsets"
    rc = main(["eval", "--protocol", "subset-search", "--manifest", str(ws.manifest),
               "--out-dir", str(out)])
    assert rc == EXIT_OK
    _, header, rows = read_csv(out / "subset_search.csv")
    assert header == ["mask", "features", "n_features", "accuracy"]
    assert len(rows) == 255
    accs = [float(r[3]) for r in rows]
    assert accs == sorted(accs, reverse=True)
    assert "best mask" in capsys.readouterr().out


# --- relabel -----------------------------------------------------------------


def test_relabel_budget_zero_changes_nothing(ws, tmp_path):
    out_manifest = tmp_path / "manifest.csv"
    out_model = tmp_path / "model.json"
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(ws.features), "--model", str(ws.model), "--budget", "0",
               "--out-manifest", str(out_manifest), "--out-model", str(out_model)])
    assert rc == EXIT_OK
    assert out_manifest.read_bytes() == ws.manifest.read_bytes()
    assert out_model.read_bytes() == ws.model.read_bytes()


def test_relabel_scripted_answers_fix_a_planted_error(ws, tmp_path, capsys):
    # plant one wrong label, rebuild features/model/preds from it
    meta, header, rows = read_csv(ws.manifest)
    target = "mini-co2-000"
    for row in rows:
        row[1] = str((ws.corpus / row[1]).resolve())  # keep paths valid from tmp_path
        if row[0] == target:
            row[2] = "humidity"
    from sensorclass.reporting import write_csv
    bad_manifest = tmp_path / "manifest.csv"
    write_csv(bad_manifest, header, rows, meta)
    bad_features = tmp_path / "features.csv"
    bad_model = tmp_path / "model.json"
    bad_preds = tmp_path / "preds.csv"
    assert main(["features", "--manifest", str(bad_manifest), "--out", str(bad_features)]) == EXIT_OK
    assert main(["train", "--features", str(bad_features), "--trees", "30",
                 "--out", str(bad_model)]) == EXIT_OK
    assert main(["classify", "--model", str(bad_model), "--features", str(bad_features),
                 "--out", str(bad_preds)]) == EXIT_OK
    capsys.readouterr()

    # answer the review queue: correct the planted trace, keep the rest
    preds, _ = read_predictions(bad_preds)
    queue = rank_by_uncertainty(preds)
    assert any(p.trace_id == target for p in queue)
    answers = tmp_path / "answers.txt"
    answers.write_text(
        "\n".join("co2" if p.trace_id == target else "" for p in queue) + "\n"
    )
    out_manifest = tmp_path / "fixed_manifest.csv"
    out_model = tmp_path / "fixed_model.json"
    rc = main(["relabel", "--predictions", str(bad_preds), "--manifest", str(bad_manifest),
               "--features", str(bad_features), "--model", str(bad_model),
               "--budget", "18", "--answers", str(answers),
               "--out-manifest", str(out_manifest), "--out-model", str(out_model)])
    assert rc == EXIT_OK
    assert "corrected 1" in capsys.readouterr().out
    fixed, _ = read_manifest(out_manifest)
    labels = {tid: lab for tid, _, lab in fixed}
    assert labels[target] is SensorType.CO2

    # the retrained model classifies the repaired corpus perfectly again
    fixed_preds = tmp_path / "fixed_preds.csv"
    assert main(["classify", "--model", str(out_model), "--features", str(ws.features),
                 "--averaging", "standard", "--out", str(fixed_preds)]) == EXIT_OK
    out, _ = read_predictions(fixed_preds)
    truth = {tid: lab for tid, _, lab in fixed}
    assert all(p.predicted is truth[p.trace_id] for p in out)


def test_relabel_quit_reviews_nothing(ws, tmp_path, capsys):
    answers = tmp_path / "answers.txt"
    answers.write_text("q\n")
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(ws.features), "--model", str(ws.model),
               "--answers", str(answers),
               "--out-manifest", str(tmp_path / "m.csv"), "--out-model", str(tmp_path / "mo.json")])
    assert rc == EXIT_OK
    assert "reviewed 0, corrected 0" in capsys.readouterr().out


def test_relabel_typo_answer_exits_data(ws, tmp_path):
    answers = tmp_path / "answers.txt"
    answers.write_text("co3\n")
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(ws.features), "--model", str(ws.model),
               "--answers", str(answers),
               "--out-manifest", str(tmp_path / "m.csv"), "--out-model", str(tmp_path / "mo.json")])
    assert rc == EXIT_DATA


def test_relabel_non_tty_without_answers_exits_config(ws, tmp_path):
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(ws.features), "--model", str(ws.model),
               "--out-manifest", str(tmp_path / "m.csv"), "--out-model", str(tmp_path / "mo.json")])
    assert rc == EXIT_CONFIG


# --- malformed inputs end in exit 2/3 with a one-line message ----------------


def _first_node(doc, tag):
    return next(n for tree in doc["trees"] for n in tree if n[0] == tag)


def _drop_config_seed(doc):
    del doc["config"]["seed"]


def _config(key, value):
    def mutate(doc):
        doc["config"][key] = value  # json writes inf as Infinity; 1e309 reads back the same
    return mutate


def _fractional_n_trees(doc):
    doc["config"]["n_trees"] += 0.9  # read with int(), it matched the tree count


def _empty_tree(doc):
    doc["trees"][0] = []


def _truncated_tree(doc):
    tree = next(t for t in doc["trees"] if len(t) > 1)
    del tree[-1]


def _split_feature(value):
    def mutate(doc):
        _first_node(doc, "s")[1] = value
    return mutate


def _split_threshold(value):
    def mutate(doc):
        _first_node(doc, "s")[2] = value
    return mutate


def _leaf(posterior):
    def mutate(doc):
        _first_node(doc, "l")[1] = posterior
    return mutate


def _node_after_last_leaf(doc):
    doc["trees"][0].append(["l", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def _unknown_node_tag(doc):
    _first_node(doc, "l")[0] = "x"


def _one_tree_more(doc):
    doc["trees"].append(doc["trees"][0])


def _reversed_class_labels(doc):
    doc["class_labels"].reverse()


def _one_class_label(doc):
    doc["class_labels"] = doc["class_labels"][:1]


def _run_threshold_nan(doc):
    doc["run"]["threshold"] = float("nan")


def _run_as_pairs(doc):
    doc["run"] = list(doc["run"].items())


@pytest.mark.parametrize("mutate", [
    _drop_config_seed,
    _config("n_trees", float("inf")),
    _config("m_try", float("inf")),
    _config("seed", float("inf")),
    _fractional_n_trees,
    _config("m_try", True),
    _config("seed", 2.5),
    _config("seed", -1),
    _config("m_try", 9),
    _empty_tree,
    _truncated_tree,
    _split_feature(99),
    _split_feature(-1),
    _split_feature(True),
    _split_threshold(float("nan")),
    _split_threshold(True),
    _leaf([True, False, False, False, False, False]),
    _leaf([5.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    _leaf([1.5, -0.5, 0.0, 0.0, 0.0, 0.0]),
    _leaf([float("nan"), 1.0, 0.0, 0.0, 0.0, 0.0]),
    _reversed_class_labels,
    _one_class_label,
    _run_threshold_nan,
    _run_as_pairs,
    _node_after_last_leaf,
    _unknown_node_tag,
    _one_tree_more,
], ids=["missing-config-key", "n-trees-inf", "m-try-inf", "seed-inf",
        "n-trees-float", "m-try-bool", "seed-float", "seed-negative", "m-try-above-features",
        "empty-tree", "truncated-tree", "split-feature-99",
        "split-feature-minus-1", "split-feature-bool", "split-threshold-nan",
        "split-threshold-bool", "leaf-bool", "leaf-sums-to-5", "leaf-negative",
        "leaf-nan", "class-labels-reversed", "class-labels-one", "run-nan", "run-list",
        "node-after-last-leaf", "unknown-node-tag", "tree-count"])
def test_classify_malformed_model_exits_data(ws, tmp_path, capsys, mutate):
    doc = json.loads(ws.model.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["classify", "--model", str(bad), "--features", str(ws.features),
               "--out", str(tmp_path / "p.csv")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_classify_model_with_a_huge_integer_exits_data(ws, tmp_path, capsys):
    # past sys.get_int_max_str_digits() the JSON parser itself raises ValueError
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no integer string-conversion limit")
    text = ws.model.read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"seed": 0', '"seed": ' + "9" * 5000, 1))
    assert bad.read_text() != text
    capsys.readouterr()
    rc = main(["classify", "--model", str(bad), "--features", str(ws.features),
               "--out", str(tmp_path / "p.csv")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _non_strict_model(ws, path):
    doc = json.loads(ws.model.read_text())
    _run_threshold_nan(doc)
    path.write_text(json.dumps(doc))
    return {"--model": path}


def _unlabeled_manifest(ws, path):
    lines = [line.rsplit(",", 1)[0] + "," if line.startswith("mini-") else line
             for line in ws.manifest.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    return {"--manifest": path}


@pytest.mark.parametrize("make_input, named", [
    (_non_strict_model, "NaN"),
    (lambda ws, path: {"--features": path}, "cannot read"),
    (_unlabeled_manifest, "no labeled rows"),
], ids=["model-nan", "features-missing", "no-labeled-rows"])
def test_relabel_bad_input_exits_data_and_writes_nothing(ws, tmp_path, capsys, make_input,
                                                         named):
    inputs = {"--predictions": ws.preds, "--manifest": ws.manifest,
              "--features": ws.features, "--model": ws.model}
    inputs.update(make_input(ws, tmp_path / "bad"))
    out_manifest, out_model = tmp_path / "m.csv", tmp_path / "mo.json"
    capsys.readouterr()
    rc = main(["relabel", *(str(x) for kv in inputs.items() for x in kv), "--budget", "0",
               "--out-manifest", str(out_manifest), "--out-model", str(out_model)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1, err
    assert not out_manifest.exists() and not out_model.exists()


def _rewrite_first_row(path, out, edit):
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("mini-"))
    lines[first] = edit(lines[first].split(","))
    out.write_text("\n".join(lines) + "\n")


def test_classify_nan_feature_exits_data(ws, tmp_path):
    feats = tmp_path / "f.csv"
    _rewrite_first_row(ws.features, feats, lambda cells: ",".join(cells[:2] + ["nan"] + cells[3:]))
    rc = main(["classify", "--model", str(ws.model), "--features", str(feats),
               "--out", str(tmp_path / "p.csv")])
    assert rc == EXIT_DATA


def test_classify_ragged_feature_row_exits_data(ws, tmp_path, capsys):
    feats = tmp_path / "f.csv"
    _rewrite_first_row(ws.features, feats, lambda cells: ",".join(cells[:-1]))
    capsys.readouterr()
    rc = main(["classify", "--model", str(ws.model), "--features", str(feats),
               "--out", str(tmp_path / "p.csv")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


def _data_line(path):
    """The 1-based line of the first data row of an artifact."""
    return next(i for i, line in enumerate(path.read_text().splitlines(), 1)
                if line.startswith("mini-"))


@pytest.mark.parametrize("edit", [
    lambda cells: cells[:1],
    lambda cells: cells[:2] + ["abc"] + cells[3:],
    lambda cells: cells[:2] + ["nan"] + cells[3:],
    lambda cells: cells[:-1] + ["inf"],
], ids=["one-cell", "probability-abc", "probability-nan", "entropy-inf"])
def test_flag_malformed_predictions_row_exits_data(ws, tmp_path, capsys, edit):
    preds = tmp_path / "p.csv"
    _rewrite_first_row(ws.preds, preds, lambda cells: ",".join(edit(cells)))
    out = tmp_path / "flags.csv"
    capsys.readouterr()
    assert main(["flag", "--predictions", str(preds), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {preds}, line {_data_line(preds)}: ")
    assert err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("artifact", ["predictions", "features", "manifest"])
def test_repeated_id_exits_data(ws, tmp_path, capsys, artifact):
    source = {"predictions": ws.preds, "features": ws.features, "manifest": ws.manifest}[artifact]
    lines = source.read_text().splitlines()
    repeated = tmp_path / source.name
    repeated.write_text("\n".join(lines + [lines[_data_line(source) - 1]]) + "\n")
    out = tmp_path / "out.csv"
    argv = {
        "predictions": ["flag", "--predictions", str(repeated), "--out", str(out)],
        "features": ["train", "--features", str(repeated), "--trees", "2", "--out", str(out)],
        "manifest": ["features", "--manifest", str(repeated), "--out", str(out)],
    }[artifact]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {repeated}, line {len(lines) + 1}: id ")
    assert err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["flag", "relabel"])
def test_prediction_missing_from_the_manifest_exits_data(ws, tmp_path, capsys, command):
    meta, header, rows = read_csv(ws.manifest)
    dropped = read_predictions(ws.preds)[0][0].trace_id
    short = tmp_path / "manifest.csv"
    reporting.write_csv(short, header, [row for row in rows if row[0] != dropped], meta)
    outs = [tmp_path / "out.csv", tmp_path / "out.json"]
    argv = {
        "flag": ["flag", "--predictions", str(ws.preds), "--manifest", str(short),
                 "--out", str(outs[0])],
        "relabel": ["relabel", "--predictions", str(ws.preds), "--manifest", str(short),
                    "--features", str(ws.features), "--model", str(ws.model),
                    "--out-manifest", str(outs[0]), "--out-model", str(outs[1])],
    }[command]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(dropped) in err and err.count("\n") == 1, err
    assert not any(out.exists() for out in outs)


def test_flag_nan_threshold_exits_config(ws, tmp_path):
    rc = main(["flag", "--predictions", str(ws.preds), "--threshold", "nan",
               "--out", str(tmp_path / "flags.csv")])
    assert rc == EXIT_CONFIG


def test_relabel_negative_budget_exits_config(ws, tmp_path):
    answers = tmp_path / "answers.txt"
    answers.write_text("")
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(ws.features), "--model", str(ws.model), "--budget", "-1",
               "--answers", str(answers),
               "--out-manifest", str(tmp_path / "m.csv"), "--out-model", str(tmp_path / "mo.json")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("value", ["0", "-5", "nan", "1e-300"])
@pytest.mark.parametrize("command", ["features", "eval"])
def test_bad_window_mins_exits_config(ws, tmp_path, capsys, command, value):
    out = ["--out", str(tmp_path / "f.csv")] if command == "features" else [
        "--protocol", "loo", "--trees", "2", "--out-dir", str(tmp_path / "o")]
    capsys.readouterr()
    rc = main([command, "--manifest", str(ws.manifest), "--window-mins", value] + out)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: --window-mins") and err.count("\n") == 1, err


def _command_reading_nothing(command, tmp_path):
    """argv for command whose every input file is missing, and its output path."""
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    inputs = {
        "synth": ["--traces-per-type", "1"],
        "features": ["--manifest", missing],
        "train": ["--features", missing],
        "classify": ["--model", missing, "--features", missing],
        "flag": ["--predictions", missing, "--manifest", missing],
        "eval": ["--protocol", "loo", "--manifest", missing],
        "relabel": ["--predictions", missing, "--manifest", missing, "--features", missing,
                    "--model", missing, "--answers", missing,
                    "--out-model", str(tmp_path / "out_model")],
    }[command]
    out_flag = {"eval": "--out-dir", "relabel": "--out-manifest"}.get(command, "--out")
    return [command, *inputs, out_flag, str(out)], out


@pytest.mark.parametrize("flag, value, bound", [
    ("--window-mins", "nan", "--window-mins"),
    ("--window-mins", "-1", "--window-mins"),
    ("--threshold", "inf", "--threshold"),
    ("--threshold", "nan", "--threshold"),
    ("--trees", "0", "n_trees"),
    ("--mtry", "-5", "m_try"),
    ("--seed", "-1", "seed"),
])
@pytest.mark.parametrize("command", [
    "synth", "features", "train", "classify", "flag", "eval", "relabel",
])
def test_bad_shared_flag_exits_config_before_reading(tmp_path, capsys, command, flag, value,
                                                     bound):
    # the input files do not exist, so only a check made before any input is
    # read can give exit 2. bound is the flag itself where the CLI holds the
    # bound, or the ForestConfig field whose check the flag goes through; the
    # message names the flag either way (synth checks its seed as a spec seed)
    argv, out = _command_reading_nothing(command, tmp_path)
    named = "corpus spec key 'seed'" if (command, flag) == ("synth", "--seed") else flag
    capsys.readouterr()
    assert main(argv + [flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
    if bound != flag and named == flag:
        with pytest.raises(InvalidConfig) as exc:
            ForestConfig(**{bound: int(value)})
        assert err == f"error: {str(exc.value).replace(bound, flag, 1)}\n"
    assert not out.exists() and not (tmp_path / "out_model").exists()


def test_trained_model_is_strict_json(ws, tmp_path):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    json.loads(ws.model.read_text(), parse_constant=reject)
    out = tmp_path / "m.json"
    rc = main(["train", "--features", str(ws.features), "--trees", "2",
               "--window-mins", "nan", "--threshold", "inf", "--out", str(out)])
    if out.exists():
        json.loads(out.read_text(), parse_constant=reject)
    assert rc == EXIT_CONFIG and not out.exists()


@pytest.mark.parametrize("windows", ["45.7", "0.5", "0", "-30", "nan", "30,inf"])
def test_eval_windows_must_be_whole_positive_minutes(ws, tmp_path, windows):
    rc = main(["eval", "--protocol", "window-sweep", "--manifest", str(ws.manifest),
               "--windows", windows, "--trees", "2", "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "o" / "window_sweep.csv").exists()


@pytest.mark.parametrize("protocol, flag, values", [
    ("percentage", "--fractions", "0.5,0.5"),
    ("inter", "--fractions", "0.2,1.0,0.20"),
    ("window-sweep", "--windows", "30,45,30"),
    ("percentage", "--fractions", "0.3333331,0.3333332"),  # both columns read 33.3333%
    ("inter", "--fractions", "0.9999999"),  # reads 100%, as the 1.0 run inter adds
])
def test_eval_duplicate_list_entry_exits_config(ws, tmp_path, protocol, flag, values):
    out = tmp_path / "o"
    rc = main(["eval", "--protocol", protocol, "--manifest", str(ws.manifest),
               "--manifest-b", str(ws.manifest), flag, values,
               "--trees", "2", "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


def test_relabel_features_of_another_schema_exit_data_before_any_prompt(ws, tmp_path, capsys):
    # the same ids in baseline2 for a rich8 model: rejected as classify rejects them, not
    # retrained into a model whose run metadata still says rich8
    base_features = tmp_path / "fb.csv"
    assert main(["features", "--manifest", str(ws.manifest), "--scheme", "baseline2",
                 "--out", str(base_features)]) == EXIT_OK
    answers = tmp_path / "answers.txt"
    answers.write_text("keep\n")
    out_manifest, out_model = tmp_path / "m.csv", tmp_path / "mo.json"
    capsys.readouterr()
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(base_features), "--model", str(ws.model),
               "--budget", "3", "--answers", str(answers),
               "--out-manifest", str(out_manifest), "--out-model", str(out_model)])
    assert rc == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""  # no prompt was shown
    assert err == "error: model expects schema 'rich8', got 'baseline2'\n"
    assert not out_manifest.exists() and not out_model.exists()


def test_relabel_unknown_manifest_label_writes_nothing(ws, tmp_path):
    manifest = tmp_path / "manifest.csv"
    text = ws.manifest.read_text()
    manifest.write_text(text.replace(",co2\n", ",co3\n", 1))
    assert manifest.read_text() != text
    answers = tmp_path / "answers.txt"
    answers.write_text("")
    out_manifest = tmp_path / "m.csv"
    out_model = tmp_path / "mo.json"
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(manifest),
               "--features", str(ws.features), "--model", str(ws.model),
               "--answers", str(answers),
               "--out-manifest", str(out_manifest), "--out-model", str(out_model)])
    assert rc == EXIT_DATA
    assert not out_manifest.exists() and not out_model.exists()


def _manifest_naming(tmp_path, trace_name):
    from sensorclass.reporting import write_manifest
    write_manifest(tmp_path / "m.csv", [("t", trace_name, SensorType.CO2)])
    return tmp_path / "m.csv"


def _missing_trace(tmp_path):
    return _manifest_naming(tmp_path, "absent.csv")


def _directory_as_trace(tmp_path):
    (tmp_path / "adir.csv").mkdir()
    return _manifest_naming(tmp_path, "adir.csv")


def _latin1_trace(tmp_path):
    (tmp_path / "t.csv").write_bytes(b"# caf\xe9\ntimestamp,value\n0.0,1.0\n60.0,2.0\n")
    return _manifest_naming(tmp_path, "t.csv")


def _latin1_manifest(tmp_path):
    write_trace_csv(make_trace("t", [0.0, 60.0], [1.0, 2.0]), tmp_path / "t.csv")
    manifest = _manifest_naming(tmp_path, "t.csv")
    manifest.write_bytes(manifest.read_bytes().replace(b"t,t.csv", b"t\xe9,t.csv"))
    return manifest


def _missing_manifest(tmp_path):
    return tmp_path / "nowhere.csv"


def _nul_in_trace_path(tmp_path):
    return _manifest_naming(tmp_path, "t\x00.csv")


@pytest.mark.parametrize("make_manifest", [
    _missing_trace, _directory_as_trace, _latin1_trace, _latin1_manifest, _missing_manifest,
    _nul_in_trace_path,
], ids=["missing-trace", "directory-trace", "non-utf8-trace", "non-utf8-manifest",
        "missing-manifest", "nul-in-trace-path"])
def test_unreadable_input_file_exits_data(tmp_path, capsys, make_manifest):
    manifest = make_manifest(tmp_path)
    capsys.readouterr()
    rc = main(["features", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("protocol, fractions", [
    ("percentage", "0.5,1.5"),
    ("percentage", "0.5,1.0"),
    ("percentage", "0"),
    ("loo", "-0.2"),
    ("inter", "0.2,1.5"),
    ("inter", "nan"),
    ("percentage", "1e-9"),
    ("percentage", "abc"),
    ("inter", ","),
])
def test_eval_fractions_out_of_range_exit_config_before_reading(tmp_path, capsys,
                                                                 protocol, fractions):
    # the manifests do not exist, so only a check made before any input is
    # read can give exit 2
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["eval", "--protocol", protocol, "--manifest", str(tmp_path / "no.csv"),
               "--manifest-b", str(tmp_path / "no_b.csv"), "--fractions", fractions,
               "--trees", "2", "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: --fractions") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("protocol, extra, flag", [
    ("subset-search", ["--scheme", "baseline2"], "--scheme baseline2"),
    ("subset-search", ["--scheme", "both"], "--scheme both"),
    ("window-sweep", ["--scheme", "baseline2"], "--scheme baseline2"),
    ("window-sweep", ["--scheme", "both", "--manifest-b", "no_b.csv"], "--scheme both"),
    ("percentage", ["--manifest-b", "no_b.csv"], "--manifest-b"),
    ("loo", ["--manifest-b", "no_b.csv"], "--manifest-b"),
    ("subset-search", ["--manifest-b", "no_b.csv"], "--manifest-b"),
    ("loo", ["--fractions", "0.5"], "--fractions: --protocol loo does not read it"),
    ("loo", ["--fractions", "7"], "--fractions: --protocol loo does not read it"),
    ("subset-search", ["--fractions", "0.5"],
     "--fractions: --protocol subset-search does not read it"),
    ("window-sweep", ["--fractions", "0.5"],
     "--fractions: --protocol window-sweep does not read it"),
    ("percentage", ["--windows", "30"], "--windows: --protocol percentage does not read it"),
    ("inter", ["--windows", "30", "--manifest-b", "no_b.csv"],
     "--windows: --protocol inter does not read it"),
], ids=["subset-search-baseline2", "subset-search-both", "window-sweep-baseline2",
        "window-sweep-both", "percentage-manifest-b", "loo-manifest-b",
        "subset-search-manifest-b", "loo-fractions", "loo-fractions-out-of-range",
        "subset-search-fractions", "window-sweep-fractions", "percentage-windows",
        "inter-windows"])
def test_eval_flag_the_protocol_never_reads_exits_config_before_reading(tmp_path, capsys,
                                                                       protocol, extra, flag):
    # a baseline2 question must not get a rich8 answer, and a second corpus
    # that is never read must not pass unnoticed; the manifests do not exist
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["eval", "--protocol", protocol, "--manifest", str(tmp_path / "no.csv"),
               *extra, "--trees", "2", "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("protocol, extra, message", [
    ("percentage", ["--scheme", "both", "--fractions", "0.5", "--mtry", "3"],
     "--mtry 3 exceeds feature count 2 of baseline2"),
    ("loo", ["--scheme", "baseline2", "--mtry", "3"],
     "--mtry 3 exceeds feature count 2 of baseline2"),
    ("inter", ["--scheme", "baseline2", "--mtry", "5", "--manifest-b", "no_b.csv"],
     "--mtry 5 exceeds feature count 2 of baseline2"),
    ("percentage", ["--fractions", "0.5", "--mtry", "9"],
     "--mtry 9 exceeds feature count 8 of rich8"),
    ("window-sweep", ["--windows", "30", "--mtry", "9"],
     "--mtry 9 exceeds feature count 8 of rich8"),
], ids=["percentage-both", "loo-baseline2", "inter-baseline2", "percentage-rich8",
        "window-sweep"])
def test_eval_mtry_above_the_scheme_feature_count_exits_config_before_reading(tmp_path, capsys,
                                                                            protocol, extra,
                                                                            message):
    # the scheme fixes the feature count; the manifests do not exist
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["eval", "--protocol", protocol, "--manifest", str(tmp_path / "no.csv"),
               *extra, "--trees", "2", "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("second", [False, True], ids=["loo", "manifest-b"])
def test_eval_window_sweep_with_no_point_exits_data(ws, tmp_path, capsys, second):
    # every ws trace spans two days, shorter than a 100,000-minute window
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["eval", "--protocol", "window-sweep", "--windows", "100000",
               "--manifest", str(ws.manifest), "--trees", "2", "--out-dir", str(out),
               *(["--manifest-b", str(ws.manifest)] if second else [])])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == ("error: no window length in --windows fits a trace of "
                                       "each corpus\n")
    assert not out.exists()


@pytest.mark.parametrize("raised, code, cpus", [
    (KeyboardInterrupt(), 130, 1),
    (DataError("baseline2 failed"), EXIT_DATA, 1),
    (DataError("baseline2 failed"), EXIT_DATA, 2),
], ids=["ctrl-c", "data-error", "data-error-in-a-worker"])
def test_eval_that_stops_on_its_second_scheme_leaves_no_output(ws, tmp_path, monkeypatch, capsys,
                                                               workers, raised, code, cpus):
    # the run stops in baseline2's forests, after rich8's: none of its results may be written
    schemas = []  # of each train_forests call this process makes

    def fails_on_baseline2(dataset, folds):
        schemas.append(dataset.schema)
        if dataset.schema == "baseline2":
            raise raised
        return train_forests(dataset, folds)

    workers(cpus)
    monkeypatch.setattr(evaluate, "train_forests", fails_on_baseline2)
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["eval", "--protocol", "percentage", "--scheme", "both", "--fractions", "0.5",
               "--manifest", str(ws.manifest), "--trees", "2", "--out-dir", str(out)])
    assert rc == code
    assert schemas == (["rich8", "baseline2"] if cpus == 1 else [])  # else in the workers
    assert capsys.readouterr().err.splitlines()[-1] == (
        "interrupted" if code == 130 else "error: baseline2 failed")
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("protocol", ["percentage", "loo", "inter"])
def test_scheme_both_writes_each_schemes_files_as_that_scheme_alone(ws, tmp_path, workers,
                                                                     protocol, cpus):
    # both schemes grow in one fold round; each scheme's files keep the bytes of its own run
    workers(cpus)
    argv = ["eval", "--protocol", protocol, "--manifest", str(ws.manifest), "--trees", "2",
            "--seed", "5", *{"percentage": ["--fractions", "0.33,0.5"],
                             "inter": ["--manifest-b", str(ws.manifest), "--fractions", "0.5"],
                             }.get(protocol, [])]
    for scheme in ("both", "rich8", "baseline2"):
        assert main([*argv, "--scheme", scheme, "--out-dir", str(tmp_path / scheme)]) == EXIT_OK
    for scheme in ("rich8", "baseline2"):
        for name in (f"{kind}_{scheme}.csv" for kind in ("predictions", "roc", "cdf", "accuracy")):
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / scheme / name).read_bytes()


def test_a_one_instance_class_is_logged_once_per_split(ws, tmp_path, caplog):
    # one co2 trace left: each of the two 50% splits logs it once, however many schemes run
    entries = [(tid, str(path), lab) for tid, path, lab in read_manifest(ws.manifest)[0]
               if lab != SensorType.CO2 or tid == "mini-co2-000"]
    reporting.write_manifest(tmp_path / "m.csv", entries)
    caplog.set_level(logging.INFO)
    for scheme in ("both", "rich8"):
        caplog.clear()
        assert main(["eval", "--protocol", "percentage", "--scheme", scheme, "--fractions", "0.5",
                     "--manifest", str(tmp_path / "m.csv"), "--trees", "2",
                     "--out-dir", str(tmp_path / scheme)]) == EXIT_OK
        assert [r.getMessage() for r in caplog.records if "one instance" in r.getMessage()] == [
            "stratified_split: class co2 has one instance; untestable this split"] * 2


def _write_latin1(path):
    path.write_bytes(b"caf\xe9\n")
    return path


@pytest.mark.parametrize("make_file", [
    lambda tmp_path: tmp_path / "missing",
    lambda tmp_path: _write_latin1(tmp_path / "latin1"),
    lambda tmp_path: tmp_path,
], ids=["missing", "non-utf8", "directory"])
@pytest.mark.parametrize("command, expected", [
    ("classify", EXIT_DATA), ("synth", EXIT_CONFIG), ("relabel", EXIT_DATA),
])
def test_unreadable_model_spec_or_answers_file(ws, tmp_path, capsys, make_file,
                                               command, expected):
    bad = str(make_file(tmp_path))
    out = tmp_path / "out"
    argv = {
        "classify": ["classify", "--model", bad, "--features", str(ws.features),
                     "--out", str(out)],
        "synth": ["synth", "--spec", bad, "--out", str(out)],
        "relabel": ["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
                    "--features", str(ws.features), "--model", str(ws.model),
                    "--answers", bad, "--out-manifest", str(out),
                    "--out-model", str(tmp_path / "mo.json")],
    }[command]
    capsys.readouterr()
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_eval_failing_on_its_input_creates_no_out_dir(tmp_path, capsys):
    out = tmp_path / "evout"
    capsys.readouterr()
    rc = main(["eval", "--protocol", "loo", "--manifest", str(tmp_path / "missing.csv"),
               "--out-dir", str(out)])
    assert rc == EXIT_DATA
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, out_flag, target", [
    ("synth", "--out", "file"),
    ("features", "--out", "missing-dir"),
    ("train", "--out", "missing-dir"),
    ("classify", "--out", "missing-dir"),
    ("flag", "--out", "missing-dir"),
    ("eval", "--out-dir", "file"),
    ("relabel", "--out-manifest", "missing-dir"),
    ("relabel", "--out-model", "missing-dir"),
    *((command, flag, "under-file") for command, flag in [
        ("synth", "--out"), ("features", "--out"), ("train", "--out"), ("classify", "--out"),
        ("flag", "--out"), ("eval", "--out-dir"), ("relabel", "--out-manifest"),
        ("relabel", "--out-model")]),
])
def test_unwritable_output_exits_config(ws, tmp_path, capsys, command, out_flag, target):
    (tmp_path / "a_file").write_text("")
    bad = str(tmp_path / {"file": "a_file", "missing-dir": "no_dir/x", "under-file": "a_file/x"}[
        target])
    named = bad + ("/traces" if (command, target) == ("synth", "file") else "")
    outputs = {"--out-manifest": str(tmp_path / "m.csv"), "--out-model": str(tmp_path / "mo.json")}
    outputs[out_flag] = bad
    argv = {
        "synth": ["--spec", str(ws.spec)],
        "features": ["--manifest", str(ws.manifest)],
        "train": ["--features", str(ws.features), "--trees", "2"],
        "classify": ["--model", str(ws.model), "--features", str(ws.features)],
        "flag": ["--predictions", str(ws.preds), "--manifest", str(ws.manifest)],
        "eval": ["--protocol", "loo", "--trees", "2", "--manifest", str(ws.manifest)],
        "relabel": ["--predictions", str(ws.preds), "--manifest", str(ws.manifest),
                    "--features", str(ws.features), "--model", str(ws.model), "--budget", "0",
                    *(x for kv in outputs.items() for x in kv)],
    }[command]
    if command != "relabel":
        argv += [out_flag, bad]
    capsys.readouterr()
    assert main([command, *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {named}: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_relabel_unwritable_model_writes_no_manifest(ws, tmp_path, capsys, target):
    (tmp_path / "a_dir").mkdir()
    out_manifest = tmp_path / "m.csv"
    out_model = tmp_path / ("no_dir/mo.json" if target == "missing-dir" else "a_dir")
    capsys.readouterr()
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(ws.features), "--model", str(ws.model), "--budget", "0",
               "--out-manifest", str(out_manifest), "--out-model", str(out_model)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_model}") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir"]  # no temporary file either
    assert not any((tmp_path / "a_dir").iterdir())


def test_relabel_leaves_only_its_two_outputs(ws, tmp_path):
    out_manifest, out_model = tmp_path / "m.csv", tmp_path / "mo.json"
    rc = main(["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
               "--features", str(ws.features), "--model", str(ws.model), "--budget", "0",
               "--out-manifest", str(out_manifest), "--out-model", str(out_model)])
    assert rc == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "mo.json"]


def _paths_and_bytes(root):
    """Every path under root, with a file's bytes, None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "over-older-outputs"])
@pytest.mark.parametrize("command", ["synth", "features", "train", "classify", "flag", "relabel",
                                     "eval-loo-both", "eval-window-sweep"])
def test_every_write_of_every_command_can_fail(ws, tmp_path, monkeypatch, capsys, workers,
                                               command, existing):
    """Fails the k-th file a command opens for writing, for every k, once with an OSError and
    once with Ctrl-C, after a byte of it is written: the run exits 2 naming the output path,
    or 130, and leaves every path under its outputs' directory as it was, older outputs with
    their bytes, with no .partial file and no directory of its own."""
    new = tmp_path / "new" / "out"  # synth and eval make it, with its parent
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**MINI_SPEC, "traces_per_type": 1}))
    argv = {
        "synth": ["synth", "--spec", str(spec), "--out", str(new)],
        "features": ["features", "--manifest", str(ws.manifest), "--out", str(tmp_path / "f.csv")],
        "train": ["train", "--features", str(ws.features), "--trees", "2",
                  "--out", str(tmp_path / "m.json")],
        "classify": ["classify", "--model", str(ws.model), "--features", str(ws.features),
                     "--out", str(tmp_path / "p.csv")],
        "flag": ["flag", "--predictions", str(ws.preds), "--out", str(tmp_path / "fl.csv")],
        "relabel": ["relabel", "--predictions", str(ws.preds), "--manifest", str(ws.manifest),
                    "--features", str(ws.features), "--model", str(ws.model), "--budget", "0",
                    "--out-manifest", str(tmp_path / "rm.csv"),
                    "--out-model", str(tmp_path / "rm.json")],
        "eval-loo-both": ["eval", "--protocol", "loo", "--scheme", "both", "--trees", "2",
                          "--manifest", str(ws.manifest), "--out-dir", str(new)],
        "eval-window-sweep": ["eval", "--protocol", "window-sweep", "--windows", "60",
                              "--trees", "2", "--manifest", str(ws.manifest),
                              "--out-dir", str(new)],
    }[command]
    workers(1)  # every write in this process, in order; test_synth fails writes in workers
    real_open, writes, failing = io.open, [], {}

    def open_(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            writes.append(str(file))
            if len(writes) - 1 == failing.get("k"):
                with real_open(file, mode, *args, **kwargs) as fh:
                    fh.write(b"x" if "b" in mode else "x")
                raise failing["exc"](str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)  # pathlib's writes
    before = _paths_and_bytes(tmp_path)
    assert main(argv + ["--seed", "1"]) == EXIT_OK
    assert writes and all(w.endswith(".partial") for w in writes), writes  # all staged
    if not existing:
        for path in sorted(set(_paths_and_bytes(tmp_path)) - set(before), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
    before = _paths_and_bytes(tmp_path)
    no_space = os.strerror(errno.ENOSPC)
    cases = [(lambda name: OSError(errno.ENOSPC, no_space, name), EXIT_CONFIG),
             (lambda name: KeyboardInterrupt(), 130)]
    for k in range(len(writes)):
        for exc, code in cases:
            writes.clear()
            failing.update(k=k, exc=exc)
            capsys.readouterr()
            assert main(argv + ["--seed", "2"]) == code, (k, code)  # other bytes than seed 1's
            out = writes[k].removesuffix(".partial")
            expected = f"error: cannot write {out}: {no_space}" if code == EXIT_CONFIG else (
                "interrupted")
            assert capsys.readouterr().err.splitlines()[-1:] == [expected]
            assert _paths_and_bytes(tmp_path) == before, (k, code)


@pytest.fixture
def reads_one_trace_at_a_time(monkeypatch, tmp_path):
    """Wraps reporting.read_trace_csv to fail a read while more than one
    earlier trace is still alive in the reading process, and to append
    (pid, trace id) of each read to a file, so that reads made in forked
    workers are seen too; returns a function giving each pid's reads, in
    order, pids in the order of their first read."""
    alive, read = weakref.WeakSet(), []
    reads = tmp_path / "reads.txt"
    real = reporting.read_trace_csv

    def read_trace_csv(*args, **kwargs):
        assert len(alive) <= 1, f"{len(alive)} traces alive at read {len(read) + 1}"
        trace = real(*args, **kwargs)
        alive.add(trace)
        read.append(trace.trace_id)
        with open(reads, "a") as fh:
            fh.write(f"{os.getpid()} {trace.trace_id}\n")
        return trace

    monkeypatch.setattr(reporting, "read_trace_csv", read_trace_csv)

    def by_pid():
        out = {}
        for line in reads.read_text().splitlines() if reads.exists() else []:
            pid, tid = line.split(" ", 1)
            out.setdefault(int(pid), []).append(tid)
        return out

    return by_pid


ONE_TRACE_CASES = [
    ("features", ["features", "--out", "f.csv"], 1),
    ("percentage-both", ["eval", "--protocol", "percentage", "--scheme", "both",
                         "--fractions", "0.5", "--out-dir", "o"], 1),
    ("loo", ["eval", "--protocol", "loo", "--out-dir", "o"], 1),
    ("inter", ["eval", "--protocol", "inter", "--fractions", "0.5", "--out-dir", "o",
               "--manifest-b"], 2),
    ("subset-search", ["eval", "--protocol", "subset-search", "--out-dir", "o"], 1),
    ("window-sweep", ["eval", "--protocol", "window-sweep", "--windows", "30,60",
                      "--out-dir", "o"], 1),
    ("window-sweep-b", ["eval", "--protocol", "window-sweep", "--windows", "30,60",
                        "--out-dir", "o", "--manifest-b"], 2),
]


@pytest.mark.parametrize("argv, corpora, cpus", [
    (argv, corpora, cpus) for cpus in (1, 2) for _, argv, corpora in ONE_TRACE_CASES
], ids=[name if cpus == 1 else f"{name}-two-workers"
        for cpus in (1, 2) for name, _, _ in ONE_TRACE_CASES])
def test_commands_hold_one_trace_at_a_time(ws, tmp_path, monkeypatch, reads_one_trace_at_a_time,
                                           workers, argv, corpora, cpus):
    monkeypatch.chdir(tmp_path)
    if argv[-1] == "--manifest-b":
        argv = argv + [str(ws.manifest)]
    started = workers(cpus)
    assert main(argv + ["--manifest", str(ws.manifest), "--trees", "2"]) == EXIT_OK
    ids = [tid for tid, _, _ in read_manifest(ws.manifest)[0]]
    reads = reads_one_trace_at_a_time()
    # the runs of the reading processes, in the order they started: each corpus's blocks
    # start, in block order, after the blocks of the corpus before it are joined
    runs = [reads.pop(pid) for pid in [os.getpid()] + [p.pid for p in started] if pid in reads]
    assert reads == {}
    assert [tid for run in runs for tid in run] == ids * corpora  # each corpus read once, in order
    if cpus == 1:
        assert len(runs) == 1  # this process read every trace
    else:
        assert len(runs) == 2 * corpora  # two workers per corpus, none in this process
        for run in runs:  # each a contiguous run of the manifest
            first = ids.index(run[0])
            assert run == ids[first:first + len(run)]


def test_first_bad_trace_in_manifest_order_decides_the_error(tmp_path, capsys, workers):
    from sensorclass.reporting import write_manifest
    full = make_trace("u", [60.0 * i for i in range(61)], [float(i) for i in range(61)])
    write_trace_csv(full, tmp_path / "u.csv")
    manifest = tmp_path / "m.csv"
    write_manifest(manifest, [("u", "u.csv", None), ("gone", "gone.csv", SensorType.CO2)])
    for cpus in (1, 2):  # at two, each block holds one bad trace: the first block's wins
        started = workers(cpus)
        capsys.readouterr()
        rc = main(["eval", "--protocol", "loo", "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == ("error: trace 'u' has no label; "
                                           "cannot build a dataset\n")
        assert not (tmp_path / "o").exists()
        assert len(started) == (0 if cpus == 1 else 2)
        assert multiprocessing.active_children() == []


SWEEP = ["eval", "--protocol", "window-sweep", "--windows", "30,60", "--out-dir", "o"]


@pytest.mark.parametrize("argv", [
    ["features", "--out", "f.csv", "--manifest", "m.csv"],
    SWEEP + ["--manifest", "m.csv"],
    SWEEP + ["--manifest", "m.csv", "--manifest-b", "m.csv"],
    SWEEP + ["--manifest", "short.csv", "--manifest-b", "m.csv"],
], ids=["features", "window-sweep", "window-sweep-b", "window-sweep-b-after-skips"])
def test_a_failed_run_prints_only_its_error_line(tmp_path, monkeypatch, capsys, caplog, workers,
                                                 argv):
    # a trace shorter than every window, then a missing file: the short trace's skip
    # warning is never logged, at one CPU or with each trace in its own worker; nor is
    # it when the short trace is a first corpus that reads fine and the second fails
    from sensorclass.reporting import write_manifest
    write_trace_csv(make_trace("tiny", [0.0, 60.0, 120.0], [1.0, 2.0, 3.0], SensorType.CO2),
                    tmp_path / "tiny.csv")
    write_manifest(tmp_path / "m.csv", [("tiny", "tiny.csv", SensorType.CO2),
                                        ("gone", "gone.csv", SensorType.CO2)])
    write_manifest(tmp_path / "short.csv", [("tiny", "tiny.csv", SensorType.CO2)])
    argv = [str(tmp_path / a) if a in ("m.csv", "short.csv") else a for a in argv]
    caplog.set_level(logging.INFO)
    for cpus in (1, 2):
        (tmp_path / str(cpus)).mkdir()
        monkeypatch.chdir(tmp_path / str(cpus))
        started = workers(cpus)
        caplog.clear()
        capsys.readouterr()
        rc = main(argv + ["--trees", "2"])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (f"error: cannot read {tmp_path / 'gone.csv'}: "
                                           "No such file or directory\n")
        assert caplog.records == []
        assert list((tmp_path / str(cpus)).iterdir()) == []  # no output, no out dir
        assert len(started) == (0 if cpus == 1 else 2)


@pytest.fixture(scope="module")
def short_ends(ws, tmp_path_factory):
    """ws's corpus with a labeled 40-minute trace at each end of its manifest, so each of
    two ingest blocks holds a trace shorter than 45 and 60 minute windows."""
    from sensorclass.reporting import write_manifest
    root = tmp_path_factory.mktemp("short_ends")
    entries = [(tid, str(path), lab) for tid, path, lab in read_manifest(ws.manifest)[0]]
    for name, label in (("short-first", SensorType.CO2), ("short-last", SensorType.HUMIDITY)):
        write_trace_csv(make_trace(name, [60.0 * i for i in range(41)],
                                   [float(i % 7) for i in range(41)], label), root / f"{name}.csv")
    entries = ([("short-first", "short-first.csv", SensorType.CO2)] + entries
               + [("short-last", "short-last.csv", SensorType.HUMIDITY)])
    write_manifest(root / "manifest.csv", entries)
    return root / "manifest.csv"


@pytest.mark.parametrize("argv, corpus", [
    (["features", "--out", "f.csv"], "short"),
    (["eval", "--protocol", "percentage", "--scheme", "both", "--fractions", "0.5",
      "--out-dir", "o"], "ws"),
    (["eval", "--protocol", "loo", "--out-dir", "o"], "ws"),
    (["eval", "--protocol", "inter", "--fractions", "0.5", "--out-dir", "o", "--manifest-b"], "ws"),
    (["eval", "--protocol", "subset-search", "--out-dir", "o"], "ws"),
    (["eval", "--protocol", "window-sweep", "--windows", "30,60,3000", "--out-dir", "o"], "short"),
    (["eval", "--protocol", "window-sweep", "--windows", "30,60,3000", "--out-dir", "o",
      "--manifest-b"], "short"),
], ids=["features", "percentage-both", "loo", "inter", "subset-search", "window-sweep",
        "window-sweep-b"])
def test_commands_are_the_same_on_one_and_two_ingest_workers(ws, short_ends, tmp_path,
                                                             monkeypatch, capsys, caplog,
                                                             workers, argv, corpus):
    manifest = str(short_ends if corpus == "short" else ws.manifest)
    if argv[-1] == "--manifest-b":
        argv = argv + [manifest]
    caplog.set_level(logging.INFO)
    runs = []
    for cpus in (1, 2):
        (tmp_path / str(cpus)).mkdir()
        monkeypatch.chdir(tmp_path / str(cpus))
        started = workers(cpus)
        caplog.clear()
        capsys.readouterr()
        assert main(argv + ["--manifest", manifest, "--trees", "2"]) == EXIT_OK
        assert multiprocessing.active_children() == []
        files = {p.relative_to(tmp_path / str(cpus)): p.read_bytes()
                 for p in sorted((tmp_path / str(cpus)).rglob("*")) if p.is_file()}
        records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        runs.append((files, capsys.readouterr(), records, len(started)))
    (files1, out1, records1, started1), (files2, out2, records2, started2) = runs
    assert files1 and files1 == files2
    assert out1 == out2
    assert records1 == records2
    assert started1 == 0 and started2 >= 2
    warned = [message.split() for _, level, message in records1 if level == logging.WARNING]
    ids = [tid for tid, _, _ in read_manifest(ws.manifest)[0]]
    if argv[0] == "features":  # the short traces' warnings, in manifest order
        assert [words[1] for words in warned] == ["short-first", "short-last"]
    elif corpus == "short":  # skipped at 60 and 3,000 minutes, and the ws traces at 3,000
        per_corpus = ["short-first"] * 2 + ids + ["short-last"] * 2
        assert [words[3] for words in warned if words[2] == "trace"] == per_corpus * (
            2 if "--manifest-b" in argv else 1)
        assert [" ".join(words) for words in warned if words[2] != "trace"] == [
            "window sweep: no usable traces at 3000 minutes, point skipped"]


def test_an_ingest_worker_that_dies_unheard_is_an_error(ws, tmp_path, monkeypatch, workers):
    parent = os.getpid()
    read_trace_csv = reporting.read_trace_csv

    def dies_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(7)
        return read_trace_csv(*args, **kwargs)

    monkeypatch.setattr(reporting, "read_trace_csv", dies_in_a_worker)
    workers(2)
    with pytest.raises(RuntimeError, match="exited with code 7"):
        main(["features", "--manifest", str(ws.manifest), "--out", str(tmp_path / "f.csv")])
    assert not (tmp_path / "f.csv").exists()


# Runs the CLI with two usable CPUs and `module.name`, a function each worker calls, swapped
# for one where the first worker to call it sends SIGINT to the whole process group, as Ctrl-C
# in a terminal does, and every worker sends it again when the parent terminates it.
INTERRUPTED_RUN = """
import contextlib, os, signal, sys, time
from sensorclass import cli, evaluate, parallel

def interrupt(*args, **kwargs):
    signal.signal(signal.SIGTERM, lambda *_: (os.killpg(0, signal.SIGINT), os._exit(1)))
    with contextlib.suppress(FileExistsError):
        os.close(os.open({claim!r}, os.O_CREAT | os.O_EXCL))
        os.killpg(0, signal.SIGINT)
    time.sleep(60)

parallel._usable_cpus = lambda: 2
setattr({module}, {name!r}, interrupt)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, module, name", [
    (["features", "--out", "f.csv"], "cli", "_feature_row"),
    (["eval", "--protocol", "loo", "--trees", "2", "--out-dir", "o"], "evaluate",
     "_block_posteriors"),
], ids=["features-ingest", "loo-folds"])
def test_ctrl_c_exits_130_with_one_line_and_no_worker_left(ws, tmp_path, argv, module, name):
    src = os.path.dirname(os.path.dirname(reporting.__file__))  # the package's import root
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    script = INTERRUPTED_RUN.format(claim=str(tmp_path / "claimed"), module=module, name=name)
    (tmp_path / "run").mkdir()
    with subprocess.Popen([sys.executable, "-c", script, *argv, "--manifest", str(ws.manifest)],
                          cwd=tmp_path / "run", env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as run:
        try:
            _, stderr = run.communicate(timeout=30)
            with pytest.raises(ProcessLookupError):  # nothing is left in the run's process group
                os.killpg(run.pid, 0)
        finally:  # nor after a run that fails
            with contextlib.suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)
    assert run.returncode == 130, stderr
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1:] == ["interrupted"]
    assert [p for p in (tmp_path / "run").rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("argv, empty_flag", [
    (["features", "--out", "f.csv"], "--manifest"),
    (["eval", "--protocol", "loo", "--out-dir", "o"], "--manifest"),
    (["eval", "--protocol", "percentage", "--fractions", "0.5", "--out-dir", "o"], "--manifest"),
    (["eval", "--protocol", "subset-search", "--out-dir", "o"], "--manifest"),
    (["eval", "--protocol", "window-sweep", "--windows", "30", "--out-dir", "o"], "--manifest"),
    (["eval", "--protocol", "inter", "--out-dir", "o"], "--manifest-b"),
    (["eval", "--protocol", "window-sweep", "--windows", "30", "--out-dir", "o"], "--manifest-b"),
], ids=["features", "loo", "percentage", "subset-search", "window-sweep", "inter-b",
        "window-sweep-b"])
def test_a_manifest_listing_no_traces_exits_data(ws, tmp_path, monkeypatch, capsys, argv,
                                                 empty_flag):
    from sensorclass.reporting import write_manifest
    monkeypatch.chdir(tmp_path)
    empty = tmp_path / "empty.csv"
    write_manifest(empty, [])
    manifests = {"--manifest": str(ws.manifest), "--manifest-b": str(ws.manifest)}
    manifests[empty_flag] = str(empty)
    if argv[0] == "features" or argv[2] not in ("inter", "window-sweep"):
        del manifests["--manifest-b"]
    capsys.readouterr()
    rc = main(argv + [x for kv in manifests.items() for x in kv] + ["--trees", "2"])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"error: {empty}: lists no traces\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.csv"]  # no output, no out dir
