"""Artifact CSVs: metadata lines, round trips, byte stability."""

import csv

import numpy as np
import pytest

from helpers import make_trace, read_csv
from sensorclass.errors import DataError
from sensorclass.reporting import (
    FLAG_HEADER,
    MANIFEST_HEADER,
    PREDICTION_HEADER,
    fmt,
    load_manifest_traces,
    read_feature_matrix,
    read_manifest,
    read_predictions,
    write_cdf,
    write_csv,
    write_feature_matrix,
    write_flag_report,
    write_manifest,
    write_predictions,
    write_roc,
)
from sensorclass.trace import SensorType, write_trace_csv
from sensorclass.uncertainty import FlagReport, RocPoint, make_prediction


def test_fmt_cells():
    assert fmt(None) == ""
    assert fmt(1 / 3) == "0.3333333333333333"
    assert fmt(np.float64(0.5)) == "0.5"
    assert fmt(5) == "5"
    assert fmt("x") == "x"


def test_csv_round_trip_with_metadata(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ["x", "y"], [[1, 0.25], [2, None]], meta={"b": 2, "a": "hi"})
    meta, header, rows = read_csv(path)
    assert meta == {"a": "hi", "b": "2"}
    assert header == ["x", "y"]
    assert rows == [["1", "0.25"], ["2", ""]]
    # metadata keys come out sorted in the file itself
    lines = path.read_text().splitlines()
    assert lines[0] == "# a=hi" and lines[1] == "# b=2"


def test_csv_meta_value_may_contain_equals(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, ["x"], [[1]], meta={"note": "k=v"})
    meta, _, _ = read_csv(path)
    assert meta["note"] == "k=v"


def test_csv_identical_inputs_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [[0.1, 2 / 3], [1e-9, 123456.789]]
    write_csv(a, ["p", "q"], rows, meta={"seed": 42})
    write_csv(b, ["p", "q"], rows, meta={"seed": 42})
    assert a.read_bytes() == b.read_bytes()


def test_csv_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only=meta\n")
    with pytest.raises(DataError):
        read_csv(path)


def test_csv_error_names_the_file_and_line(tmp_path):
    # a quoted cell past the csv module's field size limit, on line 3
    path = tmp_path / "big.csv"
    path.write_text('# only=meta\nx,y\n"' + "1" * (csv.field_size_limit() + 1) + '",2\n')
    with pytest.raises(DataError) as exc:
        read_csv(path)
    assert str(exc.value).startswith(f"{path}, line 3: field larger than field limit")


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.csv"
    entries = [
        ("t1", "traces/t1.csv", SensorType.CO2),
        ("t2", "traces/t2.csv", None),
    ]
    write_manifest(path, entries, meta={"corpus": "unit"})
    out, meta = read_manifest(path)
    assert meta["corpus"] == "unit"
    assert [tid for tid, _, _ in out] == ["t1", "t2"]
    assert out[0][2] is SensorType.CO2 and out[1][2] is None
    # paths resolve against the manifest's own directory
    assert out[0][1] == (tmp_path / "traces/t1.csv").resolve()


def test_manifest_header_and_row_checks(tmp_path):
    bad = tmp_path / "bad.csv"
    write_csv(bad, ["trace_id", "file"], [["a", "b"]])
    with pytest.raises(DataError):
        read_manifest(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text(",".join(MANIFEST_HEADER) + "\na,b\n")
    with pytest.raises(DataError):
        read_manifest(bad2)


def test_manifest_path_with_nul_byte_is_a_data_error(tmp_path):
    path = tmp_path / "m.csv"
    write_manifest(path, [("t1", "traces/t1.csv", None), ("t2", "traces/t\x002.csv", None)])
    with pytest.raises(DataError, match=r"m\.csv: trace 't2': file path holds a NUL byte"):
        read_manifest(path)


def test_load_manifest_traces(tmp_path):
    (tmp_path / "traces").mkdir()
    tr = make_trace("t1", [0.0, 1.0, 2.0], [5.0, 6.0, 7.0], SensorType.HUMIDITY)
    write_trace_csv(tr, tmp_path / "traces" / "t1.csv")
    write_manifest(tmp_path / "m.csv", [("t1", "traces/t1.csv", SensorType.HUMIDITY)])
    loaded = list(load_manifest_traces(tmp_path / "m.csv"))
    assert len(loaded) == 1
    assert loaded[0].trace_id == "t1"
    assert loaded[0].label is SensorType.HUMIDITY
    assert np.array_equal(loaded[0].values, tr.values)


def test_load_manifest_traces_checks_the_manifest_now_and_reads_traces_on_demand(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_manifest_traces(tmp_path / "missing.csv")
    tr = make_trace("t1", [0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    write_trace_csv(tr, tmp_path / "t1.csv")
    write_manifest(tmp_path / "m.csv", [("t1", "t1.csv", None), ("t2", "t2.csv", None)])
    traces = load_manifest_traces(tmp_path / "m.csv")  # t2.csv does not exist
    assert next(traces).trace_id == "t1"
    with pytest.raises(DataError, match="t2.csv"):
        next(traces)


def test_load_manifest_traces_rejects_a_manifest_listing_no_traces(tmp_path):
    write_manifest(tmp_path / "m.csv", [], {"seed": 1})
    with pytest.raises(DataError) as raised:
        load_manifest_traces(tmp_path / "m.csv")
    assert str(raised.value) == f"{tmp_path / 'm.csv'}: lists no traces"


def test_feature_matrix_round_trip(tmp_path):
    path = tmp_path / "features.csv"
    ids = ["a", "b"]
    labels = [SensorType.SETPOINT, None]
    features = np.array([[1 / 3, 2.0], [5e-12, 0.0]])
    write_feature_matrix(path, ids, labels, features, "baseline2", meta={"seed": 1})
    r_ids, r_labels, r_feats, schema, meta = read_feature_matrix(path)
    assert r_ids == ids and r_labels == labels
    assert np.array_equal(r_feats, features)  # repr round trip is exact
    assert schema == "baseline2"
    assert meta["seed"] == "1"


def test_feature_matrix_requires_schema_meta(tmp_path):
    path = tmp_path / "f.csv"
    write_csv(path, ["trace_id", "label", "f0"], [["a", "co2", "1.0"]])
    with pytest.raises(DataError):
        read_feature_matrix(path)


def test_feature_matrix_rejects_a_repeated_metadata_key(tmp_path):
    path = tmp_path / "f.csv"
    write_csv(path, ["trace_id", "label", "f0", "f1"], [["a", "co2", "1.0", "2.0"]],
              meta={"schema": "baseline2"})
    path.write_text("# schema=rich8\n" + path.read_text())
    with pytest.raises(DataError, match=r"f\.csv, line 2: metadata key 'schema' repeats"):
        read_feature_matrix(path)


def test_feature_matrix_rejects_non_numeric(tmp_path):
    path = tmp_path / "f.csv"
    write_csv(path, ["trace_id", "label", "f0"], [["a", "co2", "soup"]],
              meta={"schema": "subset:01"})
    with pytest.raises(DataError):
        read_feature_matrix(path)


def example_predictions():
    return [
        make_prediction("t1", SensorType.CO2, np.array([0.9, 0.0, 0.0, 0.0, 0.0, 0.1])),
        make_prediction("t2", SensorType.OTHER_TEMP,
                        np.array([0.0, 0.0, 0.0, 0.0, 0.25, 0.75])),
    ]


def test_predictions_round_trip(tmp_path):
    path = tmp_path / "preds.csv"
    preds = example_predictions()
    write_predictions(path, preds, meta={"model": "m.json"})
    out, meta = read_predictions(path)
    assert meta["model"] == "m.json"
    for orig, back in zip(preds, out):
        assert back.trace_id == orig.trace_id
        assert back.predicted is orig.predicted
        assert np.array_equal(back.probs, orig.probs)
        assert back.entropy == orig.entropy


def test_predictions_header_checked(tmp_path):
    path = tmp_path / "preds.csv"
    write_csv(path, ["trace_id", "entropy"], [["a", "0.0"]])
    with pytest.raises(DataError):
        read_predictions(path)
    assert PREDICTION_HEADER[-1] == "entropy"
    assert PREDICTION_HEADER[2] == "p_co2"


def test_flag_report_metadata_and_rows(tmp_path):
    path = tmp_path / "flags.csv"
    preds = example_predictions()
    report = FlagReport(threshold=0.2, flagged=frozenset({"t2"}), total=2,
                        tpr=1.0, fpr=0.5, ppv=None)
    write_flag_report(path, preds, report, meta={"seed": 3})
    meta, header, rows = read_csv(path)
    assert header == FLAG_HEADER
    assert meta["threshold"] == "0.2"
    assert meta["tpr"] == "1.0"
    assert meta["fpr"] == "0.5"
    assert meta["ppv"] == "undefined"
    flagged = {row[0]: row[3] for row in rows}
    assert flagged == {"t1": "0", "t2": "1"}


def test_roc_rows_leave_undefined_cells_empty(tmp_path):
    path = tmp_path / "roc.csv"
    points = [RocPoint(0.0, 1.0, 1.0, 0.5), RocPoint(2.0, 0.0, 0.0, None)]
    write_roc(path, points)
    _, header, rows = read_csv(path)
    assert header == ["threshold", "tpr", "fpr", "ppv"]
    assert rows[0] == ["0.0", "1.0", "1.0", "0.5"]
    assert rows[1] == ["2.0", "0.0", "0.0", ""]


def test_cdf_groups_sorted(tmp_path):
    path = tmp_path / "cdf.csv"
    curves = {"wrong": [(0.5, 1.0)], "correct": [(0.0, 0.5), (0.1, 1.0)]}
    write_cdf(path, curves)
    _, header, rows = read_csv(path)
    assert header == ["group", "entropy", "cum_prob"]
    assert [r[0] for r in rows] == ["correct", "correct", "wrong"]
    assert rows[0][1:] == ["0.0", "0.5"]
