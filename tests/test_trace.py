"""Trace cleaning, window segmentation, and per-window statistics."""

import csv
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_trace, reference_read_trace_csv, reference_window_spans, segment_windows
from sensorclass.errors import DataError, EmptyTrace, NonFiniteValue, NoWindows
from sensorclass.trace import (
    SensorType,
    _from_arrays,
    read_trace_csv,
    validate_trace,
    window_spans,
    window_stats,
    write_trace_csv,
)


# --- validate_trace -----------------------------------------------------------


def test_validate_minimal_two_samples():
    tr = validate_trace("t", [(0.0, 1.0), (60.0, 2.0)])
    assert tr.trace_id == "t"
    assert tr.timestamps.tolist() == [0.0, 60.0]
    assert tr.values.tolist() == [1.0, 2.0]
    assert tr.label is None
    assert tr.span == 60.0
    assert len(tr) == 2


def test_validate_sorts_by_timestamp():
    tr = validate_trace("t", [(60.0, 2.0), (0.0, 1.0), (30.0, 5.0)])
    assert tr.timestamps.tolist() == [0.0, 30.0, 60.0]
    assert tr.values.tolist() == [1.0, 5.0, 2.0]


def test_validate_duplicate_timestamp_last_occurrence_wins():
    tr = validate_trace("t", [(0.0, 1.0), (30.0, 7.0), (30.0, 9.0), (60.0, 2.0)])
    assert tr.timestamps.tolist() == [0.0, 30.0, 60.0]
    assert tr.values.tolist() == [1.0, 9.0, 2.0]


def test_validate_duplicates_collapse_even_when_unsorted():
    tr = validate_trace("t", [(30.0, 7.0), (0.0, 1.0), (30.0, 9.0)])
    assert tr.timestamps.tolist() == [0.0, 30.0]
    assert tr.values.tolist() == [1.0, 9.0]


def test_validate_empty_raises():
    with pytest.raises(EmptyTrace):
        validate_trace("t", [])


def test_validate_single_sample_raises():
    with pytest.raises(EmptyTrace):
        validate_trace("t", [(0.0, 1.0)])


def test_validate_all_duplicates_collapse_to_one_raises():
    with pytest.raises(EmptyTrace):
        validate_trace("t", [(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)])


def test_validate_nonfinite_value_reports_input_index():
    with pytest.raises(NonFiniteValue) as exc:
        validate_trace("t", [(0.0, 1.0), (60.0, float("nan")), (120.0, 2.0)])
    assert "1" in str(exc.value)
    assert "t" in str(exc.value)


def test_validate_nonfinite_timestamp_rejected():
    with pytest.raises(NonFiniteValue):
        validate_trace("t", [(float("inf"), 1.0), (60.0, 2.0)])


@pytest.mark.parametrize("samples", [
    [(0.0, 1.0, 2.0), (60.0, 2.0, 3.0)],
    [0.0, 60.0],
], ids=["triples", "scalars"])
def test_validate_rejects_samples_that_are_not_pairs(samples):
    with pytest.raises(DataError, match="pairs"):
        validate_trace("t", samples)


def test_arrays_of_unequal_length_rejected():
    with pytest.raises(DataError, match="equal length"):
        _from_arrays("t", np.array([0.0, 60.0]), np.array([1.0]), None)


def test_validate_idempotent():
    tr = validate_trace("t", [(60.0, 2.0), (0.0, 1.0), (0.0, 4.0)])
    again = validate_trace(tr.trace_id, zip(tr.timestamps, tr.values), tr.label)
    assert again.timestamps.tolist() == tr.timestamps.tolist()
    assert again.values.tolist() == tr.values.tolist()


def test_validate_label_attached():
    tr = validate_trace("t", [(0.0, 1.0), (60.0, 2.0)], SensorType.HUMIDITY)
    assert tr.label is SensorType.HUMIDITY


def test_trace_arrays_are_readonly():
    tr = validate_trace("t", [(0.0, 1.0), (60.0, 2.0)])
    with pytest.raises(ValueError):
        tr.values[0] = 99.0


# --- segment_windows ----------------------------------------------------------


def test_two_full_windows():
    tr = make_trace("t", [0.0, 1000.0, 2700.0, 4000.0, 5400.0], [1, 2, 3, 4, 5])
    wins = segment_windows(tr, 2700.0)
    assert len(wins) == 2
    assert wins[0].start == 0.0 and wins[0].values.tolist() == [1.0, 2.0]
    assert wins[1].start == 2700.0 and wins[1].values.tolist() == [3.0, 4.0]


def test_trailing_partial_window_dropped():
    tr = make_trace("t", [0.0, 1000.0, 2699.0, 2701.0, 5000.0], [1, 2, 3, 4, 5])
    wins = segment_windows(tr, 2700.0)
    assert len(wins) == 1
    assert wins[0].values.tolist() == [1.0, 2.0, 3.0]


def test_sample_at_tiled_end_dropped():
    tr = make_trace("t", [0.0, 100.0, 2800.0, 2900.0], [1, 2, 3, 4])
    wins = segment_windows(tr, 2700.0)
    assert len(wins) == 1
    assert wins[0].values.tolist() == [1.0, 2.0]


def test_windows_anchor_at_first_timestamp():
    tr = make_trace("t", [500.0, 600.0, 3300.0], [1, 2, 3])
    wins = segment_windows(tr, 2700.0)
    assert wins[0].start == 500.0
    assert wins[0].values.tolist() == [1.0, 2.0]


def test_empty_windows_omitted():
    # span covers three windows but the middle one holds no samples
    tr = make_trace("t", [0.0, 100.0, 5500.0, 8100.0], [1, 2, 3, 4])
    wins = segment_windows(tr, 2700.0)
    assert [w.start for w in wins] == [0.0, 5400.0]
    assert wins[1].values.tolist() == [3.0]


def test_span_shorter_than_window_raises():
    tr = make_trace("t", [0.0, 1000.0], [1, 2])
    with pytest.raises(NoWindows):
        segment_windows(tr, 2700.0)


def test_nonpositive_window_length_rejected():
    tr = make_trace("t", [0.0, 5400.0], [1, 2])
    with pytest.raises(DataError):
        segment_windows(tr, 0.0)
    with pytest.raises(DataError):
        segment_windows(tr, -10.0)


@settings(max_examples=100, deadline=None)
@given(
    ts=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        min_size=2,
        max_size=40,
        unique=True,
    ),
    window_len=st.floats(min_value=1.0, max_value=5e4),
)
def test_each_sample_lands_in_at_most_one_window(ts, window_len):
    ts = sorted(ts)
    tr = make_trace("t", ts, list(range(len(ts))))
    try:
        wins = segment_windows(tr, window_len)
    except NoWindows:
        assert tr.span < window_len
        return
    seen = [v for w in wins for v in w.values.tolist()]
    assert len(seen) == len(set(seen))
    t0 = ts[0]
    k = int((ts[-1] - t0) // window_len)
    for w in wins:
        assert t0 <= w.start < t0 + k * window_len
        for v in w.values:
            t = ts[int(v)]
            assert w.start <= t < w.start + window_len


@st.composite
def edge_traces(draw):
    """(trace, window_len): an irregular trace with gaps, whose timestamps
    sit on window edges t0 + j * window_len, one ulp either side of them,
    or between them, at offsets where the edges round."""
    t0 = draw(st.sampled_from([0.0, -3600.0, 0.1, 1.7e9, 1e12, 1e15])
              | st.floats(-1e10, 1e10, allow_nan=False))
    window_len = draw(st.sampled_from([2700.0, 0.1, 1 / 3, 7.0, 1e-3])
                      | st.floats(1e-3, 1e4, allow_nan=False))
    picks = draw(st.lists(st.tuples(st.integers(0, 40),
                                    st.sampled_from(["on", "below", "above", "inside"])),
                          min_size=1, max_size=40))
    ts = [t0]
    for j, where in picks:
        edge = t0 + np.float64(j) * window_len
        ts.append({"on": edge, "below": np.nextafter(edge, -np.inf),
                   "above": np.nextafter(edge, np.inf),
                   "inside": t0 + (j + draw(st.floats(0.0, 1.0))) * window_len}[where])
    ts = [t for t in ts if t >= t0]
    assume(len(set(ts)) > 1)
    return make_trace("edges", ts, list(range(len(ts)))), window_len


@settings(max_examples=300, deadline=None)
@given(edge_traces())
def test_window_spans_equal_the_edge_array_version(case):
    trace, window_len = case
    try:
        expected = reference_window_spans(trace, window_len)
    except NoWindows:
        with pytest.raises(NoWindows):
            window_spans(trace, window_len)
        return
    got = window_spans(trace, window_len)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_window_spans_memory_follows_the_samples_not_the_span():
    # the span holds 3.7e11 windows of 45 minutes: an edge per window would
    # ask for terabytes; the far sample sits past the tiled end
    tr = make_trace("far", [0.0, 60.0, 1e15], [1.0, 2.0, 3.0])
    starts, firsts, counts = window_spans(tr, 2700.0)
    assert starts.tolist() == [0.0] and firsts.tolist() == [0] and counts.tolist() == [2]
    with pytest.raises(DataError, match="indexed exactly"):
        window_spans(make_trace("farther", [0.0, 60.0, 1e300], [1.0, 2.0, 3.0]), 2700.0)
    # finite timestamps whose span overflows to inf
    with pytest.raises(DataError, match="'overflow'.*indexed exactly"):
        window_spans(make_trace("overflow", [-1e308, 0.0, 1e308], [1.0, 2.0, 3.0]), 2700.0)


# --- window_stats -------------------------------------------------------------


def test_window_stats_odd_count():
    med, var = window_stats(np.array([[1.0, 2.0, 3.0]]))
    assert med.tolist() == [2.0]
    assert var[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_window_stats_single_value():
    med, var = window_stats(np.array([[5.0]]))
    assert (med.tolist(), var.tolist()) == ([5.0], [0.0])


def test_window_stats_even_count_median_is_middle_mean():
    med, var = window_stats(np.array([[10.0, 10.0, 16.0]]))
    assert (med.tolist(), var.tolist()) == ([10.0], [8.0])
    med2, _ = window_stats(np.array([[1.0, 2.0, 3.0, 10.0]]))
    assert med2.tolist() == [2.5]


def test_window_stats_population_variance():
    _, var = window_stats(np.array([[0.0, 2.0]]))
    assert var.tolist() == [1.0]  # sample variance would be 2


def test_window_stats_constant_variance_exactly_zero():
    _, var = window_stats(np.full((1, 9), 3.7))
    assert var.tolist() == [0.0]


def test_window_stats_one_result_per_row():
    block = np.array([[1.0, 2.0, 3.0], [3.7, 3.7, 3.7], [10.0, 16.0, 10.0]])
    med, var = window_stats(block)
    assert med.tolist() == [2.0, 3.7, 10.0]
    assert var[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert var[1:].tolist() == [0.0, 8.0]


@settings(max_examples=100, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_window_stats_permutation_invariant(vals):
    med_a, var_a = window_stats(np.array([vals]))
    med_b, var_b = window_stats(np.array([vals[::-1]]))
    assert med_a[0] == med_b[0]  # the median sorts, so it is exactly invariant
    assert var_a[0] == pytest.approx(var_b[0], rel=1e-12, abs=1e-300)


# values where np.median's arithmetic shows: signed zeros, sums that overflow, subnormals
EDGE_VALUES = np.array([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 1.5, -2.25])


@pytest.mark.parametrize("cols", [59, 60])
@pytest.mark.parametrize("kind", ["normal", "edge", "mixed"])
def test_window_stats_median_is_np_median_bit_for_bit(kind, cols):
    rng = np.random.default_rng(cols)
    for _ in range(20):
        normal = rng.normal(size=(64, cols)) * 10.0 ** rng.integers(-3, 4)
        edge = rng.choice(EDGE_VALUES, size=(64, cols))
        block = {"normal": normal, "edge": edge,
                 "mixed": np.where(rng.random((64, cols)) < 0.5, edge, normal)}[kind]
        with np.errstate(over="ignore", invalid="ignore"):
            med, _ = window_stats(block)
            assert med.tobytes() == np.median(block, axis=1).tobytes()


# --- CSV round trip and histogram ----------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    tr = make_trace("rt", [0.0, 60.0, 120.0], [1.25, 2.0 / 3.0, -4.5], SensorType.CO2)
    path = tmp_path / "rt.csv"
    write_trace_csv(tr, path)
    back = read_trace_csv(path, label=SensorType.CO2)
    assert back.trace_id == "rt"  # from the file stem
    assert back.timestamps.tolist() == tr.timestamps.tolist()
    assert back.values.tolist() == tr.values.tolist()
    assert back.label is SensorType.CO2


def test_trace_csv_bytes_are_csv_writer_bytes(tmp_path):
    values = [1e-300, -0.0, 1e16, 123456789.123, 2.0 / 3.0, -4.5e-7]
    tr = make_trace("w", [60.0 * i for i in range(len(values))], values)
    path = tmp_path / "w.csv"
    write_trace_csv(tr, path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["timestamp", "value"])
    for t, v in zip(tr.timestamps.tolist(), tr.values.tolist()):
        writer.writerow([repr(t), repr(v)])
    assert path.read_bytes() == expected.getvalue().encode()


def test_trace_csv_ignores_comment_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# a comment\ntimestamp,value\n0.0,1.0\n60.0,2.0\n")
    tr = read_trace_csv(path)
    assert len(tr) == 2


def test_trace_csv_bad_row_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,value\n0.0,not-a-number\n")
    with pytest.raises(DataError):
        read_trace_csv(path)


def test_trace_csv_header_only_is_an_empty_trace(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("# a comment\ntimestamp,value\n")
    with pytest.raises(EmptyTrace):
        read_trace_csv(path)


def test_trace_csv_error_of_the_csv_module_is_a_data_error(tmp_path):
    # a quoted cell past the csv module's field size limit
    path = tmp_path / "big.csv"
    path.write_text('timestamp,value\n"' + "1" * (csv.field_size_limit() + 1) + '",1.0\n')
    with pytest.raises(DataError) as exc:
        read_trace_csv(path)
    assert str(exc.value).startswith(f"trace file {path}: field larger than field limit")


@pytest.mark.parametrize("text, row", [
    ("timestamp,value\n0.0,1.0,9\n60.0,2.0\n", "['0.0', '1.0', '9']"),
    ("timestamp,value,x\n0.0,1.0\n60.0,2.0\n", "['timestamp', 'value', 'x']"),
    ("timestamp,value\n0.0,1.0,9\n60.0,2.0,9\n", "['0.0', '1.0', '9']"),
    ("timestamp,value\n0.0\n60.0\n", "['0.0']"),
], ids=["three-cell-row", "three-cell-header", "three-cells-everywhere", "one-cell-everywhere"])
def test_trace_csv_rows_have_exactly_two_cells(tmp_path, text, row):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(DataError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == f"trace file {path}: bad row {row}"


def test_sensor_type_label_round_trip():
    for t in SensorType:
        assert SensorType.from_label(t.label) is t
    with pytest.raises(DataError):
        SensorType.from_label("thermostat")


# --- np.loadtxt reader against the csv loop ----------------------------------------


@st.composite
def _cells(draw):
    text = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["1_0", "0x10", "abc", "", " ", "nan", "-inf", "1e5", "+.5", "1.0x",
                         "1 2", " 1", "#1", "timestamp"]),
    ))
    pad = ["", "", "", "", " ", "\t", "\x0c", "\x1c", "\x1f"]
    text = draw(st.sampled_from(pad)) + text + draw(st.sampled_from(pad))
    return f'"{text}"' if draw(st.integers(0, 7)) == 0 else text


_LINES = st.one_of(
    st.lists(_cells(), min_size=2, max_size=2).map(",".join),
    st.lists(_cells(), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", "#", "# note, with a comma", '# a,"b', 'c",d', "timestamp,value",
                     "timestamp,value,x", '"timestamp","value"', "timestamp, value"]),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                            st.floats(-1e6, 1e6)), min_size=2, max_size=10),
    edits=st.lists(st.tuples(st.integers(0, 10), _LINES, st.booleans()), max_size=4),
    header=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
)
def test_reader_agrees_with_csv_loop(tmp_path_factory, rows, edits, header, newline,
                                     final_newline):
    # a valid file, then each edit inserts a line or replaces one
    lines = [f"{t!r},{v!r}" for t, v in rows]
    for pos, line, replace in edits:
        lines[pos % len(lines):pos % len(lines) + replace] = [line]
    text = newline.join((["timestamp,value"] if header else []) + lines)
    path = tmp_path_factory.mktemp("mut") / "m.csv"
    path.write_bytes((text + (newline if final_newline else "")).encode("utf-8"))
    try:
        expected = reference_read_trace_csv(path)
    except DataError as exc:
        with pytest.raises(type(exc)) as got:
            read_trace_csv(path)
        assert str(got.value) == str(exc)
        return
    got = read_trace_csv(path)
    assert got.trace_id == expected.trace_id
    assert np.array_equal(got.timestamps, expected.timestamps)
    assert np.array_equal(got.values, expected.values)


def test_reader_parses_plain_files_without_the_csv_loop(tmp_path, monkeypatch):
    import sensorclass.trace as trace_mod

    def no_csv_loop(path, text):
        raise AssertionError(f"csv loop ran on {path}")

    monkeypatch.setattr(trace_mod, "_csv_rows", no_csv_loop)
    tr = make_trace("plain", [0.0, 60.0, 120.0], [1.25, 2.0 / 3.0, -4.5])
    write_trace_csv(tr, tmp_path / "plain.csv")
    text = (tmp_path / "plain.csv").read_text()
    (tmp_path / "noted.csv").write_text("# source: unit\n\n" + text + "\n# end\n")
    for name in ("plain.csv", "noted.csv"):
        back = read_trace_csv(tmp_path / name)
        assert back.values.tolist() == tr.values.tolist()
