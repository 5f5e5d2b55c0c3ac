"""Windowed feature extraction: the rich 8-vector, the 2-entry baseline,
and bitmask subset projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import F_ORACLE, constant_trace, make_trace, reference_med_var, two_window_trace
from sensorclass.errors import DataError, EmptyMask, NoWindows
from sensorclass.features import (
    BASELINE2,
    BASELINE2_NAMES,
    FULL_MASK,
    RICH8,
    RICH8_NAMES,
    extract,
    extract_baseline,
    extract_med_var,
    extract_rich,
    feature_names,
    mask_indices,
    parse_subset_mask,
    project,
    schema_length,
    subset_schema,
    summarize,
)


# --- MED / VAR extraction -------------------------------------------------------


def test_med_var_on_two_window_fixture():
    mv = extract_med_var(two_window_trace(), 3.0)
    assert mv.med.tolist() == [2.0, 10.0]
    assert mv.var.tolist() == pytest.approx([2.0 / 3.0, 8.0], abs=1e-15)
    assert mv.window_len == 3.0


def test_med_var_too_short_raises():
    tr = make_trace("t", [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(NoWindows):
        extract_med_var(tr, 100.0)


@settings(max_examples=200, deadline=None)
@given(
    ticks=st.lists(st.integers(0, 400), min_size=2, max_size=150, unique=True),
    irregular=st.booleans(),
    hold=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    window_len=st.sampled_from([60.0, 300.0, 900.0, 2700.0, 1234.5]),
)
def test_med_var_equals_per_window_loop(ticks, irregular, hold, seed, window_len):
    # a 60 s grid with gaps (back-to-back windows and gathered ones), or the
    # same with jittered times; a sample repeats the previous value with
    # probability `hold`, so some windows are constant
    rng = np.random.default_rng(seed)
    n = len(ticks)
    ts = 60.0 * np.sort(np.array(ticks, dtype=float))
    if irregular:
        ts += rng.uniform(0.0, 60.0, n)
    held = rng.random(n) < hold
    values = rng.normal(0.0, 1e3, n)[np.maximum.accumulate(np.where(held, 0, np.arange(n)))]
    tr = make_trace("t", ts, values)
    try:
        med, var = reference_med_var(tr, window_len)
    except NoWindows:
        with pytest.raises(NoWindows):
            extract_med_var(tr, window_len)
        return
    mv = extract_med_var(tr, window_len)
    assert np.array_equal(mv.med, med)
    assert np.array_equal(mv.var, var)


# --- rich8 ----------------------------------------------------------------------


def test_rich8_hand_oracle_exact():
    fv = extract_rich(two_window_trace(), 3.0)
    assert fv.schema == RICH8
    assert fv.values == pytest.approx(F_ORACLE, abs=1e-12)


def test_rich8_single_window():
    # one window {5, 7, 9}: MED = {7}, VAR = {8/3}; summaries of a singleton
    # collapse to the value itself with zero spread
    tr = make_trace("t", [0.0, 1.0, 2.0, 3.0], [5.0, 7.0, 9.0, 42.0])
    fv = extract_rich(tr, 3.0)
    v = 8.0 / 3.0
    assert fv.values == pytest.approx([7.0, 7.0, 7.0, 0.0, v, v, v, 0.0], abs=1e-15)


def test_rich8_constant_trace_exact_zero_block():
    c = 58.32170119  # a level whose repeated sum does not round exactly
    tr = constant_trace(c, n=200, interval=60.0)
    fv = extract_rich(tr, 2700.0)
    assert fv.values.tolist() == [c, c, c, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_rich8_summary_order_is_min_max_med_var():
    fv = extract_rich(two_window_trace(), 3.0)
    med_stats, var_stats = fv.values[:4], fv.values[4:]
    assert med_stats[0] == min(2.0, 10.0) and med_stats[1] == max(2.0, 10.0)
    assert var_stats[0] == pytest.approx(2.0 / 3.0) and var_stats[1] == 8.0
    assert list(RICH8_NAMES[:4]) == ["min_wmed", "max_wmed", "med_wmed", "var_wmed"]


def test_rich8_detects_value_order():
    # same multiset of values; the smooth ramp has quiet windows, the
    # shuffled trace does not, so rich8 must differ while baseline2 cannot
    n = 48
    ramp = [float(i) for i in range(n)]
    rng = np.random.default_rng(3)
    shuffled = list(rng.permutation(ramp))
    ts = [float(i) for i in range(n)]
    smooth = make_trace("smooth", ts, ramp)
    rough = make_trace("rough", ts, shuffled)
    assert extract_baseline(smooth).values.tolist() == extract_baseline(rough).values.tolist()
    a = extract_rich(smooth, 8.0).values
    b = extract_rich(rough, 8.0).values
    assert not np.array_equal(a, b)
    assert a[5] < b[5]  # max window variance grows when the order is scrambled


def test_rich8_invariant_to_timestamp_shift():
    base = two_window_trace()
    shifted = make_trace("s", (base.timestamps + 1e6).tolist(), base.values.tolist())
    assert extract_rich(shifted, 3.0).values.tolist() == extract_rich(base, 3.0).values.tolist()


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        min_size=8,
        max_size=64,
    ),
    wins=st.integers(min_value=1, max_value=4),
)
def test_rich8_summary_orderings_hold(vals, wins):
    ts = [float(i) for i in range(len(vals))]
    tr = make_trace("t", ts, vals)
    window_len = float(max(1, len(vals) // (wins + 1)))
    try:
        fv = extract_rich(tr, window_len)
    except NoWindows:
        return
    f = fv.values
    assert f[0] <= f[2] <= f[1]  # min <= median <= max of MED
    assert f[4] <= f[6] <= f[5]  # min <= median <= max of VAR
    assert f[3] >= 0.0 and f[7] >= 0.0 and f[4] >= 0.0


# --- baseline2 ------------------------------------------------------------------


def test_baseline_two_window_fixture():
    # whole trace {1,2,3,10,10,16,99}: median 10, population variance of all 7
    fv = extract_baseline(two_window_trace())
    vals = np.array([1.0, 2.0, 3.0, 10.0, 10.0, 16.0, 99.0])
    assert fv.schema == BASELINE2
    assert fv.values[0] == 10.0
    assert fv.values[1] == pytest.approx(float(np.var(vals)), rel=1e-15)


def test_baseline_constant_trace():
    fv = extract_baseline(constant_trace(7.25, n=9))
    assert fv.values.tolist() == [7.25, 0.0]


def test_baseline_ignores_sample_order():
    tr1 = make_trace("a", [0.0, 1.0, 2.0], [5.0, 1.0, 9.0])
    tr2 = make_trace("b", [0.0, 1.0, 2.0], [9.0, 5.0, 1.0])
    assert extract_baseline(tr1).values.tolist() == extract_baseline(tr2).values.tolist()


def test_baseline_needs_no_windows():
    tr = make_trace("t", [0.0, 1.0], [3.0, 5.0])
    fv = extract_baseline(tr)
    assert fv.values.tolist() == [4.0, 1.0]


# --- subset masks ---------------------------------------------------------------


def test_project_documented_mask():
    fv = extract_rich(two_window_trace(), 3.0)
    sub = project(fv, 0xC5)  # bits 0, 2, 6, 7
    assert sub.schema == "subset:c5"
    assert sub.values == pytest.approx(
        [F_ORACLE[0], F_ORACLE[2], F_ORACLE[6], F_ORACLE[7]], abs=1e-12
    )


def test_project_full_mask_is_identity():
    fv = extract_rich(two_window_trace(), 3.0)
    sub = project(fv, FULL_MASK)
    assert sub.values.tolist() == fv.values.tolist()
    assert schema_length(sub.schema) == 8


def test_project_single_bit():
    fv = extract_rich(two_window_trace(), 3.0)
    for bit in range(8):
        sub = project(fv, 1 << bit)
        assert sub.values.tolist() == [fv.values[bit]]


def test_project_empty_mask_raises():
    fv = extract_rich(two_window_trace(), 3.0)
    with pytest.raises(EmptyMask):
        project(fv, 0)


def test_project_requires_rich8():
    with pytest.raises(DataError):
        project(extract_baseline(two_window_trace()), 3)


def test_mask_out_of_range_rejected():
    with pytest.raises(EmptyMask):
        mask_indices(256)
    with pytest.raises(EmptyMask):
        mask_indices(-1)


def test_subset_schema_round_trip_all_masks():
    for mask in range(1, 256):
        schema = subset_schema(mask)
        assert parse_subset_mask(schema) == mask
        assert schema_length(schema) == bin(mask).count("1")
        names = feature_names(schema)
        assert names == [RICH8_NAMES[i] for i in mask_indices(mask)]


def test_parse_subset_mask_other_schemas():
    assert parse_subset_mask(RICH8) is None
    assert parse_subset_mask(BASELINE2) is None


@pytest.mark.parametrize("schema", [
    "subset:zz", "subset:00", "subset:-1", "subset:100", "subset:", "subset:1", "subset:FF",
    "subset:0x1f", "subset: 1f",
])
def test_malformed_subset_schema_is_a_data_error(schema):
    # a schema arrives in a data file; EmptyMask is for masks passed in by callers
    with pytest.raises(DataError) as exc:
        parse_subset_mask(schema)
    assert not isinstance(exc.value, EmptyMask)
    for parse in (schema_length, feature_names):
        with pytest.raises(DataError):
            parse(schema)


def test_feature_names_known_schemas():
    assert feature_names(RICH8) == list(RICH8_NAMES)
    assert feature_names(BASELINE2) == list(BASELINE2_NAMES)
    assert schema_length(RICH8) == 8 and schema_length(BASELINE2) == 2
    with pytest.raises(DataError):
        schema_length("rich9")


# --- extract dispatch -----------------------------------------------------------


def test_extract_dispatches_by_schema():
    tr = two_window_trace()
    assert extract(tr, 3.0, RICH8).values.tolist() == extract_rich(tr, 3.0).values.tolist()
    assert extract(tr, 3.0, BASELINE2).values.tolist() == extract_baseline(tr).values.tolist()
    sub = extract(tr, 3.0, "subset:c5")
    assert sub.values.tolist() == project(extract_rich(tr, 3.0), 0xC5).values.tolist()
    with pytest.raises(DataError):
        extract(tr, 3.0, "nope")
