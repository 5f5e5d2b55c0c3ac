"""Windowed feature extraction: the rich 8-vector, the 2-entry baseline,
and bitmask subset projection, all through extract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F_ORACLE,
    constant_trace,
    make_trace,
    reference_med_var,
    reference_var,
    two_window_trace,
)
from sensorclass.errors import DataError, EmptyMask, NoWindows
from sensorclass.features import (
    BASELINE2,
    BASELINE2_NAMES,
    FULL_MASK,
    FeatureVector,
    RICH8,
    RICH8_NAMES,
    extract,
    extract_med_var,
    feature_names,
    mask_indices,
    parse_subset_mask,
    schema_length,
    subset_schema,
)


# --- MED / VAR extraction -------------------------------------------------------


def test_med_var_on_two_window_fixture():
    med, var = extract_med_var(two_window_trace(), 3.0)
    assert med.tolist() == [2.0, 10.0]
    assert var.tolist() == pytest.approx([2.0 / 3.0, 8.0], abs=1e-15)


def test_med_var_too_short_raises():
    tr = make_trace("t", [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(NoWindows):
        extract_med_var(tr, 100.0)


@st.composite
def gapped_traces(draw):
    """A 60 s grid with gaps (back-to-back windows and gathered ones), or the
    same with jittered times; a sample repeats the previous value with
    probability `hold`, so some windows, and at hold 1 the whole trace, are
    constant."""
    ticks = draw(st.lists(st.integers(0, 400), min_size=2, max_size=150, unique=True))
    irregular = draw(st.booleans())
    hold = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(ticks)
    ts = 60.0 * np.sort(np.array(ticks, dtype=float))
    if irregular:
        ts += rng.uniform(0.0, 60.0, n)
    held = rng.random(n) < hold
    values = rng.normal(0.0, 1e3, n)[np.maximum.accumulate(np.where(held, 0, np.arange(n)))]
    return make_trace("t", ts, values)


WINDOW_LENS = st.sampled_from([60.0, 300.0, 900.0, 2700.0, 1234.5])


@settings(max_examples=200, deadline=None)
@given(tr=gapped_traces(), window_len=WINDOW_LENS)
def test_med_var_equals_per_window_loop(tr, window_len):
    try:
        med, var = reference_med_var(tr, window_len)
    except NoWindows:
        with pytest.raises(NoWindows):
            extract_med_var(tr, window_len)
        return
    got_med, got_var = extract_med_var(tr, window_len)
    assert np.array_equal(got_med, med)
    assert np.array_equal(got_var, var)


# --- rich8 ----------------------------------------------------------------------


def reference_rich8(trace, window_len):
    """min, max, median and variance of the windowed medians, then of the
    windowed variances, one 1-d vector at a time."""
    med, var = reference_med_var(trace, window_len)
    return np.array([stat for vec in (med, var)
                     for stat in (vec.min(), vec.max(), np.median(vec), reference_var(vec))])


@settings(max_examples=200, deadline=None)
@given(tr=gapped_traces(), window_len=WINDOW_LENS, mask=st.integers(1, FULL_MASK))
def test_extract_equals_reference_for_every_schema(tr, window_len, mask):
    baseline = extract(tr, window_len, BASELINE2).values
    assert np.array_equal(baseline, [np.median(tr.values), reference_var(tr.values)])
    try:
        rich = reference_rich8(tr, window_len)
    except NoWindows:
        with pytest.raises(NoWindows):
            extract(tr, window_len, RICH8)
        return
    assert np.array_equal(extract(tr, window_len, RICH8).values, rich)
    sub = extract(tr, window_len, subset_schema(mask)).values
    assert np.array_equal(sub, rich[mask_indices(mask)])


def test_rich8_hand_oracle_exact():
    fv = extract(two_window_trace(), 3.0, RICH8)
    assert fv.schema == RICH8
    assert fv.values == pytest.approx(F_ORACLE, abs=1e-12)


def test_rich8_single_window():
    # one window {5, 7, 9}: MED = {7}, VAR = {8/3}; summaries of a singleton
    # collapse to the value itself with zero spread
    tr = make_trace("t", [0.0, 1.0, 2.0, 3.0], [5.0, 7.0, 9.0, 42.0])
    fv = extract(tr, 3.0, RICH8)
    v = 8.0 / 3.0
    assert fv.values == pytest.approx([7.0, 7.0, 7.0, 0.0, v, v, v, 0.0], abs=1e-15)


def test_rich8_constant_trace_exact_zero_block():
    c = 58.32170119  # a level whose repeated sum does not round exactly
    tr = constant_trace(c, n=200, interval=60.0)
    fv = extract(tr, 2700.0, RICH8)
    assert fv.values.tolist() == [c, c, c, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_rich8_summary_order_is_min_max_med_var():
    fv = extract(two_window_trace(), 3.0, RICH8)
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
    baseline = [extract(tr, 3.0, BASELINE2).values.tolist() for tr in (smooth, rough)]
    assert baseline[0] == baseline[1]
    a = extract(smooth, 8.0, RICH8).values
    b = extract(rough, 8.0, RICH8).values
    assert not np.array_equal(a, b)
    assert a[5] < b[5]  # max window variance grows when the order is scrambled


def test_rich8_invariant_to_timestamp_shift():
    base = two_window_trace()
    shifted = make_trace("s", (base.timestamps + 1e6).tolist(), base.values.tolist())
    a, b = (extract(tr, 3.0, RICH8).values.tolist() for tr in (shifted, base))
    assert a == b


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
        fv = extract(tr, window_len, RICH8)
    except NoWindows:
        return
    f = fv.values
    assert f[0] <= f[2] <= f[1]  # min <= median <= max of MED
    assert f[4] <= f[6] <= f[5]  # min <= median <= max of VAR
    assert f[3] >= 0.0 and f[7] >= 0.0 and f[4] >= 0.0


# --- baseline2 ------------------------------------------------------------------


def test_baseline_two_window_fixture():
    # whole trace {1,2,3,10,10,16,99}: median 10, population variance of all 7
    fv = extract(two_window_trace(), 3.0, BASELINE2)
    vals = np.array([1.0, 2.0, 3.0, 10.0, 10.0, 16.0, 99.0])
    assert fv.schema == BASELINE2
    assert fv.values[0] == 10.0
    assert fv.values[1] == pytest.approx(float(np.var(vals)), rel=1e-15)


def test_baseline_constant_trace():
    fv = extract(constant_trace(7.25, n=9), 3.0, BASELINE2)
    assert fv.values.tolist() == [7.25, 0.0]


def test_baseline_ignores_sample_order():
    tr1 = make_trace("a", [0.0, 1.0, 2.0], [5.0, 1.0, 9.0])
    tr2 = make_trace("b", [0.0, 1.0, 2.0], [9.0, 5.0, 1.0])
    a, b = (extract(tr, 3.0, BASELINE2).values.tolist() for tr in (tr1, tr2))
    assert a == b


def test_baseline_needs_no_windows():
    tr = make_trace("t", [0.0, 1.0], [3.0, 5.0])  # shorter than one 3 s window
    fv = extract(tr, 3.0, BASELINE2)
    assert fv.values.tolist() == [4.0, 1.0]


# --- subset masks ---------------------------------------------------------------


def test_project_documented_mask():
    sub = extract(two_window_trace(), 3.0, subset_schema(0xC5))  # bits 0, 2, 6, 7
    assert sub.schema == "subset:c5"
    assert sub.values == pytest.approx(
        [F_ORACLE[0], F_ORACLE[2], F_ORACLE[6], F_ORACLE[7]], abs=1e-12
    )


def test_project_full_mask_is_identity():
    fv = extract(two_window_trace(), 3.0, RICH8)
    sub = extract(two_window_trace(), 3.0, subset_schema(FULL_MASK))
    assert sub.values.tolist() == fv.values.tolist()
    assert schema_length(sub.schema) == 8


def test_project_single_bit():
    fv = extract(two_window_trace(), 3.0, RICH8)
    for bit in range(8):
        sub = extract(two_window_trace(), 3.0, subset_schema(1 << bit))
        assert sub.values.tolist() == [fv.values[bit]]


def test_project_empty_mask_raises():
    with pytest.raises(EmptyMask):
        subset_schema(0)
    with pytest.raises(DataError):
        extract(two_window_trace(), 3.0, "subset:00")


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


@pytest.mark.parametrize("values, message", [
    (np.zeros(3), "expects 2 entries, got 3"),
    (np.array([0.0, np.nan]), "non-finite"),
], ids=["wrong-length", "non-finite"])
def test_feature_vector_rejects_a_malformed_vector(values, message):
    with pytest.raises(DataError, match=message):
        FeatureVector(values, BASELINE2)


# --- extract dispatch -----------------------------------------------------------


def test_extract_dispatches_by_schema():
    tr = two_window_trace()
    assert extract(tr, 3.0, RICH8).values.tolist() == pytest.approx(F_ORACLE, abs=1e-12)
    assert extract(tr, 3.0, BASELINE2).values.tolist() == [10.0, pytest.approx(
        float(np.var([1.0, 2.0, 3.0, 10.0, 10.0, 16.0, 99.0])), rel=1e-15)]
    sub = extract(tr, 3.0, "subset:c5")
    assert sub.values.tolist() == extract(tr, 3.0, RICH8).values[[0, 2, 6, 7]].tolist()
    for schema in (RICH8, BASELINE2, "subset:c5"):
        assert extract(tr, 3.0, schema).schema == schema
    with pytest.raises(DataError):
        extract(tr, 3.0, "nope")
