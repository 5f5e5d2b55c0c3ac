"""Prediction entropy, the review flag, and flag quality metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorclass.errors import InvalidConfig, UnnormalizedProbabilities
from sensorclass.trace import SensorType
from sensorclass.uncertainty import (
    attach_metrics,
    class_entropy,
    entropy_cdf,
    flag_above_threshold,
    make_prediction,
    max_entropy,
    misclassification_metrics,
    rank_by_uncertainty,
    roc_sweep,
)

LN2 = math.log(2.0)
LN6 = math.log(6.0)

PR1 = [0.9, 0.0, 0.0, 0.0, 0.0, 0.1]
PR2 = [0.3, 0.25, 0.1, 0.0, 0.15, 0.2]


def pred(tid, probs, predicted=None, base="nats"):
    p = np.asarray(probs, dtype=float)
    if predicted is None:
        predicted = SensorType(int(p.argmax()))
    return make_prediction(tid, predicted, p, base)


# --- class_entropy ---------------------------------------------------------------


def test_entropy_one_hot_is_zero():
    assert class_entropy([1.0, 0, 0, 0, 0, 0]) == 0.0


def test_entropy_uniform_is_max():
    assert class_entropy([1 / 6] * 6) == pytest.approx(LN6, abs=1e-12)
    assert max_entropy("nats") == pytest.approx(LN6, abs=1e-15)


def test_entropy_two_way_tie_is_ln2():
    assert class_entropy([0.5, 0.5, 0, 0, 0, 0]) == pytest.approx(LN2, abs=1e-15)


def test_entropy_confident_worked_vector():
    h = class_entropy(PR1)
    assert h == pytest.approx(0.3251, abs=1e-3)
    assert h == pytest.approx(-(0.9 * math.log(0.9) + 0.1 * math.log(0.1)), abs=1e-15)


def test_entropy_diffuse_worked_vector():
    assert class_entropy(PR2) == pytest.approx(1.5445, abs=1e-3)


def test_entropy_base_conversions():
    nats = class_entropy(PR2, "nats")
    assert class_entropy(PR2, "bits") == pytest.approx(nats / LN2, abs=1e-15)
    assert class_entropy(PR2, "normalized") == pytest.approx(nats / LN6, abs=1e-15)
    assert class_entropy([1 / 6] * 6, "normalized") == pytest.approx(1.0, abs=1e-12)
    assert max_entropy("bits") == pytest.approx(math.log2(6.0), abs=1e-12)
    assert max_entropy("normalized") == pytest.approx(1.0, abs=1e-12)


def test_entropy_unknown_base_rejected():
    with pytest.raises(InvalidConfig):
        class_entropy(PR1, "hartleys")
    with pytest.raises(InvalidConfig):
        max_entropy("hartleys")


def test_entropy_rejects_bad_distributions():
    with pytest.raises(UnnormalizedProbabilities):
        class_entropy([0.9, 0.2, 0, 0, 0, 0])
    with pytest.raises(UnnormalizedProbabilities):
        class_entropy([1.1, -0.1, 0, 0, 0, 0])
    with pytest.raises(UnnormalizedProbabilities):
        class_entropy([np.nan, 1.0, 0, 0, 0, 0])
    with pytest.raises(UnnormalizedProbabilities):
        make_prediction("x", SensorType.CO2, [np.nan, 0.5, 0.5, 0, 0, 0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6))
def test_entropy_range_on_random_distributions(raw):
    total = sum(raw)
    if total <= 0:
        return
    probs = [x / total for x in raw]
    h = class_entropy(probs)
    assert 0.0 <= h <= LN6 + 1e-12


# --- predictions and ranking -------------------------------------------------------


def test_make_prediction_carries_fields():
    p = pred("a", PR1)
    assert p.trace_id == "a"
    assert p.predicted is SensorType.CO2
    assert p.probs.tolist() == PR1
    assert p.entropy == pytest.approx(0.3251, abs=1e-3)


def test_rank_most_uncertain_first():
    lo, hi = pred("lo", PR1), pred("hi", PR2)
    assert [p.trace_id for p in rank_by_uncertainty([lo, hi])] == ["hi", "lo"]


def test_rank_ties_fall_back_to_trace_id():
    ps = [pred(tid, [0.5, 0.5, 0, 0, 0, 0]) for tid in ("b", "a", "c")]
    assert [p.trace_id for p in rank_by_uncertainty(ps)] == ["a", "b", "c"]


# --- flagging ------------------------------------------------------------------------


def test_flag_strictly_above_threshold():
    h = class_entropy(PR1)
    ps = [pred("x", PR1)]
    assert flag_above_threshold(ps, h).flagged == frozenset()  # equal: not flagged
    assert flag_above_threshold(ps, h - 1e-12).flagged == {"x"}


def test_flag_nan_threshold_rejected():
    # every comparison with nan is False, so it would flag nothing silently
    with pytest.raises(InvalidConfig, match="nan"):
        flag_above_threshold([pred("x", PR1)], float("nan"))


def test_flag_zero_threshold_takes_everything_uncertain():
    ps = [pred("a", PR1), pred("b", PR2), pred("c", [1.0, 0, 0, 0, 0, 0])]
    report = flag_above_threshold(ps, 0.0)
    assert report.flagged == {"a", "b"}  # the one-hot entropy 0 stays unflagged
    assert report.total == 3
    assert report.threshold == 0.0


def test_flag_above_max_entropy_takes_nothing():
    ps = [pred("a", PR1), pred("b", PR2)]
    report = flag_above_threshold(ps, LN6 + 1.0)
    assert report.flagged == frozenset()


# --- metrics --------------------------------------------------------------------------


def ten_predictions():
    """4 wrong, 6 correct; entropies ordered so a threshold can pick any prefix."""
    probs = [
        [0.5, 0.5, 0, 0, 0, 0],
        [0.45, 0.55, 0, 0, 0, 0],
        [0.4, 0.6, 0, 0, 0, 0],
        [0.3, 0.7, 0, 0, 0, 0],
        [0.2, 0.8, 0, 0, 0, 0],
        [0.1, 0.9, 0, 0, 0, 0],
        [0.05, 0.95, 0, 0, 0, 0],
        [0.02, 0.98, 0, 0, 0, 0],
        [0.01, 0.99, 0, 0, 0, 0],
        [0.0, 1.0, 0, 0, 0, 0],
    ]
    ps = [pred(f"t{i}", pr) for i, pr in enumerate(probs)]
    correctness = {f"t{i}": i >= 4 for i in range(10)}  # t0..t3 wrong
    return ps, correctness


def test_metrics_worked_example():
    ps, correctness = ten_predictions()
    # flag the top five: t0..t3 are wrong (4) minus t3? entropies order t0 > .. > t9,
    # so threshold at t4's entropy flags t0..t4 minus none: S1 = {t0..t4}? strict >
    # keeps t4 out; pick the threshold between t4 and t5 to flag exactly five.
    thr = (ps[4].entropy + ps[5].entropy) / 2.0
    report = flag_above_threshold(ps, thr)
    assert report.flagged == {"t0", "t1", "t2", "t3", "t4"}
    m = misclassification_metrics(report, correctness)
    assert m.tpr == 1.0  # all 4 wrong flagged
    assert m.fpr == pytest.approx(1.0 / 6.0)
    assert m.ppv == pytest.approx(4.0 / 5.0)


def test_metrics_three_of_four_wrong_two_correct():
    ps, correctness = ten_predictions()
    report = flag_above_threshold(ps, 0.0)
    # hand-pick a flag set via threshold-free construction: 3 wrong + 2 correct
    from sensorclass.uncertainty import FlagReport

    report = FlagReport(0.0, frozenset({"t0", "t1", "t2", "t4", "t5"}), 10)
    m = misclassification_metrics(report, correctness)
    assert m.tpr == pytest.approx(0.75)
    assert m.fpr == pytest.approx(1.0 / 3.0)
    assert m.ppv == pytest.approx(0.6)


def test_metrics_all_flagged():
    ps, correctness = ten_predictions()
    report = flag_above_threshold(ps, -1.0)
    assert len(report.flagged) == 10
    m = misclassification_metrics(report, correctness)
    assert (m.tpr, m.fpr) == (1.0, 1.0)
    assert m.ppv == pytest.approx(0.4)  # wrong fraction of the flag set


def test_metrics_none_flagged():
    ps, correctness = ten_predictions()
    m = misclassification_metrics(flag_above_threshold(ps, LN6), correctness)
    assert (m.tpr, m.fpr, m.ppv) == (0.0, 0.0, None)


def test_metrics_undefined_denominators():
    ps, _ = ten_predictions()
    all_right = {f"t{i}": True for i in range(10)}
    m = misclassification_metrics(flag_above_threshold(ps, 0.0), all_right)
    assert m.tpr is None and m.fpr is not None
    all_wrong = {f"t{i}": False for i in range(10)}
    m = misclassification_metrics(flag_above_threshold(ps, 0.0), all_wrong)
    assert m.fpr is None and m.tpr is not None


def test_metrics_missing_correctness_rejected():
    ps, correctness = ten_predictions()
    del correctness["t0"]
    with pytest.raises(InvalidConfig):
        misclassification_metrics(flag_above_threshold(ps, 0.0), correctness)


def test_attach_metrics_fills_report():
    ps, correctness = ten_predictions()
    report = attach_metrics(flag_above_threshold(ps, 0.0), correctness)
    assert report.tpr is not None and report.fpr is not None and report.ppv is not None
    bare = flag_above_threshold(ps, 0.0)
    assert bare.tpr is None  # metrics only appear once attached


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), st.booleans()),
        min_size=1,
        max_size=24,
    ),
    threshold=st.floats(min_value=-0.1, max_value=1.9),
)
def test_flag_set_splits_into_wrong_and_correct(data, threshold):
    ps = []
    correctness = {}
    for i, (w, ok) in enumerate(data):
        probs = [0.0] * 6
        probs[0], probs[1] = 1.0 - w / 2.0, w / 2.0
        ps.append(pred(f"t{i}", probs))
        correctness[f"t{i}"] = ok
    report = flag_above_threshold(ps, threshold)
    s2 = sum(1 for tid in report.flagged if not correctness[tid])
    s3 = sum(1 for tid in report.flagged if correctness[tid])
    assert len(report.flagged) == s2 + s3


# --- roc sweep --------------------------------------------------------------------------


def test_roc_endpoints():
    ps, correctness = ten_predictions()
    # make the entropy-0 instance wrong so threshold 0 still catches... it cannot:
    # strict > at 0 misses entropy-0 instances, so use all-positive entropies
    ps = ps[:9]
    correctness = {f"t{i}": correctness[f"t{i}"] for i in range(9)}
    pts = roc_sweep(ps, correctness, [0.0, LN6 + 1.0])
    assert (pts[0].tpr, pts[0].fpr) == (1.0, 1.0)
    assert (pts[-1].tpr, pts[-1].fpr) == (0.0, 0.0)
    assert pts[-1].ppv is None


def test_roc_thresholds_sorted_and_monotone():
    ps, correctness = ten_predictions()
    grid = [0.6, 0.0, 0.3, 0.1, 0.45, 0.69, 0.2]
    pts = roc_sweep(ps, correctness, grid)
    assert [p.threshold for p in pts] == sorted(grid)
    tprs = [p.tpr for p in pts]
    fprs = [p.fpr for p in pts]
    assert all(a >= b for a, b in zip(tprs, tprs[1:]))
    assert all(a >= b for a, b in zip(fprs, fprs[1:]))


def test_roc_matches_pointwise_metrics():
    ps, correctness = ten_predictions()
    for point in roc_sweep(ps, correctness, [0.1, 0.4, 0.6]):
        m = misclassification_metrics(
            flag_above_threshold(ps, point.threshold), correctness
        )
        assert (point.tpr, point.fpr, point.ppv) == (m.tpr, m.fpr, m.ppv)


def test_roc_on_the_two_worked_vectors():
    ps = [pred("sure", PR1), pred("unsure", PR2)]
    correctness = {"sure": True, "unsure": False}
    (point,) = roc_sweep(ps, correctness, [1.0])
    assert (point.tpr, point.fpr, point.ppv) == (1.0, 0.0, 1.0)


# --- entropy cdf -------------------------------------------------------------------------


def test_cdf_groups_and_shape():
    ps, correctness = ten_predictions()
    curves = entropy_cdf(ps, correctness)
    assert set(curves) == {"correct", "wrong"}
    for curve in curves.values():
        ents = [e for e, _ in curve]
        fracs = [f for _, f in curve]
        assert ents == sorted(ents)
        assert fracs[-1] == 1.0
        assert all(0.0 < f <= 1.0 for f in fracs)
    assert len(curves["wrong"]) == 4 and len(curves["correct"]) == 6


def test_cdf_omits_empty_group():
    ps, _ = ten_predictions()
    curves = entropy_cdf(ps, {f"t{i}": True for i in range(10)})
    assert set(curves) == {"correct"}
