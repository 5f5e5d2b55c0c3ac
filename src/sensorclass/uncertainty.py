"""Prediction uncertainty: entropy scoring, flagging, and review queues.

A prediction's class distribution carries more than its argmax. The
Shannon entropy of that distribution is the uncertainty score: 0 when one
class takes all the mass, ln(C) at the uniform distribution. Instances
whose entropy exceeds a threshold get flagged for human review; against
ground truth that induces the usual confusion quantities:

    S1 flagged, S2 flagged and wrong, S3 flagged but correct,
    S4 all wrong, S5 all correct.

    tpr = |S2| / |S4|   (wrong predictions caught)
    fpr = |S3| / |S5|   (correct predictions bothering the reviewer)
    ppv = |S2| / |S1|   (flag precision)

A metric whose denominator set is empty is undefined and reported as
None, never silently as 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidConfig, UnnormalizedProbabilities
from .trace import CLASS_COUNT, SensorType

log = logging.getLogger(__name__)

ENTROPY_BASES = ("nats", "bits", "normalized")
DEFAULT_THRESHOLD = 0.425  # nats; mid beam of the useful range on our corpora

_SUM_TOLERANCE = 1e-6


def class_entropy(probs: np.ndarray | Sequence[float], base: str = "nats") -> float:
    """Shannon entropy of a class distribution.

    base "nats" uses the natural log, "bits" divides by ln 2, and
    "normalized" divides by ln C so the uniform distribution scores 1.
    Raises UnnormalizedProbabilities when entries are negative or NaN or
    the sum strays from 1 by more than 1e-6 (an infinite entry does).
    """
    p = np.asarray(probs, dtype=float)
    if not (p >= 0).all():  # a NaN compares False
        raise UnnormalizedProbabilities(f"negative or NaN probability in {p.tolist()}")
    total = float(p.sum())
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise UnnormalizedProbabilities(f"probabilities sum to {total!r}, not 1")
    nz = p[p > 0]
    nats = float(-(nz * np.log(nz)).sum())
    if base == "nats":
        return nats
    if base == "bits":
        return nats / math.log(2.0)
    if base == "normalized":
        return nats / math.log(len(p))
    raise InvalidConfig(f"entropy base must be one of {ENTROPY_BASES}, got {base!r}")


@dataclass(frozen=True, eq=False)
class Prediction:
    """One classified instance: its posterior and the entropy of it.

    entropy is class_entropy(probs, base) for whatever base the run uses;
    nats unless stated otherwise.
    """

    trace_id: str
    predicted: SensorType
    probs: np.ndarray = field(repr=False)
    entropy: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def make_prediction(
    trace_id: str,
    predicted: SensorType,
    probs: np.ndarray,
    base: str = "nats",
) -> Prediction:
    return Prediction(trace_id, predicted, probs, class_entropy(probs, base))


def rank_by_uncertainty(predictions: Iterable[Prediction]) -> list[Prediction]:
    """Most uncertain first; equal entropies fall back to trace_id order."""
    return sorted(predictions, key=lambda p: (-p.entropy, p.trace_id))


@dataclass(frozen=True)
class FlagReport:
    """Which instances crossed the threshold, plus metrics when truth exists."""

    threshold: float
    flagged: frozenset[str]
    total: int
    tpr: float | None = None
    fpr: float | None = None
    ppv: float | None = None


class RocPoint(NamedTuple):
    """A flag report's metrics at its threshold."""

    threshold: float
    tpr: float | None
    fpr: float | None
    ppv: float | None


def flag_above_threshold(
    predictions: Sequence[Prediction], threshold: float
) -> FlagReport:
    """Flag instances with entropy strictly greater than the threshold."""
    if math.isnan(threshold):
        raise InvalidConfig("flag threshold must be a number, got nan")
    flagged = frozenset(p.trace_id for p in predictions if p.entropy > threshold)
    return FlagReport(float(threshold), flagged, len(predictions))


def misclassification_metrics(
    report: FlagReport, correctness: Mapping[str, bool]
) -> RocPoint:
    """tpr/fpr/ppv of a flag report against ground-truth correctness.

    correctness maps every predicted trace_id to whether the prediction was
    right. Undefined metrics (empty denominator set) come back as None.
    """
    wrong = {tid for tid, ok in correctness.items() if not ok}
    correct = {tid for tid, ok in correctness.items() if ok}
    missing = report.flagged - set(correctness)
    if missing:
        raise InvalidConfig(
            f"correctness missing for flagged instance(s): {sorted(missing)[:3]}"
        )
    s1 = len(report.flagged)
    s2 = len(report.flagged & wrong)
    s3 = len(report.flagged & correct)
    tpr = s2 / len(wrong) if wrong else None
    fpr = s3 / len(correct) if correct else None
    ppv = s2 / s1 if s1 else None
    return RocPoint(report.threshold, tpr, fpr, ppv)


def attach_metrics(report: FlagReport, correctness: Mapping[str, bool]) -> FlagReport:
    m = misclassification_metrics(report, correctness)
    return replace(report, tpr=m.tpr, fpr=m.fpr, ppv=m.ppv)


def roc_sweep(
    predictions: Sequence[Prediction],
    correctness: Mapping[str, bool],
    thresholds: Sequence[float],
) -> list[RocPoint]:
    """Flag metrics across a threshold grid.

    Raising the threshold can only unflag instances, so tpr and fpr are
    non-increasing along the sorted grid.
    """
    return [
        misclassification_metrics(flag_above_threshold(predictions, thr), correctness)
        for thr in sorted(float(t) for t in thresholds)
    ]


def entropy_cdf(
    predictions: Sequence[Prediction], correctness: Mapping[str, bool]
) -> dict[str, list[tuple[float, float]]]:
    """Empirical entropy CDFs of the correct and wrong prediction groups.

    Returns {"correct": [(entropy, cumulative fraction), ...], "wrong": [...]}.
    A group with no members is omitted from the dict, with a log notice,
    rather than producing an empty curve.
    """
    groups: dict[str, list[float]] = {"correct": [], "wrong": []}
    for p in predictions:
        groups["correct" if correctness[p.trace_id] else "wrong"].append(p.entropy)
    out: dict[str, list[tuple[float, float]]] = {}
    for name, ent in groups.items():
        if not ent:
            log.warning("entropy_cdf: no %s predictions, omitting that curve", name)
            continue
        ent.sort()
        n = len(ent)
        out[name] = [(e, (i + 1) / n) for i, e in enumerate(ent)]
    return out


def max_entropy(base: str = "nats") -> float:
    """Entropy of the uniform distribution over the six types."""
    return class_entropy(np.full(CLASS_COUNT, 1.0 / CLASS_COUNT), base)
