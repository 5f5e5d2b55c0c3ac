"""Sensor traces: the taxonomy, cleaning, and window segmentation.

A trace is one sensor's time series. Cleaning sorts samples by timestamp,
collapses duplicate timestamps (the last occurrence wins, matching
last-write-wins ingestion), and rejects non-finite entries. Segmentation
tiles the trace span with fixed-length, non-overlapping windows anchored
at the first timestamp; the trailing remainder that does not fill a whole
window is dropped, and windows that happen to contain no samples (gaps)
are skipped rather than treated as errors.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, EmptyTrace, NoWindows, NonFiniteValue

DEFAULT_WINDOW_LEN = 2700.0  # seconds; 45 minutes


class SensorType(enum.IntEnum):
    """The six sensor types the classifier distinguishes.

    Codes are stable and double as class indices everywhere: label codes,
    posterior vector positions, and CSV round trips all use this order.
    """

    CO2 = 0
    HUMIDITY = 1
    ROOM_TEMP = 2
    SETPOINT = 3
    AIR_VOLUME = 4
    OTHER_TEMP = 5

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, text: str) -> "SensorType":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise DataError(f"unknown sensor type label {text!r}") from None


CLASS_LABELS: tuple[str, ...] = tuple(t.label for t in SensorType)
CLASS_COUNT = len(SensorType)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SensorTrace:
    """A cleaned time series. Construct through validate_trace."""

    trace_id: str
    timestamps: np.ndarray  # strictly increasing, seconds
    values: np.ndarray
    label: SensorType | None = None

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _readonly(self.timestamps))
        object.__setattr__(self, "values", _readonly(self.values))

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def span(self) -> float:
        """Elapsed seconds between first and last sample."""
        return float(self.timestamps[-1] - self.timestamps[0])

    def samples(self) -> Iterable[tuple[float, float]]:
        return zip(self.timestamps.tolist(), self.values.tolist())


@dataclass(frozen=True, eq=False)
class Window:
    """One segmentation window and the sample values that fell inside it."""

    start: float
    length: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))


def _from_arrays(
    trace_id: str,
    timestamps: np.ndarray,
    values: np.ndarray,
    label: SensorType | None,
) -> SensorTrace:
    ts = np.asarray(timestamps, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ts.shape != vals.shape or ts.ndim != 1:
        raise DataError(f"trace {trace_id!r}: timestamps and values must be 1-d and equal length")
    bad = ~(np.isfinite(ts) & np.isfinite(vals))
    if bad.any():
        raise NonFiniteValue(trace_id, int(np.argmax(bad)))
    order = np.argsort(ts, kind="stable")
    ts, vals = ts[order], vals[order]
    if len(ts) > 1:
        # last occurrence of each duplicated timestamp wins; stable sort keeps
        # input order within ties, so the run's final element is the latest write
        keep = np.ones(len(ts), dtype=bool)
        keep[:-1] = ts[:-1] != ts[1:]
        ts, vals = ts[keep], vals[keep]
    if len(ts) < 2:
        raise EmptyTrace(trace_id, len(ts))
    return SensorTrace(trace_id, ts, vals, label)


def validate_trace(
    trace_id: str,
    samples: Iterable[tuple[float, float]],
    label: SensorType | None = None,
) -> SensorTrace:
    """Clean raw (timestamp, value) pairs into a SensorTrace.

    Samples are sorted by timestamp; when two samples share a timestamp the
    one appearing later in the input is kept. Raises NonFiniteValue for
    NaN or infinite entries (reporting the input index) and EmptyTrace when
    fewer than two samples survive.

    Idempotent: validating a validated trace's samples returns an equal trace.
    """
    pairs = list(samples)
    if not pairs:
        raise EmptyTrace(trace_id, 0)
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError(f"trace {trace_id!r}: samples must be (timestamp, value) pairs")
    return _from_arrays(trace_id, arr[:, 0], arr[:, 1], label)


def segment_windows(trace: SensorTrace, window_len: float = DEFAULT_WINDOW_LEN) -> list[Window]:
    """Split a trace into non-overlapping windows of window_len seconds.

    Windows tile [t0, t0 + k * window_len) from the first timestamp, where k
    is the number of whole windows that fit in the span; the trailing partial
    remainder is dropped, as is any sample at or beyond the tiled end. Windows
    with no samples (gaps) are omitted. A sample belongs to the window whose
    half-open interval [start, start + window_len) contains its timestamp.

    Raises NoWindows when the span is shorter than a single window.
    """
    if not (window_len > 0) or not math.isfinite(window_len):
        raise DataError(f"window length must be positive and finite, got {window_len!r}")
    ts = trace.timestamps
    t0 = ts[0]
    k = int((ts[-1] - t0) // window_len)
    if k == 0:
        raise NoWindows(trace.trace_id, trace.span, window_len)
    edges = t0 + np.arange(k + 1) * window_len
    bounds = np.searchsorted(ts, edges, side="left")
    out = []
    for i in range(k):
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            out.append(Window(float(edges[i]), float(window_len), trace.values[lo:hi]))
    return out


def population_var(values: np.ndarray) -> float:
    """Population variance (divide by N), exactly 0.0 for a constant vector.

    np.var on a constant array leaves ~1e-28 of accumulation noise; the
    all-zero variance block of a flat trace is a meaningful signature, so
    constants short-circuit to an exact zero.
    """
    v = np.asarray(values, dtype=float)
    if v[0] == v[-1] and (v == v[0]).all():
        return 0.0
    return float(np.var(v))


def window_stats(window: Window) -> tuple[float, float]:
    """(median, population variance) of the window's values.

    Median of an even count is the mean of the two middle values; variance
    divides by N, not N-1.
    """
    v = window.values
    return float(np.median(v)), population_var(v)


# --- trace CSV format -------------------------------------------------------
#
# Exactly two columns, header `timestamp,value`, one row per sample.
# Lines starting with `#` are ignored on read.

TRACE_HEADER = ["timestamp", "value"]


def write_trace_csv(trace: SensorTrace, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for t, v in trace.samples():
            writer.writerow([repr(t), repr(v)])


def read_trace_csv(
    path: str | Path,
    trace_id: str | None = None,
    label: SensorType | None = None,
) -> SensorTrace:
    """Load and clean a trace file. trace_id defaults to the file stem."""
    path = Path(path)
    tid = trace_id if trace_id is not None else path.stem
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if row[:2] == TRACE_HEADER:
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise DataError(f"trace file {path}: bad row {row!r}") from None
    return validate_trace(tid, rows, label)
