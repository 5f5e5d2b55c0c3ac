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
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, EmptyTrace, NoWindows, NonFiniteValue


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
        return float(self.timestamps[-1]) - float(self.timestamps[0])  # inf on overflow


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


def run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a."""
    new = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def window_spans(
    trace: SensorTrace, window_len: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start time, first sample index, sample count) of each non-empty window.

    Windows tile [t0, t0 + k * window_len) from the first timestamp, where k
    is the number of whole windows that fit in the span; the trailing partial
    remainder is dropped, as is any sample at or beyond the tiled end. Windows
    with no samples (gaps) are omitted. A sample belongs to the window whose
    half-open interval [start, start + window_len) contains its timestamp.

    Window j starts at t0 + j * window_len, computed in exactly that form,
    and each sample goes to the last window whose start is at or below it, so
    a sample on an edge starts the window. Memory grows with the samples, not
    with the number of windows the span holds.

    Raises NoWindows when the span is shorter than a single window, and
    DataError when it holds 2**53 windows or more (or overflows), beyond
    exact indexing.
    """
    if not (window_len > 0) or not math.isfinite(window_len):
        raise DataError(f"window length must be positive and finite, got {window_len!r}")
    ts = trace.timestamps
    t0 = ts[0]
    k = trace.span // window_len  # whole windows in the span, a float
    if k == 0:
        raise NoWindows(trace.trace_id, trace.span, window_len)
    if not k < 2.0**53:
        raise DataError(f"trace {trace.trace_id!r}: span {trace.span:g} s holds more "
                        f"windows of {window_len:g} s than can be indexed exactly")
    ts = ts[:np.searchsorted(ts, t0 + k * window_len, side="left")]  # the tiled samples
    # bisect each sample for the last window start at or below it. Its
    # index by floor division bounds the search on each side it is
    # confirmed by the edges, so a sample off by rounding is bisected alone.
    guess = np.minimum(np.floor((ts - t0) / window_len), k - 1).astype(np.int64)
    w = np.where(t0 + guess * window_len <= ts, guess, 0)
    hi = np.where(t0 + (guess + 1) * window_len > ts, guess, int(k) - 1)
    while (w < hi).any():
        mid = (w + hi + 1) // 2
        below = t0 + mid * window_len <= ts
        w, hi = np.where(below, mid, w), np.where(below, hi, mid - 1)
    firsts = run_starts(w)
    return t0 + w[firsts] * window_len, firsts, np.diff(firsts, append=len(ts))


def window_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(median, population variance) of each row of a (rows, samples) block.

    Median of an even count is the mean of the two middle values; variance
    divides by N, not N-1, and is exactly 0.0 for a constant row: np.var
    leaves ~1e-28 of accumulation noise there, and the all-zero variance
    block of a flat trace is a meaningful signature.
    """
    med = np.median(block, axis=1)
    var = np.var(block, axis=1)
    var[(block == block[:, :1]).all(axis=1)] = 0.0
    return med, var


# --- trace CSV format -------------------------------------------------------
#
# UTF-8 text with exactly two columns, header `timestamp,value`, one row per
# sample. Empty lines and lines starting with `#` are ignored on read.

TRACE_HEADER = ["timestamp", "value"]
_HEADER_LINE = ",".join(TRACE_HEADER).encode()

# A quote can join physical lines into one csv row, and np.loadtxt strips
# \x1c-\x1f around a number where float() rejects them; a file holding any
# of these bytes is parsed by the csv loop alone.
_CSV_ONLY = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_utf8(path: Path) -> bytes:
    """A file's bytes, checked to be UTF-8 text. Raises DataError if the file
    cannot be read or is not UTF-8."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return data


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.loads's object_pairs_hook for a JSON object whose keys are all
    different. Raises ValueError naming a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def write_trace_csv(trace: SensorTrace, path: str | Path) -> None:
    """One `repr(timestamp),repr(value)` row per sample, CRLF line ends: the
    bytes csv.writer writes, built as one string."""
    rows = [
        f"{t!r},{v!r}\r\n"
        for t, v in zip(trace.timestamps.tolist(), trace.values.tolist())
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n" + "".join(rows))


def _loadtxt_rows(data: bytes) -> np.ndarray | None:
    """The samples as an (n, 2) array in one np.loadtxt pass, or None when
    the file needs the csv loop."""
    if any(byte in data for byte in _CSV_ONLY):
        return None
    lines = data.splitlines()
    if b"#" in data or b"" in lines:
        lines = [ln for ln in lines if ln and ln[:1] != b"#"]
    while _HEADER_LINE in lines:
        lines.remove(_HEADER_LINE)
    if not lines:
        return np.empty((0, 2))
    try:
        arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    return arr if arr.shape[1] == 2 else None


def _csv_rows(path: Path, text: str) -> np.ndarray:
    """The samples as an (n, 2) array, read row by row with the csv module."""
    rows = []
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            if not row or row[0].startswith("#") or row == TRACE_HEADER:
                continue
            if len(row) == 2:
                try:
                    rows.append((float(row[0]), float(row[1])))
                    continue
                except ValueError:
                    pass
            raise DataError(f"trace file {path}: bad row {row!r}")
    except csv.Error as exc:
        raise DataError(f"trace file {path}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, 2)


def read_trace_csv(
    path: str | Path,
    trace_id: str | None = None,
    label: SensorType | None = None,
) -> SensorTrace:
    """Load and clean a trace file. trace_id defaults to the file stem.

    One np.loadtxt pass parses the file; only a file it rejects goes through
    the csv loop, which accepts quoted cells and names the first bad row.
    """
    path = Path(path)
    tid = trace_id if trace_id is not None else path.stem
    data = read_utf8(path)
    arr = _loadtxt_rows(data)
    if arr is None:
        arr = _csv_rows(path, data.decode("utf-8"))
    return _from_arrays(tid, arr[:, 0], arr[:, 1], label)
