"""Feature extraction: windowed statistics summarized into fixed vectors.

The discriminative signal lives in how a sensor's windowed behaviour is
distributed over days, not in any single reading. For each trace we take
the per-window median and population variance, then summarize each of the
two resulting vectors with four statistics. Eight numbers total:

    index 0  min  of window medians        "min_wmed"
    index 1  max  of window medians        "max_wmed"
    index 2  median of window medians      "med_wmed"
    index 3  variance of window medians    "var_wmed"
    index 4  min  of window variances      "min_wvar"
    index 5  max  of window variances      "max_wvar"
    index 6  median of window variances    "med_wvar"
    index 7  variance of window variances  "var_wvar"

The baseline scheme keeps only the whole-trace median and population
variance; it is deliberately blind to sample order, which is exactly what
the windowed scheme fixes. Subset schemas select rich8 entries by bitmask
(bit i selects index i) for feature-importance sweeps. Every median and
variance here, of a window, of a whole trace or of the two windowed
vectors, comes from trace.window_stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyMask
from .trace import SensorTrace, _readonly, window_spans, window_stats

RICH8 = "rich8"
BASELINE2 = "baseline2"

RICH8_NAMES: tuple[str, ...] = (
    "min_wmed", "max_wmed", "med_wmed", "var_wmed",
    "min_wvar", "max_wvar", "med_wvar", "var_wvar",
)
BASELINE2_NAMES: tuple[str, ...] = ("median", "variance")
FULL_MASK = 0xFF


def subset_schema(mask: int) -> str:
    """Schema string for a rich8 bitmask, e.g. 0x9a -> 'subset:9a'."""
    if not 0 < mask <= FULL_MASK:
        raise EmptyMask(f"subset mask must be in 1..255, got {mask}")
    return f"subset:{mask:02x}"


def parse_subset_mask(schema: str) -> int | None:
    """The mask of a subset schema, or None for any other schema.

    Schemas come from data files, so a mask other than the two lowercase
    hex digits 01..ff that subset_schema writes raises DataError.
    """
    if not schema.startswith("subset:"):
        return None
    digits = schema.split(":", 1)[1]
    if len(digits) != 2 or not set(digits) <= set("0123456789abcdef") or digits == "00":
        raise DataError(f"feature schema {schema!r}: subset mask must be hex 01..ff")
    return int(digits, 16)


def mask_indices(mask: int) -> list[int]:
    if not 0 < mask <= FULL_MASK:
        raise EmptyMask(f"subset mask must be in 1..255, got {mask}")
    return [i for i in range(8) if mask >> i & 1]


def feature_names(schema: str) -> list[str]:
    """Human-readable names of the schema's entries, in vector order."""
    if schema == RICH8:
        return list(RICH8_NAMES)
    if schema == BASELINE2:
        return list(BASELINE2_NAMES)
    mask = parse_subset_mask(schema)
    if mask is not None:
        return [RICH8_NAMES[i] for i in mask_indices(mask)]
    raise DataError(f"unknown feature schema {schema!r}")


def schema_length(schema: str) -> int:
    return len(feature_names(schema))


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """A feature vector plus the schema that gives its entries meaning."""

    values: np.ndarray = field(repr=False)
    schema: str

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        expected = schema_length(self.schema)
        if len(self.values) != expected:
            raise DataError(
                f"schema {self.schema!r} expects {expected} entries, got {len(self.values)}"
            )
        if not np.isfinite(self.values).all():
            raise DataError(f"feature vector for schema {self.schema!r} has non-finite entries")

    def __len__(self) -> int:
        return len(self.values)


def extract_med_var(trace: SensorTrace, window_len: float) -> tuple[np.ndarray, np.ndarray]:
    """(medians, variances) of a trace's non-empty windows, one entry each.

    Deterministic, and independent of a constant shift of all timestamps
    (windows are anchored at the first timestamp, not at an epoch).
    Raises NoWindows when the trace is shorter than one window.

    Windows with the same sample count are gathered into one (windows,
    count) block.
    """
    _, firsts, counts = window_spans(trace, window_len)
    med = np.empty(len(counts))
    var = np.empty(len(counts))
    for n in sorted(set(counts.tolist())):  # np.unique would import numpy.ma
        rows = np.flatnonzero(counts == n)
        med[rows], var[rows] = window_stats(trace.values[firsts[rows][:, None] + np.arange(n)])
    return med, var


def extract(trace: SensorTrace, window_len: float, schema: str) -> FeatureVector:
    """The trace's feature vector under a schema: rich8, baseline2 or subset:<mask>.

    baseline2 is window_stats of the whole trace. rich8 is the min and max
    of the window medians and of the window variances, and window_stats of
    the two vectors; a subset schema selects rich8 entries by its mask.
    """
    if schema == BASELINE2:
        med, var = window_stats(trace.values[None, :])
        return FeatureVector(np.concatenate([med, var]), schema)
    mask = FULL_MASK if schema == RICH8 else parse_subset_mask(schema)
    if mask is None:
        raise DataError(f"unknown feature schema {schema!r}")
    stack = np.stack(extract_med_var(trace, window_len))
    med, var = window_stats(stack)
    values = np.column_stack([stack.min(axis=1), stack.max(axis=1), med, var]).ravel()
    return FeatureVector(values[mask_indices(mask)], schema)
