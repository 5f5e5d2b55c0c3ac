"""Exception types shared across the package.

Two families matter to callers. ConfigError means the operator asked for
something unusable (bad flag value, malformed spec file); DataError means
the inputs themselves are broken. The CLI maps the families to distinct
exit codes, so new exceptions should subclass one of the two.
"""

from __future__ import annotations


class SensorClassError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SensorClassError):
    """Operator-supplied configuration is invalid."""


class DataError(SensorClassError):
    """Input data cannot be used."""


class EmptyTrace(DataError):
    """Fewer than two samples remain after cleaning."""

    def __init__(self, trace_id: str, n_samples: int):
        super().__init__(
            f"trace {trace_id!r}: {n_samples} sample(s) after cleaning, need at least 2"
        )
        self.trace_id = trace_id
        self.n_samples = n_samples


class NonFiniteValue(DataError):
    """A timestamp or value is NaN or infinite."""

    def __init__(self, trace_id: str, index: int):
        super().__init__(f"trace {trace_id!r}: non-finite sample at index {index}")
        self.trace_id = trace_id
        self.index = index


class NoWindows(DataError):
    """The trace span is shorter than one window."""

    def __init__(self, trace_id: str, span: float, window_len: float):
        super().__init__(
            f"trace {trace_id!r}: span {span:g} s is shorter than one "
            f"{window_len:g} s window"
        )
        self.trace_id = trace_id


class EmptyMask(ConfigError):
    """A feature subset mask selected no features."""


class InvalidConfig(ConfigError):
    """Forest or run configuration is out of range."""


class SchemaMismatch(DataError):
    """Feature vector schema does not match what the model was trained on."""


class UnnormalizedProbabilities(DataError):
    """A probability vector does not sum to 1 (or has negative or NaN entries)."""


class DegenerateFraction(ConfigError):
    """A split fraction empties the train or test side."""


class InvalidSpec(ConfigError):
    """A corpus spec file has an unknown or ill-typed key."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"corpus spec key {key!r}: {detail}")
        self.key = key


class NonInteractiveWithoutAnswers(ConfigError):
    """Relabeling needs a terminal or a scripted answers file."""
