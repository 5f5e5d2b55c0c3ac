"""Sensor-type classification for building telemetry.

Classifies a sensor's time series into one of six types (CO2, humidity,
room temperature, setpoint, air volume, other temperature) from windowed
median/variance statistics, using a random forest whose trees predict
class posteriors. The entropy of the combined posterior scores how
trustworthy each prediction is, which drives review flagging and
relabeling workflows. A deterministic synthetic-corpus generator and the
evaluation protocols used to validate all of this ship in the package.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, SensorClassError
from .features import BASELINE2, RICH8, FeatureVector, extract
from .forest import (
    ForestConfig,
    LabeledDataset,
    RandomForest,
    classify,
    load_model,
    save_model,
    train_forest,
)
from .trace import SensorTrace, SensorType, validate_trace
from .uncertainty import Prediction, class_entropy, flag_above_threshold

__all__ = [
    "__version__",
    "BASELINE2",
    "RICH8",
    "ConfigError",
    "DataError",
    "FeatureVector",
    "ForestConfig",
    "LabeledDataset",
    "Prediction",
    "RandomForest",
    "SensorClassError",
    "SensorTrace",
    "SensorType",
    "class_entropy",
    "classify",
    "extract",
    "flag_above_threshold",
    "load_model",
    "save_model",
    "train_forest",
    "validate_trace",
]
