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

from importlib import import_module

# each public name -> the module it is defined in, imported on first access (PEP 562),
# so that `import sensorclass.cli` and each command load only the modules they use
_HOMES = {
    "BASELINE2": "features",
    "RICH8": "features",
    "ConfigError": "errors",
    "DataError": "errors",
    "FeatureVector": "features",
    "ForestConfig": "config",
    "LabeledDataset": "forest",
    "Prediction": "uncertainty",
    "RandomForest": "forest",
    "SensorClassError": "errors",
    "SensorTrace": "trace",
    "SensorType": "trace",
    "class_entropy": "uncertainty",
    "classify": "forest",
    "extract": "features",
    "flag_above_threshold": "uncertainty",
    "load_model": "forest",
    "save_model": "forest",
    "train_forest": "forest",
    "validate_trace": "trace",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
