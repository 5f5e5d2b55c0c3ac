"""What a command's flags are checked against before any work starts: the
forest's training knobs and the shipped corpus presets.

They live apart from the forest grower and the corpus generator, so that
checking a command's flags compiles neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

AVERAGING_MODES = ("paper", "standard")


@dataclass(frozen=True)
class ForestConfig:
    """Training knobs.

    m_try of None means "decide at training time": floor(sqrt(D)) with a
    floor of 1, where D is the dataset's feature count.
    """

    n_trees: int = 50
    m_try: int | None = None
    seed: int = 0
    averaging_mode: str = "paper"

    def __post_init__(self):
        if self.n_trees < 1:
            raise InvalidConfig(f"n_trees must be >= 1, got {self.n_trees}")
        if self.m_try is not None and self.m_try < 1:
            raise InvalidConfig(f"m_try must be >= 1, got {self.m_try}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.averaging_mode not in AVERAGING_MODES:
            raise InvalidConfig(
                f"averaging_mode must be one of {AVERAGING_MODES}, got {self.averaging_mode!r}"
            )

    def resolve_m_try(self, feature_count: int) -> int:
        m = self.m_try if self.m_try is not None else max(1, int(np.sqrt(feature_count)))
        if m > feature_count:
            raise InvalidConfig(f"m_try {m} exceeds feature count {feature_count}")
        return m


# Every preset is a spec document, read exactly like a --spec file.
PRESETS: dict[str, dict] = {
    "default": {},
    # Second building: every type keeps its identity but moves a little, the
    # way two real buildings' calibrations and climates differ.
    "building-b": {"climate_shift": {
        "co2": {"offset": 60.0, "scale": 1.15},
        "humidity": {"offset": 6.0, "scale": 1.2},
        "room_temp": {"offset": 1.5, "scale": 1.25},
        "setpoint": {"offset": 2.0, "scale": 1.0},
        "air_volume": {"offset": 80.0, "scale": 1.1},
        "other_temp": {"offset": 4.0, "scale": 1.1},
    }},
    # Humidity re-leveled into the room-temperature band. The two classes end
    # up with matching whole-trace medians and, on average, variance (the
    # amplitude is sqrt(2 (2.0**2 / 2 + 0.45**2 - 0.05**2)) from room's swing
    # and noise); what still separates them is pace. Room temperature moves
    # daily with measurement noise, this humidity drifts over days almost
    # noiselessly, so windowed variances differ by orders of magnitude.
    "overlap": {"profiles": {"humidity": {
        "base_level": 72.0, "daily_amplitude": 2.0976176963403033, "noise_std": 0.05,
        "level_jitter": 1.2, "period_days": 3.5, "clamp": [55.0, 90.0],
    }}},
    # The generic-temperature class dressed as return air: a degree or so warm
    # of the room with similar daily swing and noise, so the pair is genuinely
    # confusable rather than separable by level alone.
    "confusable": {"profiles": {"other_temp": {
        "base_level": 73.0, "daily_amplitude": 2.2, "noise_std": 0.5, "level_jitter": 1.2,
        "high_level": None, "band_split": False, "clamp": [55.0, 90.0],
    }}},
}
PRESET_NAMES = tuple(PRESETS)
