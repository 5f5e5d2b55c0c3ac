"""Synthetic building-telemetry corpora with known ground truth.

Each sensor type has a signal recipe that reproduces the qualitative
shape real building traces show: CO2 sits on a baseline and jumps in
square occupancy bursts, humidity and the two temperature families are
slow daily oscillations in their characteristic bands, setpoints are
piecewise constant with rare jumps and no noise, and air volume switches
between two flow modes. Values are clamped to each type's physical range.

Generation is deterministic: trace (type, index) of a corpus draws from
a PCG64 generator seeded along the path (master seed, corpus tag, type
code, index). The per-trace draw order (level jitter, phase, band pick,
events, then noise) is fixed and is effectively part of the format;
reordering draws would change every corpus.

A corpus spec can come from a JSON file with these keys, all optional:

    preset           name of a shipped preset to start from ("default",
                     "building-b", "overlap", "confusable")
    name             corpus name, used as the trace-id prefix
    seed             master seed (integer)
    traces_per_type  integer
    duration_s       trace length in seconds
    interval_s       sampling interval in seconds
    climate_shift    {"<type>": {"offset": x, "scale": y}, ...}
    profiles         {"<type>": {<TypeProfile field>: value, ...}, ...}

Unknown keys, unknown type labels, and ill-typed values are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import seeding
from .errors import DataError, InvalidSpec
from .trace import SensorTrace, SensorType, _from_arrays, read_utf8

DAY_S = 86400.0
_CORPUS_TAG = 301


@dataclass(frozen=True)
class TypeProfile:
    """Signal recipe for one sensor type.

    base_level and daily_amplitude set the slow sinusoid; period_days
    stretches it. level_jitter shifts each trace's base by a uniform
    draw so traces of a type are siblings, not clones. The event fields
    are used only by the types they describe: occupancy bursts (CO2),
    setpoint jumps, and two-level mode switching (air volume).
    high_level is the second mode level, and with band_split set, each
    trace instead picks low or high band once (water circuits).
    """

    sensor_type: SensorType
    base_level: float
    daily_amplitude: float = 0.0
    noise_std: float = 0.0
    clamp: tuple[float, float] = (-math.inf, math.inf)
    level_jitter: float = 0.0
    period_days: float = 1.0
    burst_rate_per_day: float = 0.0
    burst_height: float = 0.0
    burst_minutes: float = 60.0
    step_rate_per_day: float = 0.0
    step_levels: tuple[float, ...] = ()
    switch_rate_per_day: float = 0.0
    high_level: float | None = None
    band_split: bool = False


# Levels and noise scales are chosen so that each type occupies its own band
# of window medians (humidity < setpoint < room < other-low < other-high <
# air < co2 burst peaks) and its own rung of the window-variance ladder
# (setpoint 0 < room < humidity < other < co2 < air).  Bands must not
# interleave: a value of one type inside another type's band donates split
# thresholds that cut edge instances off from their class.  Burst stacking
# bounds co2's upper tail to ~870, below air's high mode.
DEFAULT_PROFILES: tuple[TypeProfile, ...] = (
    TypeProfile(
        SensorType.CO2,
        base_level=420.0,
        noise_std=8.0,
        clamp=(350.0, 2000.0),
        level_jitter=25.0,
        burst_rate_per_day=5.0,
        burst_height=150.0,
        burst_minutes=90.0,
    ),
    TypeProfile(
        SensorType.HUMIDITY,
        base_level=40.0,
        daily_amplitude=6.0,
        noise_std=1.2,
        clamp=(5.0, 95.0),
        level_jitter=3.0,
    ),
    TypeProfile(
        SensorType.ROOM_TEMP,
        base_level=72.0,
        daily_amplitude=2.0,
        noise_std=0.45,
        clamp=(55.0, 90.0),
        level_jitter=1.2,
    ),
    TypeProfile(
        SensorType.SETPOINT,
        base_level=58.0,
        clamp=(50.0, 90.0),
        level_jitter=1.5,
        step_rate_per_day=0.0,
        step_levels=(55.0, 58.0, 61.0),
    ),
    TypeProfile(
        SensorType.AIR_VOLUME,
        base_level=200.0,
        noise_std=20.0,
        clamp=(0.0, 1600.0),
        level_jitter=20.0,
        switch_rate_per_day=4.0,
        high_level=1100.0,
    ),
    TypeProfile(
        SensorType.OTHER_TEMP,
        base_level=82.0,
        daily_amplitude=2.5,
        noise_std=2.5,
        clamp=(32.0, 150.0),
        level_jitter=1.5,
        high_level=115.0,
        band_split=True,
    ),
)

# Second-building shift: every type keeps its identity but moves a little,
# the way two real buildings' calibrations and climates differ.
BUILDING_B_SHIFT: dict[SensorType, tuple[float, float]] = {
    SensorType.CO2: (60.0, 1.15),
    SensorType.HUMIDITY: (6.0, 1.2),
    SensorType.ROOM_TEMP: (1.5, 1.25),
    SensorType.SETPOINT: (2.0, 1.0),
    SensorType.AIR_VOLUME: (80.0, 1.1),
    SensorType.OTHER_TEMP: (4.0, 1.1),
}


@dataclass(frozen=True)
class CorpusSpec:
    name: str = "default"
    seed: int = 0
    traces_per_type: int = 20
    duration_s: float = 7 * DAY_S
    interval_s: float = 60.0
    profiles: tuple[TypeProfile, ...] = DEFAULT_PROFILES
    climate_shift: tuple[tuple[SensorType, float, float], ...] = ()


def apply_climate_shift(
    profile: TypeProfile, offset: float, scale: float
) -> TypeProfile:
    """Shift a profile's levels by offset and scale its dynamic amplitudes."""
    return dataclasses.replace(
        profile,
        base_level=profile.base_level + offset,
        high_level=None if profile.high_level is None else profile.high_level + offset,
        step_levels=tuple(lv + offset for lv in profile.step_levels),
        clamp=(profile.clamp[0] + offset, profile.clamp[1] + offset),
        daily_amplitude=profile.daily_amplitude * scale,
        burst_height=profile.burst_height * scale,
    )


def effective_profiles(spec: CorpusSpec) -> tuple[TypeProfile, ...]:
    shift = {st: (off, sc) for st, off, sc in spec.climate_shift}
    out = []
    for prof in spec.profiles:
        if prof.sensor_type in shift:
            off, sc = shift[prof.sensor_type]
            prof = apply_climate_shift(prof, off, sc)
        out.append(prof)
    return tuple(out)


def generate_trace(
    profile: TypeProfile,
    duration_s: float,
    interval_s: float,
    seed: int | np.random.SeedSequence,
    trace_id: str,
) -> SensorTrace:
    """Generate one trace. Pure function of its arguments.

    Draw order from the trace's generator: (1) level jitter, (2) sinusoid
    phase, (3) band pick if band_split, (4) event draws for whichever
    event model the profile enables, (5) the noise vector.
    """
    if isinstance(seed, np.random.SeedSequence):
        rng = np.random.Generator(np.random.PCG64(seed))
    else:
        rng = seeding.generator(int(seed))
    n = int(duration_s // interval_s) + 1
    t = np.arange(n) * float(interval_s)
    days = duration_s / DAY_S

    jitter = float(rng.uniform(-profile.level_jitter, profile.level_jitter))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    base = profile.base_level + jitter
    if profile.band_split and profile.high_level is not None:
        if rng.random() < 0.5:
            base = profile.high_level + jitter

    values = np.full(n, base)
    if profile.daily_amplitude != 0.0:
        omega = 2.0 * math.pi / (profile.period_days * DAY_S)
        values = values + profile.daily_amplitude * np.sin(omega * t + phase)

    if profile.burst_rate_per_day > 0.0:
        count = int(rng.poisson(profile.burst_rate_per_day * days))
        starts = rng.uniform(0.0, duration_s, count)
        lengths = profile.burst_minutes * 60.0 * rng.uniform(0.5, 2.0, count)
        heights = profile.burst_height * rng.uniform(0.6, 1.4, count)
        for s, ln, h in zip(starts, lengths, heights):
            values = values + np.where((t >= s) & (t < s + ln), h, 0.0)

    if profile.step_levels:
        count = int(rng.poisson(profile.step_rate_per_day * days))
        times = np.sort(rng.uniform(0.0, duration_s, count))
        levels = rng.choice(len(profile.step_levels), size=count + 1)
        segment = np.searchsorted(times, t, side="right")
        values = np.array(profile.step_levels)[levels][segment] + jitter

    if profile.switch_rate_per_day > 0.0 and profile.high_level is not None:
        count = int(rng.poisson(profile.switch_rate_per_day * days))
        times = np.sort(rng.uniform(0.0, duration_s, count))
        start_high = bool(rng.random() < 0.5)
        segment = np.searchsorted(times, t, side="right")
        high = (segment % 2 == 0) == start_high
        values = np.where(high, profile.high_level + jitter, base)

    if profile.noise_std > 0.0:
        values = values + rng.normal(0.0, profile.noise_std, n)

    values = np.clip(values, profile.clamp[0], profile.clamp[1])
    return _from_arrays(trace_id, t, values, profile.sensor_type)


def generate_corpus(spec: CorpusSpec) -> list[SensorTrace]:
    """All traces of a corpus, grouped by type, ids '<name>-<type>-<idx>'."""
    traces = []
    for profile in effective_profiles(spec):
        code = int(profile.sensor_type)
        for index in range(spec.traces_per_type):
            ss = seeding.seed_sequence(spec.seed, _CORPUS_TAG, code, index)
            tid = f"{spec.name}-{profile.sensor_type.label}-{index:03d}"
            traces.append(
                generate_trace(profile, spec.duration_s, spec.interval_s, ss, tid)
            )
    return traces


# --- presets -------------------------------------------------------------------


def _overlap_profiles() -> tuple[TypeProfile, ...]:
    """Humidity re-leveled into the room-temperature band.

    The two classes end up with matching whole-trace medians and matched
    whole-trace variance on average; what still separates them is pace.
    Room temperature moves daily with measurement noise, the re-leveled
    humidity drifts over multiple days almost noiselessly, so windowed
    variances differ by orders of magnitude while whole-trace statistics
    collide.
    """
    room = next(p for p in DEFAULT_PROFILES if p.sensor_type == SensorType.ROOM_TEMP)
    slow_noise = 0.05
    amp = math.sqrt(
        2.0 * (room.daily_amplitude**2 / 2.0 + room.noise_std**2 - slow_noise**2)
    )
    out = []
    for prof in DEFAULT_PROFILES:
        if prof.sensor_type == SensorType.HUMIDITY:
            prof = dataclasses.replace(
                prof,
                base_level=room.base_level,
                daily_amplitude=amp,
                noise_std=slow_noise,
                level_jitter=room.level_jitter,
                period_days=3.5,
                clamp=room.clamp,
            )
        out.append(prof)
    return tuple(out)


def _confusable_profiles() -> tuple[TypeProfile, ...]:
    """The generic-temperature class dressed as return-air temperature.

    Return-air runs a degree or so warm of the room with similar daily
    swing and noise, which makes the pair genuinely confusable rather
    than separable by level alone.
    """
    out = []
    for prof in DEFAULT_PROFILES:
        if prof.sensor_type == SensorType.OTHER_TEMP:
            prof = dataclasses.replace(
                prof,
                base_level=73.0,
                daily_amplitude=2.2,
                noise_std=0.5,
                level_jitter=1.2,
                high_level=None,
                band_split=False,
                clamp=(55.0, 90.0),
            )
        out.append(prof)
    return tuple(out)


def preset_spec(name: str, seed: int = 0, traces_per_type: int = 20) -> CorpusSpec:
    """A shipped corpus preset.

    "default"     six types in their natural bands
    "building-b"  the default corpus under the second-building shift
    "overlap"     humidity re-leveled into the temperature band, where
                  whole-trace statistics collide and windowed ones do not
    "confusable"  generic temperature dressed as return air, the hardest
                  pair for the classifier

    Raises InvalidSpec for an unknown name or a traces_per_type below 1.
    """
    n = traces_per_type
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidSpec("traces_per_type", f"expected a positive integer, got {n!r}")
    base = CorpusSpec(name=name, seed=seed, traces_per_type=n)
    if name == "default":
        return base
    if name == "building-b":
        shift = tuple((st, off, sc) for st, (off, sc) in BUILDING_B_SHIFT.items())
        return dataclasses.replace(base, climate_shift=shift)
    if name == "overlap":
        return dataclasses.replace(base, profiles=_overlap_profiles())
    if name == "confusable":
        return dataclasses.replace(base, profiles=_confusable_profiles())
    raise InvalidSpec("preset", f"unknown preset {name!r}")


PRESET_NAMES = ("default", "building-b", "overlap", "confusable")


# --- spec files ----------------------------------------------------------------

_SPEC_KEYS = {
    "preset", "name", "seed", "traces_per_type", "duration_s", "interval_s",
    "climate_shift", "profiles",
}
_PROFILE_FIELDS = {f.name for f in dataclasses.fields(TypeProfile)} - {"sensor_type"}


def _spec_number(key: str, value, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpec(key, f"expected a number, got {value!r}")
    return kind(value)


def load_corpus_spec(path: str | Path) -> CorpusSpec:
    """Parse a JSON corpus spec file. See the module docstring for keys."""
    try:
        text = read_utf8(Path(path)).decode("utf-8")
    except DataError as exc:  # the spec is configuration: exit 2, not 3
        raise InvalidSpec("<file>", str(exc)) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec("<file>", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec("<file>", "spec must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise InvalidSpec(sorted(unknown)[0], "unknown key")
    spec = preset_spec(str(doc.get("preset", "default")),
                       traces_per_type=doc.get("traces_per_type", CorpusSpec.traces_per_type))
    if "name" in doc:
        if not isinstance(doc["name"], str) or not doc["name"]:
            raise InvalidSpec("name", "expected a non-empty string")
        spec = dataclasses.replace(spec, name=doc["name"])
    elif "preset" not in doc:
        spec = dataclasses.replace(spec, name="custom")
    if "seed" in doc:
        if isinstance(doc["seed"], bool) or not isinstance(doc["seed"], int):
            raise InvalidSpec("seed", f"expected an integer, got {doc['seed']!r}")
        spec = dataclasses.replace(spec, seed=doc["seed"])
    if "duration_s" in doc:
        spec = dataclasses.replace(spec, duration_s=_spec_number("duration_s", doc["duration_s"]))
    if "interval_s" in doc:
        v = _spec_number("interval_s", doc["interval_s"])
        if v <= 0:
            raise InvalidSpec("interval_s", "must be positive")
        spec = dataclasses.replace(spec, interval_s=v)
    if "climate_shift" in doc:
        cs = doc["climate_shift"]
        if not isinstance(cs, dict):
            raise InvalidSpec("climate_shift", "expected an object keyed by type label")
        shift = []
        for label, entry in cs.items():
            try:
                st = SensorType.from_label(label)
            except Exception:
                raise InvalidSpec("climate_shift", f"unknown sensor type {label!r}") from None
            if not isinstance(entry, dict) or set(entry) - {"offset", "scale"}:
                raise InvalidSpec("climate_shift", f"{label}: expected offset/scale object")
            off = _spec_number("climate_shift.offset", entry.get("offset", 0.0))
            sc = _spec_number("climate_shift.scale", entry.get("scale", 1.0))
            shift.append((st, off, sc))
        spec = dataclasses.replace(spec, climate_shift=tuple(shift))
    if "profiles" in doc:
        pv = doc["profiles"]
        if not isinstance(pv, dict):
            raise InvalidSpec("profiles", "expected an object keyed by type label")
        by_type = {p.sensor_type: p for p in spec.profiles}
        for label, overrides in pv.items():
            try:
                st = SensorType.from_label(label)
            except Exception:
                raise InvalidSpec("profiles", f"unknown sensor type {label!r}") from None
            if not isinstance(overrides, dict):
                raise InvalidSpec("profiles", f"{label}: expected a field/value object")
            bad = set(overrides) - _PROFILE_FIELDS
            if bad:
                raise InvalidSpec(f"profiles.{label}.{sorted(bad)[0]}", "unknown profile field")
            fixed = dict(overrides)
            for tuple_field in ("clamp", "step_levels"):
                if tuple_field in fixed:
                    if not isinstance(fixed[tuple_field], list):
                        raise InvalidSpec(
                            f"profiles.{label}.{tuple_field}", "expected a list of numbers"
                        )
                    fixed[tuple_field] = tuple(
                        _spec_number(tuple_field, x) for x in fixed[tuple_field]
                    )
            try:
                by_type[st] = dataclasses.replace(by_type[st], **fixed)
            except TypeError as exc:
                raise InvalidSpec(f"profiles.{label}", str(exc)) from None
        spec = dataclasses.replace(spec, profiles=tuple(by_type[p.sensor_type] for p in spec.profiles))
    return spec
