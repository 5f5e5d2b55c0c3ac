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

A corpus spec is a JSON document with these keys, all optional:

    preset           a shipped preset to start from: "default",
                     "building-b", "overlap" or "confusable"; without it
                     the spec starts from the default profiles, named
                     "custom"
    name             corpus name and trace-id prefix (letters, digits,
                     "_", "." or "-")
    seed             master seed, an integer >= 0
    traces_per_type  an integer >= 1
    duration_s       trace length in seconds, > 0 and >= interval_s, at
                     most MAX_SAMPLES_PER_TRACE samples a trace, and at
                     most MAX_EVENTS_PER_TRACE expected bursts, steps or
                     switches a trace (rate x days)
    interval_s       sampling interval in seconds, > 0
    climate_shift    {"<type>": {"offset": x, "scale": y}, ...}; replaces
                     the preset's shift as a whole
    profiles         {"<type>": {<TypeProfile field>: value, ...}, ...};
                     each field replaces the preset's

Each preset in PRESETS (defined in the config module, which the CLI's
flag parser reads) is itself such a document (without "preset"), and
preset_spec(name, seed, n) reads {"preset": name, "seed": seed,
"traces_per_type": n}, so presets and spec files go through one reader.
Every value must have its field's type (an integer, a number, a string,
true/false, a number or null, or a list of numbers); numbers must be
finite (only a clamp bound may be infinite); rates, noise, jitter and
burst_minutes must be >= 0 and period_days > 0; a clamp (low, high) must
be ordered. Anything else raises InvalidSpec naming the key, and so does
a profile whose values overflow or that numpy cannot draw from (a
level_jitter of 1e308), when the corpus is generated.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it on first use: here, so a forked worker never does

from . import seeding
from .config import PRESET_NAMES, PRESETS  # noqa: F401  (PRESET_NAMES: synth's name too)
from .errors import DataError, InvalidSpec
from .trace import SensorTrace, SensorType, _from_arrays, read_utf8

DAY_S = 86400.0
# duration_s // interval_s + 1, the samples of one trace; a year at 1 s
# sampling is 3.2 times this. A synth process holds one trace at a time,
# and at this cap its two float arrays take 160 MB.
MAX_SAMPLES_PER_TRACE = 10_000_000
# rate x days, the expected bursts, steps or switches of one trace; each
# event is drawn and applied on its own.
MAX_EVENTS_PER_TRACE = 100_000
_EVENT_RATES = ("burst_rate_per_day", "step_rate_per_day", "switch_rate_per_day")
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
        # burst b covers the samples with starts[b] <= t < starts[b] + lengths[b]
        lo = np.searchsorted(t, starts, side="left")
        hi = np.searchsorted(t, starts + lengths, side="left")
        for a, b, h in zip(lo.tolist(), hi.tolist(), heights.tolist()):
            values[a:b] += h

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


def corpus_entries(spec: CorpusSpec) -> list[tuple[TypeProfile, int]]:
    """The (effective profile, index) of every trace of a corpus, grouped by
    type: the order of generate_corpus and of a manifest synth writes."""
    return [(profile, index) for profile in effective_profiles(spec)
            for index in range(spec.traces_per_type)]


def trace_id(spec: CorpusSpec, entry: tuple[TypeProfile, int]) -> str:
    """The id of an entry's trace: '<name>-<type>-<idx>'."""
    profile, index = entry
    return f"{spec.name}-{profile.sensor_type.label}-{index:03d}"


def generate_entry(spec: CorpusSpec, entry: tuple[TypeProfile, int]) -> SensorTrace:
    """The trace of one corpus entry, seeded at (seed, corpus tag, type, index)
    alone, so each trace can be made apart from the others.

    Raises InvalidSpec naming profiles.<type> when the profile's values
    overflow a float or are out of range for a numpy draw.
    """
    profile, index = entry
    ss = seeding.seed_sequence(spec.seed, _CORPUS_TAG, int(profile.sensor_type), index)
    tid = trace_id(spec, entry)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return generate_trace(profile, spec.duration_s, spec.interval_s, ss, tid)
    except (ArithmeticError, ValueError, DataError) as exc:
        raise InvalidSpec(f"profiles.{profile.sensor_type.label}",
                          f"cannot generate {tid}: {exc}") from None


def generate_corpus(spec: CorpusSpec) -> list[SensorTrace]:
    """All traces of a corpus, in corpus_entries order, each made by
    generate_entry, as the synth command makes them one at a time.

    Raises the first failing entry's InvalidSpec.
    """
    return [generate_entry(spec, entry) for entry in corpus_entries(spec)]


# --- spec documents ------------------------------------------------------------

_POSITIVE = {"traces_per_type", "duration_s", "interval_s", "period_days"}
_NON_NEGATIVE = {
    "seed", "noise_std", "level_jitter", "burst_rate_per_day", "burst_minutes",
    "step_rate_per_day", "switch_rate_per_day",
}


@dataclass(frozen=True)
class _Shift:
    """One type's climate_shift entry."""

    offset: float = 0.0
    scale: float = 1.0


def corpus_spec(doc: object, base: CorpusSpec = CorpusSpec(name="custom")) -> CorpusSpec:
    """The spec a document describes, layered over base or over its preset.

    Each value must have its field's type, and each field its range; any
    failure raises InvalidSpec naming the key. Keys replace base's values,
    except that profiles replace field by field.
    """
    if not isinstance(doc, dict):
        raise InvalidSpec("<file>", "spec must be a JSON object")
    if "preset" in doc:
        name = doc["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise InvalidSpec("preset", f"unknown preset {name!r}")
        base = corpus_spec(PRESETS[name], CorpusSpec(name=name))
    return _read(base, {k: v for k, v in doc.items() if k != "preset"}, "")


def _read(base, doc: object, prefix: str):
    """A copy of the dataclass base with doc's typed, range-checked fields."""
    if not isinstance(doc, dict):
        raise InvalidSpec(prefix[:-1], "expected an object")
    types = typing.get_type_hints(type(base))
    changes = {}
    for key, value in doc.items():
        where = prefix + key
        if key not in types or key == "sensor_type":
            raise InvalidSpec(where, "unknown key")
        if key == "profiles":
            by_type = {p.sensor_type: p for p in base.profiles}
            for st, entry, pre in _by_type(value, where):
                by_type[st] = _read(by_type[st], entry, pre)
            changes[key] = tuple(by_type[p.sensor_type] for p in base.profiles)
        elif key == "climate_shift":
            shifts = [(st, _read(_Shift(), e, pre)) for st, e, pre in _by_type(value, where)]
            changes[key] = tuple((st, sh.offset, sh.scale) for st, sh in shifts)
        else:
            changes[key] = _typed(where, value, types[key])
    out = dataclasses.replace(base, **changes)
    _check_ranges(out, prefix)
    return out


def _by_type(doc: object, where: str):
    """(type, entry, key prefix) for each entry of an object keyed by type label."""
    if not isinstance(doc, dict):
        raise InvalidSpec(where, "expected an object keyed by type label")
    for label, entry in doc.items():
        try:
            st = SensorType.from_label(label)
        except DataError:
            raise InvalidSpec(where, f"unknown sensor type {label!r}") from None
        yield st, entry, f"{where}.{label}."


def _typed(key: str, value: object, tp):
    """value as a field of type tp, or InvalidSpec naming key."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is float or tp == float | None:
        if value is None and tp is not float:
            return None
        if number:
            try:
                return float(value)
            except OverflowError:
                raise InvalidSpec(key, f"number out of range: {value}") from None
    elif tp in (int, str, bool):
        if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
            return value
    elif isinstance(value, list):  # tuple[float, ...] or a fixed-length tuple[float, ...]
        shape = typing.get_args(tp)
        if shape[-1] is Ellipsis or len(value) == len(shape):
            return tuple(_typed(key, x, float) for x in value)
    raise InvalidSpec(key, f"expected {tp.__name__ if isinstance(tp, type) else tp}, got {value!r}")


def _check_ranges(spec, prefix: str) -> None:
    """NaN nowhere, infinity only in clamp, and each field's own bound."""
    for field in dataclasses.fields(spec):
        key, value = prefix + field.name, getattr(spec, field.name)
        numbers = [x for x in (value if isinstance(value, tuple) else (value,))
                   if isinstance(x, float)]
        if any(math.isnan(x) or math.isinf(x) and field.name != "clamp" for x in numbers):
            raise InvalidSpec(key, f"must be finite, got {value!r}")
        if field.name in _POSITIVE and not value > 0:
            raise InvalidSpec(key, f"must be > 0, got {value!r}")
        if field.name in _NON_NEGATIVE and not value >= 0:
            raise InvalidSpec(key, f"must be >= 0, got {value!r}")
    if isinstance(spec, TypeProfile) and not spec.clamp[0] <= spec.clamp[1]:
        raise InvalidSpec(prefix + "clamp", f"must be ordered (low, high), got {spec.clamp!r}")
    if isinstance(spec, CorpusSpec):
        if not re.fullmatch(r"[\w.-]+", spec.name):
            raise InvalidSpec(prefix + "name", "expected letters, digits, '_', '.' or '-'")
        if spec.duration_s < spec.interval_s:
            raise InvalidSpec(prefix + "duration_s", "must cover at least one interval_s")
        if spec.duration_s // spec.interval_s + 1 > MAX_SAMPLES_PER_TRACE:
            raise InvalidSpec(prefix + "duration_s",
                              f"more than {MAX_SAMPLES_PER_TRACE:,} samples per trace")
        days = spec.duration_s / DAY_S
        for profile in spec.profiles:
            for rate in _EVENT_RATES:
                if getattr(profile, rate) * days > MAX_EVENTS_PER_TRACE:
                    raise InvalidSpec(
                        f"{prefix}profiles.{profile.sensor_type.label}.{rate}",
                        f"{getattr(profile, rate):g} a day over {days:g} days is more than "
                        f"{MAX_EVENTS_PER_TRACE:,} events per trace")


def preset_spec(name: str, seed: int = 0, traces_per_type: int = 20) -> CorpusSpec:
    """A shipped preset (a name in PRESETS) at the given seed and size.

    Raises InvalidSpec for an unknown name or a traces_per_type below 1.
    """
    return corpus_spec({"preset": name, "seed": seed, "traces_per_type": traces_per_type})


def load_corpus_spec(path: str | Path) -> CorpusSpec:
    """Read a JSON spec file. See the module docstring for its keys."""
    try:
        text = read_utf8(Path(path)).decode("utf-8")
    except DataError as exc:  # the spec is configuration: exit 2, not 3
        raise InvalidSpec("<file>", str(exc)) from None
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InvalidSpec("<file>", f"not valid JSON: {exc}") from None
    return corpus_spec(doc)
