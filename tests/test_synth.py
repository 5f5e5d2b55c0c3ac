"""Synthetic corpus generator: profiles, presets, spec files, determinism."""

import dataclasses
import errno
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from sensorclass import cli, reporting
from sensorclass.cli import EXIT_CONFIG, EXIT_OK, main
from sensorclass.errors import InvalidSpec
from sensorclass.features import extract
from sensorclass.synth import (
    DEFAULT_PROFILES,
    MAX_EVENTS_PER_TRACE,
    MAX_SAMPLES_PER_TRACE,
    PRESET_NAMES,
    PRESETS,
    CorpusSpec,
    TypeProfile,
    apply_climate_shift,
    corpus_spec,
    effective_profiles,
    generate_corpus,
    generate_trace,
    load_corpus_spec,
    preset_spec,
)
from sensorclass.reporting import read_manifest
from sensorclass.trace import SensorType, write_trace_csv

TWO_DAYS = 2 * 86400.0


def profile_for(sensor_type, profiles=DEFAULT_PROFILES):
    return next(p for p in profiles if p.sensor_type == sensor_type)


# --- generate_trace ----------------------------------------------------------


def test_trace_is_a_pure_function_of_its_arguments():
    p = profile_for(SensorType.CO2)
    a = generate_trace(p, TWO_DAYS, 60.0, 7, "x")
    b = generate_trace(p, TWO_DAYS, 60.0, 7, "x")
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_trace_changes_with_seed():
    p = profile_for(SensorType.CO2)
    a = generate_trace(p, TWO_DAYS, 60.0, 7, "x")
    b = generate_trace(p, TWO_DAYS, 60.0, 8, "x")
    assert not np.array_equal(a.values, b.values)


def test_trace_grid_and_label():
    p = profile_for(SensorType.HUMIDITY)
    tr = generate_trace(p, 3600.0, 60.0, 0, "h")
    assert len(tr.timestamps) == 61
    assert tr.timestamps[0] == 0.0 and tr.timestamps[-1] == 3600.0
    assert np.array_equal(np.diff(tr.timestamps), np.full(60, 60.0))
    assert tr.label is SensorType.HUMIDITY


def test_values_respect_the_clamp():
    for p in DEFAULT_PROFILES:
        tr = generate_trace(p, TWO_DAYS, 60.0, 3, "c")
        assert tr.values.min() >= p.clamp[0]
        assert tr.values.max() <= p.clamp[1]


def test_setpoint_traces_are_constant():
    p = profile_for(SensorType.SETPOINT)
    for seed in range(5):
        tr = generate_trace(p, TWO_DAYS, 60.0, seed, f"sp-{seed}")
        c = tr.values[0]
        assert (tr.values == c).all()
        fv = extract(tr, 2700.0, "rich8")
        assert fv.values.tolist() == [c, c, c, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_co2_bursts_move_window_statistics():
    p = profile_for(SensorType.CO2)
    tr = generate_trace(p, TWO_DAYS, 60.0, 7, "co2")
    fv = extract(tr, 2700.0, "rich8")
    assert fv.values[3] > 100.0  # window medians spread by bursts
    assert fv.values[5] > 10.0 * fv.values[4]  # burst windows dwarf quiet ones


def test_air_volume_occupies_both_bands():
    p = profile_for(SensorType.AIR_VOLUME)
    tr = generate_trace(p, TWO_DAYS, 60.0, 0, "av")
    assert (tr.values < 600.0).sum() > 100
    assert (tr.values > 600.0).sum() > 100


def test_other_temp_band_split_across_seeds():
    p = profile_for(SensorType.OTHER_TEMP)
    medians = [
        float(np.median(generate_trace(p, TWO_DAYS, 60.0, s, f"ot-{s}").values))
        for s in range(10)
    ]
    assert any(m < 90.0 for m in medians)
    assert any(m > 110.0 for m in medians)


# --- generate_corpus ---------------------------------------------------------


def test_corpus_counts_and_ids():
    spec = preset_spec("default", seed=42)
    traces = generate_corpus(spec)
    assert len(traces) == 120
    counts = Counter(tr.label for tr in traces)
    assert all(counts[st] == 20 for st in SensorType)
    assert traces[0].trace_id == "default-co2-000"
    assert traces[-1].trace_id == "default-other_temp-019"
    assert len({tr.trace_id for tr in traces}) == 120


def test_corpus_deterministic(small_corpus):
    again = generate_corpus(CorpusSpec(name="unit", seed=11, traces_per_type=3,
                                       duration_s=TWO_DAYS))
    assert len(again) == len(small_corpus)
    for a, b in zip(small_corpus, again):
        assert a.trace_id == b.trace_id and a.label == b.label
        assert np.array_equal(a.values, b.values)


def test_corpus_seed_changes_values(small_corpus):
    other = generate_corpus(CorpusSpec(name="unit", seed=12, traces_per_type=3,
                                       duration_s=TWO_DAYS))
    assert not np.array_equal(small_corpus[0].values, other[0].values)


def test_corpus_traces_independent_of_count():
    # adding traces must not reshuffle the ones already generated
    small = generate_corpus(CorpusSpec(name="n", seed=5, traces_per_type=1,
                                       duration_s=TWO_DAYS))
    big = generate_corpus(CorpusSpec(name="n", seed=5, traces_per_type=2,
                                     duration_s=TWO_DAYS))
    by_id = {tr.trace_id: tr for tr in big}
    for tr in small:
        assert np.array_equal(tr.values, by_id[tr.trace_id].values)


# --- climate shift -----------------------------------------------------------


def test_apply_climate_shift_field_semantics():
    p = TypeProfile(
        SensorType.CO2,
        base_level=100.0,
        daily_amplitude=10.0,
        noise_std=5.0,
        clamp=(0.0, 200.0),
        level_jitter=2.0,
        burst_rate_per_day=3.0,
        burst_height=50.0,
        step_levels=(1.0, 2.0),
        high_level=150.0,
    )
    q = apply_climate_shift(p, offset=10.0, scale=2.0)
    assert q.base_level == 110.0
    assert q.high_level == 160.0
    assert q.step_levels == (11.0, 12.0)
    assert q.clamp == (10.0, 210.0)
    assert q.daily_amplitude == 20.0
    assert q.burst_height == 100.0
    # dynamics and noise keep their meaning
    assert q.noise_std == 5.0
    assert q.level_jitter == 2.0
    assert q.burst_rate_per_day == 3.0
    assert q.sensor_type is SensorType.CO2


def test_apply_climate_shift_keeps_missing_high_level():
    p = profile_for(SensorType.HUMIDITY)
    assert apply_climate_shift(p, 5.0, 1.1).high_level is None


def test_effective_profiles_shift_only_named_types():
    spec = CorpusSpec(climate_shift=((SensorType.ROOM_TEMP, 1.5, 1.25),))
    effective = effective_profiles(spec)
    room = profile_for(SensorType.ROOM_TEMP, effective)
    assert room.base_level == 73.5
    assert room.daily_amplitude == 2.5
    for st in SensorType:
        if st is not SensorType.ROOM_TEMP:
            assert profile_for(st, effective) == profile_for(st)


# --- presets -------------------------------------------------------------------


def test_preset_names_all_load():
    for name in PRESET_NAMES:
        spec = preset_spec(name, seed=1, traces_per_type=2)
        assert spec.name == name and spec.seed == 1
        assert len(generate_corpus(spec)) == 12


def test_unknown_preset_rejected():
    with pytest.raises(InvalidSpec):
        preset_spec("atrium")


@pytest.mark.parametrize("n", [0, -3])
def test_preset_needs_a_positive_trace_count(n):
    with pytest.raises(InvalidSpec):
        preset_spec("default", traces_per_type=n)


def test_building_b_preset_carries_the_shift():
    spec = preset_spec("building-b")
    shift = {st.label: {"offset": o, "scale": s} for st, o, s in spec.climate_shift}
    assert shift == PRESETS["building-b"]["climate_shift"]
    co2 = profile_for(SensorType.CO2, effective_profiles(spec))
    assert co2.base_level == 480.0
    assert co2.clamp == (410.0, 2060.0)
    assert co2.burst_height == pytest.approx(150.0 * 1.15)


def test_overlap_preset_collides_on_whole_trace_stats():
    spec = preset_spec("overlap", seed=3, traces_per_type=2)
    traces = generate_corpus(spec)
    hum = [np.median(t.values) for t in traces if t.label is SensorType.HUMIDITY]
    room = [np.median(t.values) for t in traces if t.label is SensorType.ROOM_TEMP]
    # re-leveled humidity sits inside the room-temperature band
    assert all(60.0 < m < 85.0 for m in hum + room)


# --- spec files ------------------------------------------------------------------


def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_spec_round_trip(tmp_path):
    doc = {"preset": "overlap", "seed": 9, "traces_per_type": 4,
           "duration_s": 86400, "interval_s": 30}
    spec = load_corpus_spec(write_spec(tmp_path, doc))
    assert spec.name == "overlap"
    assert spec.seed == 9
    assert spec.traces_per_type == 4
    assert spec.duration_s == 86400.0
    assert spec.interval_s == 30.0
    assert spec.profiles == preset_spec("overlap").profiles


def test_load_spec_defaults_to_custom_name(tmp_path):
    assert load_corpus_spec(write_spec(tmp_path, {})).name == "custom"
    assert load_corpus_spec(write_spec(tmp_path, {"name": "lab"})).name == "lab"


def test_load_spec_unknown_key_is_named(tmp_path):
    with pytest.raises(InvalidSpec, match="windows"):
        load_corpus_spec(write_spec(tmp_path, {"windows": 5}))


def test_load_spec_type_errors(tmp_path):
    for doc in (
        {"seed": True},
        {"seed": "forty-two"},
        {"traces_per_type": 0},
        {"interval_s": 0},
        {"duration_s": "long"},
        {"name": ""},
    ):
        with pytest.raises(InvalidSpec):
            load_corpus_spec(write_spec(tmp_path, doc))


def test_synth_spec_with_a_repeated_key_exits_config(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"preset": "default", "traces_per_type": 1, "seed": 5, "seed": 6}')
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "repeated key 'seed'" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_load_spec_rejects_non_object(tmp_path):
    with pytest.raises(InvalidSpec):
        load_corpus_spec(write_spec(tmp_path, [1, 2]))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidSpec):
        load_corpus_spec(bad)


def test_load_spec_climate_shift(tmp_path):
    doc = {"climate_shift": {"room_temp": {"offset": 3.0}}}
    spec = load_corpus_spec(write_spec(tmp_path, doc))
    assert spec.climate_shift == ((SensorType.ROOM_TEMP, 3.0, 1.0),)
    with pytest.raises(InvalidSpec):
        load_corpus_spec(write_spec(tmp_path, {"climate_shift": {"attic": {}}}))
    with pytest.raises(InvalidSpec):
        load_corpus_spec(
            write_spec(tmp_path, {"climate_shift": {"co2": {"offset": 0, "blur": 1}}})
        )


def test_load_spec_profile_overrides(tmp_path):
    doc = {"profiles": {"co2": {"noise_std": 2.0, "clamp": [0, 100]}}}
    spec = load_corpus_spec(write_spec(tmp_path, doc))
    co2 = profile_for(SensorType.CO2, spec.profiles)
    assert co2.noise_std == 2.0
    assert co2.clamp == (0.0, 100.0)
    assert co2.burst_rate_per_day == 5.0  # untouched fields survive
    assert profile_for(SensorType.HUMIDITY, spec.profiles) == profile_for(SensorType.HUMIDITY)


def test_load_spec_profile_field_errors(tmp_path):
    with pytest.raises(InvalidSpec, match="burst"):
        load_corpus_spec(write_spec(tmp_path, {"profiles": {"co2": {"burst": 1}}}))
    with pytest.raises(InvalidSpec):
        load_corpus_spec(write_spec(tmp_path, {"profiles": {"co2": {"clamp": 5}}}))
    with pytest.raises(InvalidSpec):
        load_corpus_spec(write_spec(tmp_path, {"profiles": {"porch": {}}}))
    with pytest.raises(InvalidSpec):
        load_corpus_spec(write_spec(tmp_path, {"profiles": [1]}))


def test_presets_are_spec_documents(tmp_path):
    for name, doc in PRESETS.items():
        assert "preset" not in doc
        assert json.loads(json.dumps(doc)) == doc  # a document a spec file could hold
        from_file = load_corpus_spec(write_spec(tmp_path, {"preset": name, "seed": 3}))
        assert from_file == preset_spec(name, seed=3)


def test_spec_profiles_layer_over_the_preset_and_shift_replaces_it(tmp_path):
    doc = {"preset": "confusable", "profiles": {"other_temp": {"noise_std": 0.7}},
           "climate_shift": {"co2": {"scale": 2.0}}}
    spec = load_corpus_spec(write_spec(tmp_path, doc))
    other = profile_for(SensorType.OTHER_TEMP, spec.profiles)
    confusable = profile_for(SensorType.OTHER_TEMP, preset_spec("confusable").profiles)
    assert other == dataclasses.replace(confusable, noise_std=0.7)
    assert spec.climate_shift == ((SensorType.CO2, 0.0, 2.0),)
    b = load_corpus_spec(write_spec(tmp_path, {"preset": "building-b", **doc}))
    assert b.climate_shift == ((SensorType.CO2, 0.0, 2.0),)


def test_corpus_spec_over_a_base_keeps_its_name():
    spec = corpus_spec({"seed": 8}, preset_spec("overlap", seed=1, traces_per_type=2))
    assert (spec.name, spec.seed, spec.traces_per_type) == ("overlap", 8, 2)
    with pytest.raises(InvalidSpec, match="seed"):
        corpus_spec({"seed": -1}, spec)


# Spec files that ended in a traceback, were accepted as written, or
# exited as a data error before every value was checked against its field.
PROBE_SPECS = [
    ("duration_s", {"duration_s": math.nan}),
    ("duration_s", {"duration_s": math.inf}),
    ("duration_s", {"duration_s": -60}),
    ("interval_s", {"interval_s": math.nan}),
    ("profiles.humidity.period_days", {"profiles": {"humidity": {"period_days": 0}}}),
    ("profiles.co2.noise_std", {"profiles": {"co2": {"noise_std": "a"}}}),
    ("profiles.co2.clamp", {"profiles": {"co2": {"clamp": [0]}}}),
    ("profiles.co2.level_jitter", {"profiles": {"co2": {"level_jitter": math.nan}}}),
    ("profiles.setpoint.step_rate_per_day", {"profiles": {"setpoint": {"step_rate_per_day": -1}}}),
    ("profiles.other_temp.band_split", {"profiles": {"other_temp": {"band_split": "yes"}}}),
    ("profiles.co2.high_level", {"profiles": {"co2": {"high_level": "a"}}}),
    ("profiles.co2.clamp", {"profiles": {"co2": {"clamp": [100, 0]}}}),
    ("climate_shift.co2.scale", {"climate_shift": {"co2": {"scale": math.nan}}}),
]


@pytest.mark.parametrize("key,doc", PROBE_SPECS, ids=[json.dumps(d) for _, d in PROBE_SPECS])
def test_probe_spec_exits_config_naming_its_key(tmp_path, capsys, key, doc):
    spec = write_spec(tmp_path, {"traces_per_type": 1, "duration_s": 86400, **doc})
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: corpus spec key '{key}': ") and err.count("\n") == 1
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("key,doc", [
    ("seed", {"seed": -1}),
    ("name", {"name": "a/b"}),
    ("duration_s", {"duration_s": 30}),  # one sample per trace
    ("duration_s", {"duration_s": 10**400}),
    ("profiles.co2.noise_std", {"profiles": {"co2": {"noise_std": -1}}}),
    ("profiles.co2.noise_std", {"profiles": {"co2": {"noise_std": math.inf}}}),
    ("profiles.co2.base_level", {"profiles": {"co2": {"base_level": None}}}),
    ("profiles.co2.sensor_type", {"profiles": {"co2": {"sensor_type": 1}}}),
    ("profiles.co2.step_levels", {"profiles": {"co2": {"step_levels": [1, True]}}}),
    ("climate_shift.co2", {"climate_shift": {"co2": 5}}),
    ("preset", {"preset": ["default"]}),
])
def test_spec_value_out_of_type_or_range(tmp_path, key, doc):
    with pytest.raises(InvalidSpec) as info:
        load_corpus_spec(write_spec(tmp_path, doc))
    assert info.value.key == key


# Finite values generation cannot use: a draw numpy refuses, a sum that
# overflows, 16.7 billion samples or a trillion events a trace.
HUGE_SPECS = [
    ("profiles.co2", {"profiles": {"co2": {"level_jitter": 1e308}}}),
    ("profiles.co2.burst_rate_per_day", {"profiles": {"co2": {"burst_rate_per_day": 1e300}}}),
    ("profiles.co2.burst_rate_per_day", {"profiles": {"co2": {"burst_rate_per_day": 1e12}}}),
    ("profiles.setpoint.step_rate_per_day", {"profiles": {"setpoint": {"step_rate_per_day": 1e12}}}),
    ("profiles.air_volume.switch_rate_per_day",
     {"profiles": {"air_volume": {"switch_rate_per_day": 1e12}}}),
    ("profiles.humidity", {"profiles": {"humidity": {
        "base_level": 1.7e308, "daily_amplitude": 1e308, "clamp": [-math.inf, math.inf]}}}),
    ("duration_s", {"duration_s": 1e12}),
]


@pytest.mark.parametrize("key,doc", HUGE_SPECS, ids=[json.dumps(d) for _, d in HUGE_SPECS])
def test_huge_spec_value_exits_config_naming_its_key(tmp_path, capsys, key, doc):
    spec = write_spec(tmp_path, {"traces_per_type": 1, "duration_s": 86400, **doc})
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: corpus spec key '{key}': ") and err.count("\n") == 1, err
    assert not out.exists()


def test_spec_sample_cap_is_inclusive():
    at_cap = {"interval_s": 1.0, "duration_s": MAX_SAMPLES_PER_TRACE - 1.0}
    assert corpus_spec(at_cap).duration_s == MAX_SAMPLES_PER_TRACE - 1.0
    with pytest.raises(InvalidSpec) as info:
        corpus_spec(dict(at_cap, duration_s=float(MAX_SAMPLES_PER_TRACE)))
    assert info.value.key == "duration_s"


def test_spec_event_cap_is_inclusive():
    # two days: the expected events of a trace are twice the daily rate
    at_cap = {"duration_s": 2 * 86400.0,
              "profiles": {"co2": {"burst_rate_per_day": MAX_EVENTS_PER_TRACE / 2}}}
    assert corpus_spec(at_cap).duration_s == 2 * 86400.0
    with pytest.raises(InvalidSpec) as info:
        corpus_spec(dict(at_cap, duration_s=2 * 86400.0 + 1.0))
    assert info.value.key == "profiles.co2.burst_rate_per_day"


def test_spec_clamp_may_be_infinite(tmp_path):
    doc = {"profiles": {"co2": {"clamp": [-math.inf, math.inf]}}}
    spec = load_corpus_spec(write_spec(tmp_path, doc))
    assert profile_for(SensorType.CO2, spec.profiles).clamp == (-math.inf, math.inf)


def test_synth_seed_flag_is_checked_like_a_spec_seed(tmp_path, capsys):
    spec = write_spec(tmp_path, {"traces_per_type": 1, "duration_s": 3600})
    capsys.readouterr()
    rc = main(["synth", "--spec", str(spec), "--seed", "-1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: corpus spec key 'seed': ")


def test_synth_flags_layer_over_a_spec(tmp_path):
    spec = write_spec(tmp_path, {"name": "layered", "traces_per_type": 1, "duration_s": 3600})
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(spec), "--traces-per-type", "3", "--seed", "4",
                 "--out", str(out)]) == EXIT_OK
    entries, meta = read_manifest(out / "manifest.csv")
    assert Counter(label for _, _, label in entries) == {t: 3 for t in SensorType}
    assert (meta["corpus"], meta["traces_per_type"], meta["seed"]) == ("layered", "3", "4")


def test_synth_preset_and_spec_are_exclusive(tmp_path, capsys):
    spec = write_spec(tmp_path, {"traces_per_type": 1, "duration_s": 3600})
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--preset", "building-b", "--spec", str(spec),
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- synth on every usable CPU, all or nothing -------------------------------

SMALL_SPEC = {"traces_per_type": 3, "duration_s": 86400}
# other_temp is the last type, so its traces fail after every other type's are written
LAST_TYPE_FAILS = {**SMALL_SPEC, "profiles": {"other_temp": {"level_jitter": 1e308}}}


def tree_bytes(root):
    """Every file under root, by its path relative to root, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_synth_writes_the_same_bytes_on_one_and_two_workers(tmp_path, workers):
    spec = write_spec(tmp_path, SMALL_SPEC)
    trees = {}
    for cpus in (1, 2):
        started = workers(cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["synth", "--spec", str(spec), "--seed", "42", "--out", str(out)]) == EXIT_OK
        assert len(started) == (0 if cpus == 1 else 2)
        trees[cpus] = tree_bytes(out)
    assert len(trees[1]) == 3 * len(SensorType) + 1  # the traces and the manifest
    assert trees[1] == trees[2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_synth_whose_last_type_fails_leaves_no_output(tmp_path, monkeypatch, capsys, workers,
                                                      cpus):
    spec = write_spec(tmp_path, LAST_TYPE_FAILS)
    with pytest.raises(InvalidSpec) as info:
        generate_corpus(load_corpus_spec(spec))
    log = tmp_path / "writes.log"  # each path written, appended to by the workers too

    def write(trace, path):
        write_trace_csv(trace, path)
        with open(log, "a") as fh:
            fh.write(f"{path}\n")

    monkeypatch.setattr(cli, "write_trace_csv", write)
    out = tmp_path / "new" / "corpus"
    started = workers(cpus)
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert len(started) == (0 if cpus == 1 else 2)
    assert len(log.read_text().splitlines()) == 3 * (len(SensorType) - 1)  # all before other_temp
    assert not (tmp_path / "new").exists()  # nor the directory --out was made in


@pytest.mark.parametrize("cpus", [1, 2])
def test_synth_that_fails_keeps_an_older_corpus_in_its_out_dir(tmp_path, capsys, workers, cpus):
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(write_spec(tmp_path, SMALL_SPEC)), "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    before = tree_bytes(out)
    workers(cpus)
    capsys.readouterr()
    rc = main(["synth", "--spec", str(write_spec(tmp_path, LAST_TYPE_FAILS)), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: corpus spec key 'profiles.other_temp': ")
    assert tree_bytes(out) == before  # the same names, each with its old bytes; no .partial


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("k", [0, 7, 17])
def test_synth_failing_a_trace_write_names_the_output_path(tmp_path, monkeypatch, capsys,
                                                           workers, k, cpus):
    spec = write_spec(tmp_path, SMALL_SPEC)
    failing = f"custom-{SensorType(k // 3).label}-{k % 3:03d}.csv"  # the k-th trace's file

    def write(trace, path):
        if path.endswith(f"{failing}.partial"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        write_trace_csv(trace, path)

    monkeypatch.setattr(cli, "write_trace_csv", write)
    workers(cpus)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: cannot write {out / 'traces' / failing}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")
    assert not out.exists()


@pytest.mark.parametrize("cpus, module, name, nth", [
    (1, cli, "write_trace_csv", 8),  # on the serial path
    (2, reporting, "write_manifest", 1),  # once the workers have written every trace
], ids=["trace-write", "manifest-write-after-two-workers"])
def test_synth_interrupted_exits_130_and_leaves_nothing(tmp_path, monkeypatch, capsys, workers,
                                                        cpus, module, name, nth):
    spec = write_spec(tmp_path, SMALL_SPEC)
    calls = []
    real = getattr(module, name)

    def interrupted(*args):
        calls.append(args)
        if len(calls) == nth:
            raise KeyboardInterrupt
        real(*args)

    monkeypatch.setattr(module, name, interrupted)
    started = workers(cpus)
    out = tmp_path / "new" / "corpus"
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert len(started) == (0 if cpus == 1 else 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]
