"""Which sensorclass modules each command loads, and the package's lazy public names."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import sensorclass

SRC = os.path.dirname(os.path.dirname(sensorclass.__file__))  # the package's import root

# Runs one command in this fresh interpreter, through `python -m sensorclass.cli` ("-m") or
# the console script's `sensorclass.cli:main` ("script"), with two usable CPUs, so every
# block map of two or more items forks. It appends to the log a line per forked worker, one
# per module a worker looks up that is not loaded yet, and at exit the sensorclass modules
# loaded here.
RUN = """
import json, os, sys
parent, log = os.getpid(), {log!r}

def note(*words):
    with open(log, "a") as fh:
        fh.write(json.dumps(words) + "\\n")

class WorkerImports:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if os.getpid() != parent:
            note("worker import", name)
        return None  # the next finder loads it

sys.meta_path.insert(0, WorkerImports)
os.register_at_fork(after_in_child=lambda: note("worker"))
os.sched_getaffinity = lambda pid: {{0, 1}}
sys.argv = ["sensorclass", *sys.argv[1:]]
try:
    if {entry!r} == "-m":
        import runpy
        runpy.run_module("sensorclass.cli", run_name="__main__", alter_sys=True)
    else:
        from sensorclass.cli import main
        sys.exit(main())
finally:
    note("loaded", *sorted(m for m in sys.modules if m.startswith("sensorclass")))
    note("numpy.ma", "numpy.ma" in sys.modules)
"""

# What every command loads: the parser's flag checks and the artifact readers and writers.
# Only eval loads evaluate; only synth loads synth; features, flag and synth never load
# forest, nor features and flag seeding.
SHARED = {"config", "errors", "features", "reporting", "trace", "uncertainty"}
LOADED = {
    "synth": SHARED | {"parallel", "seeding", "synth"},
    "features": SHARED | {"parallel"},
    "train": SHARED | {"forest", "seeding"},
    "classify": SHARED | {"forest", "seeding"},
    "flag": SHARED,
    "relabel": SHARED | {"forest", "seeding"},
    "eval": SHARED | {"evaluate", "forest", "parallel", "seeding"},
}
FORKS = {"synth", "features", "eval"}  # the commands that map their traces or folds

# Every command once, each reading what the ones before it wrote.
COMMANDS = [
    ["synth", "--spec", "spec.json", "--out", "corpus"],
    ["features", "--manifest", "corpus/manifest.csv", "--out", "features.csv"],
    ["train", "--features", "features.csv", "--trees", "3", "--out", "model.json"],
    ["classify", "--model", "model.json", "--features", "features.csv", "--out", "p.csv"],
    ["flag", "--predictions", "p.csv", "--out", "flags.csv"],
    ["relabel", "--predictions", "p.csv", "--manifest", "corpus/manifest.csv",
     "--features", "features.csv", "--model", "model.json", "--answers", "answers.txt",
     "--out-manifest", "relabeled.csv", "--out-model", "relabeled.json"],
    ["eval", "--protocol", "percentage", "--scheme", "both", "--fractions", "0.5",
     "--trees", "2", "--manifest", "corpus/manifest.csv", "--out-dir", "eval"],
]


def write_inputs(cwd):
    """The spec and the relabel answers COMMANDS read."""
    (cwd / "spec.json").write_text('{"traces_per_type": 2, "duration_s": 86400}')
    (cwd / "answers.txt").write_text("keep\nq\n")


def run_command(entry, argv, cwd):
    """(the sensorclass modules a command loaded, its worker count, the modules its workers
    looked up) for one command run in a fresh interpreter."""
    log = cwd / "imports.log"
    log.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", RUN.format(log=str(log), entry=entry), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    [loaded] = [words[1:] for words in lines if words[0] == "loaded"]
    workers = sum(words == ["worker"] for words in lines)
    return set(loaded), workers, [words[1] for words in lines if words[0] == "worker import"]


@pytest.mark.parametrize("entry", ["-m", "script"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, entry):
    write_inputs(tmp_path)
    for argv in COMMANDS:
        loaded, workers, worker_imports = run_command(entry, argv, tmp_path)
        # under -m, cli runs as __main__ and nothing imports it again
        home = {"sensorclass"} | ({"sensorclass.cli"} if entry == "script" else set())
        assert loaded == home | {f"sensorclass.{m}" for m in LOADED[argv[0]]}, argv[0]
        assert (workers >= 2) == (argv[0] in FORKS), argv[0]
        assert worker_imports == [], argv[0]  # the parent loaded all a worker runs


def test_no_command_loads_numpy_ma(tmp_path):
    # np.median imports numpy.ma on first use; the window median is taken without it
    write_inputs(tmp_path)
    for argv in COMMANDS:
        run_command("script", argv, tmp_path)
        lines = [json.loads(line) for line in (tmp_path / "imports.log").read_text().splitlines()]
        assert ["numpy.ma", False] in lines, argv[0]


def test_every_public_name_is_its_home_modules_object():
    for name in sensorclass.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"sensorclass.{sensorclass._HOMES[name]}")
        assert getattr(sensorclass, name) is getattr(home, name), name
    from sensorclass import config, forest

    assert forest.ForestConfig is config.ForestConfig
    assert forest.AVERAGING_MODES is config.AVERAGING_MODES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sensorclass import *", namespace)
    assert set(sensorclass.__all__) <= set(namespace)
    assert namespace["train_forest"] is sensorclass.forest.train_forest


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sensorclass.no_such_name  # noqa: B018


def test_dir_lists_every_public_name():
    assert set(sensorclass.__all__) <= set(dir(sensorclass))
