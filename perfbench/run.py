"""sensorclass benchmark: three workloads through the real CLI.

    python3 perfbench/run.py --workload fleet-classify --seed 1 --seconds 10 --trace 0

Run from the root of a sensorclass checkout. The CLI runs as
`python -m sensorclass.cli` with the checkout's `src` on PYTHONPATH, one child
process at a time, with BLAS/OpenMP thread counts of 1. Set-up writes the
workload's corpora with `sensorclass synth` three times and reports the median.
Then whole rounds of the workload's commands repeat until --seconds of rounds
have run; the end-to-end metrics are medians over the rounds.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same commands
in-process through `sensorclass.cli.main`, alternating untraced and traced
rounds, and reports per-layer totals, self times and counts (see tracing.py).
--smoke shrinks every corpus so a run takes seconds.

Every run checks the first round's outputs against independent recomputation
(checks.py) and every later round's artifacts byte for byte against the first.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402

WINDOW_MINS = 45.0
THRESHOLD = 0.425
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
DAY_S = 86400.0
COMMAND_TIMEOUT_S = 150.0

# Corpus make-up per workload: (directory, synth preset, seed offset), then
# (traces per type, days) at normal and at smoke scale. Sizes keep one round
# to a few seconds, so that a run's medians span several rounds. The labeled
# building keeps 20 traces per type: with 10, fleet accuracy fell to 0.75 on
# some seeds, near the 0.70 floor. eval-percentage keeps the full default
# corpus: with 10 per type its LOO accuracy sat at the 0.90 floor.
CORPORA = {
    "fleet-classify": [
        ("labeled", "default", 0, (20, 2.0), (20, 1.0)),
        ("fleet", "building-b", 1, (10, 4.0), (3, 2.0)),
    ],
    "eval-percentage": [("corpus", "default", 0, (20, 3.0), (20, 1.0))],
    "subset-search": [("corpus", "confusable", 0, (2, 7.0), (2, 1.0))],
}
# Trees per forest for `eval` (with the CLI default of 50, one
# eval-percentage round takes about 20 s on a 2-vCPU Xeon VM) and for every
# forest at smoke scale.
EVAL_TREES = 10
SMOKE_TREES = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Command:
    kind: str  # "setup", "ingest" or "model"
    argv: list[str]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{label}: {reason}")
            log(f"FAILED {label}: {reason}")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# --- workloads ----------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, work: Path, smoke: bool):
        self.name, self.seed, self.work, self.smoke = name, seed, work, smoke
        self.corpora = []
        for dirname, preset, offset, normal, tiny in CORPORA[name]:
            per_type, days = tiny if smoke else normal
            self.corpora.append((dirname, preset, seed + offset, per_type, days))

    def manifest(self, dirname: str) -> Path:
        return self.work / dirname / "manifest.csv"

    def setup_commands(self) -> list[Command]:
        out = []
        for dirname, preset, seed, per_type, days in self.corpora:
            spec = self.work / f"{dirname}.spec.json"
            spec.write_text(json.dumps({"preset": preset, "traces_per_type": per_type,
                                        "duration_s": days * DAY_S}))
            out.append(Command("setup", ["synth", "--spec", str(spec), "--seed", str(seed),
                                         "--out", str(self.work / dirname)]))
        return out

    def corpus_dirs(self) -> list[Path]:
        return [self.work / d[0] for d in self.corpora]

    def _shared(self, trees: int | None = None) -> list[str]:
        trees = SMOKE_TREES if self.smoke else trees
        return ["--seed", str(self.seed), "--window-mins", str(WINDOW_MINS)] + (
            ["--trees", str(trees)] if trees else [])

    def _features(self, dirname: str, out: str) -> Command:
        return Command("ingest", ["features", "--manifest", str(self.manifest(dirname)),
                                  "--out", str(self.work / out)] + self._shared())

    def commands(self) -> list[Command]:
        w, shared = self.work, self._shared()
        if self.name == "fleet-classify":
            return [
                self._features("labeled", "features_labeled.csv"),
                self._features("fleet", "features_fleet.csv"),
                Command("model", ["train", "--features", str(w / "features_labeled.csv"),
                                  "--out", str(w / "model.json")] + shared),
                Command("model", ["classify", "--model", str(w / "model.json"),
                                  "--features", str(w / "features_fleet.csv"),
                                  "--out", str(w / "preds.csv")] + shared),
                Command("model", ["flag", "--predictions", str(w / "preds.csv"),
                                  "--manifest", str(self.manifest("fleet")),
                                  "--threshold", str(THRESHOLD), "--out", str(w / "flags.csv")] + shared),
            ]
        if self.name == "eval-percentage":
            return [
                self._features("corpus", "features.csv"),
                Command("model", ["eval", "--protocol", "percentage", "--scheme", "both",
                                  "--manifest", str(self.manifest("corpus")),
                                  "--out-dir", str(w / "eval")] + self._shared(EVAL_TREES)),
            ]
        return [
            self._features("corpus", "features.csv"),
            Command("model", ["eval", "--protocol", "subset-search",
                              "--manifest", str(self.manifest("corpus")),
                              "--out-dir", str(w / "eval")] + shared),
        ]

    def outputs(self) -> list[Path]:
        """Files and directories one round writes; removed before each round."""
        names = {"fleet-classify": ["features_labeled.csv", "features_fleet.csv", "model.json",
                                    "preds.csv", "flags.csv"]}
        return [self.work / n for n in names.get(self.name, ["features.csv", "eval"])]

    def artifacts(self) -> list[Path]:
        out = []
        for p in self.outputs():
            out.extend(sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p])
        return out

    def checks(self) -> list[tuple[str, object, tuple]]:
        w, wl = self.work, WINDOW_MINS * 60.0
        if self.name == "fleet-classify":
            fleet = self.manifest("fleet")
            return [
                ("features labeled", checks.check_features,
                 (w / "features_labeled.csv", self.manifest("labeled"), wl)),
                ("features fleet", checks.check_features, (w / "features_fleet.csv", fleet, wl)),
                ("posteriors", checks.check_posteriors, (w / "preds.csv",)),
                ("transfer accuracy", checks.check_transfer_accuracy, (w / "preds.csv", fleet)),
                ("flags", checks.check_flags, (w / "flags.csv", w / "preds.csv", fleet, THRESHOLD)),
            ]
        manifest = self.manifest("corpus")
        out = [("features", checks.check_features, (w / "features.csv", manifest, wl))]
        if self.name == "eval-percentage":
            for scheme in ("rich8", "baseline2"):
                out += [
                    (f"posteriors {scheme}", checks.check_posteriors,
                     (w / "eval" / f"predictions_{scheme}.csv",)),
                    (f"loo column {scheme}", checks.check_loo_column, (w / "eval", manifest, scheme)),
                    (f"roc {scheme}", checks.check_roc, (w / "eval", manifest, scheme)),
                    (f"repeats {scheme}", checks.check_repeats, (w / "eval", scheme)),
                ]
            return out
        table = w / "eval" / "subset_search.csv"
        n = len(checks.read_manifest(manifest))
        out.append(("subset table", checks.check_subset_table, (table, n)))
        if checks.run_check(checks.check_subset_table, table, n) is None:
            for mask in checks.subset_id3_masks(table):
                out.append((f"subset id3 {mask:02x}", checks.check_subset_id3,
                            (table, w / "features.csv", mask)))
        return out


# --- running commands -------------------------------------------------------------


def run_child(argv: list[str], env: dict[str, str], log_path: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS MB, exit code) of one CLI command as a child."""
    with open(log_path, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sensorclass.cli", *argv],
                                cwd=ROOT, env=env, stdout=out, stderr=out)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_inprocess(argv: list[str]) -> tuple[float, int]:
    from sensorclass import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, as it is for a child
            log(traceback.format_exc())
            code = 1
    return time.perf_counter() - start, code


def digest(paths: list[Path]) -> dict[str, str]:
    """sha256 per file; a directory hashes all its files, in name order."""
    out = {}
    for p in paths:
        h = hashlib.sha256()
        for f in sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p]:
            h.update(str(f.relative_to(p)).encode() + b"\0" + f.read_bytes())
        out[p.name] = h.hexdigest()
    return out


def compare_digests(tally: Tally, label: str, first: dict[str, str], now: dict[str, str]) -> None:
    for name in sorted(set(first) | set(now)):
        same = first.get(name) == now.get(name)
        tally.record(f"{label} {name}", None if same else "differs from the first repeat")


def clear(paths: list[Path]) -> None:
    for p in paths:
        if p.is_dir():
            shutil.rmtree(p)
        elif p.exists():
            p.unlink()


def run_checks(tally: Tally, workload: Workload) -> None:
    for label, fn, args in workload.checks():
        tally.record(f"check {label}", checks.run_check(fn, *args))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# --- the two modes ------------------------------------------------------------------


def setup(workload: Workload, tally: Tally, env: dict[str, str], repeats: int) -> list[float]:
    """Write the corpora `repeats` times; each repeat must be byte-identical."""
    times, first = [], None
    for rep in range(repeats):
        clear(workload.corpus_dirs())
        elapsed = 0.0
        for cmd in workload.setup_commands():
            wall, _, code = run_child(cmd.argv, env, workload.work / "setup.log")
            elapsed += wall
            tally.record(f"setup {cmd.argv[0]}", None if code == 0 else f"exit {code}")
        times.append(elapsed)
        log(f"setup {rep}: setup_s={elapsed:.4f}")
        now = digest(workload.corpus_dirs())
        if first is None:
            first = now
        else:
            compare_digests(tally, f"setup repeat {rep}", first, now)
    return times


def untraced(workload: Workload, tally: Tally, seconds: float, env: dict[str, str]) -> dict[str, float]:
    setup_times = setup(workload, tally, env, SETUP_REPEATS)
    rounds: list[dict[str, float]] = []
    first = None
    measured = 0.0
    while not rounds or measured < seconds:
        clear(workload.outputs())
        t = {"wall_s": 0.0, "ingest_s": 0.0, "model_s": 0.0, "peak_rss_mb": 0.0}
        for cmd in workload.commands():
            wall, rss, code = run_child(cmd.argv, env, workload.work / "round.log")
            t["wall_s"] += wall
            t[f"{cmd.kind}_s"] += wall
            t["peak_rss_mb"] = max(t["peak_rss_mb"], rss)
            tally.record(f"round {len(rounds)} {cmd.argv[0]}", None if code == 0 else f"exit {code}")
        measured += t["wall_s"]
        log(f"round {len(rounds)}: " + " ".join(f"{k}={v:.4f}" for k, v in t.items()))
        rounds.append(t)
        now = digest(workload.artifacts())
        if first is None:
            first = now
            run_checks(tally, workload)
        else:
            compare_digests(tally, f"round {len(rounds) - 1}", first, now)
    metrics = {key: median([r[key] for r in rounds]) for key in rounds[0]}
    metrics["setup_s"] = median(setup_times)
    return metrics


def import_time(env: dict[str, str]) -> float:
    code = ("import time; t = time.perf_counter(); import sensorclass.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def traced(workload: Workload, tally: Tally, seconds: float, env: dict[str, str]) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import sensorclass.cli  # noqa: F401  (import cost stays out of the round times)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run = "setup"
        clear(workload.corpus_dirs())
        for cmd in workload.setup_commands():
            _, code = run_inprocess(cmd.argv)
            tally.record(f"setup {cmd.argv[0]}", None if code == 0 else f"exit {code}")
        tracer.uninstall()
        import_s = import_time(env)

        walls = {"untraced": [], "traced": []}
        first, counts0 = None, None
        traced_runs: list[str] = []
        measured = 0.0
        while not walls["traced"] or measured < seconds:
            mode = "traced" if len(walls["untraced"]) > len(walls["traced"]) else "untraced"
            index = len(walls["untraced"]) + len(walls["traced"])
            tracer.run = f"round{index}"
            if mode == "traced":
                tracer.install()
                traced_runs.append(tracer.run)
            clear(workload.outputs())
            wall = 0.0
            for cmd in workload.commands():
                elapsed, code = run_inprocess(cmd.argv)
                wall += elapsed
                tally.record(f"round {index} {cmd.argv[0]}", None if code == 0 else f"exit {code}")
            tracer.uninstall()
            measured += wall
            walls[mode].append(wall)
            log(f"round {index} ({mode}): wall_s={wall:.4f}")
            now = digest(workload.artifacts())
            if first is None:
                first = now
                run_checks(tally, workload)
            else:
                compare_digests(tally, f"round {index}", first, now)
            if mode == "traced":
                totals = tracing.layer_totals(tracer, tracer.run)
                counts = {k: totals[k] for k in tracing.EXACT_COUNTS}
                if counts0 is None:
                    counts0 = counts
                else:
                    tally.record(f"round {index} trace counts",
                                 None if counts == counts0 else f"{counts} != {counts0}")
    finally:
        tracer.uninstall()
    per_round = [tracing.layer_totals(tracer, run) for run in traced_runs]
    setup_totals = tracing.layer_totals(tracer, "setup")
    metrics = {name: median([r[name] for r in per_round]) for name in per_round[0]}
    for name in ("synth.generate_corpus_s", "trace.write_trace_csv_s"):
        metrics[name] = setup_totals[name]
    metrics["cli.import_s"] = import_s
    metrics["bench.trace_overhead_s"] = median(walls["traced"]) - median(walls["untraced"])
    silent = sorted({name for _, _, name in tracing.SITES} -
                    {s[3] for s in tracer.spans if s is not None})
    if tracer.absent:
        log("absent (attribute no longer exists): " + ", ".join(tracer.absent))
    if silent:
        log("never called on this workload: " + ", ".join(silent))
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload.name}.jsonl")  # the latest traced run
    return metrics


# --- entry point --------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "ingest_s": "s", "model_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="round time to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora")
    args = parser.parse_args(argv)
    if not (SRC / "sensorclass" / "cli.py").is_file():
        log(f"error: no sensorclass sources under {SRC}; run from a sensorclass checkout")
        return 2
    if args.seed < 0:
        log("error: --seed must be non-negative")
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    tally = Tally()
    env = child_env()
    workload = Workload(args.workload, args.seed, work, args.smoke)
    try:
        if args.trace:
            values = traced(workload, tally, args.seconds, env)
            units = dict(tracing.LAYER_METRICS)
        else:
            values = untraced(workload, tally, args.seconds, env)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
