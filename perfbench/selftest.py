"""Self-test of the benchmark's output checks, on smoke-scale corpora.

    python3 perfbench/selftest.py

For each workload: write tiny corpora, run one round of the real CLI
commands, and require every check to pass. Then corrupt one artifact per
check (flip a predicted label, nudge a feature, swap two subset-search rows,
...) and require that check to fail; the artifact is restored afterwards.
The byte-for-byte determinism comparison gets the same treatment. Exits 0
when every check passes on good output and fails on its corruption.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402


def _edit(path: Path, fn) -> None:
    path.write_text(fn(path.read_text()))


def _body_rows(text: str) -> tuple[list[str], int]:
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines, start


def _edit_cell(path: Path, row: int, col: int, fn) -> None:
    def go(text):
        lines, start = _body_rows(text)
        cells = lines[start + row].rstrip("\n").split(",")
        cells[col] = fn(cells[col])
        lines[start + row] = ",".join(cells) + "\n"
        return "".join(lines)
    _edit(path, go)


def nudge_feature(path: Path) -> None:
    _edit_cell(path, 3, 5, lambda v: repr(float(v) * (1 + 1e-6) + 1e-9))


def flip_label(path: Path) -> None:
    _edit_cell(path, 0, 1, lambda v: "setpoint" if v != "setpoint" else "co2")


def all_wrong(path: Path) -> None:
    """Relabel every prediction so that none matches its manifest label."""
    def go(text):
        lines, start = _body_rows(text)
        for i in range(start, len(lines)):
            cells = lines[i].split(",")
            truth = cells[0].split("-")[-2]  # ids are <corpus>-<type>-<index>
            cells[1] = "co2" if truth != "co2" else "humidity"
            lines[i] = ",".join(cells)
        return "".join(lines)
    _edit(path, go)


def flip_flag(path: Path) -> None:
    _edit_cell(path, 0, 3, lambda v: "0" if v == "1" else "1")


def bump_loo(path: Path) -> None:
    _edit_cell(path, 6, 6, lambda v: repr(float(v) - 0.01))


def bump_roc(path: Path) -> None:
    _edit_cell(path, 5, 2, lambda v: repr(float(v or 0.0) + 0.125))


def bump_repeats(path: Path) -> None:
    _edit(path, lambda t: re.sub(r"^# repeats\.5%=(\d+)", lambda m: f"# repeats.5%={int(m[1]) - 1}", t,
                                 flags=re.M))


def swap_subset_rows(path: Path) -> None:
    def go(text):
        lines, start = _body_rows(text)
        lines[start], lines[-1] = lines[-1], lines[start]
        return "".join(lines)
    _edit(path, go)


def shift_ff_accuracy(n: int):
    def go(path: Path) -> None:
        def text_fn(text):
            lines, start = _body_rows(text)
            for i in range(start, len(lines)):
                cells = lines[i].rstrip("\n").split(",")
                if cells[0] == "ff":
                    acc = float(cells[3])
                    cells[3] = repr((round(acc * n) + (-1 if acc > 0 else 1)) / n)
                    lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
        _edit(path, text_fn)
    return go


def corruptions(workload: run.Workload) -> dict[str, tuple[Path, object]]:
    """Check label -> (artifact to corrupt, corruption)."""
    w = workload.work
    if workload.name == "fleet-classify":
        return {
            "features labeled": (w / "features_labeled.csv", nudge_feature),
            "features fleet": (w / "features_fleet.csv", nudge_feature),
            "posteriors": (w / "preds.csv", flip_label),
            "transfer accuracy": (w / "preds.csv", all_wrong),
            "flags": (w / "flags.csv", flip_flag),
        }
    out = {"features": (w / "features.csv", nudge_feature)}
    if workload.name == "eval-percentage":
        for scheme in ("rich8", "baseline2"):
            out[f"posteriors {scheme}"] = (w / "eval" / f"predictions_{scheme}.csv", flip_label)
            out[f"loo column {scheme}"] = (w / "eval" / f"accuracy_{scheme}.csv", bump_loo)
            out[f"roc {scheme}"] = (w / "eval" / f"roc_{scheme}.csv", bump_roc)
            out[f"repeats {scheme}"] = (w / "eval" / f"accuracy_{scheme}.csv", bump_repeats)
        return out
    table = w / "eval" / "subset_search.csv"
    n = len(checks.read_manifest(workload.manifest("corpus")))
    out["subset table"] = (table, swap_subset_rows)
    out["subset id3 ff"] = (table, shift_ff_accuracy(n))
    return out


def selftest(name: str, seed: int) -> list[str]:
    problems = []
    run.WORK.mkdir(exist_ok=True)
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        workload = run.Workload(name, seed, work, smoke=True)
        tally = run.Tally()
        env = run.child_env()
        run.setup(workload, tally, env, repeats=1)
        for cmd in workload.commands():
            _, _, code = run.run_child(cmd.argv, env, work / "round.log")
            tally.record(cmd.argv[0], None if code == 0 else f"exit {code}")
        run.run_checks(tally, workload)
        if tally.failed:
            return [f"{name}: good output failed: {r}" for r in tally.reasons]
        table = {label: (fn, args) for label, fn, args in workload.checks()}
        covered = corruptions(workload)
        for label, (path, corrupt) in covered.items():
            fn, args = table[label]
            original = path.read_bytes()
            corrupt(path)
            reason = checks.run_check(fn, *args)
            path.write_bytes(original)
            if reason is None:
                problems.append(f"{name}: check {label!r} passed on corrupted {path.name}")
            else:
                print(f"ok  {name}: {label}: corruption caught ({reason[:90]})")
        # the ID3 check runs once per chosen mask; its corruption targets ff
        missing = {label for label in table if not label.startswith("subset id3")} - set(covered)
        problems += [f"{name}: check {label!r} has no corruption" for label in sorted(missing)]

        artifacts = workload.artifacts()
        first = run.digest(artifacts)
        with open(artifacts[-1], "ab") as fh:
            fh.write(b" ")
        caught = run.Tally()
        run.compare_digests(caught, "determinism", first, run.digest(artifacts))
        if caught.failed != 1:
            problems.append(f"{name}: determinism compare missed a changed byte")
        else:
            print(f"ok  {name}: determinism: changed byte in {artifacts[-1].name} caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    if not (run.SRC / "sensorclass" / "cli.py").is_file():
        print(f"error: no sensorclass sources under {run.SRC}", file=sys.stderr)
        return 2
    problems = []
    for name in sorted(run.CORPORA):
        problems += selftest(name, seed=7)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
