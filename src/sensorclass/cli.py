"""Command-line interface.

Subcommands compose into a file-based pipeline that mirrors the library:

    synth -> features -> train -> classify -> flag -> relabel
                              \\-> eval

Every artifact embeds the resolved run configuration and tool version as
`# key=value` header lines, and identical inputs plus the same --seed
produce byte-identical outputs. --threads is accepted and has no effect.

Exit codes: 0 success, 2 configuration error (including bad flags and an
output path that cannot be created or written), 3 data error, 4 all
requested metrics came back undefined, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import logging
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, reporting
from .config import PRESET_NAMES, ForestConfig
from .errors import (
    ConfigError,
    DataError,
    DegenerateFraction,
    InvalidConfig,
    NonInteractiveWithoutAnswers,
    NoWindows,
)
from .features import BASELINE2, RICH8, extract, feature_names, mask_indices
from .trace import SensorType, read_utf8, write_trace_csv
from .uncertainty import (
    DEFAULT_THRESHOLD,
    attach_metrics,
    entropy_cdf,
    flag_above_threshold,
    make_prediction,
    max_entropy,
    rank_by_uncertainty,
    roc_sweep,
)

log = logging.getLogger("sensorclass")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_UNDEFINED = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command Ctrl-C ended

DEFAULT_WINDOW_MINS = 45.0
_FLAG_OF_FIELD = {"n_trees": "--trees", "m_try": "--mtry", "seed": "--seed"}


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed for every random draw (default {ForestConfig.seed})")
    parser.add_argument("--window-mins", type=float, default=DEFAULT_WINDOW_MINS,
                        help="segmentation window length in minutes (default 45)")
    parser.add_argument("--trees", type=int, default=ForestConfig.n_trees,
                        help=f"trees per forest (default {ForestConfig.n_trees})")
    parser.add_argument("--mtry", type=int, default=None,
                        help="features tried per node (default floor(sqrt(D)))")
    parser.add_argument("--averaging", choices=["paper", "standard"], default=None,
                        help=f"posterior averaging mode (default {ForestConfig.averaging_mode})")
    parser.add_argument("--entropy-base", choices=["nats", "bits", "normalized"],
                        default="nats", help="entropy unit (default nats)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="entropy flag threshold, strict > (default 0.425)")
    parser.add_argument("--scheme", choices=[RICH8, BASELINE2, "both"], default=RICH8,
                        help="feature scheme (default rich8)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")


def _check_shared_flags(args) -> ForestConfig:
    """Every command's shared flags, checked before any input is read, and the
    forest config they give: a bad value is a flag error (exit 2). synth's
    --seed is left to the spec reader."""
    if not 1.0 <= args.window_mins * 60.0 < np.inf:
        raise ConfigError(f"--window-mins must be finite and at least 1/60 (one second), "
                          f"got {args.window_mins}")
    if not np.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold}")
    seed = ForestConfig.seed if args.seed is None or args.command == "synth" else args.seed
    try:
        return ForestConfig(args.trees, args.mtry, seed,
                            args.averaging or ForestConfig.averaging_mode)
    except InvalidConfig as exc:
        field, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_FLAG_OF_FIELD[field]} {rest}") from None


def _run_meta(args, **extra) -> dict:
    config = args.config
    meta = {
        "tool": "sensorclass",
        "tool_version": __version__,
        "seed": config.seed,
        "window_mins": args.window_mins,
        "trees": config.n_trees,
        "mtry": "auto" if config.m_try is None else config.m_try,
        "averaging": config.averaging_mode,
        "entropy_base": args.entropy_base,
        "threshold": args.threshold,
        "scheme": args.scheme,
    }
    meta.update(extra)
    return meta


# --- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    """Generates and writes each trace in a worker (parallel._map_blocks), one
    trace at a time, under a temporary name; the traces and the manifest are
    renamed into place only once every trace is written, so a run that stops
    part way leaves no file of its own behind, and no directory it made."""
    from .parallel import _map_blocks
    from .synth import corpus_entries, corpus_spec, load_corpus_spec, trace_id

    spec = load_corpus_spec(args.spec) if args.spec else corpus_spec({"preset": args.preset})
    flags = {"seed": args.seed, "traces_per_type": args.traces_per_type}
    spec = corpus_spec({k: v for k, v in flags.items() if v is not None}, spec)
    out = Path(args.out)
    entries = corpus_entries(spec)
    rels = [f"traces/{trace_id(spec, entry)}.csv" for entry in entries]
    meta = _run_meta(
        args,
        corpus=spec.name,
        traces_per_type=spec.traces_per_type,
        duration_s=spec.duration_s,
        interval_s=spec.interval_s,
    )
    meta["seed"] = spec.seed
    paths = [str(out / rel) for rel in rels] + [str(out / "manifest.csv")]
    with _directory_made(out / "traces"), _written_together(*paths) as temps:
        manifest = _map_blocks(partial(_synth_run, spec), list(zip(entries, rels, temps)),
                               [1] * len(entries))  # a corpus's traces are all one length
        reporting.write_manifest(temps[-1], manifest, meta)
    print(f"wrote {len(entries)} traces and manifest.csv under {out}")
    return EXIT_OK


def _synth_run(spec, run) -> list[tuple]:
    """The manifest entries of a run of (corpus entry, manifest path, file to
    write) items, each trace generated, written and dropped in turn."""
    from .synth import generate_entry  # loaded by cmd_synth before the fork

    out = []
    for entry, rel, path in run:
        trace = generate_entry(spec, entry)
        write_trace_csv(trace, path)
        out.append((trace.trace_id, rel, trace.label))
    return out


# --- features ----------------------------------------------------------------


def cmd_features(args) -> int:
    from .parallel import map_traces

    if args.scheme == "both":
        raise ConfigError("features writes a single matrix; pick --scheme rich8 or baseline2")
    traces = reporting.load_manifest_traces(args.manifest)
    records = map_traces(
        partial(_feature_row, window_len=args.window_mins * 60.0, scheme=args.scheme), traces)
    for tid, _, row in records:  # logged here, since a worker logs nothing
        if row is None:
            log.warning("trace %s is shorter than one window, row skipped", tid)
    records = [record for record in records if record[2] is not None]
    if not records:
        raise DataError("every trace was shorter than one window")
    ids, labels, rows = zip(*records)
    reporting.write_feature_matrix(
        args.out, ids, labels, np.asarray(rows), args.scheme, _run_meta(args)
    )
    print(f"wrote {len(ids)} x {len(rows[0])} feature matrix to {args.out}")
    return EXIT_OK


def _feature_row(trace, window_len: float, scheme: str) -> tuple:
    """features' record of a trace: (its id, its label, its feature row, or
    None for a trace shorter than one window)."""
    try:
        return trace.trace_id, trace.label, extract(trace, window_len, scheme).values
    except NoWindows:
        return trace.trace_id, trace.label, None


def _training_set(path, ids, labels, feats, schema) -> LabeledDataset:
    """The rows of the feature matrix read from path that labels (one per
    row, None where unlabeled) gives a type."""
    from .forest import LabeledDataset

    keep = [i for i, lab in enumerate(labels) if lab is not None]
    if not keep:
        raise DataError(f"{path}: no labeled rows to train on")
    if len(keep) < len(ids):
        log.info("ignoring %d unlabeled rows", len(ids) - len(keep))
    codes = np.array([int(labels[i]) for i in keep])
    return LabeledDataset(tuple(ids[i] for i in keep), feats[keep], codes, schema)


# --- train / classify ----------------------------------------------------------


def cmd_train(args) -> int:
    from .forest import save_model, train_forest

    ids, labels, feats, schema, _ = reporting.read_feature_matrix(args.features)
    _check_mtry(args.config, schema)
    dataset = _training_set(args.features, ids, labels, feats, schema)
    forest = train_forest(dataset, args.config)
    run = _run_meta(args, scheme=dataset.schema)
    save_model(forest, args.out, run)
    print(f"trained {args.config.n_trees} trees on {len(dataset)} instances -> {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    from .forest import load_model, predict_matrix

    forest, run = load_model(args.model)
    ids, _labels, feats, schema, _meta = reporting.read_feature_matrix(args.features)
    mode = args.averaging  # None means: use the model's mode
    probs = predict_matrix(forest, feats, schema, mode)
    preds = [
        make_prediction(tid, SensorType(int(row.argmax())), row, args.entropy_base)
        for tid, row in zip(ids, probs)
    ]
    meta = _run_meta(args, averaging=mode or forest.config.averaging_mode, scheme=schema)
    reporting.write_predictions(args.out, preds, meta)
    print(f"classified {len(preds)} instances -> {args.out}")
    return EXIT_OK


# --- flag ----------------------------------------------------------------------


def cmd_flag(args) -> int:
    preds, pmeta = read_preds_rebase(args.predictions, args.entropy_base)
    report = flag_above_threshold(preds, args.threshold)
    meta = _run_meta(args)
    code = EXIT_OK
    if args.manifest:
        entries, _ = reporting.parse_manifest(args.manifest)
        labels = {tid: lab for tid, _, lab in entries}
        missing = [p.trace_id for p in preds if labels.get(p.trace_id) is None]
        if missing:
            raise DataError(f"manifest lacks labels for {missing[:3]} (and maybe more)")
        correctness = {p.trace_id: p.predicted == labels[p.trace_id] for p in preds}
        report = attach_metrics(report, correctness)
        if report.tpr is None and report.fpr is None and report.ppv is None:
            print("all metrics undefined for this report", file=sys.stderr)
            code = EXIT_UNDEFINED
    reporting.write_flag_report(args.out, preds, report, meta)
    print(f"flagged {len(report.flagged)}/{report.total} -> {args.out}")
    return code


def read_preds_rebase(path, base: str):
    """Load predictions, recomputing entropy in the requested base."""
    raw, meta = reporting.read_predictions(path)
    preds = [make_prediction(p.trace_id, p.predicted, p.probs, base) for p in raw]
    return preds, meta


# --- eval ----------------------------------------------------------------------


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: empty list")
    if len(set(values)) != len(values):
        raise ConfigError(f"{flag}: duplicate entry in {text!r}")
    return values


def _parse_minutes(text: str) -> list[int]:
    values = _parse_floats(text, "--windows")
    bad = [v for v in values if not (v > 0 and v.is_integer())]
    if bad:
        raise ConfigError(f"--windows takes whole positive minutes, got {bad[0]:g}")
    return [int(v) for v in values]


def _parse_fractions(text: str, protocol: str) -> list[float]:
    from . import evaluate

    values = _parse_floats(text, "--fractions")
    full_ok = protocol == "inter"
    bad = [v for v in values if not (0.0 < v < 1.0 or (full_ok and v == 1.0))]
    if bad:
        allowed = "(0, 1) or 1.0" if full_ok else "(0, 1)"
        raise ConfigError(f"--fractions takes numbers in {allowed}, got {bad[0]:g}")
    columns = set(values) | ({1.0} if full_ok else set())  # inter always runs 1.0
    if len({evaluate.fraction_column_name(v) for v in columns}) < len(columns):
        raise ConfigError(f"--fractions: two entries share a column name in {text!r}")
    try:
        for v in values:
            if v < 1.0:
                evaluate.repeats_for_fraction(v)
    except DegenerateFraction as exc:
        raise ConfigError(f"--fractions: {exc}") from None
    return values


def _check_mtry(config: ForestConfig, scheme: str) -> None:
    """--mtry against the feature count the scheme fixes (8 rich8, 2 baseline2)."""
    if (config.m_try or 0) > (d := len(feature_names(scheme))):
        raise ConfigError(f"--mtry {config.m_try} exceeds feature count {d} of {scheme}")


def cmd_eval(args) -> int:
    """Checks every flag, computes every result, and only then makes --out-dir
    and writes its files, so a run that stops before then leaves no output."""
    from . import evaluate

    for flag, value, readers in (("--fractions", args.fractions, ("percentage", "inter")),
                                 ("--windows", args.windows, ("window-sweep",))):
        if value is not None and args.protocol not in readers:
            raise ConfigError(f"{flag}: --protocol {args.protocol} does not read it")
    fractions = []  # loo's
    if args.protocol == "window-sweep":
        minutes = (evaluate.WINDOW_SWEEP_MINUTES if args.windows is None
                   else _parse_minutes(args.windows))
    elif args.protocol in ("percentage", "inter"):
        fractions = (list(evaluate.DEFAULT_FRACTIONS) if args.fractions is None
                     else _parse_fractions(args.fractions, args.protocol))
    if args.protocol == "inter" and not args.manifest_b:
        raise ConfigError("--protocol inter needs --manifest-b")
    if args.protocol in ("window-sweep", "subset-search") and args.scheme != RICH8:
        raise ConfigError(f"--scheme {args.scheme}: --protocol {args.protocol} runs rich8 only")
    if args.manifest_b and args.protocol not in ("inter", "window-sweep"):
        raise ConfigError(f"--manifest-b: --protocol {args.protocol} reads one corpus")
    schemes = [RICH8, BASELINE2] if args.scheme == "both" else [args.scheme]
    for scheme in schemes:  # checked here, not when the scheme's first forest is grown
        _check_mtry(args.config, scheme)
    window_len = args.window_mins * 60.0
    traces = reporting.load_manifest_traces(args.manifest)
    traces_b = reporting.load_manifest_traces(args.manifest_b) if args.manifest_b else None
    base = args.entropy_base

    writes = {}  # output file name -> (its writer, the writer's arguments after the path)
    if args.protocol == "window-sweep":
        points = evaluate.window_sweep(traces, minutes, args.config, traces_b)
        if not points:
            raise DataError("no window length in --windows fits a trace of each corpus")
        mode = "inter_10fold" if traces_b is not None else "intra_loo"
        meta = _run_meta(args, protocol=f"window-sweep/{mode}", scheme=RICH8)
        writes["window_sweep.csv"] = (reporting.write_csv, ["window_mins", "accuracy"],
                                      points, meta)
        text = "".join(f"{m:4d} min  {acc * 100:6.1f}%\n" for m, acc in points)
    elif args.protocol == "subset-search":
        dataset = evaluate.build_dataset(traces, window_len, RICH8)
        rows = [
            [f"{mask:02x}", "+".join(feature_names(RICH8)[i] for i in mask_indices(mask)),
             len(mask_indices(mask)), acc]
            for mask, acc in evaluate.feature_subset_search(dataset)
        ]
        meta = _run_meta(args, protocol="subset-search", scheme=RICH8)
        writes["subset_search.csv"] = (reporting.write_csv,
                                       ["mask", "features", "n_features", "accuracy"], rows, meta)
        best_mask, best_names, _, best_acc = rows[0]
        text = f"best mask 0x{best_mask} ({best_names}) accuracy {best_acc * 100:.1f}%\n"
    else:  # percentage, loo and inter: one accuracy table and one set of curves per scheme
        if args.protocol == "inter" and 1.0 not in fractions:
            fractions = fractions + [1.0]
        datasets = evaluate.build_dataset(traces, window_len, schemes)
        results = (  # every scheme's folds in one round
            evaluate.inter_corpus(datasets, evaluate.build_dataset(traces_b, window_len, schemes),
                                  fractions, args.config, base)
            if args.protocol == "inter"
            else evaluate.percentage_protocol(datasets, fractions, args.config, base))
        grid = [round(float(x), 12) for x in np.linspace(0.0, max_entropy(base), 37)]
        tables = []
        for scheme, (table, result) in zip(schemes, results):
            meta = _run_meta(args, scheme=scheme, protocol=args.protocol)
            preds, correctness = result.predictions, result.correctness
            writes[f"predictions_{scheme}.csv"] = (reporting.write_predictions, preds, meta)
            writes[f"roc_{scheme}.csv"] = (reporting.write_roc,
                                           roc_sweep(preds, correctness, grid), meta)
            writes[f"cdf_{scheme}.csv"] = (reporting.write_cdf,
                                           entropy_cdf(preds, correctness), meta)
            writes[f"accuracy_{scheme}.csv"] = (
                reporting.write_csv, *evaluate.table_csv_rows(table),
                {**meta, **evaluate.table_repeat_meta(table)})  # the curves' meta gets no repeats
            tables.append(table)
        title = ("accuracy % as rich8 (baseline2)" if len(tables) == 2
                 else f"accuracy % with {args.scheme}")
        text = evaluate.render_table_text(*tables, title=title)
        writes["accuracy.txt"] = (Path.write_text, text)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (write, *rest) in writes.items():
        write(out_dir / name, *rest)
    print(text, end="")
    return EXIT_OK


# --- relabel --------------------------------------------------------------------


def _answer_stream(args):
    if args.answers:
        lines = read_utf8(Path(args.answers)).decode("utf-8").splitlines()
        return iter(lines)
    if not sys.stdin.isatty():
        raise NonInteractiveWithoutAnswers(
            "stdin is not a terminal; pass --answers FILE for scripted review"
        )
    return None  # interactive


@contextlib.contextmanager
def _written_together(*paths: str):
    """Temporary names beside the output paths, for the block to write; each is
    renamed onto its path only once the block has written them all, and any
    left are removed, so a failed write leaves none of the outputs behind. An
    OSError on a temporary name is raised naming its output path."""
    temps = [f"{path}.partial" for path in paths]
    try:
        yield temps
        for path in paths:  # the one rename failure a write cannot show first
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except OSError as exc:
        if exc.filename not in temps:
            raise
        raise OSError(exc.errno, exc.strerror, paths[temps.index(exc.filename)]) from exc
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


@contextlib.contextmanager
def _directory_made(path: Path):
    """Makes path and its missing parents for the block; if the block fails,
    removes each directory made here, which by then holds nothing."""
    made = []
    try:
        for directory in reversed((path, *path.parents)):
            if not directory.exists():
                directory.mkdir()
                made.append(directory)
        yield
    except BaseException:
        for directory in reversed(made):
            with contextlib.suppress(OSError):  # the error that stopped the block is reported
                directory.rmdir()
        raise


def cmd_relabel(args) -> int:
    from .forest import check_schema, load_model, save_model, train_forest

    if args.budget < 0:
        raise ConfigError(f"--budget must be >= 0, got {args.budget}")
    preds, _pmeta = read_preds_rebase(args.predictions, args.entropy_base)
    forest, run = load_model(args.model)
    ids, _labels, feats, schema, _fmeta = reporting.read_feature_matrix(args.features)
    check_schema(forest, schema)  # the retrained model keeps the run metadata of this one
    entries, manifest_meta = reporting.parse_manifest(args.manifest)
    label_by_id = {tid: lab for tid, _, lab in entries}
    unknown = [p.trace_id for p in preds if p.trace_id not in label_by_id]
    if unknown:
        raise DataError(f"predictions not in manifest: {unknown[:3]} (and maybe more)")

    queue = rank_by_uncertainty(preds)[: args.budget]
    answers = _answer_stream(args) if queue else None
    corrected = 0
    reviewed = 0
    for p in queue:
        current = label_by_id[p.trace_id]
        shown = "(unlabeled)" if current is None else current.label
        prompt = (
            f"{p.trace_id}: predicted={p.predicted.label} "
            f"entropy={p.entropy:.3f} label={shown}\n"
            f"  [enter]=keep, type name to correct, q to stop: "
        )
        if answers is None:
            answer = input(prompt).strip()
        else:
            answer = next(answers, "q").strip()
            print(prompt + (answer or "(keep)"))
        if answer.lower() == "q":
            break
        reviewed += 1
        if answer and answer.lower() not in ("y", "keep"):
            new_label = SensorType.from_label(answer)  # raises DataError on typos
            if current != new_label:
                label_by_id[p.trace_id] = new_label
                corrected += 1

    labels = [label_by_id.get(tid) for tid in ids]
    dataset = _training_set(args.features, ids, labels, feats, schema)
    entries = [(tid, rel, label_by_id[tid]) for tid, rel, _ in entries]
    retrained = train_forest(dataset, forest.config)
    with _written_together(args.out_manifest, args.out_model) as (manifest_out, model_out):
        reporting.write_manifest(manifest_out, entries, manifest_meta)
        save_model(retrained, model_out, run)
    print(
        f"reviewed {reviewed}, corrected {corrected}; "
        f"retrained on {len(dataset)} instances -> {args.out_model}"
    )
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorclass",
        description="classify building sensors by type from their time series",
    )
    parser.add_argument("--version", action="version", version=f"sensorclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _shared_flags(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=PRESET_NAMES, default="default")
    source.add_argument("--spec", help="JSON corpus spec file")
    p.add_argument("--traces-per-type", type=int,
                   help="replaces the preset's or spec's count (a preset's is 20)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract features from a manifest")
    _shared_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="feature matrix CSV")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a forest on a feature matrix")
    _shared_flags(p)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="model file (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="predict types for a feature matrix")
    _shared_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="predictions CSV")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("flag", help="threshold predictions into a review queue")
    _shared_flags(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--manifest", help="with labels: compute tpr/fpr/ppv")
    p.add_argument("--out", required=True, help="flag report CSV")
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    _shared_flags(p)
    p.add_argument("--protocol", required=True,
                   choices=["percentage", "loo", "inter", "window-sweep", "subset-search"])
    p.add_argument("--manifest", required=True)
    p.add_argument("--manifest-b", help="second corpus (inter, window-sweep only)")
    p.add_argument("--fractions", help="percentage and inter train fractions in (0, 1), and 1.0 "
                   "for inter; no duplicates")
    p.add_argument("--windows", help="window-sweep grid, whole minutes, no duplicates")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("relabel", help="review uncertain predictions, retrain")
    _shared_flags(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--budget", type=int, default=10, help="max prompts this session")
    p.add_argument("--answers", help="scripted answers file, one per line")
    p.add_argument("--out-manifest", required=True)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_relabel)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config = _check_shared_flags(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # inputs are read through read_utf8, which raises DataError
        print(f"error: cannot write {exc.filename or 'an output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
