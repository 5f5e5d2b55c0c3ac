"""Command-line interface.

Subcommands compose into a file-based pipeline that mirrors the library:

    synth -> features -> train -> classify -> flag -> relabel
                              \\-> eval

Every artifact embeds the resolved run configuration and tool version as
`# key=value` header lines, and identical inputs plus the same --seed
produce byte-identical outputs. --threads is accepted and has no effect.

Exit codes: 0 success, 2 configuration error (including bad flags),
3 data error, 4 all requested metrics came back undefined.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, evaluate, reporting
from .errors import (
    ConfigError,
    DataError,
    DegenerateFraction,
    NonInteractiveWithoutAnswers,
    NoWindows,
    SensorClassError,
)
from .features import BASELINE2, RICH8, extract, feature_names, mask_indices
from .forest import ForestConfig, LabeledDataset, load_model, predict_matrix, save_model, train_forest
from .synth import PRESET_NAMES, corpus_spec, generate_corpus, load_corpus_spec, preset_spec
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

DEFAULT_SEED = 0
DEFAULT_WINDOW_MINS = 45.0
DEFAULT_TREES = 50


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed for every random draw (default {DEFAULT_SEED})")
    parser.add_argument("--window-mins", type=float, default=DEFAULT_WINDOW_MINS,
                        help="segmentation window length in minutes (default 45)")
    parser.add_argument("--trees", type=int, default=DEFAULT_TREES,
                        help="trees per forest (default 50)")
    parser.add_argument("--mtry", type=int, default=None,
                        help="features tried per node (default floor(sqrt(D)))")
    parser.add_argument("--averaging", choices=["paper", "standard"], default=None,
                        help="posterior averaging mode (default paper)")
    parser.add_argument("--entropy-base", choices=["nats", "bits", "normalized"],
                        default="nats", help="entropy unit (default nats)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="entropy flag threshold, strict > (default 0.425)")
    parser.add_argument("--scheme", choices=[RICH8, BASELINE2, "both"], default=RICH8,
                        help="feature scheme (default rich8)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")


def _seed(args) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _averaging(args) -> str:
    return args.averaging or "paper"


def _forest_config(args) -> ForestConfig:
    return ForestConfig(
        n_trees=args.trees,
        m_try=args.mtry,
        seed=_seed(args),
        averaging_mode=_averaging(args),
    )


def _run_meta(args, **extra) -> dict:
    meta = {
        "tool": "sensorclass",
        "tool_version": __version__,
        "seed": _seed(args),
        "window_mins": args.window_mins,
        "trees": args.trees,
        "mtry": "auto" if args.mtry is None else args.mtry,
        "averaging": _averaging(args),
        "entropy_base": args.entropy_base,
        "threshold": args.threshold,
        "scheme": args.scheme,
    }
    meta.update(extra)
    return meta


# --- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.spec:
        spec = load_corpus_spec(args.spec)
        if args.seed is not None:
            spec = corpus_spec({"seed": args.seed}, spec)
    else:
        spec = preset_spec(args.preset, seed=_seed(args),
                           traces_per_type=args.traces_per_type)
    traces = generate_corpus(spec)
    out = Path(args.out)
    trace_dir = out / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for tr in traces:
        rel = f"traces/{tr.trace_id}.csv"
        write_trace_csv(tr, out / rel)
        entries.append((tr.trace_id, rel, tr.label))
    meta = _run_meta(
        args,
        corpus=spec.name,
        traces_per_type=spec.traces_per_type,
        duration_s=spec.duration_s,
        interval_s=spec.interval_s,
    )
    meta["seed"] = spec.seed
    reporting.write_manifest(out / "manifest.csv", entries, meta)
    print(f"wrote {len(traces)} traces and manifest.csv under {out}")
    return EXIT_OK


# --- features ----------------------------------------------------------------


def cmd_features(args) -> int:
    window_len = _window_len(args)
    traces = reporting.load_manifest_traces(args.manifest)
    if args.scheme == "both":
        raise ConfigError("features writes a single matrix; pick --scheme rich8 or baseline2")
    ids, labels, rows = [], [], []
    for tr in traces:
        try:
            fv = extract(tr, window_len, args.scheme)
        except NoWindows:
            log.warning("trace %s is shorter than one window, row skipped", tr.trace_id)
            continue
        ids.append(tr.trace_id)
        labels.append(tr.label)
        rows.append(fv.values)
    if not rows:
        raise DataError("every trace was shorter than one window")
    reporting.write_feature_matrix(
        args.out, ids, labels, np.asarray(rows), args.scheme, _run_meta(args)
    )
    print(f"wrote {len(ids)} x {len(rows[0])} feature matrix to {args.out}")
    return EXIT_OK


def _dataset_from_matrix(path) -> tuple[LabeledDataset, dict]:
    ids, labels, feats, schema, meta = reporting.read_feature_matrix(path)
    keep = [i for i, lab in enumerate(labels) if lab is not None]
    if not keep:
        raise DataError(f"{path}: no labeled rows to train on")
    if len(keep) < len(ids):
        log.info("ignoring %d unlabeled rows", len(ids) - len(keep))
    ds = LabeledDataset(
        tuple(ids[i] for i in keep),
        feats[keep],
        np.array([int(labels[i]) for i in keep]),
        schema,
    )
    return ds, meta


# --- train / classify ----------------------------------------------------------


def cmd_train(args) -> int:
    dataset, _ = _dataset_from_matrix(args.features)
    config = _forest_config(args)
    forest = train_forest(dataset, config)
    run = _run_meta(args, scheme=dataset.schema)
    save_model(forest, args.out, run)
    print(f"trained {config.n_trees} trees on {len(dataset)} instances -> {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
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


def _window_len(args) -> float:
    """--window-mins in seconds; a bad value is a flag error (exit 2), not a data error."""
    if not 1.0 <= args.window_mins * 60.0 < np.inf:
        raise ConfigError(f"--window-mins must be finite and at least 1/60 (one second), "
                          f"got {args.window_mins}")
    return args.window_mins * 60.0


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
    values = _parse_floats(text, "--fractions")
    full_ok = protocol == "inter"
    bad = [v for v in values if not (0.0 < v < 1.0 or (full_ok and v == 1.0))]
    if bad:
        allowed = "(0, 1) or 1.0" if full_ok else "(0, 1)"
        raise ConfigError(f"--fractions takes numbers in {allowed}, got {bad[0]:g}")
    try:
        for v in values:
            if v < 1.0:
                evaluate.repeats_for_fraction(v)
    except DegenerateFraction as exc:
        raise ConfigError(f"--fractions: {exc}") from None
    return values


def _write_result_artifacts(out_dir: Path, stem: str, result, base: str, meta: dict) -> None:
    reporting.write_predictions(out_dir / f"predictions_{stem}.csv", result.predictions, meta)
    correctness = result.correctness
    grid = [round(float(x), 12) for x in np.linspace(0.0, max_entropy(base), 37)]
    reporting.write_roc(out_dir / f"roc_{stem}.csv", roc_sweep(result.predictions, correctness, grid), meta)
    reporting.write_cdf(out_dir / f"cdf_{stem}.csv", entropy_cdf(result.predictions, correctness), meta)


def cmd_eval(args) -> int:
    window_len = _window_len(args)
    if args.protocol == "window-sweep":
        minutes = _parse_minutes(args.windows)
    elif args.protocol != "subset-search":
        fractions = _parse_fractions(args.fractions, args.protocol)
    if args.protocol == "inter" and not args.manifest_b:
        raise ConfigError("--protocol inter needs --manifest-b")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = reporting.load_manifest_traces(args.manifest)
    use_b = args.manifest_b and args.protocol in ("inter", "window-sweep")
    traces_b = reporting.load_manifest_traces(args.manifest_b) if use_b else None
    config = _forest_config(args)
    base = args.entropy_base

    if args.protocol == "window-sweep":
        points = evaluate.window_sweep(traces, minutes, config, traces_b)
        mode = "inter_10fold" if traces_b is not None else "intra_loo"
        meta = _run_meta(args, protocol=f"window-sweep/{mode}", scheme=RICH8)
        reporting.write_csv(
            out_dir / "window_sweep.csv", ["window_mins", "accuracy"], points, meta
        )
        for m, acc in points:
            print(f"{m:4d} min  {acc * 100:6.1f}%")
        return EXIT_OK

    if args.protocol == "subset-search":
        dataset = evaluate.build_dataset(traces, window_len, RICH8)
        results = evaluate.feature_subset_search(dataset)
        rows = [
            [f"{mask:02x}", "+".join(feature_names(RICH8)[i] for i in mask_indices(mask)),
             len(mask_indices(mask)), acc]
            for mask, acc in results
        ]
        meta = _run_meta(args, protocol="subset-search", scheme=RICH8)
        reporting.write_csv(
            out_dir / "subset_search.csv", ["mask", "features", "n_features", "accuracy"],
            rows, meta,
        )
        best_mask, best_names, _, best_acc = rows[0]
        print(f"best mask 0x{best_mask} ({best_names}) accuracy {best_acc * 100:.1f}%")
        return EXIT_OK

    # percentage, loo and inter: one accuracy table and one set of curves per scheme
    if args.protocol == "loo":
        fractions = []
    elif args.protocol == "inter" and 1.0 not in fractions:
        fractions = fractions + [1.0]
    tables = {}
    for scheme in [RICH8, BASELINE2] if args.scheme == "both" else [args.scheme]:
        dataset = evaluate.build_dataset(traces, window_len, scheme)
        meta = _run_meta(args, scheme=scheme, protocol=args.protocol)
        if args.protocol == "inter":
            dataset_b = evaluate.build_dataset(traces_b, window_len, scheme)
            table, result = evaluate.inter_corpus(dataset, dataset_b, fractions, config, base)
        else:
            table, result = evaluate.percentage_protocol(dataset, fractions, config, base)
        _write_result_artifacts(out_dir, scheme, result, base, meta)
        meta.update(evaluate.table_repeat_meta(table))
        header, rows = evaluate.table_csv_rows(table)
        reporting.write_csv(out_dir / f"accuracy_{scheme}.csv", header, rows, meta)
        tables[scheme] = table
    _write_table_text(out_dir, tables)
    return EXIT_OK


def _write_table_text(out_dir: Path, tables: dict) -> None:
    if RICH8 in tables and BASELINE2 in tables:
        text = evaluate.render_table_text(
            tables[RICH8], tables[BASELINE2],
            title="accuracy % as rich8 (baseline2)",
        )
    else:
        scheme, table = next(iter(tables.items()))
        text = evaluate.render_table_text(table, title=f"accuracy % with {scheme}")
    (out_dir / "accuracy.txt").write_text(text)
    print(text, end="")


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


def cmd_relabel(args) -> int:
    if args.budget < 0:
        raise ConfigError(f"--budget must be >= 0, got {args.budget}")
    preds, _pmeta = read_preds_rebase(args.predictions, args.entropy_base)
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

    entries = [(tid, rel, label_by_id[tid]) for tid, rel, _ in entries]
    reporting.write_manifest(args.out_manifest, entries, manifest_meta)

    forest, run = load_model(args.model)
    ids, _labels, feats, schema, _fmeta = reporting.read_feature_matrix(args.features)
    keep = [i for i, tid in enumerate(ids) if label_by_id.get(tid) is not None]
    if not keep:
        raise DataError("no labeled instances left to retrain on")
    codes = np.array([int(label_by_id[ids[i]]) for i in keep])
    dataset = LabeledDataset(tuple(ids[i] for i in keep), feats[keep], codes, schema)
    retrained = train_forest(dataset, forest.config)
    save_model(retrained, args.out_model, run)
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
    p.add_argument("--preset", choices=PRESET_NAMES, default="default")
    p.add_argument("--spec", help="JSON corpus spec file (overrides --preset)")
    p.add_argument("--traces-per-type", type=int, default=20)
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
    p.add_argument("--manifest-b", help="second corpus (inter, window-sweep)")
    p.add_argument("--fractions", default=",".join(map(str, evaluate.DEFAULT_FRACTIONS)),
                   help="train fractions in (0, 1), and 1.0 for inter; no duplicates")
    p.add_argument("--windows", default=",".join(map(str, evaluate.WINDOW_SWEEP_MINUTES)),
                   help="window-sweep grid, whole minutes, no duplicates")
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
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SensorClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
