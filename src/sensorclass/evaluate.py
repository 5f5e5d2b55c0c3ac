"""Evaluation protocols: splits, cross-validation, transfer, and sweeps.

Every protocol here is a pure function of (data, config, master seed).
Randomness for split r of fraction f comes from a seed derived along the
path (seed, protocol tag, fraction index, repeat), so adding a fraction
or rerunning a repeat never disturbs the others.

Every protocol runs its (training rows, test rows, config, posteriors)
folds through one loop, _fold_posteriors, which grows their forests in
train_forests calls and sends back each forest's posteriors on its test
rows, or only their argmax where that is all the fold is scored by. The
percentage protocol grows its LOO folds in that same loop. A protocol
takes the datasets of one corpus, one per feature scheme: their folds are
drawn once and every scheme's go through the loop together, so an eval
command makes one block-map round of folds, whatever its schemes. Only the
LOO runs and inter's full-training-set run build Prediction records, with
entropies: theirs are the predictions eval writes.

The fold loop, like the trace loop of build_dataset, runs on every usable
CPU through the block map of the parallel module.

Accuracy bookkeeping follows the reporting layout: one row per sensor
type plus an overall row, one column per training fraction plus the
cross-validation column. The overall figure is always micro-averaged
(correct / total), never the mean of the per-class rows; a class absent
from a test set is undefined for that run, not zero.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import seeding
from .errors import DataError, DegenerateFraction, SchemaMismatch
from .features import RICH8, extract, mask_indices
from .forest import (
    ForestConfig,
    LabeledDataset,
    _best_splits,
    _column_ranks,
    _segment_scores,
    predict_matrix,
    train_forests,
)
from .parallel import _map_blocks, map_traces
from .trace import CLASS_COUNT, SensorTrace, SensorType
from .uncertainty import Prediction, make_prediction

log = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.05, 0.10, 0.20, 0.33, 0.50)
WINDOW_SWEEP_MINUTES = (15, 30, 45, 60, 90, 120)
LOO_COLUMN = "loo"
FULL_COLUMN = "100%"
MAX_REPEATS = 1000  # of one fraction: round(1 / fraction), so a fraction must exceed 1 / 1000.5

# seed derivation tags, one per protocol
_TAG_PERCENTAGE = 201
_TAG_LOO = 202
_TAG_INTER = 203
_TAG_SWEEP = 204


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def repeats_for_fraction(fraction: float) -> int:
    """round(1 / fraction) evaluation repeats, e.g. 20 at 5%, 2 at 50%, at most MAX_REPEATS."""
    if not 0.0 < fraction < 1.0:
        raise DegenerateFraction(f"fraction must be in (0, 1), got {fraction}")
    if (repeats := np.floor(1.0 / fraction + 0.5)) > MAX_REPEATS:  # inf for a subnormal fraction
        raise DegenerateFraction(f"fraction {fraction:g} would need {repeats:g} repeats, "
                                 f"more than {MAX_REPEATS}")
    return int(repeats)


def build_dataset(
    traces: Iterable[SensorTrace],
    window_len: float | Sequence[float],
    schema: str | Sequence[str] = RICH8,
    skip_short: bool = False,
) -> LabeledDataset | list[LabeledDataset | None]:
    """Featurize labeled traces into a dataset ready for training.

    The traces are read in one pass, so a lazy load_manifest_traces stream
    is read once and each trace can be dropped as soon as its rows are
    extracted; such a stream is read on every usable CPU by map_traces.
    window_len and schema may also be sequences: then the result is a list
    of datasets, one per (window length, schema) pair, window lengths
    outermost, every row of a trace extracted while it is loaded. With
    skip_short, a trace shorter than a window length is left out of that
    length's datasets with a warning, and a dataset left without rows is
    None; otherwise such a trace raises NoWindows.
    """
    scalar = np.ndim(window_len) == 0
    lens = [window_len] if scalar else list(window_len)
    schemas = [schema] if isinstance(schema, str) else schema
    [datasets] = _build_datasets([traces], lens, schemas, skip_short)
    return datasets[0] if scalar and isinstance(schema, str) else datasets


def _build_datasets(
    corpora: Sequence[Iterable[SensorTrace]], lens: Sequence[float], schemas: Sequence[str],
    skip_short: bool,
) -> list[list[LabeledDataset | None]]:
    """build_dataset's list of datasets for each corpus. The skips are logged
    once every corpus is read, so a corpus that fails to read leaves the
    run's error alone on stderr."""
    read = [_corpus_datasets(traces, lens, schemas, skip_short) for traces in corpora]
    for _, skips in read:  # logged here since a worker logs nothing
        for tid, span, w in skips:
            log.warning("window sweep: trace %s span %.0fs < window %.0fs, skipped", tid, span, w)
    return [datasets for datasets, _ in read]


def _corpus_datasets(
    traces: Iterable[SensorTrace], lens: Sequence[float], schemas: Sequence[str], skip_short: bool
) -> tuple[list[LabeledDataset | None], list[tuple[str, float, float]]]:
    """One corpus's datasets, in view order, and its skips: (trace id, span,
    window length). Its per-trace records are released on return."""
    records = map_traces(partial(_view_rows, lens=lens, schemas=schemas,
                                 skip_short=skip_short), traces)
    skips = [(tid, span, w) for tid, _, span, _ in records for w in lens
             if skip_short and span < w]
    datasets = []
    for v, s in enumerate(list(schemas) * len(lens)):  # each view's schema, in view order
        kept = [(tid, int(label), rows[v]) for tid, label, _, rows in records
                if rows[v] is not None]
        ids, labels, rows = zip(*kept) if kept else ((), (), ())
        datasets.append(LabeledDataset(ids, np.asarray(rows), np.asarray(labels), s)
                        if kept or not skip_short else None)
    return datasets, skips


def _view_rows(trace: SensorTrace, lens: Sequence[float], schemas: Sequence[str],
               skip_short: bool) -> tuple[str, SensorType | None, float, list[np.ndarray | None]]:
    """build_dataset's record of a trace: (its id, its label, its span, its row
    in each (window length, schema) view, in view order, None where it is skipped)."""
    views = [None if skip_short and trace.span < w else (w, s) for w in lens for s in schemas]
    if trace.label is None and any(views):
        raise DataError(f"trace {trace.trace_id!r} has no label; cannot build a dataset")
    return trace.trace_id, trace.label, trace.span, [
        None if view is None else extract(trace, *view).values for view in views]


def stratified_split(
    dataset: LabeledDataset, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class train/test split. Returns (train indices, test indices).

    Each class contributes round(fraction * n_c) training instances,
    clamped to [1, n_c - 1] so both sides stay populated whenever the
    class has at least two members. A singleton class goes wholly to
    train and is untestable for this split. Raises DegenerateFraction if
    either side ends up globally empty.
    """
    if not 0.0 < fraction < 1.0:
        raise DegenerateFraction(f"fraction must be in (0, 1), got {fraction}")
    train: list[np.ndarray] = []
    test: list[np.ndarray] = []
    for code in range(len(SensorType)):
        idx = np.nonzero(dataset.labels == code)[0]
        n_c = len(idx)
        if n_c == 0:
            continue
        if n_c == 1:
            log.info(
                "stratified_split: class %s has one instance; untestable this split",
                SensorType(code).label,
            )
            train.append(idx)
            continue
        k = min(max(_round_half_up(fraction * n_c), 1), n_c - 1)
        chosen = rng.choice(idx, size=k, replace=False)
        train.append(np.sort(chosen))
        test.append(np.delete(idx, np.searchsorted(idx, chosen)))  # idx ascending
    train_idx = np.sort(np.concatenate(train)) if train else np.array([], dtype=np.int64)
    test_idx = np.sort(np.concatenate(test)) if test else np.array([], dtype=np.int64)
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise DegenerateFraction(
            f"fraction {fraction} leaves train={len(train_idx)}, test={len(test_idx)}"
        )
    return train_idx, test_idx


@dataclass(frozen=True)
class PerClassAccuracy:
    """Accuracy by class (None where the class had no test instances)."""

    per_class: dict[SensorType, float | None]
    overall: float
    support: dict[SensorType, int]


def per_class_accuracy(
    truth: np.ndarray | Sequence[int], predicted: np.ndarray | Sequence[int]
) -> PerClassAccuracy:
    t = np.asarray(truth, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if t.shape != p.shape or t.size == 0:
        raise DataError("truth and predictions must be equal-length and non-empty")
    per: dict[SensorType, float | None] = {}
    support: dict[SensorType, int] = {}
    for st in SensorType:
        sel = t == int(st)
        support[st] = int(sel.sum())
        per[st] = float((p[sel] == int(st)).mean()) if sel.any() else None
    return PerClassAccuracy(per, float((t == p).mean()), support)


@dataclass(frozen=True)
class AccuracyCell:
    """Mean accuracy over the repeats where the value was defined."""

    mean: float | None
    repeats: int


ROW_NAMES = [t.label for t in SensorType] + ["overall"]

# column name -> that column's accuracy_column cells (row name -> cell), in column order
AccuracyTable = dict[str, dict[str, AccuracyCell]]


def accuracy_column(results: Sequence[PerClassAccuracy]) -> dict[str, AccuracyCell]:
    """One table column: per-class and overall means over the runs where each is defined."""
    cells: dict[str, AccuracyCell] = {}
    for st in SensorType:
        vals = [r.per_class[st] for r in results if r.per_class[st] is not None]
        cells[st.label] = AccuracyCell(float(np.mean(vals)) if vals else None, len(vals))
    overall = [r.overall for r in results]
    cells["overall"] = AccuracyCell(float(np.mean(overall)), len(overall))
    return cells


def fraction_column_name(fraction: float) -> str:
    return f"{fraction * 100:g}%"


@dataclass(frozen=True)
class ProtocolResult:
    """Per-instance outcome of a protocol run, for uncertainty analysis."""

    predictions: list[Prediction]
    truth: dict[str, SensorType]
    accuracy: PerClassAccuracy

    @property
    def correctness(self) -> dict[str, bool]:
        by_id = {p.trace_id: p.predicted for p in self.predictions}
        return {tid: by_id[tid] == lab for tid, lab in self.truth.items()}


def _block_posteriors(
    pairs: Sequence[tuple[LabeledDataset, LabeledDataset]], run: Sequence[tuple]
) -> list[np.ndarray]:
    """The serial fold loop over a run of (dataset pair, fold) items: one
    train_forests call per pair, each forest predicted as it comes out."""
    out = []
    for k, items in itertools.groupby(run, key=lambda item: item[0]):
        folds = [fold for _, fold in items]
        train, test = pairs[k]
        forests = train_forests(train, [(rows, config) for rows, _, config, _ in folds])
        for forest, (_, rows, _, posteriors) in zip(forests, folds):
            probs = predict_matrix(forest, test.features[rows], test.schema)
            out.append(probs if posteriors else probs.argmax(axis=1))
    return out


def _fold_posteriors(
    pairs: Sequence[tuple[LabeledDataset, LabeledDataset]], folds: Sequence[tuple]
) -> Iterator[np.ndarray]:
    """Per (train, test) dataset pair, per (rows of train, rows of test, config,
    posteriors) fold, its forest's posteriors on its test rows, or only their
    argmax where posteriors is False: pair by pair, each in fold order. Every
    pair's folds go through one _map_blocks round on every usable CPU, cut
    by (training + test rows) x trees: growing a forest and predicting with
    it both take time in proportion to their rows x trees."""
    items = [(k, fold) for k in range(len(pairs)) for fold in folds]
    weights = [(len(rows) + len(test_rows)) * config.n_trees
               for _, (rows, test_rows, config, _) in items]
    return iter(_map_blocks(partial(_block_posteriors, pairs), items, weights))


def _one_corpus(datasets: Sequence[LabeledDataset]) -> list[LabeledDataset]:
    """The datasets of one corpus, one per scheme, as a list: they must share
    ids and labels, since their folds are drawn once, from the first."""
    datasets = list(datasets)
    if not datasets or any(ds.ids != datasets[0].ids
                           or not np.array_equal(ds.labels, datasets[0].labels)
                           for ds in datasets[1:]):
        raise DataError("a protocol's datasets must be one or more views of the same "
                        "labeled rows")
    return datasets


def _prediction_records(
    dataset: LabeledDataset, probs: np.ndarray, entropy_base: str
) -> ProtocolResult:
    """One Prediction per dataset row, from the (n, classes) posteriors of every row."""
    predicted = probs.argmax(axis=1)
    preds = [
        make_prediction(tid, SensorType(int(code)), row, entropy_base)
        for tid, code, row in zip(dataset.ids, predicted, probs)
    ]
    truth = {tid: SensorType(int(lab)) for tid, lab in zip(dataset.ids, dataset.labels)}
    return ProtocolResult(preds, truth, per_class_accuracy(dataset.labels, predicted))


def _fold_config(config: ForestConfig, *path: int) -> ForestConfig:
    return replace(config, seed=seeding.derive_seed(config.seed, *path))


def fraction_splits(
    dataset: LabeledDataset, fraction: float, config: ForestConfig, tag: int, fi: int
) -> Iterator[tuple[np.ndarray, np.ndarray, ForestConfig]]:
    """(train indices, test indices, fold config) for each repeat of a fraction.

    Repeat rep splits with the generator at (seed, tag, fi, rep, 0) and
    trains its forest with the seed at (seed, tag, fi, rep, 1).
    """
    for rep in range(repeats_for_fraction(fraction)):
        rng = seeding.generator(config.seed, tag, fi, rep, 0)
        train_idx, test_idx = stratified_split(dataset, fraction, rng)
        yield train_idx, test_idx, _fold_config(config, tag, fi, rep, 1)


def percentage_protocol(
    datasets: Sequence[LabeledDataset],
    fractions: Sequence[float],
    config: ForestConfig,
    entropy_base: str = "nats",
) -> list[tuple[AccuracyTable, ProtocolResult]]:
    """Stratified train fractions, each repeated round(1/fraction) times,
    then leave-one-out: per dataset, (the table, with the LOO column last,
    and the LOO result, one Prediction per row).

    Small fractions are noisier, so they get proportionally more repeats;
    every cell is the mean over the repeats where it was defined. The
    datasets are those of one corpus, one per scheme, with the same ids and
    labels. The splits are drawn once, from the labels, and the forests of
    every dataset's folds, fractions and LOO alike, grow in one
    _fold_posteriors round.
    """
    datasets = _one_corpus(datasets)
    splits = [list(fraction_splits(datasets[0], fraction, config, _TAG_PERCENTAGE, fi))
              for fi, fraction in enumerate(fractions)]
    folds = [(tr, te, cfg, False) for repeats in splits for tr, te, cfg in repeats]
    results = _fold_posteriors([(ds, ds) for ds in datasets],
                               folds + _loo_folds(datasets[0], config, True))
    out = []
    for ds in datasets:
        table: AccuracyTable = {}
        for fraction, repeats in zip(fractions, splits):
            table[fraction_column_name(fraction)] = accuracy_column(
                [per_class_accuracy(ds.labels[te], next(results)) for _, te, _ in repeats])
        loo = _prediction_records(ds, np.concatenate(list(itertools.islice(results, len(ds)))),
                                  entropy_base)
        table[LOO_COLUMN] = accuracy_column([loo.accuracy])
        out.append((table, loo))
    return out


def _loo_folds(dataset: LabeledDataset, config: ForestConfig, posteriors: bool) -> list[tuple]:
    """The fold of each row: trained without it, seeded at (seed, 202, row)."""
    n = len(dataset)
    if n < 2:
        raise DataError("leave-one-out needs at least two instances")
    return [(np.delete(np.arange(n), i), [i], _fold_config(config, _TAG_LOO, i), posteriors)
            for i in range(n)]


def loo_cv(
    dataset: LabeledDataset, config: ForestConfig, entropy_base: str = "nats"
) -> ProtocolResult:
    """Leave-one-out cross-validation; one forest per held-out instance.

    The LOO result of percentage_protocol with no fractions.
    """
    return percentage_protocol([dataset], (), config, entropy_base)[0][1]


def inter_corpus(
    train_datasets: Sequence[LabeledDataset],
    test_datasets: Sequence[LabeledDataset],
    fractions: Sequence[float],
    config: ForestConfig,
    entropy_base: str = "nats",
) -> list[tuple[AccuracyTable, ProtocolResult | None]]:
    """Train on one corpus, evaluate on another: per scheme, (the table, the
    full-training-set run when 1.0 was requested, else None).

    Fractions below 1 subsample the training corpus (stratified; the
    held-back complement is simply unused) with round(1/f) repeats;
    fraction 1.0 trains on the whole corpus exactly once. As in
    percentage_protocol, each corpus is its datasets, one per scheme,
    paired in order, and every pair's folds grow in one round.
    """
    trains, tests = _one_corpus(train_datasets), _one_corpus(test_datasets)
    schemas = [", ".join(repr(ds.schema) for ds in corpus) for corpus in (trains, tests)]
    if schemas[0] != schemas[1]:
        raise SchemaMismatch(f"corpora disagree on schema: {schemas[0]} vs {schemas[1]}")
    test_rows = np.arange(len(tests[0]))
    splits = []  # per fraction, its (training rows, test rows, config, posteriors) folds
    for fi, fraction in enumerate(fractions):
        if fraction == 1.0:
            everyone = np.arange(len(trains[0]))
            splits.append([(everyone, test_rows, _fold_config(config, _TAG_INTER, fi, 0, 1),
                            True)])
        else:
            folds = fraction_splits(trains[0], fraction, config, _TAG_INTER, fi)
            splits.append([(tr, test_rows, cfg, False) for tr, _, cfg in folds])
    results = _fold_posteriors(list(zip(trains, tests)),
                               [fold for folds in splits for fold in folds])
    out = []
    for test in tests:
        table: AccuracyTable = {}
        full_result: ProtocolResult | None = None
        for fraction, folds in zip(fractions, splits):
            if fraction == 1.0:
                full_result = _prediction_records(test, next(results), entropy_base)
                runs = [full_result.accuracy]
            else:
                runs = [per_class_accuracy(test.labels, next(results)) for _ in folds]
            table[fraction_column_name(fraction)] = accuracy_column(runs)
        out.append((table, full_result))
    return out


def window_sweep(
    traces: Iterable[SensorTrace],
    window_minutes: Sequence[int] = WINDOW_SWEEP_MINUTES,
    config: ForestConfig = ForestConfig(),
    traces_b: Iterable[SensorTrace] | None = None,
) -> list[tuple[int, float]]:
    """Overall rich8 accuracy as a function of segmentation window length.

    Without a second corpus each point is leave-one-out accuracy on the
    given traces. With traces_b the forest trains on the full first corpus
    and the point is its accuracy averaged over ten folds of the second.
    Each corpus is read once, every window length's rows extracted from a
    trace while it is loaded. Traces too short for a window length are
    dropped with a notice; a window length that leaves either corpus empty
    yields no curve point.
    """
    lens = [float(minutes) * 60.0 for minutes in window_minutes]
    corpora = [traces] if traces_b is None else [traces, traces_b]
    by_corpus = _build_datasets(corpora, lens, [RICH8], skip_short=True)
    points: list[tuple[int, float]] = []
    for wi, (minutes, *datasets) in enumerate(zip(window_minutes, *by_corpus)):
        if any(ds is None for ds in datasets):
            log.warning("window sweep: no usable traces at %d minutes, point skipped", minutes)
            continue
        if traces_b is None:
            ds = datasets[0]
            predicted = np.concatenate(list(_fold_posteriors([(ds, ds)],
                                                             _loo_folds(ds, config, False))))
            points.append((minutes, per_class_accuracy(ds.labels, predicted).overall))
            continue
        dataset, dataset_b = datasets
        fold = (np.arange(len(dataset)), np.arange(len(dataset_b)),
                _fold_config(config, _TAG_SWEEP, wi, 1), False)
        predicted = next(_fold_posteriors([(dataset, dataset_b)], [fold]))
        rng = seeding.generator(config.seed, _TAG_SWEEP, wi, 0)
        accs = [per_class_accuracy(dataset_b.labels[rows], predicted[rows]).overall
                for rows in np.array_split(rng.permutation(len(dataset_b)), 10) if len(rows)]
        points.append((minutes, float(np.mean(accs))))
    return points


@dataclass(frozen=True)
class _PathNode:
    """A tree node of feature_subset_search, shared by every mask of a fold that grows it."""

    rows: np.ndarray  # the training rows at the node, ascending: dataset row indices
    majority: int  # most frequent class, lowest code on ties
    table: list  # per mask, its split feature; -1 makes the node a leaf
    thresholds: list  # per mask, its split's threshold
    children: dict  # (split feature, held-out row goes left) -> _PathNode


def feature_subset_search(dataset: LabeledDataset) -> list[tuple[int, float]]:
    """LOO accuracy of every non-empty subset of the eight features.

    Each mask is scored with a single deterministic tree (all subset
    features available at every node, no bootstrap), so the ranking
    reflects the features rather than sampling noise. Sorted best-first;
    ties prefer fewer features, then the smaller mask value.

    With no resampling and no feature sampling, a node's split is a pure
    function of its rows and the mask: the lowest mask feature with the
    strictly highest positive gain. So each distinct impure row set of a
    fold is scored once, on the dataset's ranks as the grower scores a node,
    for all 255 masks, and every mask follows only the held-out row's path
    through those tables. The memo holds one fold's nodes: a node holds
    every other row on its fold's path, so another fold reaches its row set
    only by coincidence. The prediction is the leaf's most frequent class,
    lowest code on ties: the argmax of the leaf posterior that
    train_tree(..., identity_bootstrap=True) would hold.
    """
    if dataset.schema != RICH8:
        raise SchemaMismatch(f"subset search expects a rich8 dataset, got {dataset.schema!r}")
    n = len(dataset)
    if n < 2:
        raise DataError("leave-one-out needs at least two instances")
    x, y = dataset.features, dataset.labels
    xs, ys = x.tolist(), y.tolist()
    masks = range(1, 256)
    candidates = [mask_indices(mask) for mask in masks]
    cand, n_cand = np.concatenate(candidates), np.array([len(c) for c in candidates])
    ranks, columns = _column_ranks(x), np.arange(x.shape[1])  # ranked once per search
    nodes: dict[bytes, _PathNode] = {}  # one fold's nodes, by row set

    def node(rows: np.ndarray) -> _PathNode:
        key = rows.tobytes()
        if key not in nodes:
            counts = np.bincount(y[rows], minlength=CLASS_COUNT).astype(float)
            table, thresholds = [-1] * len(masks), []
            if counts.max() < len(rows):
                gain, threshold = _segment_scores(x, y, ranks, rows, np.array([len(rows)]),
                                                  counts[None], columns, np.array([len(columns)]))
                f, t = _best_splits(gain[cand], threshold[cand], cand, n_cand)
                table, thresholds = f.tolist(), t.tolist()
            nodes[key] = _PathNode(rows, int(np.argmax(counts)), table, thresholds, {})
        return nodes[key]

    correct = [0] * len(masks)
    for i in range(n):
        nodes.clear()
        root = node(np.delete(np.arange(n), i))
        for k in range(len(masks)):
            at = root
            while (f := at.table[k]) >= 0:
                t = at.thresholds[k]
                step = (f, xs[i][f] <= t)
                if step not in at.children:
                    side = x[at.rows, f] <= t
                    at.children[step] = node(at.rows[side if step[1] else ~side])
                at = at.children[step]
            correct[k] += at.majority == ys[i]
    results = [(mask, c / n) for mask, c in zip(masks, correct)]
    results.sort(key=lambda item: (-item[1], len(mask_indices(item[0])), item[0]))
    return results


# --- table rendering ----------------------------------------------------------


def _cell_text(cell: AccuracyCell, baseline: AccuracyCell | None) -> str:
    if cell.mean is None:
        return "-"
    text = f"{cell.mean * 100:.1f}"
    if baseline is not None and baseline.mean is not None:
        text += f" ({baseline.mean * 100:.1f})"
    return text


def render_table_text(
    table: AccuracyTable, baseline: AccuracyTable | None = None, title: str = ""
) -> str:
    """Aligned text table; accuracies in percent, one decimal.

    With a second table the cell reads "main (baseline)", matching the
    usual side-by-side presentation of the two feature schemes.
    """
    columns = [(cells, (baseline or {}).get(name, {})) for name, cells in table.items()]
    body = [[row] + [_cell_text(cells[row], base.get(row)) for cells, base in columns]
            for row in ROW_NAMES]
    header = ["type"] + list(table)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def table_csv_rows(table: AccuracyTable) -> tuple[list[str], list[list]]:
    """(header, rows) for reporting.write_csv; cells are fractions, '' if undefined."""
    header = ["type"] + list(table)
    rows = [[name] + [cells[name].mean for cells in table.values()] for name in ROW_NAMES]
    return header, rows


def table_repeat_meta(table: AccuracyTable) -> dict[str, int]:
    """Repeat counts per column (overall row), for artifact metadata."""
    return {f"repeats.{col}": cells["overall"].repeats for col, cells in table.items()}
