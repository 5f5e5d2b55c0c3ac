"""In-process span tracing of the sensorclass layers, from outside the package.

Each public function at a layer boundary is replaced, for the duration of a
traced run, under the module attribute where its caller looks it up
(`evaluate.train_forest`, `forest.best_split`, `features.window_stats`, ...).
No package file is edited. A span records its name, the site it was wrapped
at, start and end (perf_counter seconds), its parent span and the run id.
Spans stay in memory and are written out once, when the benchmark ends.

A site whose attribute no longer exists is reported as absent; a site that
exists but is never called reports zero. Neither stops the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute its caller looks up, span name). A span name is the
# layer metric prefix: "forest.train_tree" is reached both through
# forest.train_forest and through evaluate's single-tree LOO.
SITES: tuple[tuple[str, str, str], ...] = (
    ("cli", "generate_corpus", "synth.generate_corpus"),
    ("cli", "write_trace_csv", "trace.write_trace_csv"),
    ("reporting", "load_manifest_traces", "reporting.load_manifest_traces"),
    ("reporting", "read_trace_csv", "trace.read_trace_csv"),
    ("cli", "extract", "features.extract"),
    ("evaluate", "extract", "features.extract"),
    ("features", "segment_windows", "trace.segment_windows"),
    ("features", "window_stats", "trace.window_stats"),
    ("reporting", "write_feature_matrix", "reporting.write_feature_matrix"),
    ("reporting", "read_feature_matrix", "reporting.read_feature_matrix"),
    ("evaluate", "build_dataset", "evaluate.build_dataset"),
    ("evaluate", "percentage_protocol", "evaluate.protocol"),
    ("evaluate", "loo_cv", "evaluate.protocol"),
    ("evaluate", "feature_subset_search", "evaluate.protocol"),
    ("cli", "train_forest", "forest.train_forest"),
    ("evaluate", "train_forest", "forest.train_forest"),
    ("forest", "train_tree", "forest.train_tree"),
    ("evaluate", "train_tree", "forest.train_tree"),
    ("forest", "best_split", "forest.best_split"),
    ("cli", "predict_matrix", "forest.predict_matrix"),
    ("evaluate", "predict_matrix", "forest.predict_matrix"),
    ("evaluate", "tree_posterior", "forest.tree_posterior"),
    ("cli", "save_model", "forest.save_model"),
    ("cli", "load_model", "forest.load_model"),
    ("cli", "make_prediction", "uncertainty.make_prediction"),
    ("evaluate", "make_prediction", "uncertainty.make_prediction"),
    ("cli", "flag_above_threshold", "uncertainty.flag_above_threshold"),
    ("cli", "roc_sweep", "uncertainty.roc_sweep"),
)


class Tracer:
    """Span recorder. Single-threaded: the CLI runs with --threads 1."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, run, name, site, start, end)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (run, counter)
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id so children number after it
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, tracer.run, name, site, start, end)
            if count is not None:
                count(counts, tracer.run, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name in SITES:
            site = f"{mod_name}.{attr}"
            module = importlib.import_module(f"sensorclass.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(site)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, site))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "run", "name", "site", "start", "end"],
                                 "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- counters recorded at the boundaries ------------------------------------


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_read_trace(counts, run, args, kwargs, result):
    counts[run, "trace.samples"] += len(result)
    counts[run, "trace.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_windows(counts, run, args, kwargs, result):
    counts[run, "trace.windows"] += len(result)


def _count_split(counts, run, args, kwargs, result):
    # best_split returns None when the node becomes a leaf; every split it
    # returns adds two children to the tree
    if result is not None:
        counts[run, "forest.splits"] += 1


def _count_predict(counts, run, args, kwargs, result):
    counts[run, "forest.predict_rows"] += len(_arg(args, kwargs, 1, "features"))


_COUNTERS = {
    "trace.read_trace_csv": _count_read_trace,
    "trace.segment_windows": _count_windows,
    "forest.best_split": _count_split,
    "forest.predict_matrix": _count_predict,
}

# --- per-layer metrics --------------------------------------------------------

# (metric name, unit); the order they are reported in
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("trace.read_trace_csv_s", "s"),
    ("trace.csv_mb_per_s", "MB/s"),
    ("trace.samples", "count"),
    ("reporting.load_manifest_traces_s", "s"),
    ("trace.segment_windows_s", "s"),
    ("trace.window_stats_s", "s"),
    ("trace.windows", "count"),
    ("features.extract_s", "s"),
    ("features.extract_self_s", "s"),
    ("reporting.write_feature_matrix_s", "s"),
    ("forest.best_split_s", "s"),
    ("forest.best_split_calls", "count"),
    ("forest.train_tree_self_s", "s"),
    ("forest.train_forest_s", "s"),
    ("forest.trees", "count"),
    ("forest.nodes", "count"),
    ("forest.predict_matrix_s", "s"),
    ("forest.predict_rows", "count"),
    ("forest.predict_rows_per_s", "1/s"),
    ("forest.tree_posterior_s", "s"),
    ("forest.tree_posterior_calls", "count"),
    ("forest.save_model_s", "s"),
    ("forest.load_model_s", "s"),
    ("reporting.read_feature_matrix_s", "s"),
    ("uncertainty.make_prediction_s", "s"),
    ("uncertainty.flag_above_threshold_s", "s"),
    ("uncertainty.roc_sweep_s", "s"),
    ("evaluate.build_dataset_s", "s"),
    ("evaluate.protocol_self_s", "s"),
    ("evaluate.folds", "count"),
    ("cli.import_s", "s"),
    ("synth.generate_corpus_s", "s"),
    ("trace.write_trace_csv_s", "s"),
    ("bench.trace_overhead_s", "s"),
)

# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = (
    "trace.samples", "trace.windows", "forest.best_split_calls", "forest.trees",
    "forest.nodes", "forest.predict_rows", "forest.tree_posterior_calls", "evaluate.folds",
)


def layer_totals(tracer: Tracer, run: str) -> dict[str, float]:
    """Totals, self times and counts of one run id's spans, by metric name."""
    spans = [s for s in tracer.spans if s is not None and s[2] == run]
    by_id = {s[0]: s for s in spans}
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, _, start, end in spans:
        if parent in by_id:
            child_time[parent] += end - start
    folds = 0
    for sid, parent, _, name, _, start, end in spans:
        duration = end - start
        calls[name] += 1
        self_time[name] += duration - child_time[sid]
        # a span nested in a span of the same name is already in that total
        p, nested = parent, False
        while p in by_id:
            if by_id[p][3] == name:
                nested = True
                break
            p = by_id[p][1]
        if not nested:
            total[name] += duration
        if name in ("forest.train_forest", "forest.train_tree") and \
                by_id.get(parent, (None,) * 4)[3] == "evaluate.protocol":
            folds += 1
    counts = {key: v for (r, key), v in tracer.counts.items() if r == run}
    read_s = total["trace.read_trace_csv"]
    predict_s = total["forest.predict_matrix"]
    rows = counts.get("forest.predict_rows", 0.0)
    return {
        "trace.read_trace_csv_s": read_s,
        "trace.csv_mb_per_s": counts.get("trace.csv_bytes", 0.0) / 1e6 / read_s if read_s else 0.0,
        "trace.samples": counts.get("trace.samples", 0.0),
        "reporting.load_manifest_traces_s": total["reporting.load_manifest_traces"],
        "trace.segment_windows_s": total["trace.segment_windows"],
        "trace.window_stats_s": total["trace.window_stats"],
        "trace.windows": counts.get("trace.windows", 0.0),
        "features.extract_s": total["features.extract"],
        "features.extract_self_s": self_time["features.extract"],
        "reporting.write_feature_matrix_s": total["reporting.write_feature_matrix"],
        "forest.best_split_s": total["forest.best_split"],
        "forest.best_split_calls": calls["forest.best_split"],
        "forest.train_tree_self_s": self_time["forest.train_tree"],
        "forest.train_forest_s": total["forest.train_forest"],
        "forest.trees": calls["forest.train_tree"],
        "forest.nodes": calls["forest.train_tree"] + 2 * counts.get("forest.splits", 0.0),
        "forest.predict_matrix_s": predict_s,
        "forest.predict_rows": rows,
        "forest.predict_rows_per_s": rows / predict_s if predict_s else 0.0,
        "forest.tree_posterior_s": total["forest.tree_posterior"],
        "forest.tree_posterior_calls": calls["forest.tree_posterior"],
        "forest.save_model_s": total["forest.save_model"],
        "forest.load_model_s": total["forest.load_model"],
        "reporting.read_feature_matrix_s": total["reporting.read_feature_matrix"],
        "uncertainty.make_prediction_s": total["uncertainty.make_prediction"],
        "uncertainty.flag_above_threshold_s": total["uncertainty.flag_above_threshold"],
        "uncertainty.roc_sweep_s": total["uncertainty.roc_sweep"],
        "evaluate.build_dataset_s": total["evaluate.build_dataset"],
        "evaluate.protocol_self_s": self_time["evaluate.protocol"],
        "evaluate.folds": folds,
        "synth.generate_corpus_s": total["synth.generate_corpus"],
        "trace.write_trace_csv_s": total["trace.write_trace_csv"],
    }
