"""Spans around the calls into each defectcost layer, recorded from outside the package.

`install` replaces every function or method listed in WRAPS, in each loaded
``defectcost`` module that binds it, with a wrapper that records one span per
call: name, start, end, parent span and a few counters read from the
arguments and the result. No file of the package changes. Spans stay in
memory until `Tracer.dump` writes them; `layer_metrics` turns them into the
benchmark's per-layer metrics.

A wrapped function that a later version of the package no longer has is
skipped and reported by `install`, so its metrics read 0 instead of the traced
run failing.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _tree_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return count


def _fit_name(args, kwargs):
    return "forest.fit_" + _arg(args, kwargs, 4, "task", "classify")


def _run_counts(args, kwargs, result):
    done = {(r.project, r.release, r.sample) for r in result.records}
    return {"notices": len(result.notices), "targets_done": len(done)}


def _forest_counts(args, kwargs, forest):
    return {
        "rows": len(args[0]),
        "trees": len(forest.trees),
        "nodes": sum(_tree_nodes(t) for t in forest.trees),
    }


def _written_bytes(args, kwargs, path):
    return {"bytes": path.stat().st_size}


# (module, attribute, span name or callable(args, kwargs) -> name, counter or None).
# A counter maps (args, kwargs, result) to a dict of counts summed per span name.
WRAPS = (
    ("defectcost.dataset", "load_corpus", "dataset.load", lambda a, k, r: {"releases": len(r)}),
    ("defectcost.dataset", "Release.view", "dataset.view", lambda a, k, r: {"rows": len(r.ids)}),
    ("defectcost.dataset", "bootstrap_split", "dataset.split", None),
    ("defectcost.experiments", "run_bootstrap", "experiments.run", _run_counts),
    ("defectcost.experiments", "run_cross_version", "experiments.run", _run_counts),
    ("defectcost.experiments", "run_cross_project", "experiments.run", _run_counts),
    ("defectcost.experiments", "cross_project_training_views", "experiments.train_views", None),
    ("defectcost.experiments", "transfer_transform", "experiments.transfer", None),
    ("defectcost.experiments", "write_records_csv", "experiments.write", _written_bytes),
    ("defectcost.experiments", "write_records_jsonl", "experiments.write", _written_bytes),
    ("defectcost.experiments", "read_records", "experiments.read", lambda a, k, r: {"records": len(r)}),
    ("defectcost.learners.smote", "apply_smote", "smote.apply",
     lambda a, k, r: {"synthetic_rows": len(r[0]) - len(a[0])}),
    ("defectcost.learners.forest", "train_random_forest", _fit_name, _forest_counts),
    ("defectcost.learners.forest", "Forest.predict_proba", "forest.predict", lambda a, k, r: {"rows": len(r)}),
    ("defectcost.learners.forest", "Forest.predict", "forest.predict", lambda a, k, r: {"rows": len(r)}),
    ("defectcost.learners.forest", "Forest.oob_proba", "forest.predict", lambda a, k, r: {"rows": len(r[0])}),
    ("defectcost.learners.tree", "train_cart", "tree.cart", None),
    ("defectcost.learners.nb", "train_gaussian_nb", "nb.fit", None),
    ("defectcost.learners.nb", "GaussianNB.predict_proba", "nb.predict", None),
    ("defectcost.metrics", "evaluate_metrics", "metrics.evaluate", lambda a, k, r: {"artifacts": a[0].n}),
    ("defectcost.metrics", "auc_recall_pf", "metrics.auc_recall_pf", None),
    ("defectcost.metrics", "effort_metrics", "metrics.effort", None),
    ("defectcost.confounders", "compute_confounders", "confounders.compute", None),
    ("defectcost.costmodel", "cost_bounds", "costmodel.bounds", lambda a, k, r: {"defects": len(a[0].defects)}),
    ("defectcost.analysis", "records_matrix", "analysis.records_matrix", None),
    ("defectcost.analysis", "correlation_analysis", "analysis.correlation", None),
    ("defectcost.learners.logit", "fit_multinomial_logit_elastic_net", "logit.fit",
     lambda a, k, r: {"cells": len(r.grid)}),
    ("defectcost.analysis", "evaluate_confusion", "analysis.confusion", None),
    ("defectcost.analysis", "sensitivity_boundaries", "analysis.sens_boundaries", None),
    ("defectcost.analysis", "sensitivity_regression", "analysis.sens_regression", None),
    ("defectcost.synth", "generate_synthetic", "synth.generate", None),
)


class Tracer:
    """Span recorder. A span is [name, start, end, parent index or -1, counts or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counter):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counter is not None:
                # counters read package internals; one that no longer fits them is dropped
                try:
                    span[4] = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every WRAPS entry in the loaded package; returns the entries not found."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "defectcost" or n.startswith("defectcost."))]
        missing = []
        for module_name, attr, name, counter in WRAPS:
            owner = sys.modules.get(module_name)
            owner_attr, _, fn_name = attr.rpartition(".")
            if owner is not None and owner_attr:
                owner = getattr(owner, owner_attr, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(name, original, counter)
            if owner_attr:
                setattr(owner, fn_name, wrapped)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        return missing

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def summarize(spans: list[list]) -> dict:
    """Per span name: inclusive seconds, calls and summed counts of the outermost
    spans of that name (a span nested in one of the same name is not counted
    twice), plus the self seconds of every span (its time minus its children's)."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    self_s: dict[str, float] = defaultdict(float)
    top_level_s = 0.0
    for name, start, end, parent, span_counts in spans:
        duration = end - start
        self_s[name] += duration
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
        else:
            top_level_s += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor >= 0:
            continue
        total[name] += duration
        calls[name] += 1
        for key, value in (span_counts or {}).items():
            counts[name][key] += value
    return {"total": total, "calls": calls, "counts": counts, "self": self_s, "top_level_s": top_level_s}


def _yield(s) -> float:
    done = s["counts"]["experiments.run"]["targets_done"]
    attempted = done + s["counts"]["experiments.run"]["notices"]
    return done / attempted if attempted else 0.0


FIT = ("forest.fit_classify", "forest.fit_regress")

# metric name -> (unit, better, value from a summary); synth.s and
# trace.overhead_share are filled in by the runner from the setup and the
# untraced runs.
LAYER_METRICS = {
    "dataset.load_s": ("s", "lower", lambda s: s["total"]["dataset.load"]),
    "dataset.load_releases": ("count", "lower", lambda s: s["counts"]["dataset.load"]["releases"]),
    "dataset.view_s": ("s", "lower", lambda s: s["total"]["dataset.view"]),
    "dataset.view_calls": ("count", "lower", lambda s: s["calls"]["dataset.view"]),
    "dataset.view_rows": ("count", "lower", lambda s: s["counts"]["dataset.view"]["rows"]),
    "dataset.split_s": ("s", "lower", lambda s: s["total"]["dataset.split"]),
    "dataset.split_calls": ("count", "lower", lambda s: s["calls"]["dataset.split"]),
    "experiments.train_views_s": ("s", "lower", lambda s: s["total"]["experiments.train_views"]),
    "experiments.transfer_s": ("s", "lower", lambda s: s["total"]["experiments.transfer"]),
    "experiments.write_s": ("s", "lower", lambda s: s["total"]["experiments.write"]),
    "experiments.write_bytes": ("bytes", "lower", lambda s: s["counts"]["experiments.write"]["bytes"]),
    "experiments.read_s": ("s", "lower", lambda s: s["total"]["experiments.read"]),
    "experiments.read_records": ("count", "lower", lambda s: s["counts"]["experiments.read"]["records"]),
    "experiments.self_s": ("s", "lower", lambda s: s["self"]["experiments.run"]),
    "experiments.notices": ("count", "lower", lambda s: s["counts"]["experiments.run"]["notices"]),
    "experiments.yield": ("ratio", "higher", _yield),
    "smote.s": ("s", "lower", lambda s: s["total"]["smote.apply"]),
    "smote.synthetic_rows": ("count", "lower", lambda s: s["counts"]["smote.apply"]["synthetic_rows"]),
    "forest.fit_classify_s": ("s", "lower", lambda s: s["total"]["forest.fit_classify"]),
    "forest.fit_regress_s": ("s", "lower", lambda s: s["total"]["forest.fit_regress"]),
    "forest.fit_calls": ("count", "lower", lambda s: sum(s["calls"][n] for n in FIT)),
    "forest.fit_rows": ("count", "lower", lambda s: sum(s["counts"][n]["rows"] for n in FIT)),
    "forest.trees": ("count", "lower", lambda s: sum(s["counts"][n]["trees"] for n in FIT)),
    "forest.nodes": ("count", "lower", lambda s: sum(s["counts"][n]["nodes"] for n in FIT)),
    "forest.predict_s": ("s", "lower", lambda s: s["total"]["forest.predict"]),
    "forest.predict_rows": ("count", "lower", lambda s: s["counts"]["forest.predict"]["rows"]),
    "tree.cart_s": ("s", "lower", lambda s: s["total"]["tree.cart"]),
    "nb.fit_s": ("s", "lower", lambda s: s["total"]["nb.fit"]),
    "nb.predict_s": ("s", "lower", lambda s: s["total"]["nb.predict"]),
    "metrics.evaluate_s": ("s", "lower", lambda s: s["total"]["metrics.evaluate"]),
    "metrics.evaluate_calls": ("count", "lower", lambda s: s["calls"]["metrics.evaluate"]),
    "metrics.artifacts": ("count", "lower", lambda s: s["counts"]["metrics.evaluate"]["artifacts"]),
    "metrics.auc_recall_pf_s": ("s", "lower", lambda s: s["total"]["metrics.auc_recall_pf"]),
    "metrics.effort_s": ("s", "lower", lambda s: s["total"]["metrics.effort"]),
    "confounders.s": ("s", "lower", lambda s: s["total"]["confounders.compute"]),
    "costmodel.bounds_s": ("s", "lower", lambda s: s["total"]["costmodel.bounds"]),
    "costmodel.defects": ("count", "lower", lambda s: s["counts"]["costmodel.bounds"]["defects"]),
    "analysis.records_matrix_s": ("s", "lower", lambda s: s["total"]["analysis.records_matrix"]),
    "analysis.records_matrix_calls": ("count", "lower", lambda s: s["calls"]["analysis.records_matrix"]),
    "analysis.correlation_s": ("s", "lower", lambda s: s["total"]["analysis.correlation"]),
    "analysis.logit_s": ("s", "lower", lambda s: s["total"]["logit.fit"]),
    "analysis.logit_cells": ("count", "lower", lambda s: s["counts"]["logit.fit"]["cells"]),
    "analysis.confusion_s": ("s", "lower", lambda s: s["total"]["analysis.confusion"]),
    "analysis.sens_boundaries_s": ("s", "lower", lambda s: s["total"]["analysis.sens_boundaries"]),
    "analysis.sens_regression_s": ("s", "lower", lambda s: s["total"]["analysis.sens_regression"]),
    "synth.s": ("s", "lower", None),
    "trace.overhead_share": ("ratio", "lower", None),
}


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Median over traced commands of every LAYER_METRICS entry that has an extractor."""
    return {
        name: float(statistics.median(extract(s) for s in summaries))
        for name, (_, _, extract) in LAYER_METRICS.items()
        if extract is not None
    }


def self_shares(summary: dict, command_s: float) -> dict[str, float]:
    """Self time of each span name as a share of the command's wall time; the
    time outside every top-level span (interpreter start, imports, argument
    parsing, unwrapped code) is reported as ``untraced``."""
    shares = {name: t / command_s for name, t in sorted(summary["self"].items())}
    shares["untraced"] = (command_s - summary["top_level_s"]) / command_s
    return shares
