"""Performance metrics: confusion-matrix based, ranking based, and effort aware.

Twenty metrics are computed per evaluation, each from one ``Prediction``: the
scores of one view in its row order and a threshold. Division by zero never
raises; the affected metric becomes the undefined marker (NaN) and is
serialized as JSON null. Ranking metrics break score ties deterministically:
descending score, then descending size, then ascending artifact id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dataset import ReleaseView
from .extmath import UNDEFINED, safe_div


class CoverageError(Exception):
    """Prediction does not cover exactly the evaluation artifacts."""


def check_threshold(threshold: float) -> None:
    """Reject a decision threshold outside [0, 1]: nan too."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")


@dataclass(frozen=True, eq=False)
class Prediction:
    """Scores in [0,1] in the row order of one view, with a decision threshold.

    An artifact is predicted defective iff its score > threshold (strict);
    ``labels`` holds those decisions.
    """

    view: ReleaseView
    scores: np.ndarray
    threshold: float = 0.5

    def __post_init__(self):
        check_threshold(self.threshold)
        object.__setattr__(self, "scores", np.array(self.scores, dtype=np.float64))
        if self.scores.shape != (self.view.n,):
            raise ValueError(f"{self.scores.size} scores for the {self.view.n} rows of {self.view.release.key()}")
        if not np.all((self.scores >= 0.0) & (self.scores <= 1.0)):  # nan too
            raise ValueError(f"scores for {self.view.release.key()} must be in [0, 1]")

    @staticmethod
    def from_ids(view: ReleaseView, scores_by_id: Mapping[str, float], threshold: float = 0.5) -> "Prediction":
        """The prediction of ``view`` from scores keyed by artifact id, the form
        in which an external prediction arrives; raises CoverageError unless
        the ids are exactly the artifacts of ``view``."""
        expected, given = set(view.ids), set(scores_by_id)
        if given != expected:
            raise CoverageError(
                f"prediction does not cover the evaluation set of {view.release.key()} "
                f"(missing={sorted(expected - given)[:5]}, extra={sorted(given - expected)[:5]})"
            )
        return Prediction(view, [scores_by_id[a] for a in view.ids], threshold)

    @cached_property
    def labels(self) -> np.ndarray:
        return self.scores > self.threshold

    @cached_property
    def order(self) -> np.ndarray:
        """Row indices in inspection order: by descending score, then
        descending size, then ascending id, by the release's rank of the ids."""
        view = self.view
        return np.lexsort((view.release.id_rank[view.rows], -view.sizes, -self.scores))


@dataclass(frozen=True)
class ConfusionCounts:
    """Artifact counts of a thresholded prediction against the defect labels."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricVector:
    """The twenty performance metrics of one prediction, in ``METRIC_NAMES`` order."""

    recall: float
    precision: float
    fpr: float
    f_measure: float
    g_measure: float
    balance: float
    accuracy: float
    error: float
    error_type1: float
    error_type2: float
    mcc: float
    consistency: float
    auc: float
    auc_alberg: float
    auc_recall_pf: float
    necm10: float
    necm25: float
    cost: float
    nofb20: float
    nofc80: float


METRIC_NAMES = tuple(f.name for f in fields(MetricVector))
EFFORT_MODES = ("defects", "files")


def confusion_counts(pred: Prediction) -> ConfusionCounts:
    view, labels = pred.view, pred.labels
    truth = view.y == 1
    tp = int(np.count_nonzero(labels & truth))
    fp = int(np.count_nonzero(labels & ~truth))
    fn = int(np.count_nonzero(~labels & truth))
    return ConfusionCounts(tp=tp, fp=fp, tn=view.n - tp - fp - fn, fn=fn)


def mcc_from_counts(tp: float, fp: float, tn: float, fn: float) -> float:
    num = tp * tn - fp * fn
    den = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return safe_div(num, den)


def confusion_metrics(c: ConfusionCounts) -> dict[str, float]:
    """The 14 confusion-based metrics (12 classic ones plus NECM at ratios 10/25)."""
    tp, fp, tn, fn = c.tp, c.fp, c.tn, c.fn
    n = c.total
    recall = safe_div(tp, tp + fn)
    precision = safe_div(tp, tp + fp)
    fpr = safe_div(fp, tn + fp)
    f_measure = safe_div(2 * recall * precision, recall + precision)
    g_measure = safe_div(2 * recall * (1 - fpr), recall + (1 - fpr))
    if math.isnan(recall) or math.isnan(fpr):
        balance = UNDEFINED
    else:
        balance = 1 - math.sqrt((1 - recall) ** 2 + fpr**2) / math.sqrt(2)
    return {
        "recall": recall,
        "precision": precision,
        "fpr": fpr,
        "f_measure": f_measure,
        "g_measure": g_measure,
        "balance": balance,
        "accuracy": safe_div(tp + tn, n),
        "error": safe_div(fp + fn, n),
        "error_type1": safe_div(fp, tp + fn),
        "error_type2": safe_div(fn, tn + fp),
        "mcc": mcc_from_counts(tp, fp, tn, fn),
        "consistency": safe_div(tp * n - (tp + fn) ** 2, (tp + fn) * (tn + fp)),
        "necm10": safe_div(fp + 10 * fn, n),
        "necm25": safe_div(fp + 25 * fn, n),
    }


def auc(truth: Sequence[int], scores: Sequence[float]) -> float:
    """Mann-Whitney AUC with ties counted 1/2; undefined for one-class input."""
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        return UNDEFINED
    ranks = average_ranks(scores)
    rank_sum = float(ranks[truth == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _tie_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the last element of each run of equal sorted values; NaN
    never equals anything, so each NaN is a run of its own."""
    return np.flatnonzero(np.append(sorted_values[1:] != sorted_values[:-1], True))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean rank of their run."""
    order = np.argsort(values, kind="stable")
    ends = _tie_ends(values[order])
    starts = np.append(0, ends[:-1] + 1)
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def auc_alberg(pred: Prediction) -> float:
    """Area under (fraction of modules considered, fraction of defective found)."""
    view = pred.view
    found = np.cumsum(view.y[pred.order])
    total_def = int(view.y.sum())
    if total_def == 0:
        return UNDEFINED
    y = found / total_def
    # one trapezoid per visited artifact, summed in visiting order
    return float(np.cumsum((1.0 / view.n) * (np.append(0.0, y[:-1]) + y) / 2.0)[-1])


def _roc_points(truth: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """ROC polyline vertices (pf, recall) as an (m, 2) array, grouping tied
    scores into one step."""
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    order = np.argsort(-scores, kind="stable")
    ends = _tie_ends(scores[order])
    tp = np.cumsum(truth[order])[ends]
    fp = ends + 1 - tp
    return np.vstack(([0.0, 0.0], np.column_stack((fp / n_neg, tp / n_pos))))


def auc_recall_pf(truth: Sequence[int], scores: Sequence[float]) -> float:
    """Area of the ROC region strictly above the chance diagonal, normalized by 1/2.

    A perfect ranking scores 1; a curve on the diagonal scores 0. Regions
    below the diagonal do not compensate regions above it.
    """
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    if n_pos == 0 or n_pos == len(truth):
        return UNDEFINED
    points = _roc_points(truth, scores)
    (x1, y1), (x2, y2) = points[:-1].T, points[1:].T
    dx = x2 - x1
    g1 = y1 - x1
    g2 = y2 - x2
    with np.errstate(divide="ignore", invalid="ignore"):
        t = g1 / (g1 - g2)  # zero crossing within a segment that crosses the diagonal
        crossing = np.where(g1 > 0, g1 * (t * dx) / 2.0, g2 * ((1 - t) * dx) / 2.0)
    above = np.where((g1 <= 0) & (g2 <= 0), 0.0, crossing)
    terms = np.where((g1 >= 0) & (g2 >= 0), (g1 + g2) / 2.0 * dx, above)
    return float(np.cumsum(terms)[-1]) / 0.5


def effort_metrics(pred: Prediction, mode: str = "defects") -> tuple[float, float, float]:
    """(cost, nofb20, nofc80) per the effort-aware definitions.

    cost: total size of artifacts predicted defective.
    nofb20: bugs found within a budget of 20% of total size, walking the
        ranking and stopping before the first artifact that would exceed it.
    nofc80: artifacts visited until 80% of the bugs are found (ceil), the
        undefined marker if that point is never reached.

    ``mode`` selects the counting granularity: "defects" (default) counts a
    defect only when all its artifacts were inspected, "files" counts
    defective files. A bug is found at its completion rank: the 1-based
    inspection position of its last artifact.
    """
    if mode not in EFFORT_MODES:
        raise ValueError(f"unknown effort counting mode {mode!r}")
    view = pred.view
    cost = float(view.sizes[pred.labels].sum())
    order = pred.order
    rank = np.empty(view.n, dtype=np.int64)
    rank[order] = np.arange(1, view.n + 1)
    budget = 0.2 * float(view.sizes.sum())
    inspected = int(np.searchsorted(np.cumsum(view.sizes[order]), budget, "right"))
    completion = rank[view.y == 1] if mode == "files" else view.per_defect(np.maximum, rank)
    nofb20 = float(np.count_nonzero(completion <= inspected))
    if completion.size == 0:
        return cost, nofb20, UNDEFINED
    need = math.ceil(0.8 * completion.size)
    return cost, nofb20, float(np.sort(completion)[need - 1])


def evaluate_metrics(pred: Prediction, effort_mode: str = "defects") -> MetricVector:
    """All twenty metrics of one prediction over its view."""
    base = confusion_metrics(confusion_counts(pred))
    truth, scores = pred.view.y, pred.scores
    cost, nofb20, nofc80 = effort_metrics(pred, mode=effort_mode)
    return MetricVector(
        **base,
        auc=auc(truth, scores),
        auc_alberg=auc_alberg(pred),
        auc_recall_pf=auc_recall_pf(truth, scores),
        cost=cost,
        nofb20=nofb20,
        nofc80=nofc80,
    )
