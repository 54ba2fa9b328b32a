"""Relationship modeling and reporting over evaluation records.

Fits the three relationship models (elastic-net multinomial logit, depth-5
CART, random forest) of potential ~ 20 metrics + 10 confounders, evaluates
them through 4x4 confusion matrices, applies the 90% strength criteria,
groups correlated variables, exports the diff distribution, and runs the
boundary-shift and diff-regression sensitivity analyses.

Every analysis function reads a record set as the ``RecordsMatrix`` of
``records_matrix(records)``, built once per record set. Undefined variable
values are imputed by the training-set median before any model fitting; every
imputation is counted and reported.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .costmodel import DEFAULT_BOUNDARIES, Potential, potential_levels
from .experiments import CSV_COLUMNS, VARIABLE_NAMES, write_records_csv
from .extmath import UNDEFINED, column_medians, fmt_float, json_number
from .learners import (
    ForestParams,
    fit_multinomial_logit_elastic_net,
    forest_importance,
    oob_accuracy,
    train_random_forest,
    tune_forest_params,
)
from .learners.logit import DEFAULT_ALPHA_GRID, DEFAULT_LAMBDA_GRID

log = logging.getLogger(__name__)

POTENTIAL_LABELS = tuple(level.label for level in Potential)
SAVING_LEVELS = (Potential.MEDIUM, Potential.LARGE, Potential.EXTRA_LARGE)
TREE_DEPTH = 5  # of the depth-limited relationship tree
QQ_POINTS = 256  # most points of the lg(diff) Q-Q data
BOUNDARY_SHIFTS = (0.9, 1.0, 1.1)  # factors of both potential boundaries in the sensitivity refits
DENSITY_WINDOW = 0.1  # the relative half-width of the window around each boundary
DENSITY_FLAG = 0.2  # a level's share of diff values in a window above which it is flagged


class InsufficientRecords(ValueError):
    """A record set of fewer than three records, or of one potential level."""


@dataclass(frozen=True, eq=False)
class RecordsMatrix:
    """The columns of a record set that the analysis reads: ``X``, the (n, 30)
    variables (metrics, then confounders), ``diff`` and ``levels``, the
    potential levels. Unpacks as ``X, levels``, the models' inputs and targets."""

    X: np.ndarray
    diff: np.ndarray
    levels: np.ndarray

    def __iter__(self):
        return iter((self.X, self.levels))


def records_matrix(records: Sequence) -> RecordsMatrix:
    """The analysed columns of EvaluationRecords, found by name and read in one pass over the records."""
    k, pick = len(VARIABLE_NAMES), itemgetter(*map(CSV_COLUMNS.index, (*VARIABLE_NAMES, "diff", "potential")))
    table = np.array([pick(rec) for rec in records], dtype=np.float64).reshape(len(records), k + 2)
    return RecordsMatrix(X=np.ascontiguousarray(table[:, :k]), diff=table[:, k].copy(),
                         levels=table[:, k + 1].astype(np.int64))


@dataclass(frozen=True, eq=False)
class Imputer:
    """Per-variable training medians that replace missing values, and how many each replaced."""

    medians: np.ndarray
    imputed_counts: dict[str, int]

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.where(np.isnan(X), self.medians, X)

    def report(self) -> dict:
        return {
            "medians": {name: json_number(float(m)) for name, m in zip(VARIABLE_NAMES, self.medians)},
            "imputed_counts": self.imputed_counts,
        }


def fit_imputer(X: np.ndarray) -> Imputer:
    medians = np.zeros(X.shape[1])
    counts = {}
    for j, name in enumerate(VARIABLE_NAMES):
        col = X[:, j]
        known = col[~np.isnan(col)]
        if known.size:
            # np.nanmedian bit for bit, without the numpy.ma import of its NaN
            # check: its mean of the middle values starts from +0.0, so it
            # never gives -0.0
            medians[j] = column_medians(known[:, None])[0] + 0.0
        if n_nan := len(col) - known.size:
            counts[name] = n_nan
    return Imputer(medians=medians, imputed_counts=counts)


@dataclass(frozen=True, eq=False)
class RelationshipModel:
    """A fitted relationship model: ``predictor.predict`` maps the imputed
    variables to potential levels."""

    imputer: Imputer
    predictor: object

    def predict_levels(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.predictor.predict(self.imputer.transform(X)), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class RelationshipFit:
    """The fitted relationship models, which share one imputer, their importances and the
    logit's coefficients."""

    models: dict[str, RelationshipModel]
    importances: dict[str, dict[str, float]]
    logit_coefficients: dict[str, list[float]]


def fit_relationship_models(
    records: RecordsMatrix,
    seed: int = 0,
    *,
    forest_params: ForestParams = ForestParams(),
    tune_forest: bool = False,
    tune_population: int = 20,
    tune_generations: int = 30,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> RelationshipFit:
    """Fit logit, depth-limited tree, and forest on potential ~ 30 variables."""
    X, y = records
    if len(set(y.tolist())) < 2:
        raise InsufficientRecords("relationship models need at least two potential levels in the records")
    imputer = fit_imputer(X)
    Xi = imputer.transform(X)

    logit = fit_multinomial_logit_elastic_net(Xi, y.tolist(), lambda_grid, alpha_grid)

    # the depth-limited tree is a one-tree forest on all rows and all features
    tree = train_random_forest(Xi, y, ForestParams(n_trees=1, depth_limit=TREE_DEPTH, bootstrap=False),
                               seed=seed, n_classes=len(Potential))

    params = forest_params
    if tune_forest:
        params = tune_forest_params(Xi, y, seed, oob_accuracy, len(Potential), base=params,
                                    population=tune_population, generations=tune_generations)
    forest = train_random_forest(Xi, y, params, seed=seed, n_classes=len(Potential))

    k = len(VARIABLE_NAMES)
    importances = {
        "tree": dict(zip(VARIABLE_NAMES, map(float, forest_importance(tree, k)))),
        "forest": dict(zip(VARIABLE_NAMES, map(float, forest_importance(forest, k)))),
    }
    coefficients = {
        VARIABLE_NAMES[f]: [float(v) for v in vec] for f, vec in logit.coefficients().items()
    }
    models = {name: RelationshipModel(imputer, predictor)
              for name, predictor in (("logit", logit), ("tree", tree), ("forest", forest))}
    return RelationshipFit(models=models, importances=importances, logit_coefficients=coefficients)


# ---------------------------------------------------------------------------
# confusion matrices and the strength criteria


@dataclass(frozen=True, eq=False)
class PotentialConfusion:
    """4x4 counts; rows are the predicted level, columns the true level."""

    matrix: np.ndarray

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def to_json_dict(self) -> dict:
        return {"labels": list(POTENTIAL_LABELS), "matrix": self.matrix.astype(int).tolist()}


def confusion_from_predictions(predicted: Sequence[int], true: Sequence[int]) -> PotentialConfusion:
    k = len(Potential)
    cell = k * np.asarray(predicted, dtype=np.int64) + np.asarray(true, dtype=np.int64)
    return PotentialConfusion(matrix=np.bincount(cell, minlength=k * k).reshape(k, k))


def evaluate_confusion(model: RelationshipModel, records: RecordsMatrix) -> PotentialConfusion:
    """The confusion of the model's levels against the records' own."""
    return confusion_from_predictions(model.predict_levels(records.X), records.levels)


def _frac(num: float, den: float) -> float:
    return num / den if den > 0 else UNDEFINED


def confusion_summary(conf: PotentialConfusion) -> dict:
    """Correct, moderate (neighbor) and total over/underprediction per true level."""
    m = conf.matrix
    out = {}
    for level in Potential:
        t = int(level)
        col = m[:, t].sum()
        upper = m[t + 1, t] if t + 1 < len(Potential) else 0
        lower = m[t - 1, t] if t - 1 >= 0 else 0
        out[level.label] = {
            "n": int(col),
            "correct": json_number(_frac(m[t, t], col)),
            "moderate_overprediction": json_number(_frac(upper, col)),
            "total_overprediction": json_number(_frac(m[t + 1 :, t].sum(), col)),
            "moderate_underprediction": json_number(_frac(lower, col)),
            "total_underprediction": json_number(_frac(m[:t, t].sum(), col)),
        }
    return out


@dataclass(frozen=True)
class StrengthVerdict:
    """Strongest satisfied 90% rule set plus the three measured percentages.

    classification_pct: worse of (none predicted as none, saving predicted as
    saving); weak_pct: saving instances predicted in the correct or a
    neighboring saving level; strong_pct: worst per-level accuracy. A vacuous
    criterion (no instances of the class) counts as satisfied and its
    percentage is the undefined marker.
    """

    verdict: str  # none | classification | weak_categorization | strong_categorization
    classification_pct: float
    weak_pct: float
    strong_pct: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "classification_pct": json_number(self.classification_pct),
            "weak_pct": json_number(self.weak_pct),
            "strong_pct": json_number(self.strong_pct),
        }


def _ok(pct: float, threshold: float = 0.9) -> bool:
    return math.isnan(pct) or pct >= threshold


def classify_strength(conf: PotentialConfusion) -> StrengthVerdict:
    m = conf.matrix
    if conf.total == 0:
        raise ValueError("empty confusion matrix")

    none = int(Potential.NONE)
    none_total = m[:, none].sum()
    none_correct = _frac(m[none, none], none_total)

    saving_cols = [int(l) for l in SAVING_LEVELS]
    saving_total = m[:, saving_cols].sum()
    saving_as_saving = _frac(m[np.ix_(saving_cols, saving_cols)].sum(), saving_total)

    # a saving level predicted as itself or a neighbouring saving level
    neighbor_hits = sum(m[p, t] for t in saving_cols for p in saving_cols if abs(p - t) <= 1)
    neighbor_pct = _frac(neighbor_hits, saving_total)

    level_accuracies = [
        _frac(m[int(l), int(l)], m[:, int(l)].sum())
        for l in Potential
        if m[:, int(l)].sum() > 0
    ]
    strong_pct = min(level_accuracies) if level_accuracies else UNDEFINED

    classification_pct = float(np.fmin(none_correct, saving_as_saving))  # nan only when both are

    is_classification = _ok(none_correct) and _ok(saving_as_saving)
    is_weak = is_classification and _ok(neighbor_pct)
    is_strong = _ok(strong_pct)

    if is_strong:
        verdict = "strong_categorization"
    elif is_weak:
        verdict = "weak_categorization"
    elif is_classification:
        verdict = "classification"
    else:
        verdict = "none"
    return StrengthVerdict(
        verdict=verdict,
        classification_pct=classification_pct,
        weak_pct=neighbor_pct,
        strong_pct=strong_pct,
    )


# ---------------------------------------------------------------------------
# correlations, distribution, sensitivity


@dataclass(frozen=True, eq=False)
class CorrelationAnalysis:
    """Spearman matrix over ``variables`` and the groups of strongly correlated ones."""

    variables: tuple[str, ...]
    matrix: np.ndarray
    groups: tuple[tuple[str, ...], ...]


def correlation_analysis(records: RecordsMatrix, threshold: float = 0.8) -> CorrelationAnalysis:
    """Spearman matrix over the 30 variables; groups are connected components
    of the |rho| > threshold graph (singletons included)."""
    if len(records.levels) < 3:
        raise InsufficientRecords("correlation analysis needs at least three records")
    from .learners import spearman_matrix

    matrix = spearman_matrix(records.X)
    k = len(VARIABLE_NAMES)
    linked = np.abs(np.triu(matrix, 1)) > threshold  # NaN compares false
    reach = linked | linked.T | np.eye(k, dtype=bool)
    for _ in range(k.bit_length()):  # each squaring doubles the path length reach covers
        reach = reach @ reach
    # one group per variable that no earlier variable reaches, in variable order
    groups = tuple(tuple(VARIABLE_NAMES[j] for j in np.flatnonzero(reach[i]))
                   for i in range(k) if not reach[i, :i].any())
    return CorrelationAnalysis(variables=VARIABLE_NAMES, matrix=matrix, groups=groups)


def sorted_quantiles(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(a, q)`` bit for bit for a sorted ``a`` of two or more
    values and ``q`` in [0, 1): numpy's linear interpolation between the
    neighbours of ``(len(a) - 1) * q``, without the partition whose np.unique
    call imports numpy.ma."""
    virtual = (len(a) - 1) * q
    below = np.floor(virtual)
    i = below.astype(np.intp)
    lo, hi, gamma = a[i], a[i + 1], virtual - below
    diff = hi - lo
    return np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)


def distribution_export(records: RecordsMatrix, bins: int = 20) -> dict:
    """Histogram and Q-Q data for lg(diff) plus exact corner-case tallies."""
    diffs = records.diff
    nan_count = int(np.isnan(diffs).sum())
    pos_inf = int(np.sum(diffs == np.inf))
    neg_inf = int(np.sum(diffs == -np.inf))
    finite = diffs[np.isfinite(diffs)]
    negative = int(np.sum(finite < 0))
    zero = int(np.sum(finite == 0))
    positive = finite[finite > 0]

    level_counts = np.bincount(records.levels, minlength=len(Potential)).tolist()
    out = {
        "counts": {
            "total": len(diffs),
            "positive_finite": int(len(positive)),
            "negative": negative,
            "zero": zero,
            "pos_inf": pos_inf,
            "neg_inf": neg_inf,
            "nan": nan_count,
        },
        "potential_counts": dict(zip(POTENTIAL_LABELS, level_counts)),
        "lg_mean": None,
        "lg_sd": None,
        "histogram": {"edges": [], "counts": []},
        "qq": {"theoretical": [], "sample": []},
    }
    if len(positive) == 0:
        return out

    lg = np.log10(positive)
    mean = float(lg.mean())
    sd = float(lg.std())
    out["lg_mean"] = mean
    out["lg_sd"] = sd
    counts, edges = np.histogram(lg, bins=bins)
    out["histogram"] = {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}
    if sd > 0 and len(lg) >= 2:
        from statistics import NormalDist  # imported here: `sensitivity` loads this module but never needs it

        dist = NormalDist(mean, sd)
        n_points = min(QQ_POINTS, len(lg))
        probs = (np.arange(n_points) + 0.5) / n_points
        sample_q = sorted_quantiles(np.sort(lg), probs)
        out["qq"] = {
            "theoretical": [float(dist.inv_cdf(p)) for p in probs],
            "sample": [float(q) for q in sample_q],
        }
    return out


@dataclass(frozen=True, eq=False)
class BoundaryShiftResult:
    """The relationship forest refitted with the potential boundaries shifted by ``shift``."""

    shift: float
    boundaries: tuple[float, float]
    confusion: PotentialConfusion
    verdict: StrengthVerdict
    accuracy: float


@dataclass(frozen=True, eq=False)
class SensitivityBoundaries:
    """Every boundary shift's result, and the density of records near each boundary."""

    shifts: tuple[BoundaryShiftResult, ...]
    density: dict

    def to_json_dict(self) -> dict:
        return {
            "shifts": [
                {
                    "shift": r.shift,
                    "boundaries": list(r.boundaries),
                    "confusion": r.confusion.to_json_dict(),
                    "verdict": r.verdict.to_json_dict(),
                    "accuracy": json_number(r.accuracy),
                }
                for r in self.shifts
            ],
            "density": self.density,
        }


def boundary_density(records: RecordsMatrix, base: tuple[float, float] = DEFAULT_BOUNDARIES) -> dict:
    """Per level: share of its finite diff values within +-DENSITY_WINDOW of each boundary."""
    out = {}
    finite = np.isfinite(records.diff)
    level_values = [records.diff[finite & (records.levels == level)] for level in Potential]
    for b in base:
        lo, hi = (1 - DENSITY_WINDOW) * b, (1 + DENSITY_WINDOW) * b
        levels = {}
        flagged = []
        for level, vals in zip(Potential, level_values):
            frac = float(np.mean((vals >= lo) & (vals <= hi))) if len(vals) else 0.0
            levels[level.label] = frac
            if frac > DENSITY_FLAG:
                flagged.append(level.label)
        out[fmt_float(b)] = {"window": [lo, hi], "levels": levels, "flagged": flagged}
    return out


def sensitivity_boundaries(
    records: RecordsMatrix,
    seed: int = 0,
    *,
    base: tuple[float, float] = DEFAULT_BOUNDARIES,
    forest_params: ForestParams = ForestParams(),
    fitted: RelationshipModel | None = None,
) -> SensitivityBoundaries:
    """Re-bin potential under each of BOUNDARY_SHIFTS, refit the forest, and compare.
    ``fitted``, the relationship forest of these records (fitted with ``forest_params`` and
    ``seed``), lends its imputer to every shift, and its forest to a shift that gives the
    records' own levels."""
    imputer = fit_imputer(records.X) if fitted is None else fitted.imputer
    Xi = imputer.transform(records.X)
    results = []
    for shift in BOUNDARY_SHIFTS:
        boundaries = (shift * base[0], shift * base[1])
        y = potential_levels(records.diff, boundaries)
        if len(set(y.tolist())) < 2:
            log.warning("boundary shift %.2f leaves a single level; skipping refit", shift)
            continue
        reuse = fitted is not None and np.array_equal(y, records.levels)
        forest = fitted.predictor if reuse else train_random_forest(Xi, y, forest_params, seed=seed,
                                                                    n_classes=len(Potential))
        predicted = forest.predict(Xi)
        conf = confusion_from_predictions(predicted, y)
        results.append(BoundaryShiftResult(shift=float(shift), boundaries=boundaries, confusion=conf,
                                           verdict=classify_strength(conf), accuracy=float(np.mean(predicted == y))))
    return SensitivityBoundaries(shifts=tuple(results), density=boundary_density(records, base))


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0:
        return UNDEFINED
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


class NoUsableRecords(ValueError):
    """A record set of the diff regression without a finite positive diff;
    ``role`` is "training" or "evaluation"."""

    def __init__(self, role: str):
        super().__init__(f"no {role} records with finite positive diff")
        self.role = role


def sensitivity_regression(
    train_records: RecordsMatrix,
    eval_records: RecordsMatrix,
    seed: int = 0,
    *,
    forest_params: ForestParams = ForestParams(),
) -> dict:
    """Forest regression of lg(diff) on the 30 variables, R^2 on both sets.

    Only records with finite positive diff participate (the regression target
    is the decadic log of diff).
    """

    def subset(records, role):
        keep = np.isfinite(records.diff) & (records.diff > 0)
        if not keep.any():
            raise NoUsableRecords(role)
        return records.X[keep], np.log10(records.diff[keep])

    X_train, y_train = subset(train_records, "training")
    X_eval, y_eval = subset(eval_records, "evaluation")
    imputer = fit_imputer(X_train)
    forest = train_random_forest(
        imputer.transform(X_train), y_train, forest_params, seed=seed, task="regress"
    )
    return {
        "train_r2": r_squared(y_train, forest.predict(imputer.transform(X_train))),
        "eval_r2": r_squared(y_eval, forest.predict(imputer.transform(X_eval))),
        "n_train": len(y_train),
        "n_eval": len(y_eval),
    }


# ---------------------------------------------------------------------------
# report bundle


def write_correlations_csv(analysis: CorrelationAnalysis, path) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", *analysis.variables])
        for i, name in enumerate(analysis.variables):
            writer.writerow([name, *[fmt_float(v) for v in analysis.matrix[i]]])
    return path


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    return path


def write_report_bundle(
    outdir,
    records: Sequence,
    seed: int = 0,
    *,
    correlation_threshold: float = 0.8,
    forest_params: ForestParams = ForestParams(),
    tune_forest: bool = False,
    boundaries: tuple[float, float] = DEFAULT_BOUNDARIES,
) -> dict[str, Path]:
    """Write the full report bundle for a record set, EvaluationRecords.

    Files: records.csv, correlations.csv, confusion_<model>.json,
    importances_<model>.json, distribution.json, sensitivity.json,
    verdicts.json.
    """
    matrix = records_matrix(records)
    # both raise InsufficientRecords before a file is written
    corr = correlation_analysis(matrix, threshold=correlation_threshold)
    fit = fit_relationship_models(matrix, seed=seed, forest_params=forest_params, tune_forest=tune_forest)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {"records": write_records_csv(records, outdir / "records.csv")}
    paths["correlations"] = write_correlations_csv(corr, outdir / "correlations.csv")
    verdicts = {}
    for name, model in fit.models.items():
        conf = evaluate_confusion(model, matrix)
        verdict = classify_strength(conf)
        verdicts[name] = verdict.to_json_dict()
        paths[f"confusion_{name}"] = _write_json(
            outdir / f"confusion_{name}.json",
            {"model": name, "confusion": conf.to_json_dict(), "summary": confusion_summary(conf)},
        )
    logit = fit.models["logit"].predictor
    paths["importances_logit"] = _write_json(
        outdir / "importances_logit.json",
        {"model": "logit", "coefficients": fit.logit_coefficients,
         "lambda": logit.lam, "alpha": logit.alpha, "r2_adjusted": json_number(logit.goodness.r2_adjusted),
         "stage2": logit.stage2},
    )
    for name in ("tree", "forest"):
        paths[f"importances_{name}"] = _write_json(
            outdir / f"importances_{name}.json",
            {"model": name, "importances": fit.importances[name]},
        )
    paths["verdicts"] = _write_json(
        outdir / "verdicts.json",
        {"verdicts": verdicts, "imputation": fit.models["forest"].imputer.report(),
         "groups": [list(g) for g in corr.groups]},
    )
    paths["distribution"] = _write_json(outdir / "distribution.json", distribution_export(matrix))

    fitted = None if tune_forest else fit.models["forest"]  # same labels, same forest
    paths["sensitivity"] = _write_json(outdir / "sensitivity.json", sensitivity_boundaries(
        matrix, seed=seed, base=boundaries, forest_params=forest_params, fitted=fitted).to_json_dict())
    return paths
