"""Relationship modeling and reporting over evaluation records.

Fits the three relationship models (elastic-net multinomial logit, depth-5
CART, random forest) of potential ~ 20 metrics + 10 confounders, evaluates
them through 4x4 confusion matrices, applies the 90% strength criteria,
groups correlated variables, exports the diff distribution, and runs the
boundary-shift and diff-regression sensitivity analyses.

Undefined variable values are imputed by the training-set median before any
model fitting; every imputation is counted and reported.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .costmodel import DEFAULT_BOUNDARIES, Potential, classify_potential
from .experiments import VARIABLE_NAMES, VARIABLES, EvaluationRecord, write_records_csv
from .extmath import UNDEFINED, fmt_float, json_number
from .learners import (
    ForestParams,
    LogitModel,
    Tree,
    fit_multinomial_logit_elastic_net,
    forest_importance,
    gini_importance,
    oob_accuracy,
    predict_proba_tree,
    train_cart,
    train_random_forest,
    tune_forest_params,
)

log = logging.getLogger(__name__)

POTENTIAL_LABELS = tuple(level.label for level in Potential)
SAVING_LEVELS = (Potential.MEDIUM, Potential.LARGE, Potential.EXTRA_LARGE)

# predictions counting as "correct or neighboring cost-saving level"
_NEIGHBOR_OK = {
    Potential.MEDIUM: {Potential.MEDIUM, Potential.LARGE},
    Potential.LARGE: {Potential.MEDIUM, Potential.LARGE, Potential.EXTRA_LARGE},
    Potential.EXTRA_LARGE: {Potential.LARGE, Potential.EXTRA_LARGE},
}


def records_matrix(records: Sequence[EvaluationRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(X, y): the 30 variables (metrics then confounders) and potential levels."""
    X = np.array([rec[VARIABLES] for rec in records])
    y = np.array([int(rec.potential) for rec in records], dtype=np.int64)
    return X, y


@dataclass(frozen=True, eq=False)
class Imputer:
    medians: np.ndarray
    imputed_counts: dict[str, int]

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.array(X, dtype=np.float64, copy=True)
        for j in range(X.shape[1]):
            mask = np.isnan(X[:, j])
            if mask.any():
                X[mask, j] = self.medians[j]
        return X

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
        n_nan = int(np.isnan(col).sum())
        if n_nan < len(col):
            medians[j] = float(np.nanmedian(col))
        else:
            medians[j] = 0.0
        if n_nan:
            counts[name] = n_nan
    return Imputer(medians=medians, imputed_counts=counts)


@dataclass(frozen=True, eq=False)
class RelationshipModel:
    name: str
    imputer: Imputer
    logit: LogitModel | None = None
    tree: Tree | None = None
    forest: object = None

    def predict_levels(self, X: np.ndarray) -> np.ndarray:
        Xi = self.imputer.transform(X)
        if self.logit is not None:
            idx = self.logit.predict_index(Xi)
            return np.array([int(self.logit.classes[i]) for i in idx], dtype=np.int64)
        if self.tree is not None:
            return np.argmax(predict_proba_tree(self.tree, Xi, len(Potential)), axis=1)
        return self.forest.predict(Xi)


@dataclass(frozen=True, eq=False)
class RelationshipFit:
    models: dict[str, RelationshipModel]
    importances: dict[str, dict[str, float]]
    logit_coefficients: dict[str, list[float]]
    imputer: Imputer


def fit_relationship_models(
    records: Sequence[EvaluationRecord],
    seed: int = 0,
    *,
    depth: int = 5,
    forest_params: ForestParams = ForestParams(),
    tune_forest: bool = False,
    tune_population: int = 20,
    tune_generations: int = 30,
    lambda_grid=None,
    alpha_grid=None,
) -> RelationshipFit:
    """Fit logit, depth-limited tree, and forest on potential ~ 30 variables."""
    X, y = records_matrix(records)
    if len(set(y.tolist())) < 2:
        raise ValueError("relationship models need at least two potential levels in the records")
    imputer = fit_imputer(X)
    Xi = imputer.transform(X)

    logit_kwargs = {}
    if lambda_grid is not None:
        logit_kwargs["lambda_grid"] = lambda_grid
    if alpha_grid is not None:
        logit_kwargs["alpha_grid"] = alpha_grid
    logit = fit_multinomial_logit_elastic_net(Xi, y.tolist(), **logit_kwargs)

    tree = train_cart(Xi, y, n_classes=len(Potential), depth_limit=depth,
                      rng=np.random.default_rng(seed))

    params = forest_params
    if tune_forest:
        params = tune_forest_params(Xi, y, seed, oob_accuracy, len(Potential), base=params,
                                    population=tune_population, generations=tune_generations)
    forest = train_random_forest(Xi, y, params, seed=seed, n_classes=len(Potential))

    k = len(VARIABLE_NAMES)
    importances = {
        "tree": dict(zip(VARIABLE_NAMES, map(float, gini_importance(tree, k)))),
        "forest": dict(zip(VARIABLE_NAMES, map(float, forest_importance(forest, k)))),
    }
    coefficients = {
        VARIABLE_NAMES[f]: [float(v) for v in vec] for f, vec in logit.coefficients().items()
    }
    models = {
        "logit": RelationshipModel(name="logit", imputer=imputer, logit=logit),
        "tree": RelationshipModel(name="tree", imputer=imputer, tree=tree),
        "forest": RelationshipModel(name="forest", imputer=imputer, forest=forest),
    }
    return RelationshipFit(
        models=models,
        importances=importances,
        logit_coefficients=coefficients,
        imputer=imputer,
    )


# ---------------------------------------------------------------------------
# confusion matrices and the strength criteria


@dataclass(frozen=True, eq=False)
class PotentialConfusion:
    """4x4 counts; rows are the predicted level, columns the true level."""

    matrix: np.ndarray

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    def column_total(self, level: Potential) -> int:
        return int(self.matrix[:, int(level)].sum())

    def to_json_dict(self) -> dict:
        return {"labels": list(POTENTIAL_LABELS), "matrix": self.matrix.astype(int).tolist()}


def confusion_from_predictions(predicted: Sequence[int], true: Sequence[int]) -> PotentialConfusion:
    matrix = np.zeros((len(Potential), len(Potential)), dtype=np.int64)
    for p, t in zip(predicted, true):
        matrix[int(p), int(t)] += 1
    return PotentialConfusion(matrix=matrix)


def evaluate_confusion(model: RelationshipModel, records: Sequence[EvaluationRecord]):
    """(confusion, per-class over/underprediction summary)."""
    X, y = records_matrix(records)
    predicted = model.predict_levels(X)
    conf = confusion_from_predictions(predicted, y)
    return conf, confusion_summary(conf)


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

    neighbor_hits = sum(
        m[int(p), int(t)] for t in SAVING_LEVELS for p in _NEIGHBOR_OK[t]
    )
    neighbor_pct = _frac(neighbor_hits, saving_total)

    level_accuracies = [
        _frac(m[int(l), int(l)], m[:, int(l)].sum())
        for l in Potential
        if m[:, int(l)].sum() > 0
    ]
    strong_pct = min(level_accuracies) if level_accuracies else UNDEFINED

    classification_pct = none_correct
    for pct in (saving_as_saving,):
        if math.isnan(classification_pct):
            classification_pct = pct
        elif not math.isnan(pct):
            classification_pct = min(classification_pct, pct)

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
    variables: tuple[str, ...]
    matrix: np.ndarray
    groups: tuple[tuple[str, ...], ...]


def correlation_analysis(records: Sequence[EvaluationRecord], threshold: float = 0.8) -> CorrelationAnalysis:
    """Spearman matrix over the 30 variables; groups are connected components
    of the |rho| > threshold graph (singletons included)."""
    if len(records) < 3:
        raise ValueError("correlation analysis needs at least three records")
    from .learners import spearman_matrix

    X, _ = records_matrix(records)
    matrix = spearman_matrix(X)
    k = len(VARIABLE_NAMES)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            rho = matrix[i, j]
            if not math.isnan(rho) and abs(rho) > threshold:
                parent[find(i)] = find(j)
    components: dict[int, list[str]] = {}
    for i in range(k):
        components.setdefault(find(i), []).append(VARIABLE_NAMES[i])
    groups = tuple(
        tuple(members) for _, members in sorted(
            components.items(), key=lambda kv: VARIABLE_NAMES.index(kv[1][0])
        )
    )
    return CorrelationAnalysis(variables=VARIABLE_NAMES, matrix=matrix, groups=groups)


def distribution_export(records: Sequence[EvaluationRecord], bins: int = 20, qq_points: int = 256) -> dict:
    """Histogram and Q-Q data for lg(diff) plus exact corner-case tallies."""
    diffs = np.array([rec.diff for rec in records], dtype=np.float64)
    nan_count = int(np.isnan(diffs).sum())
    pos_inf = int(np.sum(diffs == np.inf))
    neg_inf = int(np.sum(diffs == -np.inf))
    finite = diffs[np.isfinite(diffs)]
    negative = int(np.sum(finite < 0))
    zero = int(np.sum(finite == 0))
    positive = finite[finite > 0]

    potential_counts = {label: 0 for label in POTENTIAL_LABELS}
    for rec in records:
        potential_counts[rec.potential.label] += 1

    out = {
        "counts": {
            "total": len(records),
            "positive_finite": int(len(positive)),
            "negative": negative,
            "zero": zero,
            "pos_inf": pos_inf,
            "neg_inf": neg_inf,
            "nan": nan_count,
        },
        "potential_counts": potential_counts,
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
        dist = NormalDist(mean, sd)
        n_points = min(qq_points, len(lg))
        probs = (np.arange(n_points) + 0.5) / n_points
        sample_q = np.quantile(np.sort(lg), probs)
        out["qq"] = {
            "theoretical": [float(dist.inv_cdf(p)) for p in probs],
            "sample": [float(q) for q in sample_q],
        }
    return out


@dataclass(frozen=True, eq=False)
class BoundaryShiftResult:
    shift: float
    boundaries: tuple[float, float]
    confusion: PotentialConfusion
    verdict: StrengthVerdict
    accuracy: float


@dataclass(frozen=True, eq=False)
class SensitivityBoundaries:
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


def boundary_density(records: Sequence[EvaluationRecord],
                     base: tuple[float, float] = DEFAULT_BOUNDARIES,
                     window: float = 0.1,
                     flag_threshold: float = 0.2) -> dict:
    """Per level: share of its finite diff values within +-window of each boundary."""
    out = {}
    level_values: dict[Potential, np.ndarray] = {}
    for level in Potential:
        vals = np.array(
            [r.diff for r in records if r.potential == level and math.isfinite(r.diff)]
        )
        level_values[level] = vals
    for b in base:
        lo, hi = (1 - window) * b, (1 + window) * b
        levels = {}
        flagged = []
        for level in Potential:
            vals = level_values[level]
            frac = float(np.mean((vals >= lo) & (vals <= hi))) if len(vals) else 0.0
            levels[level.label] = frac
            if frac > flag_threshold:
                flagged.append(level.label)
        out[fmt_float(b)] = {"window": [lo, hi], "levels": levels, "flagged": flagged}
    return out


def sensitivity_boundaries(
    records: Sequence[EvaluationRecord],
    seed: int = 0,
    *,
    shifts: Sequence[float] = (0.9, 1.0, 1.1),
    base: tuple[float, float] = DEFAULT_BOUNDARIES,
    forest_params: ForestParams = ForestParams(),
) -> SensitivityBoundaries:
    """Re-bin potential under shifted boundaries, refit the forest, and compare."""
    X, _ = records_matrix(records)
    imputer = fit_imputer(X)
    Xi = imputer.transform(X)
    results = []
    for shift in shifts:
        boundaries = (shift * base[0], shift * base[1])
        y = np.array(
            [int(classify_potential(rec.diff, boundaries)) for rec in records],
            dtype=np.int64,
        )
        if len(set(y.tolist())) < 2:
            log.warning("boundary shift %.2f leaves a single level; skipping refit", shift)
            continue
        forest = train_random_forest(Xi, y, forest_params, seed=seed, n_classes=len(Potential))
        predicted = forest.predict(Xi)
        conf = confusion_from_predictions(predicted, y)
        accuracy = float(np.mean(predicted == y))
        results.append(
            BoundaryShiftResult(
                shift=float(shift),
                boundaries=boundaries,
                confusion=conf,
                verdict=classify_strength(conf),
                accuracy=accuracy,
            )
        )
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
    train_records: Sequence[EvaluationRecord],
    eval_records: Sequence[EvaluationRecord],
    seed: int = 0,
    *,
    forest_params: ForestParams = ForestParams(),
) -> dict:
    """Forest regression of lg(diff) on the 30 variables, R^2 on both sets.

    Only records with finite positive diff participate (the regression target
    is the decadic log of diff).
    """

    def subset(records, role):
        keep = [r for r in records if math.isfinite(r.diff) and r.diff > 0]
        if not keep:
            raise NoUsableRecords(role)
        return records_matrix(keep)[0], np.log10(np.array([r.diff for r in keep]))

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
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", *analysis.variables])
        for i, name in enumerate(analysis.variables):
            writer.writerow([name, *[fmt_float(v) for v in analysis.matrix[i]]])
    return path


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    return path


def write_report_bundle(
    outdir,
    records: Sequence[EvaluationRecord],
    seed: int = 0,
    *,
    correlation_threshold: float = 0.8,
    forest_params: ForestParams = ForestParams(),
    tune_forest: bool = False,
    boundaries: tuple[float, float] = DEFAULT_BOUNDARIES,
) -> dict[str, Path]:
    """Write the full report bundle for a record set.

    Files: records.csv, correlations.csv, confusion_<model>.json,
    importances_<model>.json, distribution.json, sensitivity.json,
    verdicts.json.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    paths["records"] = write_records_csv(records, outdir / "records.csv")

    corr = correlation_analysis(records, threshold=correlation_threshold)
    paths["correlations"] = write_correlations_csv(corr, outdir / "correlations.csv")

    fit = fit_relationship_models(
        records, seed=seed, forest_params=forest_params, tune_forest=tune_forest
    )
    verdicts = {}
    for name, model in fit.models.items():
        conf, summary = evaluate_confusion(model, records)
        verdict = classify_strength(conf)
        verdicts[name] = verdict.to_json_dict()
        paths[f"confusion_{name}"] = _write_json(
            outdir / f"confusion_{name}.json",
            {"model": name, "confusion": conf.to_json_dict(), "summary": summary},
        )
    paths["importances_logit"] = _write_json(
        outdir / "importances_logit.json",
        {"model": "logit", "coefficients": fit.logit_coefficients,
         "lambda": fit.models["logit"].logit.lam, "alpha": fit.models["logit"].logit.alpha,
         "r2_adjusted": json_number(fit.models["logit"].logit.goodness.r2_adjusted)},
    )
    for name in ("tree", "forest"):
        paths[f"importances_{name}"] = _write_json(
            outdir / f"importances_{name}.json",
            {"model": name, "importances": fit.importances[name]},
        )
    paths["verdicts"] = _write_json(
        outdir / "verdicts.json",
        {"verdicts": verdicts, "imputation": fit.imputer.report(),
         "groups": [list(g) for g in corr.groups]},
    )
    paths["distribution"] = _write_json(outdir / "distribution.json", distribution_export(records))

    paths["sensitivity"] = _write_json(
        outdir / "sensitivity.json",
        sensitivity_boundaries(records, seed=seed, base=boundaries, forest_params=forest_params).to_json_dict(),
    )
    return paths
