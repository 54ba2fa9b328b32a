"""Experiment pipelines producing EvaluationRecords.

Three scenarios share one record schema: the bootstrap experiment (in-bag
training, out-of-bag evaluation, a plain and an oversampled variant per
sample), cross-version prediction (train on the closest eligible prior
release of the same project), and strict cross-project prediction (train on
all eligible data of other projects released at least six months before the
target, with defect labels recomputed from fix timestamps so nothing from the
future leaks into training).

All randomness is derived from one master seed through named seed sequences,
so identical configurations reproduce records bit by bit.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from .confounders import CONFOUNDER_NAMES, ConfounderVector, compute_confounders
from .costmodel import (
    DEFAULT_BOUNDARIES,
    CostBounds,
    Potential,
    classify_potential,
    cost_bounds,
)
from .dataset import DataError, Release, ReleaseView, SplitError, bootstrap_split
from .extmath import fmt_float, parse_extended
from .learners import (
    ForestParams,
    apply_smote,
    oob_mcc,
    train_gaussian_nb,
    train_random_forest,
    tune_forest_params,
    tune_smote,
)
from .metrics import METRIC_NAMES, MetricVector, Prediction, evaluate_metrics

log = logging.getLogger(__name__)

SCENARIO_CODES = {"bootstrap": 1, "cross_version": 2, "cross_project": 3, "external": 4}
CROSS_PROJECT_GAP_DAYS = 183  # "six months", fixed in days for determinism

IDENTITY_COLUMNS = ("scenario", "project", "release", "sample", "preprocessing", "seed")
VARIABLE_NAMES = METRIC_NAMES + CONFOUNDER_NAMES
BOUND_NAMES = tuple(f.name for f in fields(CostBounds))
CSV_COLUMNS = (*IDENTITY_COLUMNS, *VARIABLE_NAMES, *BOUND_NAMES, "potential")

# a record's 30 variables (metrics, then confounders), and its 33 numbers
# (the variables, then the bounds)
VARIABLES = slice(len(IDENTITY_COLUMNS), len(IDENTITY_COLUMNS) + len(VARIABLE_NAMES))
NUMBERS = slice(len(IDENTITY_COLUMNS), -1)


class EvaluationRecord(namedtuple("EvaluationRecord", CSV_COLUMNS)):
    """One evaluation, flat: its fields are the columns of records.csv, from
    the identity over the 20 metrics, the 10 confounders and the cost bounds
    to the potential (a ``Potential``)."""

    __slots__ = ()


# the JSONL layout: identity and potential at the top, the numbers in three
# groups, each written by the to_json_dict of its class
_JSON_GROUPS = {"metrics": MetricVector, "confounders": ConfounderVector, "bounds": CostBounds}
# how _parse_record reads each column of CSV_COLUMNS
_PARSERS = (str, str, str, int, str, int, *[parse_extended] * len(CSV_COLUMNS[NUMBERS]), Potential.from_label)


def write_records_csv(records: Sequence[EvaluationRecord], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([*map(str, rec[: NUMBERS.start]), *map(fmt_float, rec[NUMBERS]), rec.potential.label])
    return path


def write_records_jsonl(records: Sequence[EvaluationRecord], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in records:
            obj = {name: getattr(rec, name) for name in IDENTITY_COLUMNS}
            for group, cls in _JSON_GROUPS.items():
                obj[group] = cls(**{f.name: getattr(rec, f.name) for f in fields(cls)}).to_json_dict()
            obj["potential"] = rec.potential.label
            fh.write(json.dumps(obj, allow_nan=False) + "\n")
    return path


def _parse_record(columns, path, line) -> EvaluationRecord:
    """The record in ``columns``, a mapping from column name to the text of a
    CSV cell or a JSON value; a missing or malformed column is a DataError
    naming ``path`` and ``line``."""
    values = []
    for name, parse in zip(CSV_COLUMNS, _PARSERS):
        if name not in columns:
            raise DataError(f"record lacks {name!r}", path, line)
        try:
            values.append(parse(columns[name]))
        except (TypeError, ValueError):
            raise DataError(f"malformed {name!r} value {columns[name]!r}", path, line) from None
    return EvaluationRecord._make(values)


def read_records_csv(path) -> list[EvaluationRecord]:
    """Records of a CSV file whose header holds every column of records.csv,
    in any order; other columns are ignored."""
    path = Path(path)
    records = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = set(CSV_COLUMNS) - set(header)
            if missing:
                raise DataError(f"records file lacks columns {sorted(missing)}", path, 1)
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"row has {len(row)} fields, the header {len(header)}", path, reader.line_num)
                records.append(_parse_record(dict(zip(header, row)), path, reader.line_num))
        except csv.Error as exc:
            raise DataError(f"malformed CSV: {exc}", path, reader.line_num) from None
    return records


def read_records_jsonl(path) -> list[EvaluationRecord]:
    """Records of a JSONL file in the layout of ``write_records_jsonl``."""
    records = []
    with Path(path).open() as fh:
        for lineno, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise DataError(f"malformed JSON: {exc.msg}", path, lineno) from None
            if not isinstance(obj, dict) or not all(isinstance(obj.get(group), dict) for group in _JSON_GROUPS):
                raise DataError("a record must be a JSON object with objects "
                                "'metrics', 'confounders' and 'bounds'", path, lineno)
            columns = dict(obj)
            for group in _JSON_GROUPS:
                columns.update(obj[group])
            records.append(_parse_record(columns, path, lineno))
    return records


def read_records(path) -> list[EvaluationRecord]:
    """Records of a records.csv or, by its suffix, a records.jsonl file."""
    path = Path(path)
    try:
        return read_records_jsonl(path) if path.suffix == ".jsonl" else read_records_csv(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"records file is not UTF-8 text: {exc.reason}", path) from None


# ---------------------------------------------------------------------------
# pluggable defect prediction models


@dataclass(frozen=True)
class ForestModel:
    """Random forest, optionally tuned with differential evolution on OOB MCC."""

    params: ForestParams = ForestParams()
    tune: bool = False
    tune_population: int = 20
    tune_generations: int = 30

    name = "forest"

    def fit(self, X, y, seed: int) -> "FittedScorer":
        y = np.asarray(y, dtype=np.int64)
        if len(np.unique(y)) < 2:
            return FittedScorer(constant=float(y[0]) if len(y) else 0.0)
        params = self.params
        if self.tune:
            params = tune_forest_params(X, y, seed, oob_mcc, 2, base=params,
                                        population=self.tune_population, generations=self.tune_generations)
        forest = train_random_forest(X, y, params, seed=seed, n_classes=2)
        return FittedScorer(forest=forest)


@dataclass(frozen=True)
class GaussianNBModel:
    """Gaussian naive-bayes-style scorer (used by the transfer pipelines)."""

    name = "gnb"

    def fit(self, X, y, seed: int) -> "FittedScorer":
        y = np.asarray(y, dtype=np.int64)
        if len(np.unique(y)) < 2:
            return FittedScorer(constant=float(y[0]) if len(y) else 0.0)
        return FittedScorer(nb=train_gaussian_nb(X, y))


@dataclass(frozen=True, eq=False)
class FittedScorer:
    forest: object = None
    nb: object = None
    constant: float | None = None

    def predict_scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.constant is not None:
            return np.full(X.shape[0], self.constant)
        if self.forest is not None:
            return self.forest.predict_proba(X)[:, 1]
        probs = self.nb.predict_proba(X)
        col = int(np.argmax(self.nb.classes == 1)) if 1 in self.nb.classes else None
        if col is None:
            return np.zeros(X.shape[0])
        return probs[:, col]


# ---------------------------------------------------------------------------
# transfer transforms for cross-project prediction


@dataclass(frozen=True, eq=False)
class TransferResult:
    train_X: np.ndarray
    target_X: np.ndarray
    flagged: tuple[int, ...] = ()


TRANSFER_KINDS = ("none", "watanabe", "camargo_cruz")


def transfer_transform(kind: str, train_X: np.ndarray, target_X: np.ndarray) -> TransferResult:
    """Align training data with the target project.

    watanabe: scale each training feature by mean(target)/mean(train);
    features with zero training mean are left unscaled and flagged.
    camargo_cruz: ln(x+1) on both sides (negative values clipped to zero
    first; static metrics are non-negative by construction), then shift the
    training features by median(target) - median(train).
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    target_X = np.asarray(target_X, dtype=np.float64)
    if kind == "none":
        return TransferResult(train_X, target_X)
    if kind == "watanabe":
        train_mean = train_X.mean(axis=0)
        target_mean = target_X.mean(axis=0)
        flagged = tuple(int(i) for i in np.flatnonzero(train_mean == 0))
        scale = np.where(train_mean == 0, 1.0, target_mean / np.where(train_mean == 0, 1.0, train_mean))
        return TransferResult(train_X * scale, target_X, flagged)
    if kind == "camargo_cruz":
        flagged = tuple(
            int(i) for i in np.flatnonzero((train_X < 0).any(axis=0) | (target_X < 0).any(axis=0))
        )
        train_log = np.log1p(np.maximum(train_X, 0.0))
        target_log = np.log1p(np.maximum(target_X, 0.0))
        shift = np.median(target_log, axis=0) - np.median(train_log, axis=0)
        return TransferResult(train_log + shift, target_log, flagged)
    raise ValueError(f"unknown transfer kind {kind!r} (expected one of {TRANSFER_KINDS})")


# ---------------------------------------------------------------------------
# record assembly


@dataclass(frozen=True)
class RunResult:
    records: list[EvaluationRecord]
    notices: list[str] = field(default_factory=list)


OVERSAMPLE_MODES = ("off", "smote", "smote_tuned")


@dataclass(frozen=True, kw_only=True)
class RecordConfig:
    """Settings that shape an evaluation record, shared by every scenario."""

    model: object = ForestModel()
    oversample: str = "off"  # off | smote | smote_tuned
    threshold: float = 0.5
    boundaries: tuple[float, float] = DEFAULT_BOUNDARIES
    effort_mode: str = "defects"

    def __post_init__(self):
        if self.oversample not in OVERSAMPLE_MODES:
            raise ValueError(f"unknown oversample mode {self.oversample!r}")
        if not 0.0 <= self.threshold <= 1.0:  # also rejects nan
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")


@dataclass(frozen=True, kw_only=True)
class EvalConfig(RecordConfig):
    """Settings of the cross-version and cross-project scenarios: the record
    settings plus the transfer transform and the size/defect filter that
    training releases must pass."""

    transfer: str = "none"  # none | watanabe | camargo_cruz
    min_instances: int = 100
    min_defects: int = 5
    count_mode: str = "defective_files"


@dataclass(frozen=True, kw_only=True)
class BootstrapConfig(RecordConfig):
    """The record settings plus the bootstrap sampling settings; oversampling
    defaults to SMOTE."""

    n_samples: int
    seed: int
    max_redraws: int = 1000
    oversample: str = "smote"

    def __post_init__(self):
        super().__post_init__()
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def _fit_and_record(
    config: RecordConfig,
    oversample: str,
    seeds,
    *,
    scenario: str,
    release: Release,
    sample: int,
    train_X,
    train_y,
    test_view: ReleaseView,
    transfer: str | None = None,
) -> EvaluationRecord:
    """Transfer (when given) and oversample the training data, fit
    ``config.model`` on it and evaluate the model on ``test_view``. ``seeds``
    are the (model, SMOTE, SMOTE tuning) seeds the scenario derived."""
    model_seed, smote_seed, tune_seed = (int(v) for v in seeds)
    test_X = test_view.X
    if transfer is not None:
        moved = transfer_transform(transfer, train_X, test_X)
        train_X, test_X = moved.train_X, moved.target_X
    X, y = train_X, np.asarray(train_y, dtype=np.int64)
    if oversample != "off":
        tuned = tune_smote(X, y, seed=tune_seed) if oversample == "smote_tuned" else ()
        X, y = apply_smote(X, y, *tuned, seed=smote_seed)
    scores = config.model.fit(X, y, seed=model_seed).predict_scores(test_X)
    return _record(
        Prediction.from_arrays(test_view.ids, scores, config.threshold), test_view, train_y, y,
        effort_mode=config.effort_mode, boundaries=config.boundaries,
        scenario=scenario, project=release.project, release=release.release_id, sample=sample,
        preprocessing="plain" if oversample == "off" else "oversampled", seed=model_seed,
    )


def _record(pred, test_view, train_labels, train_prime_labels, *, effort_mode, boundaries, **identity):
    """Evaluate ``pred`` on ``test_view``: metrics, confounders (training
    labels None when there was no training), cost bounds and potential.
    ``identity`` holds the record's identity fields."""
    metrics = evaluate_metrics(test_view, pred, effort_mode=effort_mode)
    confounders = compute_confounders(train_labels, train_prime_labels, test_view)
    bounds = cost_bounds(test_view, pred)
    return EvaluationRecord(
        **identity, **asdict(metrics), **asdict(confounders), **asdict(bounds),
        potential=classify_potential(bounds.diff, boundaries),
    )


def _bootstrap_release(args) -> tuple[list[EvaluationRecord], list[str]]:
    release, release_idx, config = args
    records: list[EvaluationRecord] = []
    notices: list[str] = []
    for s in range(config.n_samples):
        ss = np.random.SeedSequence([config.seed, SCENARIO_CODES["bootstrap"], release_idx, s])
        split_seed, model_plain, model_over, smote_seed, tune_seed = ss.generate_state(5)
        try:
            split = bootstrap_split(release, seed=int(split_seed), max_redraws=config.max_redraws)
        except SplitError as exc:
            notices.append(str(exc))
            continue
        train_view = release.view(split.train)
        test_view = release.view(split.test)
        variants = [("off", model_plain)]
        if config.oversample != "off":
            variants.append((config.oversample, model_over))
        for oversample, model_seed in variants:
            records.append(
                _fit_and_record(
                    config,
                    oversample,
                    (model_seed, smote_seed, tune_seed),
                    scenario="bootstrap",
                    release=release,
                    sample=s,
                    train_X=train_view.X,
                    train_y=train_view.y,
                    test_view=test_view,
                )
            )
    return records, notices


def run_bootstrap(
    releases: Sequence[Release],
    n_samples: int | None = None,
    seed: int | None = None,
    *,
    config: BootstrapConfig | None = None,
    jobs: int = 1,
) -> RunResult:
    """Bootstrap experiment over pre-filtered releases.

    Produces per release and sample one record on the plain training data and
    one after oversampling (unless oversampling is off). Redraw exhaustion is
    reported per release and the run continues. ``n_samples`` and ``seed``,
    when given, override those of ``config``.
    """
    given = {k: v for k, v in (("n_samples", n_samples), ("seed", seed)) if v is not None}
    config = replace(config, **given) if config is not None else BootstrapConfig(**given)
    tasks = [(release, i, config) for i, release in enumerate(releases)]
    results: list[tuple[list[EvaluationRecord], list[str]]] = []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_bootstrap_release, tasks))
    else:
        results = [_bootstrap_release(t) for t in tasks]
    records: list[EvaluationRecord] = []
    notices: list[str] = []
    for recs, notes in results:
        records.extend(recs)
        notices.extend(notes)
    for note in notices:
        log.warning("%s", note)
    return RunResult(records=records, notices=notices)


def _cross_config(config: EvalConfig | None, model) -> EvalConfig:
    config = config or EvalConfig()
    return config if model is None else replace(config, model=model)


def _cross_seeds(seed: int, scenario: str, target_idx: int):
    return np.random.SeedSequence([seed, SCENARIO_CODES[scenario], target_idx]).generate_state(3)


def _ordered_by_time(releases: Sequence[Release]) -> list[Release]:
    return sorted(releases, key=lambda r: (r.released_at, r.release_id))


def _eligible_train_view(
    release: Release, as_of, min_instances: int, min_defects: int, mode: str
) -> ReleaseView | None:
    """View with leakage-cleaned labels if it passes the size/defect filter."""
    view = release.view(as_of=as_of)
    if view.n < min_instances:
        return None
    if mode == "defects":
        n_def = len(view.defects)
    else:
        n_def = view.n_defective
    if n_def < min_defects:
        return None
    return view


def run_cross_version(
    releases: Sequence[Release],
    model=None,
    seed: int = 0,
    *,
    config: EvalConfig | None = None,
) -> RunResult:
    """Train on the closest eligible prior release of the same project.

    Targets are never filtered; training candidates must pass the size/defect
    filter of ``config`` after their labels are restricted to defects fixed
    before the target release (no future information enters training).
    ``model`` overrides ``config.model``.
    """
    config = _cross_config(config, model)
    records: list[EvaluationRecord] = []
    notices: list[str] = []
    by_project: dict[str, list[Release]] = {}
    for r in releases:
        by_project.setdefault(r.project, []).append(r)
    target_idx = 0
    for project in sorted(by_project):
        ordered = _ordered_by_time(by_project[project])
        for i, target in enumerate(ordered):
            target_idx += 1
            train_view = None
            for candidate in reversed(ordered[:i]):
                train_view = _eligible_train_view(
                    candidate, target.released_at, config.min_instances, config.min_defects, config.count_mode
                )
                if train_view is not None:
                    break
            if train_view is None:
                notices.append(f"cross_version: no eligible prior release for {target.key()}")
                continue
            records.append(
                _fit_and_record(
                    config,
                    config.oversample,
                    _cross_seeds(seed, "cross_version", target_idx),
                    scenario="cross_version",
                    release=target,
                    sample=0,
                    train_X=train_view.X,
                    train_y=train_view.y,
                    test_view=target.view(),
                    transfer=config.transfer,
                )
            )
    for note in notices:
        log.warning("%s", note)
    return RunResult(records=records, notices=notices)


def cross_project_pool(
    releases: Sequence[Release], target: Release, gap_days: int = CROSS_PROJECT_GAP_DAYS
) -> list[Release]:
    """Releases of other projects released at least ``gap_days`` before the target."""
    cutoff = target.released_at - timedelta(days=gap_days)
    return [
        r
        for r in _ordered_by_time(releases)
        if r.project != target.project and r.released_at <= cutoff
    ]


def cross_project_training_views(
    releases: Sequence[Release],
    target: Release,
    *,
    gap_days: int = CROSS_PROJECT_GAP_DAYS,
    min_instances: int = 100,
    min_defects: int = 5,
    count_mode: str = "defective_files",
) -> list[tuple[Release, ReleaseView]]:
    """Eligible training views for one cross-project target.

    Pool releases respect the temporal gap; their labels only reflect defects
    fixed before the target's release date.
    """
    out = []
    for candidate in cross_project_pool(releases, target, gap_days):
        view = _eligible_train_view(candidate, target.released_at, min_instances, min_defects, count_mode)
        if view is not None:
            out.append((candidate, view))
    return out


def run_cross_project(
    releases: Sequence[Release],
    model=None,
    seed: int = 0,
    *,
    config: EvalConfig | None = None,
    gap_days: int = CROSS_PROJECT_GAP_DAYS,
) -> RunResult:
    """Strict cross-project prediction with temporal-leakage removal.

    The training pool contains releases of other projects released at least
    ``gap_days`` before the target that pass the size/defect filter of
    ``config``; training labels only reflect defects fixed before the
    target's release date. ``model`` overrides ``config.model``.
    """
    config = _cross_config(config, model)
    records: list[EvaluationRecord] = []
    notices: list[str] = []
    for idx, target in enumerate(sorted(releases, key=lambda r: (r.project, r.released_at, r.release_id))):
        pool = cross_project_training_views(
            releases,
            target,
            gap_days=gap_days,
            min_instances=config.min_instances,
            min_defects=config.min_defects,
            count_mode=config.count_mode,
        )
        if not pool:
            notices.append(f"cross_project: empty training pool for {target.key()}")
            continue
        records.append(
            _fit_and_record(
                config,
                config.oversample,
                _cross_seeds(seed, "cross_project", idx),
                scenario="cross_project",
                release=target,
                sample=0,
                train_X=np.vstack([v.X for _, v in pool]),
                train_y=np.concatenate([v.y for _, v in pool]),
                test_view=target.view(),
                transfer=config.transfer,
            )
        )
    for note in notices:
        log.warning("%s", note)
    return RunResult(records=records, notices=notices)


def evaluate_external_prediction(
    release: Release,
    scores_by_id: dict[str, float],
    *,
    threshold: float = 0.5,
    boundaries=DEFAULT_BOUNDARIES,
    effort_mode: str = "defects",
    seed: int = 0,
) -> EvaluationRecord:
    """One record for a third-party prediction of a release.

    No training data exists here, so the training-side confounders carry the
    undefined marker and the training sizes are zero.
    """
    return _record(
        Prediction(dict(scores_by_id), threshold), release.view(), None, None,
        effort_mode=effort_mode, boundaries=boundaries,
        scenario="external", project=release.project, release=release.release_id, sample=0,
        preprocessing="plain", seed=seed,
    )
