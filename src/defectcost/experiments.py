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
from dataclasses import asdict, dataclass, field, fields
from datetime import timedelta
from itertools import islice, takewhile
from pathlib import Path
from typing import Sequence

import numpy as np

from .confounders import CONFOUNDER_NAMES, compute_confounders
from .costmodel import (
    DEFAULT_BOUNDARIES,
    CostBounds,
    Potential,
    classify_potential,
    cost_bounds,
)
from .dataset import COUNT_MODES, DataError, Release, ReleaseView, SplitError, bootstrap_split, count_defects
from .extmath import fmt_float, json_extended, json_number, parse_extended
from .learners import (
    Forest,
    ForestParams,
    GaussianNB,
    apply_smote,
    oob_mcc,
    train_gaussian_nb,
    train_random_forest,
    tune_forest_params,
    tune_smote,
)
from .metrics import EFFORT_MODES, METRIC_NAMES, Prediction, ViewScores, evaluate_metrics

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
# groups, each a group's field names and the codec of its values
_JSON_GROUPS = {
    "metrics": (METRIC_NAMES, json_number),
    "confounders": (CONFOUNDER_NAMES, json_number),
    "bounds": (BOUND_NAMES, json_extended),
}
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
            for group, (names, codec) in _JSON_GROUPS.items():
                obj[group] = {name: codec(getattr(rec, name)) for name in names}
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
    except OSError as exc:
        raise DataError(f"cannot read records file: {exc.strerror}", path) from None


# ---------------------------------------------------------------------------
# defect prediction models: ``fit`` on labels of both classes returns a
# predictor whose ``predict_proba(X)[:, 1]`` scores class 1


@dataclass(frozen=True)
class ForestModel:
    """Random forest, optionally tuned with differential evolution on OOB MCC."""

    params: ForestParams = ForestParams()
    tune: bool = False
    tune_population: int = 20
    tune_generations: int = 30

    def fit(self, X, y, seed: int) -> Forest:
        params = self.params
        if self.tune:
            params = tune_forest_params(X, y, seed, oob_mcc, 2, base=params,
                                        population=self.tune_population, generations=self.tune_generations)
        return train_random_forest(X, y, params, seed=seed, n_classes=2)


@dataclass(frozen=True)
class GaussianNBModel:
    """Gaussian naive-bayes-style scorer (used by the transfer pipelines)."""

    def fit(self, X, y, seed: int) -> GaussianNB:
        return train_gaussian_nb(X, y)


# ---------------------------------------------------------------------------
# transfer transforms for cross-project prediction


@dataclass(frozen=True, eq=False)
class TransferResult:
    train_X: np.ndarray
    target_X: np.ndarray
    flagged: tuple[int, ...] = ()


TRANSFER_KINDS = ("none", "watanabe", "camargo_cruz")


def _column_medians(X: np.ndarray) -> np.ndarray:
    """``np.median(X, axis=0)`` bit for bit from one partition of each column,
    copied contiguous, at the upper middle: the lower middle of an even count
    is the largest value below it, and a column holding NaN, which partitions
    last, has median NaN. Unlike np.median it needs no third partition index
    for a NaN check and does not import numpy.ma."""
    n = len(X)
    if n == 0:
        return np.full(X.shape[1], np.nan)
    half = n // 2
    part = X.T.copy()
    part.partition(half, axis=1)
    upper = part[:, half:]
    median = upper[:, 0] if n % 2 else (part[:, :half].max(axis=1) + upper[:, 0]) / 2.0
    return np.where(np.isnan(upper.max(axis=1)), np.nan, median)


@dataclass(frozen=True, eq=False)
class TransferSide:
    """Features made ready for one transfer kind: for camargo_cruz
    ``ln(max(x, 0) + 1)``, else ``X`` itself, and the columns that hold a
    negative value. Both are elementwise, so a release's side is prepared once
    per run and a pool's side is its releases' sides stacked in pool order."""

    kind: str
    X: np.ndarray
    negative: np.ndarray  # (k,) bool

    @staticmethod
    def stack(sides: Sequence["TransferSide"]) -> "TransferSide":
        if len(sides) == 1:
            return sides[0]
        return TransferSide(sides[0].kind, np.vstack([s.X for s in sides]),
                            np.logical_or.reduce([s.negative for s in sides]))


def transfer_side(kind: str, X: np.ndarray) -> TransferSide:
    """The part of ``transfer_transform`` that depends on one side's rows only."""
    if kind not in TRANSFER_KINDS:
        raise ValueError(f"unknown transfer kind {kind!r} (expected one of {TRANSFER_KINDS})")
    X = np.asarray(X, dtype=np.float64)
    negative = (X < 0).any(axis=0)
    return TransferSide(kind, np.log1p(np.maximum(X, 0.0)) if kind == "camargo_cruz" else X, negative)


def transfer_transform(kind: str, train, target) -> TransferResult:
    """Align training data with the target project.

    watanabe: scale each training feature by mean(target)/mean(train);
    features with zero training mean are left unscaled and flagged.
    camargo_cruz: ln(x+1) on both sides (negative values clipped to zero
    first; static metrics are non-negative by construction), then shift the
    training features by median(target) - median(train); features with a
    negative value on either side are flagged.

    ``train`` and ``target`` are feature arrays, or sides that
    ``transfer_side`` prepared for ``kind``.
    """
    train, target = (s if isinstance(s, TransferSide) else transfer_side(kind, s) for s in (train, target))
    if train.kind != kind or target.kind != kind:
        raise ValueError(f"sides prepared for {train.kind!r} and {target.kind!r}, not {kind!r}")
    if kind == "none":
        return TransferResult(train.X, target.X)
    if kind == "watanabe":
        train_mean = train.X.mean(axis=0)
        target_mean = target.X.mean(axis=0)
        flagged = tuple(int(i) for i in np.flatnonzero(train_mean == 0))
        scale = np.where(train_mean == 0, 1.0, target_mean / np.where(train_mean == 0, 1.0, train_mean))
        return TransferResult(train.X * scale, target.X, flagged)
    flagged = tuple(int(i) for i in np.flatnonzero(train.negative | target.negative))
    shift = _column_medians(target.X) - _column_medians(train.X)
    return TransferResult(train.X + shift, target.X, flagged)


# ---------------------------------------------------------------------------
# record assembly


@dataclass(frozen=True)
class RunResult:
    records: list[EvaluationRecord]
    notices: list[str] = field(default_factory=list)


OVERSAMPLE_MODES = ("off", "smote", "smote_tuned")


@dataclass(frozen=True, kw_only=True)
class RecordConfig:
    """Settings that shape an evaluation record, shared by every scenario;
    ``seed`` is the master seed every random draw of the run derives from."""

    model: object = ForestModel()
    seed: int = 0
    oversample: str = "off"  # off | smote | smote_tuned
    threshold: float = 0.5
    boundaries: tuple[float, float] = DEFAULT_BOUNDARIES
    effort_mode: str = "defects"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.oversample not in OVERSAMPLE_MODES:
            raise ValueError(f"unknown oversample mode {self.oversample!r}")
        if not 0.0 <= self.threshold <= 1.0:  # also rejects nan
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")
        if self.effort_mode not in EFFORT_MODES:
            raise ValueError(f"unknown effort counting mode {self.effort_mode!r}")


@dataclass(frozen=True, kw_only=True)
class EvalConfig(RecordConfig):
    """Settings of the cross-version and cross-project scenarios: the record
    settings plus the transfer transform and the size/defect filter that
    training releases must pass."""

    transfer: str = "none"  # none | watanabe | camargo_cruz
    min_instances: int = 100
    min_defects: int = 5
    count_mode: str = "defective_files"

    def __post_init__(self):
        super().__post_init__()
        if self.transfer not in TRANSFER_KINDS:
            raise ValueError(f"unknown transfer kind {self.transfer!r}")
        if self.count_mode not in COUNT_MODES:
            raise ValueError(f"unknown defect counting mode {self.count_mode!r}")
        if self.min_instances < 1 or self.min_defects < 1:
            raise ValueError("min_instances and min_defects must be >= 1")


@dataclass(frozen=True, kw_only=True)
class BootstrapConfig(RecordConfig):
    """The record settings plus the bootstrap sampling settings; oversampling
    defaults to SMOTE."""

    n_samples: int
    max_redraws: int = 1000
    oversample: str = "smote"

    def __post_init__(self):
        super().__post_init__()
        if self.n_samples < 1 or self.max_redraws < 1:
            raise ValueError("n_samples and max_redraws must be >= 1")


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
    test_X: np.ndarray | None = None,
) -> EvaluationRecord:
    """Oversample the training data, fit ``config.model`` on it and evaluate
    the model on ``test_view``, scoring ``test_X`` (default ``test_view.X``).
    ``seeds`` are the (model, SMOTE, SMOTE tuning) seeds the scenario derived."""
    model_seed, smote_seed, tune_seed = (int(v) for v in seeds)
    test_X = test_view.X if test_X is None else test_X
    X, y = train_X, np.asarray(train_y, dtype=np.int64)
    if oversample != "off":
        tuned = tune_smote(X, y, seed=tune_seed) if oversample == "smote_tuned" else ()
        X, y = apply_smote(X, y, *tuned, seed=smote_seed)
    if y.min() == y.max():
        scores = np.full(len(test_X), float(y[0]))
    else:
        scores = config.model.fit(X, y, seed=model_seed).predict_proba(test_X)[:, 1]
    return _record(
        ViewScores(test_view, np.array(scores, dtype=np.float64), config.threshold), test_view, train_y, y,
        effort_mode=config.effort_mode, boundaries=config.boundaries,
        scenario=scenario, project=release.project, release=release.release_id, sample=sample,
        preprocessing="plain" if oversample == "off" else "oversampled", seed=model_seed,
    )


def _record(pred, test_view, train_labels, train_prime_labels, *, effort_mode, boundaries, **identity):
    """Evaluate ``pred``, scores checked against ``test_view``, on it:
    metrics, confounders (training labels None when there was no training),
    cost bounds and potential. ``identity`` holds the record's identity fields."""
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


def _run(work, tasks, jobs: int = 1) -> RunResult:
    """``work`` mapped over ``tasks``, each call giving one task's records and
    notices, joined in task order; the notices are also logged. With ``jobs``
    above 1, ``tasks`` must be a sequence, and if it holds more than one task
    they run in that many worker processes; otherwise ``tasks`` is consumed
    one task at a time."""
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it costs every serial run 15-20 ms

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work, tasks))
    else:
        results = map(work, tasks)
    records: list[EvaluationRecord] = []
    notices: list[str] = []
    for recs, notes in results:
        records.extend(recs)
        notices.extend(notes)
    for note in notices:
        log.warning("%s", note)
    return RunResult(records=records, notices=notices)


def run_bootstrap(releases: Sequence[Release], config: BootstrapConfig, jobs: int = 1) -> RunResult:
    """Bootstrap experiment over pre-filtered releases.

    Produces per release and sample one record on the plain training data and
    one after oversampling (unless oversampling is off). Redraw exhaustion is
    reported per release and the run continues.
    """
    return _run(_bootstrap_release, [(release, i, config) for i, release in enumerate(releases)], jobs)


def _cross_seeds(seed: int, scenario: str, target_idx: int):
    return np.random.SeedSequence([seed, SCENARIO_CODES[scenario], target_idx]).generate_state(3)


def _ordered_by_time(releases: Sequence[Release]) -> list[Release]:
    return sorted(releases, key=lambda r: (r.released_at, r.release_id))


def _ordered_targets(releases: Sequence[Release]) -> list[Release]:
    """The releases in the order the cross scenarios number their targets."""
    return sorted(releases, key=lambda r: (r.project, r.released_at, r.release_id))


def _eligible_views(candidates, target: Release, config: EvalConfig):
    """Lazily, (release, view with labels cleaned as of ``target``'s release)
    for each of ``candidates`` that passes the size/defect filter of ``config``."""
    for release in candidates:
        view = release.view(as_of=target.released_at)
        if view.n >= config.min_instances and count_defects(view, config.count_mode) >= config.min_defects:
            yield release, view


def _run_cross(releases: Sequence[Release], config: EvalConfig, scenario: str, missing: str, targets) -> RunResult:
    """The records of one cross scenario. ``targets`` yields each target's
    index, release and training (release, cleaned view) pairs lazily, so that
    one target's pairs are held at a time; a target without pairs gets the
    notice ``missing``. Each release's full view and transfer side are built
    once per run."""
    views = {id(r): r.view() for r in releases}
    sides = {key: transfer_side(config.transfer, view.X) for key, view in views.items()}

    def work(task):
        idx, target, train = task
        if not train:
            return [], [f"{scenario}: {missing} for {target.key()}"]
        moved = transfer_transform(config.transfer, TransferSide.stack([sides[id(r)] for r, _ in train]),
                                   sides[id(target)])
        record = _fit_and_record(
            config, config.oversample, _cross_seeds(config.seed, scenario, idx), scenario=scenario,
            release=target, sample=0, train_X=moved.train_X, train_y=np.concatenate([v.y for _, v in train]),
            test_view=views[id(target)], test_X=moved.target_X,
        )
        return [record], []

    return _run(work, targets)


def run_cross_version(releases: Sequence[Release], config: EvalConfig = EvalConfig()) -> RunResult:
    """Train on the closest eligible prior release of the same project.

    Targets are never filtered; training candidates must pass the size/defect
    filter of ``config`` after their labels are restricted to defects fixed
    before the target release (no future information enters training).
    """
    ordered = _ordered_targets(releases)

    def targets():
        for idx, target in enumerate(ordered, start=1):
            prior = takewhile(lambda r: r.project == target.project, reversed(ordered[: idx - 1]))
            yield idx, target, list(islice(_eligible_views(prior, target, config), 1))

    return _run_cross(releases, config, "cross_version", "no eligible prior release", targets())


def cross_project_training_views(
    releases: Sequence[Release],
    target: Release,
    config: EvalConfig = EvalConfig(),
    gap_days: int = CROSS_PROJECT_GAP_DAYS,
) -> list[tuple[Release, ReleaseView]]:
    """Eligible training views for one cross-project target: releases of other
    projects released at least ``gap_days`` before the target that pass the
    size/defect filter of ``config``, in time order, their labels reflecting
    only defects fixed before the target's release date."""
    if gap_days < 0:
        raise ValueError(f"gap_days must be >= 0, got {gap_days!r}")
    cutoff = target.released_at - timedelta(days=gap_days)
    pool = (r for r in _ordered_by_time(releases) if r.project != target.project and r.released_at <= cutoff)
    return list(_eligible_views(pool, target, config))


def run_cross_project(
    releases: Sequence[Release], config: EvalConfig = EvalConfig(), gap_days: int = CROSS_PROJECT_GAP_DAYS
) -> RunResult:
    """Strict cross-project prediction with temporal-leakage removal: each
    target trains on its ``cross_project_training_views``."""
    targets = ((idx, target, cross_project_training_views(releases, target, config, gap_days))
               for idx, target in enumerate(_ordered_targets(releases)))
    return _run_cross(releases, config, "cross_project", "empty training pool", targets)


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
    view = release.view()
    return _record(
        Prediction(dict(scores_by_id), threshold).for_view(view), view, None, None,
        effort_mode=effort_mode, boundaries=boundaries,
        scenario="external", project=release.project, release=release.release_id, sample=0,
        preprocessing="plain", seed=seed,
    )
