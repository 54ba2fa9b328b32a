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
import re
from collections import namedtuple
from dataclasses import dataclass, field, fields
from datetime import timedelta
from itertools import islice, takewhile
from operator import attrgetter
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
from .dataset import (COUNT_MODES, DataError, Release, ReleaseView, SplitError, _first_repeat, bootstrap_split,
                      count_defects)
from .extmath import column_medians, fmt_float, json_extended, json_number, parse_extended
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
from .metrics import EFFORT_MODES, METRIC_NAMES, Prediction, check_threshold, evaluate_metrics

log = logging.getLogger(__name__)

SCENARIO_CODES = {"bootstrap": 1, "cross_version": 2, "cross_project": 3, "external": 4}
CROSS_PROJECT_GAP_DAYS = 183  # "six months", fixed in days for determinism

# the record layout, (name, kind, group) for each column of records.csv in
# order, which EvaluationRecord and records.jsonl follow: the kind picks a
# codec of _CODECS, the group the records.jsonl object (None: the top level)
RECORD_LAYOUT = (
    *((name, "text", None) for name in ("scenario", "project", "release")),
    ("sample", "int", None), ("preprocessing", "text", None), ("seed", "int", None),
    *((name, "real", "metrics") for name in METRIC_NAMES),
    *((name, "real", "confounders") for name in CONFOUNDER_NAMES),
    *((f.name, "bound", "bounds") for f in fields(CostBounds)),
    ("potential", "level", None),
)
CSV_COLUMNS = tuple(name for name, _, _ in RECORD_LAYOUT)
VARIABLE_NAMES = METRIC_NAMES + CONFOUNDER_NAMES


class EvaluationRecord(namedtuple("EvaluationRecord", CSV_COLUMNS)):
    """One evaluation, flat: its fields are the columns of records.csv, from
    the identity over the 20 metrics, the 10 confounders and the cost bounds
    to the potential (a ``Potential``)."""

    __slots__ = ()


def _whole(pattern: str, parse):
    """``parse`` of text that ``pattern`` matches whole; other text matches
    nothing, and reading the None match raises a TypeError."""
    fullmatch = re.compile(pattern).fullmatch
    return lambda text: parse(fullmatch(text)[0])


# a records.csv cell holds an integer or a number in ASCII digits, as the
# writers write it: without padding or underscores
_NUMBER_CELL = _whole(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?|nan|-?inf", float)
# how the values of one column kind are written and read: a value's records.csv
# text and the reader of that text, and a value's records.jsonl value, the JSON
# type of that value, where no boolean passes for a number, and its reader
_Codec = namedtuple("_Codec", "csv_text csv_cell json_value json_type json_cell")
_CODECS = {
    "text": _Codec(str, str, str, str, str),
    "int": _Codec(str, _whole(r"-?[0-9]+", int), int, int, int),
    "real": _Codec(fmt_float, _NUMBER_CELL, json_number, object, parse_extended),
    "bound": _Codec(fmt_float, _NUMBER_CELL, json_extended, object, parse_extended),
    "level": _Codec(attrgetter("label"), Potential.from_label, attrgetter("label"), str, Potential.from_label),
}
# what the writers and readers take of each column, in layout order
_CSV_TEXTS = tuple(_CODECS[kind].csv_text for _, kind, _ in RECORD_LAYOUT)
_CSV_CELLS = tuple((name, str, _CODECS[kind].csv_cell) for name, kind, _ in RECORD_LAYOUT)
_JSON_VALUES = tuple((name, group, _CODECS[kind].json_value) for name, kind, group in RECORD_LAYOUT)
_JSON_CELLS = tuple((name, _CODECS[kind].json_type, _CODECS[kind].json_cell) for name, kind, _ in RECORD_LAYOUT)
_JSON_GROUPS = tuple(dict.fromkeys(group for _, _, group in RECORD_LAYOUT if group))


def write_records_csv(records: Sequence[EvaluationRecord], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([text(value) for text, value in zip(_CSV_TEXTS, rec)])
    return path


def write_records_jsonl(records: Sequence[EvaluationRecord], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            obj = {}
            for (name, group, encode), value in zip(_JSON_VALUES, rec):
                (obj if group is None else obj.setdefault(group, {}))[name] = encode(value)
            fh.write(json.dumps(obj, allow_nan=False) + "\n")
    return path


def _parse_record(columns, path, line, cells=_CSV_CELLS) -> EvaluationRecord:
    """The record in ``columns``, a mapping from column name to the text of a
    CSV cell or a JSON value; ``cells`` gives each column's name, value type and
    reader. A missing or malformed column is a DataError naming ``path`` and ``line``."""
    values = []
    for name, kind, parse in cells:
        if name not in columns:
            raise DataError(f"record lacks {name!r}", path, line)
        try:
            if isinstance(columns[name], bool) or not isinstance(columns[name], kind):
                raise TypeError(f"not a {kind.__name__}")
            values.append(parse(columns[name]))
        except (TypeError, ValueError):
            raise DataError(f"malformed {name!r} value {columns[name]!r}", path, line) from None
    return EvaluationRecord._make(values)


def read_records_csv(path) -> list[EvaluationRecord]:
    """Records of a CSV file whose header holds every column of records.csv,
    in any order; other columns are ignored."""
    path = Path(path)
    records = []
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if (i := _first_repeat(header)) is not None:
                raise DataError(f"records file names column {header[i]!r} twice", path, 1)
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


def _no_constant(name: str):
    """Reject the NaN, Infinity and -Infinity that ``json.loads`` takes: they
    are not JSON, and the writer writes "nan", "inf" and "-inf" instead."""
    raise json.JSONDecodeError(f"{name} is not JSON", name, 0)


def read_records_jsonl(path) -> list[EvaluationRecord]:
    """Records of a JSONL file in the layout of ``write_records_jsonl``."""
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                obj = json.loads(text, parse_constant=_no_constant)
            except json.JSONDecodeError as exc:
                raise DataError(f"malformed JSON: {exc.msg}", path, lineno) from None
            if not isinstance(obj, dict) or not all(isinstance(obj.get(group), dict) for group in _JSON_GROUPS):
                raise DataError(f"a record must be a JSON object with objects {', '.join(_JSON_GROUPS)}", path, lineno)
            columns = dict(obj)
            for group in _JSON_GROUPS:
                columns.update(obj[group])
            records.append(_parse_record(columns, path, lineno, _JSON_CELLS))
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


TRANSFER_KINDS = ("none", "watanabe", "camargo_cruz")


@dataclass(frozen=True, eq=False)
class TransferSide:
    """Features made ready for one transfer kind: for camargo_cruz
    ``ln(max(x, 0) + 1)``, else ``X`` itself. That is elementwise, so a
    release's side is prepared once per run and a pool's side is its
    releases' sides concatenated in pool order."""

    kind: str
    X: np.ndarray


def transfer_side(kind: str, X: np.ndarray) -> TransferSide:
    """The part of ``transfer_transform`` that depends on one side's rows only."""
    if kind not in TRANSFER_KINDS:
        raise ValueError(f"unknown transfer kind {kind!r} (expected one of {TRANSFER_KINDS})")
    X = np.asarray(X, dtype=np.float64)
    return TransferSide(kind, np.log1p(np.maximum(X, 0.0)) if kind == "camargo_cruz" else X)


def transfer_transform(kind: str, train, target, *, out=None, scratch=None) -> np.ndarray:
    """The training features aligned with the target project.

    watanabe: scale each training feature by mean(target)/mean(train);
    features with zero training mean are left unscaled.
    camargo_cruz: ln(x+1) on both sides (negative values clipped to zero
    first; static metrics are non-negative by construction), then shift the
    training features by median(target) - median(train).

    ``train`` and ``target`` are feature arrays, or sides that
    ``transfer_side`` prepared for ``kind``; the target side's features are
    the ones to score. The moved training features are written to ``out``
    when it is given, an array shaped like them that may be their own;
    camargo_cruz copies the training columns into ``scratch``, if given, a
    C-ordered array shaped like their transpose, to take the medians.
    """
    train, target = (s if isinstance(s, TransferSide) else transfer_side(kind, s) for s in (train, target))
    if train.kind != kind or target.kind != kind:
        raise ValueError(f"sides prepared for {train.kind!r} and {target.kind!r}, not {kind!r}")
    if kind == "none":
        if out is not None and out is not train.X:
            np.copyto(out, train.X)
        return train.X if out is None else out
    if kind == "watanabe":
        train_mean = train.X.mean(axis=0)
        target_mean = target.X.mean(axis=0)
        scale = np.where(train_mean == 0, 1.0, target_mean / np.where(train_mean == 0, 1.0, train_mean))
        return np.multiply(train.X, scale, out=out)
    shift = column_medians(target.X) - column_medians(train.X, scratch)
    return np.add(train.X, shift, out=out)


class _PoolWorkspace:
    """The buffers of one run's training pools: the features, their transpose
    for the pool medians, and the labels. A buffer grows only for a pool
    larger than every earlier one, so it holds one pool's worth at most; the
    arrays that ``pool`` returns are views into it, valid until its next call."""

    def __init__(self):
        self._X = self._T = np.empty(0)
        self._y = np.empty(0, dtype=np.int64)

    def pool(self, sides: Sequence[TransferSide], labels: Sequence[np.ndarray]):
        """The pool's side, with its features copied into the workspace, the
        workspace's (k, n) transpose buffer, and the pool's labels."""
        n, k = sum(len(y) for y in labels), sides[0].X.shape[1]
        if n > self._y.size or n * k > self._X.size:
            self._X = self._T = self._y = None  # let the old buffers go before the new ones are taken
            self._X, self._T, self._y = np.empty(n * k), np.empty(n * k), np.empty(n, dtype=np.int64)
        X = np.concatenate([s.X for s in sides], out=self._X[: n * k].reshape(n, k))
        return TransferSide(sides[0].kind, X), self._T[: n * k].reshape(k, n), np.concatenate(labels, out=self._y[:n])


# ---------------------------------------------------------------------------
# record assembly


@dataclass(frozen=True)
class RunResult:
    """The records of a run, in task order, and its notices about skipped targets or samples."""

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
        check_threshold(self.threshold)
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
    sample: int,
    train_X,
    train_y,
    test_view: ReleaseView,
    test_X: np.ndarray | None = None,
) -> EvaluationRecord:
    """Oversample the training data, fit ``config.model`` on it and evaluate
    the model on ``test_view``, scoring ``test_X`` (default ``test_view.X``).
    ``seeds`` are the (model, SMOTE, SMOTE tuning) seeds the scenario derived.
    SMOTE needs two rows of the minority class: training data with fewer is
    fitted as it is, as when SMOTE needs no synthetic row."""
    model_seed, smote_seed, tune_seed = (int(v) for v in seeds)
    test_X = test_view.X if test_X is None else test_X
    X, y = train_X, np.asarray(train_y, dtype=np.int64)
    n_pos = int(y.sum())
    if oversample != "off" and min(n_pos, len(y) - n_pos) >= 2:
        tuned = tune_smote(X, y, seed=tune_seed) if oversample == "smote_tuned" else ()
        X, y = apply_smote(X, y, *tuned, seed=smote_seed)
    if y.min() == y.max():
        scores = np.full(len(test_X), float(y[0]))
    else:
        scores = config.model.fit(X, y, seed=model_seed).predict_proba(test_X)[:, 1]
    return _record(
        Prediction(test_view, scores, config.threshold), train_y, y,
        effort_mode=config.effort_mode, boundaries=config.boundaries, scenario=scenario, sample=sample,
        preprocessing="plain" if oversample == "off" else "oversampled", seed=model_seed,
    )


def _record(pred, train_labels, train_prime_labels, *, effort_mode, boundaries, **identity):
    """Evaluate ``pred`` on its view: metrics, confounders (training labels
    None when there was no training), cost bounds and potential. ``identity``
    holds the record's identity fields but the project and release, which
    are the view's."""
    metrics = evaluate_metrics(pred, effort_mode=effort_mode)
    confounders = compute_confounders(train_labels, train_prime_labels, pred.view)
    bounds = cost_bounds(pred)
    release = pred.view.release
    return EvaluationRecord(
        project=release.project, release=release.release_id, **identity,
        **_field_values(metrics), **_field_values(confounders), **_field_values(bounds),
        potential=classify_potential(bounds.diff, boundaries),
    )


def _field_values(obj) -> dict:
    """A dataclass's fields by name, without the deep copy of ``asdict``:
    the vectors that fill a record hold floats only."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _bootstrap_release(args) -> tuple[list[EvaluationRecord], list[str]]:
    release, release_idx, config = args
    records: list[EvaluationRecord] = []
    notices: list[str] = []
    for s in range(config.n_samples):
        ss = np.random.SeedSequence([config.seed, SCENARIO_CODES["bootstrap"], release_idx, s])
        split_seed, model_plain, model_over, smote_seed, tune_seed = ss.generate_state(5)
        try:
            split = bootstrap_split(release, seed=int(split_seed))
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
    once per run, and each pool is assembled and moved in the run's one
    ``_PoolWorkspace``."""
    views = {id(r): r.view() for r in releases}
    sides = {key: transfer_side(config.transfer, view.X) for key, view in views.items()}
    workspace = _PoolWorkspace()

    def work(task):
        idx, target, train = task
        if not train:
            return [], [f"{scenario}: {missing} for {target.key()}"]
        pool, columns, train_y = workspace.pool([sides[id(r)] for r, _ in train], [v.y for _, v in train])
        target_side = sides[id(target)]
        moved = transfer_transform(config.transfer, pool, target_side, out=pool.X, scratch=columns)
        record = _fit_and_record(
            config, config.oversample, _cross_seeds(config.seed, scenario, idx), scenario=scenario,
            sample=0, train_X=moved, train_y=train_y, test_view=views[id(target)], test_X=target_side.X,
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
    return _record(
        Prediction.from_ids(release.view(), scores_by_id, threshold), None, None,
        effort_mode=effort_mode, boundaries=boundaries,
        scenario="external", sample=0, preprocessing="plain", seed=seed,
    )
