"""Release data model: artifacts, defects, ingestion, filtering, bootstrap splits.

A release holds a set of software artifacts (files) with sizes and static
metrics, plus a defect map with an n-to-m relationship between defects and
artifacts. Defectiveness of an artifact is always derived from the defect map,
never stored, so the two can not drift apart.

On-disk format of one release (three files in one directory):
  metrics.csv  header ``artifact_id,size,<feature_1>,...,<feature_k>``
  defects.json JSON array of ``{"id": str, "artifacts": [str], "fixed_at": ISO-8601|null}``
  meta.json    ``{"project": str, "release": str, "released_at": ISO-8601}``
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class DataError(Exception):
    """Malformed or inconsistent input data; carries file/line context."""

    def __init__(self, message: str, path=None, line=None):
        ctx = ""
        if path is not None:
            ctx = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + ctx)
        self.path = path
        self.line = line


class SplitError(Exception):
    """Bootstrap redraw budget exhausted for a release."""


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_NEVER = np.iinfo(np.int64).max  # the instant of a fix that has no timestamp


def _instant(ts: datetime) -> int:
    """Microseconds since the epoch, exact at datetime's resolution, so
    instants order as the datetimes do; a naive time is taken as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - _EPOCH) // _MICROSECOND


def _parse_timestamp(value, path=None, line=None) -> datetime:
    try:
        ts = datetime.fromisoformat(str(value).replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"invalid ISO-8601 timestamp {value!r}", path, line) from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


@dataclass(frozen=True)
class Artifact:
    id: str
    size: int
    features: tuple[float, ...]


@dataclass(frozen=True)
class Defect:
    id: str
    artifacts: frozenset[str]
    fixed_at: datetime | None = None


@dataclass(frozen=True)
class Release:
    project: str
    release_id: str
    released_at: datetime
    artifacts: tuple[Artifact, ...]
    defects: tuple[Defect, ...]

    def __post_init__(self):
        validate_release(self)

    @cached_property
    def artifact_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.artifacts)

    @cached_property
    def _arrays(self) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """id -> row map, read-only ``sizes`` and ``(n, k)`` features, each
        defect's fix instant (``_NEVER`` without a timestamp), and the defect
        map as rows with their defect's fix instant beside them; built once,
        since only labels vary by view."""
        row_of = {aid: i for i, aid in enumerate(self.artifact_ids)}
        k = len(self.artifacts[0].features) if self.artifacts else 0
        sizes = np.array([a.size for a in self.artifacts], dtype=np.int64)
        X = np.array([a.features for a in self.artifacts], dtype=np.float64).reshape(len(sizes), k)
        sizes.flags.writeable = X.flags.writeable = False
        fixed = np.array([_NEVER if d.fixed_at is None else _instant(d.fixed_at) for d in self.defects],
                         dtype=np.int64)
        rows = np.array([row_of[a] for d in self.defects for a in d.artifacts], dtype=np.int64)
        row_fixed = np.repeat(fixed, [len(d.artifacts) for d in self.defects])
        return row_of, sizes, X, fixed, rows, row_fixed

    @cached_property
    def defective_ids(self) -> frozenset[str]:
        out: set[str] = set()
        for d in self.defects:
            out.update(d.artifacts)
        return frozenset(out)

    @property
    def n_artifacts(self) -> int:
        return len(self.artifacts)

    @property
    def n_defective(self) -> int:
        return len(self.defective_ids)

    @property
    def defect_ratio(self) -> float:
        return self.n_defective / self.n_artifacts if self.artifacts else 0.0

    def key(self) -> str:
        return f"{self.project}/{self.release_id}"

    def view(self, ids: Sequence[str] | None = None, as_of: datetime | None = None) -> "ReleaseView":
        """Evaluation/training view over a subset (or multiset) of artifacts.

        ``ids`` may contain duplicates (in-bag bootstrap rows). ``as_of``
        restricts the defect map to defects fixed strictly before that time;
        defects without a fix timestamp are dropped, since their availability
        at that date can not be verified. Without ``ids`` the view's ``sizes``
        and ``X`` are the release's read-only arrays themselves.
        """
        row_of, sizes, X, fixed, rows, row_fixed = self._arrays
        y = np.zeros(len(sizes), dtype=np.int64)
        if as_of is None:
            y[rows] = 1
            defects = self.defects
        else:
            before = _instant(as_of)
            y[rows[row_fixed < before]] = 1
            defects = tuple(compress(self.defects, (fixed < before).tolist()))
        if ids is None:
            return ReleaseView(self.key(), self.artifact_ids, sizes, X, y, defects)
        picked = np.array([row_of[i] for i in ids], dtype=np.int64)
        distinct = set(ids)
        feet = ((d, frozenset(a for a in d.artifacts if a in distinct)) for d in defects)
        return ReleaseView(
            self.key(), tuple(ids), sizes[picked], X[picked], y[picked],
            tuple(Defect(d.id, foot, d.fixed_at) for d, foot in feet if foot),
        )


@dataclass(frozen=True, eq=False)
class ReleaseView:
    """Immutable row-oriented view used by metrics, cost model and learners."""

    release_key: str
    ids: tuple[str, ...]
    sizes: np.ndarray
    X: np.ndarray
    y: np.ndarray
    defects: tuple[Defect, ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def defect_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The n-to-m defect map as CSR row indices ``(indptr, rows)`` in the
        order of ``defects``: defect j touches ``rows[indptr[j]:indptr[j + 1]]``."""
        row_of = {aid: i for i, aid in enumerate(self.ids)}
        rows = np.array([row_of[a] for d in self.defects for a in d.artifacts], dtype=np.int64)
        return np.cumsum([0] + [len(d.artifacts) for d in self.defects]), rows

    def per_defect(self, reduce: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``reduce`` (e.g. np.minimum) of ``values`` over each defect's rows."""
        indptr, rows = self.defect_rows
        if not self.defects:  # reduceat rejects empty input
            return values[:0]
        return reduce.reduceat(values[rows], indptr[:-1])


@dataclass(frozen=True)
class SplitSample:
    """One bootstrap draw: in-bag multiset and the out-of-bag set."""

    train: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


def validate_release(release: Release) -> None:
    seen = set()
    width = None
    for a in release.artifacts:
        if a.id in seen:
            raise DataError(f"duplicate artifact id {a.id!r} in {release.key()}")
        seen.add(a.id)
        if a.size < 0:
            raise DataError(f"negative size for artifact {a.id!r} in {release.key()}")
        if width is None:
            width = len(a.features)
        elif len(a.features) != width:
            raise DataError(
                f"feature vector length mismatch for artifact {a.id!r} "
                f"({len(a.features)} != {width}) in {release.key()}"
            )
    defect_ids = set()
    for d in release.defects:
        if d.id in defect_ids:
            raise DataError(f"duplicate defect id {d.id!r} in {release.key()}")
        defect_ids.add(d.id)
        if not d.artifacts:
            raise DataError(f"defect {d.id!r} has no artifacts in {release.key()}")
        for aid in d.artifacts:
            if aid not in seen:
                raise DataError(f"unknown artifact id {aid!r} in defect {d.id!r} of {release.key()}")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}", path) from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text: {exc.reason}", path) from None


def load_release(metrics_file, defects_file, meta_file) -> Release:
    """Load and fully validate one release from its three files."""
    metrics_file, defects_file, meta_file = Path(metrics_file), Path(defects_file), Path(meta_file)
    for p in (metrics_file, defects_file, meta_file):
        if not p.is_file():
            raise DataError("file not found", p)

    meta = _read_json(meta_file)
    if not isinstance(meta, dict):
        raise DataError("meta file must contain a JSON object", meta_file)
    for key in ("project", "release", "released_at"):
        if not isinstance(meta.get(key), str):
            raise DataError(f"meta field {key!r} must be a string, got {meta.get(key, 'nothing')!r}", meta_file)

    artifacts = []
    with metrics_file.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[:2] != ["artifact_id", "size"]:
                raise DataError("header must start with 'artifact_id,size'", metrics_file, 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"expected {len(header)} columns, got {len(row)}", metrics_file, lineno)
                aid = row[0]
                try:
                    size = int(row[1])
                except ValueError as exc:
                    raise DataError(f"size must be an integer, got {row[1]!r}", metrics_file, lineno) from exc
                if size < 0:
                    raise DataError(f"negative size {size}", metrics_file, lineno)
                try:
                    feats = tuple(map(float, row[2:]))
                except ValueError as exc:
                    raise DataError("malformed feature value", metrics_file, lineno) from exc
                if not all(map(math.isfinite, feats)):
                    raise DataError("non-finite feature value", metrics_file, lineno)
                artifacts.append(Artifact(aid, size, feats))
        except csv.Error as exc:
            raise DataError(f"malformed CSV: {exc}", metrics_file, reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text: {exc.reason}", metrics_file) from None

    raw_defects = _read_json(defects_file)
    if not isinstance(raw_defects, list):
        raise DataError("defects file must contain a JSON array", defects_file)
    known = {a.id for a in artifacts}
    defects = []
    for i, entry in enumerate(raw_defects):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) or "artifacts" not in entry:
            raise DataError(f"defect #{i} must be an object with a string 'id' and 'artifacts'", defects_file)
        arts = entry["artifacts"]
        if not isinstance(arts, list) or not arts:
            raise DataError(f"defect {entry['id']!r} needs a non-empty artifact list", defects_file)
        for aid in arts:
            if not isinstance(aid, str):
                raise DataError(f"artifact id {aid!r} in defect {entry['id']!r} must be a string", defects_file)
            if aid not in known:
                raise DataError(f"unknown artifact id {aid!r} in defect {entry['id']!r}", defects_file)
        fixed_at = entry.get("fixed_at")
        defects.append(
            Defect(
                id=entry["id"],
                artifacts=frozenset(arts),
                fixed_at=None if fixed_at is None else _parse_timestamp(fixed_at, defects_file),
            )
        )

    try:
        return Release(
            project=meta["project"],
            release_id=meta["release"],
            released_at=_parse_timestamp(meta["released_at"], meta_file),
            artifacts=tuple(artifacts),
            defects=tuple(defects),
        )
    except DataError:
        raise
    except Exception as exc:  # validation re-raises with release context
        raise DataError(str(exc), metrics_file) from exc


def load_release_dir(directory) -> Release:
    directory = Path(directory)
    return load_release(directory / "metrics.csv", directory / "defects.json", directory / "meta.json")


def load_corpus(root) -> list[Release]:
    """Load every release directory (containing meta.json) under ``root``.

    Deterministic order: sorted by (project, released_at, release_id).
    """
    root = Path(root)
    if (root / "meta.json").is_file():
        return [load_release_dir(root)]
    dirs = sorted(p.parent for p in root.rglob("meta.json"))
    if not dirs:
        raise DataError("no release directories found (missing meta.json)", root)
    releases = [load_release_dir(d) for d in dirs]
    dir_of: dict[str, Path] = {}
    for d, release in zip(dirs, releases):
        if release.key() in dir_of:
            raise DataError(f"release {release.key()} found in both {dir_of[release.key()]} and {d}", root)
        dir_of[release.key()] = d
    releases.sort(key=lambda r: (r.project, r.released_at, r.release_id))
    return releases


def write_release(release: Release, directory) -> Path:
    """Inverse of load_release_dir; load(write(r)) is content-identical to r."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "metrics.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        width = len(release.artifacts[0].features) if release.artifacts else 0
        writer.writerow(["artifact_id", "size"] + [f"feature_{i + 1}" for i in range(width)])
        for a in release.artifacts:
            writer.writerow([a.id, a.size] + [repr(v) for v in a.features])
    defects = [
        {
            "id": d.id,
            "artifacts": sorted(d.artifacts),
            "fixed_at": None if d.fixed_at is None else d.fixed_at.isoformat(),
        }
        for d in sorted(release.defects, key=lambda d: d.id)
    ]
    (directory / "defects.json").write_text(json.dumps(defects, indent=1) + "\n")
    meta = {
        "project": release.project,
        "release": release.release_id,
        "released_at": release.released_at.isoformat(),
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return directory


COUNT_MODES = ("defective_files", "defects")


def count_defects(view: ReleaseView, mode: str = "defective_files") -> int:
    """Defects of a whole-release view, one row per artifact: its defective
    files (labelled rows) or its distinct defects."""
    if mode == "defective_files":
        return int(np.count_nonzero(view.y))
    if mode == "defects":
        return len(view.defects)
    raise ValueError(f"unknown defect counting mode {mode!r}")


def filter_releases(
    releases: Iterable[Release],
    min_instances: int = 100,
    min_defects: int = 5,
    mode: str = "defective_files",
) -> list[Release]:
    """Keep releases with >= min_instances artifacts and >= min_defects defects.

    ``mode`` selects whether defects are counted as defective files (default)
    or as distinct defects.
    """
    if min_instances < 1 or min_defects < 1:
        raise ValueError("min_instances and min_defects must be >= 1")
    return [
        r
        for r in releases
        if r.n_artifacts >= min_instances and count_defects(r.view(), mode) >= min_defects
    ]


def bootstrap_split(release: Release, seed: int, max_redraws: int = 1000) -> SplitSample:
    """Size-|S| resample with replacement; out-of-bag artifacts form the test set.

    Redraws until the in-bag rows contain at least two defective instances and
    the out-of-bag set at least one defective artifact. Raises SplitError when
    the redraw budget is exhausted.
    """
    rng = np.random.default_rng(seed)
    n = release.n_artifacts
    ids = release.artifact_ids
    defective = release.defective_ids
    for _ in range(max_redraws):
        draw = rng.integers(0, n, size=n)
        train = tuple(ids[i] for i in draw)
        in_bag = set(train)
        test = tuple(i for i in ids if i not in in_bag)
        train_defective = sum(1 for i in train if i in defective)
        test_defective = sum(1 for i in test if i in defective)
        if train_defective >= 2 and test_defective >= 1:
            return SplitSample(train=train, test=test, seed=seed)
    raise SplitError(
        f"no valid bootstrap sample for {release.key()} after {max_redraws} redraws "
        f"(needs >=2 defective in-bag instances and >=1 defective out-of-bag artifact)"
    )
