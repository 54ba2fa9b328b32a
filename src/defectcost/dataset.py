"""Release data model: defects, ingestion, filtering, bootstrap splits.

A release holds its software artifacts (files) as array rows: ids, int64
sizes and a float64 ``(n, k)`` matrix of static metrics, parsed straight from
``metrics.csv``. Its defect map relates defects and artifacts n-to-m, and an
artifact's defectiveness is derived from it, never stored. Splits and views
name artifacts by row; ids serve loading, writing and predictions only.

On-disk format of one release (three files in one directory):
  metrics.csv  header ``artifact_id,size,<feature_1>,...,<feature_k>``
  defects.json JSON array of ``{"id": str, "artifacts": [str], "fixed_at": ISO-8601|null}``
  meta.json    ``{"project": str, "release": str, "released_at": ISO-8601}``
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
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
class Defect:
    """A defect: its id, the artifacts its fix touched and, if known, when it was fixed."""

    id: str
    artifacts: frozenset[str]
    fixed_at: datetime | None = None


@dataclass(frozen=True, eq=False)
class Release:
    """Artifact ``i`` is ``artifact_ids[i]``, of size ``sizes[i]`` (int64) with
    static metrics ``X[i]`` (float64); both arrays are read-only copies. Construction
    checks the release and, in one pass over ``defects``, builds the defect map its views
    share: each defect's fix instant (``_NEVER`` without a timestamp), then its artifacts'
    rows defect after defect, each beside its defect's index."""

    project: str
    release_id: str
    released_at: datetime
    artifact_ids: tuple[str, ...]
    sizes: np.ndarray
    X: np.ndarray
    defects: tuple[Defect, ...]

    def __post_init__(self):
        for name, dtype in (("sizes", np.int64), ("X", np.float64)):
            values = np.array(getattr(self, name), dtype=dtype)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        ids, sizes, X = self.artifact_ids, self.sizes, self.X
        if sizes.shape != (len(ids),) or X.ndim != 2 or len(X) != len(ids):
            raise DataError(f"sizes {sizes.shape} and X {X.shape} do not fit {len(ids)} artifact ids in {self.key()}")
        row_of = {aid: i for i, aid in enumerate(ids)}
        if len(row_of) != len(ids):
            raise DataError(f"duplicate artifact id {ids[_first_repeat(ids)]!r} in {self.key()}")
        if (negative := np.flatnonzero(sizes < 0)).size:
            raise DataError(f"negative size for artifact {ids[negative[0]]!r} in {self.key()}")
        if (i := _first_repeat([d.id for d in self.defects])) is not None:
            raise DataError(f"duplicate defect id {self.defects[i].id!r} in {self.key()}")
        fixed, rows, lengths = [], [], []
        for d in self.defects:
            if not d.artifacts:
                raise DataError(f"defect {d.id!r} has no artifacts in {self.key()}")
            try:
                rows += [row_of[a] for a in d.artifacts]
            except KeyError as exc:
                raise DataError(f"unknown artifact id {exc.args[0]!r} in defect {d.id!r} of {self.key()}") from None
            fixed.append(_NEVER if d.fixed_at is None else _instant(d.fixed_at))
            lengths.append(len(d.artifacts))
        object.__setattr__(self, "_defect_map", (np.array(fixed, dtype=np.int64), np.array(rows, dtype=np.int64),
                                                 np.repeat(np.arange(len(fixed)), lengths)))

    def __setstate__(self, state):
        """Unpickling (a ``--jobs`` worker's copy) makes arrays writeable again."""
        self.__dict__.update(state)
        self.sizes.flags.writeable = self.X.flags.writeable = False

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each artifact's position in Python's string order of the ids, the
        ranking's tie-break; numpy's fixed-width strings drop trailing NULs."""
        return np.argsort(sorted(range(self.n_artifacts), key=self.artifact_ids.__getitem__))

    @property
    def n_artifacts(self) -> int:
        return len(self.artifact_ids)

    @property
    def n_defective(self) -> int:
        return len(np.unique(self._defect_map[1]))

    @property
    def defect_ratio(self) -> float:
        return self.n_defective / self.n_artifacts if self.artifact_ids else 0.0

    def key(self) -> str:
        return f"{self.project}/{self.release_id}"

    def view(self, rows: Sequence[int] | None = None, as_of: datetime | None = None) -> "ReleaseView":
        """Evaluation/training view over a subset (or multiset) of artifact rows.

        ``rows`` may repeat (in-bag bootstrap rows); rows that are not
        integers (a boolean mask) or lie outside ``[0, n)`` raise IndexError.
        ``as_of`` keeps only the defects fixed strictly before that time;
        defects without a fix timestamp are dropped, since their availability
        at that date can not be verified. Without ``rows`` the view's
        ``sizes`` and ``X`` are the release's read-only arrays."""
        fixed, entries, entry_defect = self._defect_map
        n = self.n_artifacts
        kept = np.ones(len(fixed), dtype=bool) if as_of is None else fixed < _instant(as_of)
        y = np.zeros(n, dtype=np.int64)
        y[entries[kept[entry_defect]]] = 1
        if rows is None:
            return ReleaseView(self, np.arange(n), self.sizes, self.X, y, kept)
        picked = np.array(rows)  # a copy: the view must not change with its caller's array
        if picked.ndim != 1 or (picked.size and (picked.dtype.kind not in "iu"
                                                 or not 0 <= picked.min() <= picked.max() < n)):
            raise IndexError(f"rows must be a sequence of integer rows in [0, {n}) of {self.key()}")
        picked = picked.astype(np.int64, copy=False)
        return ReleaseView(self, picked, self.sizes[picked], self.X[picked], y[picked], kept)


@dataclass(frozen=True, eq=False)
class ReleaseView:
    """Rows ``rows`` of ``release`` with their sizes, features and labels, as metrics, cost model and
    learners read them; its labels and defect map hold the release's defects marked in ``kept``."""

    release: Release
    rows: np.ndarray
    sizes: np.ndarray
    X: np.ndarray
    y: np.ndarray
    kept: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(map(self.release.artifact_ids.__getitem__, self.rows.tolist()))

    @cached_property
    def defect_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The n-to-m defect map in view rows as CSR ``(indptr, rows, index)``:
        the view's defect j is the release's defect ``index[j]`` and touches
        ``rows[indptr[j]:indptr[j + 1]]``. A kept defect with no row in the
        view is left out; a repeated row is taken at its last occurrence."""
        fixed, entries, entry_defect = self.release._defect_map
        at = np.full(self.release.n_artifacts, -1, dtype=np.int64)
        np.maximum.at(at, self.rows, np.arange(self.n))
        at = at[entries]
        present = (at >= 0) & self.kept[entry_defect]
        counts = np.bincount(entry_defect[present], minlength=len(fixed))
        index = np.flatnonzero(counts)
        return np.append(0, np.cumsum(counts[index])), at[present], index

    def per_defect(self, reduce: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``reduce`` (e.g. np.minimum) of ``values`` over each defect's rows."""
        indptr, rows, _ = self.defect_rows
        if len(indptr) == 1:  # reduceat rejects empty input
            return values[:0]
        return reduce.reduceat(values[rows], indptr[:-1])


@dataclass(frozen=True)
class SplitSample:
    """One bootstrap draw as int64 release rows: the in-bag draw and the sorted out-of-bag rows."""

    train: np.ndarray
    test: np.ndarray
    seed: int


def _first_repeat(values: Sequence) -> int | None:
    """Index of the first value equal to an earlier one, or None."""
    if len(set(values)) == len(values):
        return None
    seen: set = set()
    return next(i for i, v in enumerate(values) if v in seen or seen.add(v))


def _all_known(values: list, known: set[str]) -> bool:
    """Whether every JSON value in ``values`` is one of the ``known`` strings;
    no other JSON value equals a string."""
    try:
        return known.issuperset(values)
    except TypeError:  # a list or an object among them
        return False


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
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

    ids, sizes, X, lines = _loadtxt_metrics(metrics_file) or _csv_metrics(metrics_file)

    raw_defects = _read_json(defects_file)
    if not isinstance(raw_defects, list):
        raise DataError("defects file must contain a JSON array", defects_file)
    known = set(ids)
    defects = []
    for i, entry in enumerate(raw_defects):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str) or "artifacts" not in entry:
            raise DataError(f"defect #{i} must be an object with a string 'id' and 'artifacts'", defects_file)
        arts = entry["artifacts"]
        if not isinstance(arts, list) or not arts:
            raise DataError(f"defect {entry['id']!r} needs a non-empty artifact list", defects_file)
        if not _all_known(arts, known):
            aid = next(a for a in arts if not isinstance(a, str) or a not in known)
            if not isinstance(aid, str):
                raise DataError(f"artifact id {aid!r} in defect {entry['id']!r} must be a string", defects_file)
            raise DataError(f"unknown artifact id {aid!r} in defect {entry['id']!r}, not in {metrics_file.name}",
                            defects_file)
        fixed_at = entry.get("fixed_at")
        fixed_at = None if fixed_at is None else _parse_timestamp(fixed_at, defects_file)
        defects.append(Defect(entry["id"], frozenset(arts), fixed_at))
    if len(known) != len(ids):
        i = _first_repeat(ids)
        lines = lines or _csv_metrics(metrics_file)[3]  # the C reader counts no lines
        raise DataError(f"duplicate artifact id {ids[i]!r}", metrics_file, lines[i])
    if (i := _first_repeat([d.id for d in defects])) is not None:
        raise DataError(f"duplicate defect id {defects[i].id!r}", defects_file)
    released_at = _parse_timestamp(meta["released_at"], meta_file)
    return Release(meta["project"], meta["release"], released_at, tuple(ids), sizes, X, tuple(defects))


# A metrics.csv the C reader reads as the csv path does: it holds no quote
# (the csv path reads every quoted file); every CR ends a CRLF; and it holds
# no NUL (csv rejects one before Python 3.11) and none of the separators
# \x1c-\x1f, which loadtxt strips from numbers as whitespace and int() and
# float() do not.
_LONE_CR = re.compile(r"\r(?!\n)")
_DECLINED_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _loadtxt_metrics(path: Path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, None] | None:
    """``(ids, sizes, X, None)`` of ``path`` from one ``np.loadtxt`` call, or
    None where it may differ from ``_csv_metrics``: input outside the dialect
    above, a line longer than csv's field limit, any error or warning of
    loadtxt, no data row, a negative size or a non-finite feature. loadtxt
    itself holds each row to the header's column count, and parses a subset
    of what ``int()`` and ``float()`` accept, to the same values."""
    try:
        text = path.read_bytes().decode("utf-8")  # the text open(encoding="utf-8", newline="") reads, faster
    except UnicodeDecodeError:
        return None
    header = text.partition("\n")[0].removesuffix("\r").split(",")
    if (header[:2] != ["artifact_id", "size"] or any(c in text for c in _DECLINED_CHARS)
            or ("\r" in text and _LONE_CR.search(text))):
        return None
    lines = text.split("\n")  # a list is read in C, a file object line by line through Python
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    dtype = np.dtype([("id", object), ("size", np.int64), ("X", np.float64, (len(header) - 2,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1)
    except Exception:  # whatever loadtxt raises, on any numpy version: the csv path raises what is due
        return None
    sizes, X = rows["size"], rows["X"]
    if not len(rows) or (sizes < 0).any() or not np.isfinite(X).all():
        return None
    return tuple(rows["id"].tolist()), sizes, X, None


def _csv_metrics(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, list[int]]:
    """``(ids, sizes, X, lines)`` of ``path`` read by the csv module, with the
    line of each row; the reference reader, and the only one that raises."""
    ids, size_strs, feature_strs, lines = [], [], [], []
    stop = None  # the error that ended reading; the rows read before it are checked first
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[:2] != ["artifact_id", "size"]:
                raise DataError("header must start with 'artifact_id,size'", path, 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    stop = DataError(f"expected {len(header)} columns, got {len(row)}", path, lineno)
                    break
                ids.append(row[0])
                size_strs.append(row[1])
                feature_strs += row[2:]
                lines.append(lineno)
        except csv.Error as exc:
            stop = DataError(f"malformed CSV: {exc}", path, reader.line_num)
        except UnicodeDecodeError as exc:
            stop = DataError(f"not UTF-8 text: {exc.reason}", path)
    return ids, *_metric_columns(path, size_strs, feature_strs, lines, stop), lines


def _metric_columns(path: Path, size_strs: list[str], feature_strs: list[str], lines: list[int],
                    stop: DataError | None) -> tuple[np.ndarray, np.ndarray]:
    """``sizes`` (n,) int64 and ``X`` (n, k) float64 of the n rows read before
    ``stop``, the error that ended reading (or None): each column is parsed by
    one ``int()`` or ``float()`` pass and checked at once. A bad file is read
    again row by row, for the error of its first offending line."""
    n = len(lines)
    k = len(feature_strs) // n if n else 0
    try:
        sizes = np.array(list(map(int, size_strs)), dtype=np.int64)
        X = np.array(list(map(float, feature_strs)), dtype=np.float64).reshape(n, k)
        if stop is None and not (sizes < 0).any() and np.isfinite(X).all():
            return sizes, X
    except (ValueError, OverflowError):  # a size or feature that does not parse, or a size beyond int64
        pass
    for i, lineno in enumerate(lines):
        try:
            size = int(size_strs[i])
        except ValueError:
            raise DataError(f"size must be an integer, got {size_strs[i]!r}", path, lineno) from None
        if not 0 <= size < 2**63:
            raise DataError(f"negative size {size}" if size < 0 else f"size {size} exceeds int64", path, lineno)
        try:
            features = list(map(float, feature_strs[i * k:(i + 1) * k]))
        except ValueError:
            raise DataError("malformed feature value", path, lineno) from None
        if not all(map(math.isfinite, features)):
            raise DataError("non-finite feature value", path, lineno)
    raise stop


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
    with (directory / "metrics.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["artifact_id", "size"] + [f"feature_{i + 1}" for i in range(release.X.shape[1])])
        for aid, size, features in zip(release.artifact_ids, release.sizes.tolist(), release.X.tolist()):
            writer.writerow([aid, size] + [repr(v) for v in features])
    defects = [
        {
            "id": d.id,
            "artifacts": sorted(d.artifacts),
            "fixed_at": None if d.fixed_at is None else d.fixed_at.isoformat(),
        }
        for d in sorted(release.defects, key=lambda d: d.id)
    ]
    (directory / "defects.json").write_text(json.dumps(defects, indent=1) + "\n", encoding="utf-8")
    meta = {
        "project": release.project,
        "release": release.release_id,
        "released_at": release.released_at.isoformat(),
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return directory


COUNT_MODES = ("defective_files", "defects")


def count_defects(view: ReleaseView, mode: str = "defective_files") -> int:
    """Defects of a whole-release view, one row per artifact: its defective
    files (labelled rows) or its distinct defects."""
    if mode == "defective_files":
        return int(np.count_nonzero(view.y))
    if mode == "defects":
        return len(view.defect_rows[2])
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
    if mode not in COUNT_MODES:
        raise ValueError(f"unknown defect counting mode {mode!r}")
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
    y = np.bincount(release._defect_map[1], minlength=n) > 0
    for _ in range(max_redraws):
        draw = rng.integers(0, n, size=n)
        test = np.flatnonzero(np.bincount(draw, minlength=n) == 0)
        if y[draw].sum() >= 2 and y[test].sum() >= 1:
            return SplitSample(train=draw, test=test, seed=seed)
    raise SplitError(
        f"no valid bootstrap sample for {release.key()} after {max_redraws} redraws "
        f"(needs >=2 defective in-bag instances and >=1 defective out-of-bag artifact)"
    )
