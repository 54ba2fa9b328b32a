"""Release.view against a plain per-artifact reference over a seeded sweep of
random releases, multiset and partial row lists and every kind of ``as_of``."""

from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest

from defectcost.dataset import Defect, Release

from conftest import rows_of, view_defects


def reference_view(release, ids=None, as_of=None):
    """Release.view as it was before it gathered from cached arrays: its
    ids, arrays and defects, and each defect's rows at the last occurrence
    of each of its ids."""
    by_id = dict(zip(release.artifact_ids, zip(release.sizes.tolist(), map(tuple, release.X.tolist()))))
    if ids is None:
        ids = release.artifact_ids
    rows = [by_id[i] for i in ids]
    distinct = set(ids)
    defects = []
    for d in release.defects:
        if as_of is not None and (d.fixed_at is None or d.fixed_at >= as_of):
            continue
        foot = frozenset(a for a in d.artifacts if a in distinct)
        if foot:
            defects.append(Defect(d.id, foot, d.fixed_at))
    defective = set()
    for d in defects:
        defective.update(d.artifacts)
    row_of = {aid: i for i, aid in enumerate(ids)}
    return SimpleNamespace(
        ids=tuple(ids),
        sizes=np.array([size for size, _ in rows], dtype=np.int64),
        X=np.array([features for _, features in rows], dtype=np.float64),
        y=np.array([1 if i in defective else 0 for i in ids], dtype=np.int64),
        defects=tuple(defects),
        defect_rows=[sorted(row_of[a] for a in d.artifacts) for d in defects],
    )


T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


def random_release(rng):
    n, k = int(rng.integers(1, 61)), int(rng.integers(0, 4))
    ids = [f"f{j}" for j in rng.permutation(n * 2)[:n]]
    rows = [(int(rng.integers(0, 1000)), tuple(float(v) for v in rng.normal(size=k) * 10)) for _ in ids]
    defects = []
    for j in range(int(rng.integers(0, 13))):
        touched = rng.choice(n, size=min(n, int(rng.integers(1, 5))), replace=False)
        fixed_at = None if rng.random() < 0.25 else T0 + timedelta(days=int(rng.integers(0, 20)))
        defects.append(Defect(f"d{j}", frozenset(ids[t] for t in touched), fixed_at))
    return Release("p", "r", T0, tuple(ids), [s for s, _ in rows], [x for _, x in rows], tuple(defects))


def id_cases(release, rng):
    ids = release.artifact_ids
    yield None
    yield tuple(ids[i] for i in rng.integers(0, len(ids), size=len(ids)))  # in-bag, with duplicates
    yield tuple(ids[i] for i in sorted(rng.choice(len(ids), size=len(ids) // 2, replace=False)))
    if release.defects:  # leave out every artifact of one defect
        gone = release.defects[int(rng.integers(0, len(release.defects)))].artifacts
        yield tuple(i for i in ids if i not in gone)


def as_of_cases(release, rng):
    fixes = sorted(d.fixed_at for d in release.defects if d.fixed_at is not None)
    yield None
    yield T0 - timedelta(days=1)  # before every fix
    yield T0 + timedelta(days=21)  # after every fix
    if fixes:
        yield fixes[int(rng.integers(0, len(fixes)))]  # exactly one fix time


def assert_same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_same_view(got, release, want):
    assert got.release is release
    assert got.ids == want.ids
    for name in ("sizes", "X", "y"):
        assert_same_array(getattr(got, name), getattr(want, name))
    assert [(d.id, d.artifacts, d.fixed_at) for d in view_defects(got)] == [
        (d.id, d.artifacts, d.fixed_at) for d in want.defects
    ]
    # Rows within one defect follow its frozenset's iteration order, which
    # varies with the string hash seed; every reduction over them is min/max.
    got_ptr, got_rows, _ = got.defect_rows
    want_ptr = np.cumsum([0] + [len(rows) for rows in want.defect_rows])
    assert_same_array(np.asarray(got_ptr, dtype=np.int64), np.asarray(want_ptr, dtype=np.int64))
    for lo, hi, want_rows in zip(want_ptr[:-1], want_ptr[1:], want.defect_rows):
        assert_same_array(np.sort(got_rows[lo:hi]), np.array(want_rows, dtype=np.int64))


@pytest.mark.parametrize("seed", range(4))
def test_view_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        release = random_release(rng)
        for ids in id_cases(release, rng):
            for as_of in as_of_cases(release, rng):
                want = reference_view(release, ids, as_of)
                if not want.ids:  # the one intended change: (0, k) where the reference gave (0,)
                    want.X = want.X.reshape(0, release.X.shape[1])
                rows = None if ids is None else rows_of(release, ids)
                assert_same_view(release.view(rows, as_of=as_of), release, want)


@pytest.mark.parametrize("k", range(4))
def test_empty_view_keeps_feature_width(k):
    release = Release("p", "r", T0, ("a",), [1], [(0.5,) * k], (Defect("d", frozenset({"a"}), T0),))
    view = release.view(())
    assert (view.X.shape, view.sizes.shape, view.y.shape, view_defects(view)) == ((0, k), (0,), (0,), [])


def test_views_share_the_release_arrays_read_only():
    rng = np.random.default_rng(7)
    release = random_release(rng)
    while not release.X.shape[1]:
        release = random_release(rng)
    full, relabelled = release.view(), release.view(as_of=T0 + timedelta(days=5))
    assert np.shares_memory(full.X, relabelled.X)
    assert np.shares_memory(full.sizes, relabelled.sizes)
    for arr in (full.X, full.sizes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
