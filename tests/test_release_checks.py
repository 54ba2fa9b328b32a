"""What a Release built in Python rejects, with the exact message of each check."""

import re
from datetime import datetime, timezone

import numpy as np
import pytest

from defectcost.dataset import DataError, Defect, Release, filter_releases


def _release(ids=("a1", "a2", "a3"), sizes=(10, 20, 30), X=((0.0,), (1.0,), (2.0,)),
             defects=(("d1", {"a1"}), ("d2", {"a2", "a3"}))):
    return Release("demo", "r1", datetime(2020, 1, 1, tzinfo=timezone.utc), tuple(ids), list(sizes),
                   list(X), tuple(Defect(did, frozenset(arts)) for did, arts in defects))


@pytest.mark.parametrize("kwargs, message", [
    (dict(sizes=(10, 20)), "sizes (2,) and X (3, 1) do not fit 3 artifact ids in demo/r1"),
    (dict(X=((0.0,), (1.0,))), "sizes (3,) and X (2, 1) do not fit 3 artifact ids in demo/r1"),
    (dict(ids=("a1", "a2", "a1"), defects=()), "duplicate artifact id 'a1' in demo/r1"),
    (dict(sizes=(10, -1, 30)), "negative size for artifact 'a2' in demo/r1"),
    (dict(defects=(("d1", {"a1"}), ("d2", {"a2"}), ("d1", {"a3"}))), "duplicate defect id 'd1' in demo/r1"),
    (dict(defects=(("d1", {"a1"}), ("d2", set()))), "defect 'd2' has no artifacts in demo/r1"),
])
def test_release_rejects_with_its_message(kwargs, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        _release(**kwargs)


def test_release_checks_in_order():
    # shape before duplicate ids before negative sizes before duplicate defects before a defect's own checks
    with pytest.raises(DataError, match="^sizes "):
        _release(ids=("a1", "a1"), sizes=(-1, 5, 5))
    with pytest.raises(DataError, match="^duplicate artifact id"):
        _release(ids=("a1", "a1", "a2"), sizes=(-1, 5, 5), defects=(("d1", {"a1"}), ("d1", {"a1"})))
    with pytest.raises(DataError, match="^negative size"):
        _release(sizes=(10, -1, 30), defects=(("d1", {"a1"}), ("d1", {"zz"})))
    with pytest.raises(DataError, match="^duplicate defect id"):
        _release(defects=(("d1", set()), ("d2", {"zz"}), ("d1", {"a1"})))
    with pytest.raises(DataError, match="^defect 'd1' has no artifacts"):
        _release(defects=(("d1", set()), ("d2", {"zz"})))
    with pytest.raises(DataError, match="^unknown artifact id 'zz' in defect 'd1'"):
        _release(defects=(("d1", {"zz"}), ("d2", set())))


@pytest.mark.parametrize("rows", [np.array([True, False, True]), [0.9, 1.7], np.array([0.0])])
def test_view_rejects_rows_that_are_not_integers(rows):
    with pytest.raises(IndexError, match=r"^rows must be a sequence of integer rows in \[0, 3\) of demo/r1$"):
        _release().view(rows)


@pytest.mark.parametrize("rows", [[], (), np.array([], dtype=np.uint8), np.array([2, 0], dtype=np.uint16)])
def test_view_accepts_empty_and_unsigned_rows(rows):
    view = _release().view(rows)
    assert view.rows.dtype == np.int64 and view.rows.tolist() == list(rows)


@pytest.mark.parametrize("n_releases, min_instances", [(0, 100), (1, 10**6), (1, 1)])
def test_filter_rejects_an_unknown_mode_whatever_it_filters(n_releases, min_instances):
    with pytest.raises(ValueError, match="^unknown defect counting mode 'bogus'$"):
        filter_releases([_release()] * n_releases, min_instances=min_instances, mode="bogus")
