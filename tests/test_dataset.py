import itertools
import json
import pickle
from datetime import datetime, timezone

import numpy as np
import pytest

from defectcost.dataset import (
    DataError,
    SplitError,
    bootstrap_split,
    filter_releases,
    load_release,
    load_release_dir,
    write_release,
)

from conftest import defective_ids, make_release, release_fields, rows_of, view_defects


def write_toy_release(tmp_path, *, defect_artifacts=("a1",), size_a2=50):
    (tmp_path / "metrics.csv").write_text(
        "artifact_id,size,feature_1,feature_2\n"
        "a1,100,1.0,2.0\n"
        f"a2,{size_a2},0.5,1.5\n"
        "a3,200,2.5,0.5\n"
        "a4,10,0.1,0.2\n"
        "a5,40,1.1,1.2\n"
        "a6,600,3.0,2.0\n"
    )
    defects = [
        {"id": "d1", "artifacts": list(defect_artifacts), "fixed_at": "2020-03-01T00:00:00+00:00"},
        {"id": "d2", "artifacts": ["a3", "a5"], "fixed_at": None},
    ]
    (tmp_path / "defects.json").write_text(json.dumps(defects))
    (tmp_path / "meta.json").write_text(
        json.dumps({"project": "toy", "release": "1.0", "released_at": "2020-01-01T00:00:00+00:00"})
    )
    return tmp_path


def test_load_toy_release(tmp_path):
    release = load_release_dir(write_toy_release(tmp_path))
    assert release.n_artifacts == 6
    assert len(release.defects) == 2
    assert defective_ids(release) == {"a1", "a3", "a5"}
    assert release.project == "toy"


def test_unknown_artifact_in_defect(tmp_path):
    write_toy_release(tmp_path, defect_artifacts=("zz",))
    with pytest.raises(DataError, match="unknown artifact id"):
        load_release_dir(tmp_path)


def test_release_names_its_first_unknown_artifact():
    with pytest.raises(DataError, match=r"^unknown artifact id 'zz' in defect 'd2' of demo/r1$"):
        make_release(defects={"d1": {"a1"}, "d2": {"a3", "zz"}})


def test_negative_size_reports_line(tmp_path):
    write_toy_release(tmp_path, size_a2=-5)
    with pytest.raises(DataError, match="negative size") as err:
        load_release_dir(tmp_path)
    assert "metrics.csv:3" in str(err.value)


def test_duplicate_artifact_id(tmp_path):
    write_toy_release(tmp_path)
    content = (tmp_path / "metrics.csv").read_text()
    (tmp_path / "metrics.csv").write_text(content + "a1,5,0.0,0.0\n")
    with pytest.raises(DataError, match="duplicate artifact id"):
        load_release_dir(tmp_path)


def test_malformed_row(tmp_path):
    write_toy_release(tmp_path)
    (tmp_path / "metrics.csv").write_text("artifact_id,size,feature_1\na1,ten,1.0\n")
    with pytest.raises(DataError, match="size must be an integer"):
        load_release_dir(tmp_path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="file not found"):
        load_release(tmp_path / "x.csv", tmp_path / "d.json", tmp_path / "m.json")


def test_round_trip(tmp_path):
    release = load_release_dir(write_toy_release(tmp_path))
    out = write_release(release, tmp_path / "copy")
    again = load_release_dir(out)
    assert release_fields(again) == release_fields(release)
    # writer output is a fixed point: write(load(write(r))) is byte-identical
    out2 = write_release(again, tmp_path / "copy2")
    for name in ("metrics.csv", "defects.json", "meta.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_pickled_release_keeps_arrays_read_only(t1_release):
    # --jobs workers receive their releases pickled, and numpy's pickling drops the flag
    again = pickle.loads(pickle.dumps(t1_release))
    assert release_fields(again) == release_fields(t1_release)
    for values in (again.sizes, again.X, again.view().sizes, again.view().X):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1


def test_defective_clean_partition(t1_release):
    defective = defective_ids(t1_release)
    clean = set(t1_release.artifact_ids) - defective
    assert len(defective) + len(clean) == t1_release.n_artifacts
    assert defective | clean == set(t1_release.artifact_ids)
    assert not defective & clean


def _release_with(n_artifacts, n_defective, project="p", release_id="r", **kw):
    sizes = {f"f{i:03d}": 10 + i for i in range(n_artifacts)}
    defects = {f"d{i}": {f"f{i:03d}"} for i in range(n_defective)}
    return make_release(sizes=sizes, defects=defects, project=project, release_id=release_id, **kw)


def test_filter_boundaries():
    too_small = _release_with(99, 10)
    exact = _release_with(100, 5)
    too_few_defects = _release_with(150, 4)
    kept = filter_releases([too_small, exact, too_few_defects], 100, 5)
    assert kept == [exact]


def test_filter_counting_modes():
    # one defect spanning five artifacts: five defective files but one defect
    release = make_release(
        sizes={f"f{i}": 10 for i in range(100)},
        defects={"d0": {f"f{i}" for i in range(5)}},
    )
    assert filter_releases([release], 100, 5, mode="defective_files") == [release]
    assert filter_releases([release], 100, 5, mode="defects") == []
    with pytest.raises(ValueError):
        filter_releases([release], 0, 5)


def test_bootstrap_split_deterministic(t1_release):
    a = bootstrap_split(t1_release, seed=1)
    b = bootstrap_split(t1_release, seed=1)
    assert (a.train.tolist(), a.test.tolist()) == (b.train.tolist(), b.test.tolist())
    assert len(a.train) == t1_release.n_artifacts
    assert set(a.test.tolist()) == set(range(t1_release.n_artifacts)) - set(a.train.tolist())


def test_bootstrap_constraints(t1_release):
    defective = defective_ids(t1_release)
    ids = t1_release.artifact_ids
    for seed in range(50):
        split = bootstrap_split(t1_release, seed=seed)
        assert sum(1 for r in split.train if ids[r] in defective) >= 2
        assert sum(1 for r in split.test if ids[r] in defective) >= 1


def test_oob_fraction():
    # the classic bootstrap constant: ~63.2% distinct artifacts in-bag,
    # leaving a mean out-of-bag fraction of 1/e
    release = _release_with(100, 20)
    oob = [len(bootstrap_split(release, seed=s).test) / release.n_artifacts for s in range(1000)]
    assert abs(np.mean(oob) - 1 / np.e) < 0.02
    assert abs((1 - np.mean(oob)) - (1 - 1 / np.e)) < 0.02


def test_redraw_exhaustion_single_defective():
    # oracle: with one defective artifact, no resample can put >=2 defective
    # instances in-bag while keeping a defective artifact out of bag
    release = _release_with(3, 1)
    ids = release.artifact_ids
    defective = defective_ids(release)
    for draw in itertools.product(range(3), repeat=3):
        train = [ids[i] for i in draw]
        test = [i for i in ids if i not in set(train)]
        ok = (
            sum(1 for a in train if a in defective) >= 2
            and sum(1 for a in test if a in defective) >= 1
        )
        assert not ok
    with pytest.raises(SplitError, match="p/r"):
        bootstrap_split(release, seed=0)


def test_view_multiset_and_defect_restriction(t1_release):
    view = t1_release.view(rows_of(t1_release, ("a1", "a1", "a3")))
    assert view.n == 3
    assert list(view.sizes) == [100, 100, 200]
    # d2 loses a5 (outside the view) but keeps a3
    foots = {d.id: set(d.artifacts) for d in view_defects(view)}
    assert foots == {"d1": {"a1"}, "d2": {"a3"}}


@pytest.mark.parametrize("rows", [[-1], [0, 6], [6]])
def test_view_rejects_rows_outside_the_release(t1_release, rows):
    with pytest.raises(IndexError, match=r"rows must be .* in \[0, 6\) of demo/r1"):
        t1_release.view(rows)


def test_view_as_of_drops_unfixed_and_future(tmp_path):
    release = load_release_dir(write_toy_release(tmp_path))
    # d1 fixed 2020-03-01, d2 has no fix timestamp
    early = release.view(as_of=datetime(2020, 2, 1, tzinfo=timezone.utc))
    assert [d.id for d in view_defects(early)] == []
    late = release.view(as_of=datetime(2020, 4, 1, tzinfo=timezone.utc))
    assert [d.id for d in view_defects(late)] == ["d1"]
