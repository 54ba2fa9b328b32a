"""load_release against a plain per-row reference parser: ids, sizes and
features of seeded synth corpora and of hand-written ``metrics.csv`` files must
be bitwise what csv rows through ``int()`` and ``float()`` give, and every
rejected file must raise the same message at the same line."""

import csv
import json

import numpy as np
import pytest

from defectcost.dataset import DataError, load_release_dir, write_release
from defectcost.synth import SynthSpec, generate_synthetic


def reference_arrays(metrics_csv):
    """ids, sizes and features as a per-row loader builds them: non-blank csv
    rows, ``int()`` of the size, ``float()`` of each feature, one array each."""
    with open(metrics_csv, newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if row]
    k = len(rows[0]) - 2 if rows else 0
    ids = tuple(row[0] for row in rows)
    sizes = np.array([int(row[1]) for row in rows], dtype=np.int64)
    X = np.array([tuple(map(float, row[2:])) for row in rows], dtype=np.float64).reshape(len(rows), k)
    return ids, sizes, X


def assert_same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_loads_as_reference(directory):
    release = load_release_dir(directory)
    ids, sizes, X = reference_arrays(directory / "metrics.csv")
    view = release.view()  # without ids, the release's own arrays
    assert release.artifact_ids == ids
    assert_same_array(view.sizes, sizes)
    assert_same_array(view.X, X)
    return release, view


def write_files(directory, metrics_text, defects=()):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "metrics.csv").write_text(metrics_text, encoding="utf-8", newline="")
    (directory / "defects.json").write_text(json.dumps(list(defects)))
    (directory / "meta.json").write_text(
        json.dumps({"project": "demo", "release": "r1", "released_at": "2020-01-01T00:00:00+00:00"}))
    return directory


@pytest.mark.parametrize("seed", [0, 1])
def test_synth_corpus_round_trips_bitwise(tmp_path, seed):
    spec = SynthSpec(n_projects=2, releases_per_project=2, artifacts_range=(20, 40), n_features=3)
    for i, generated in enumerate(generate_synthetic(spec, seed)):
        _, view = assert_loads_as_reference(write_release(generated, tmp_path / str(i)))
        want = generated.view()
        assert view.ids == want.ids
        assert_same_array(view.sizes, want.sizes)
        assert_same_array(view.X, want.X)


HEADER = "artifact_id,size,f1,f2,f3,f4,f5\n"

FILES = {
    "spellings": HEADER + 'a1, 7 , 1.5 ,1_0,+.5e1,-0.0,١٢\n"a2",1_0,1E-3,-2,0,-.25e-2,7\n'
                          "a3,+5,3,4,5,6,8\na4,١٢,0,0,0,0,0\na5,0,1,1,1,1,1\n",
    "quoted_ids": HEADER + '"x,1",3,1,2,3,4,5\n"y,""2""",4,1,2,3,4,5\n"z\n3",5,1,2,3,4,5\n',
    "blank_lines": HEADER + "\na1,1,1,2,3,4,5\n\n\na2,2,1,2,3,4,5\n\n",
    "no_features": "artifact_id,size\na1,5\na2,0\na3,12\na4,9223372036854775807\n",
    "no_rows": HEADER,
    "no_rows_no_features": "artifact_id,size\n",
}


@pytest.mark.parametrize("name", sorted(FILES))
def test_hand_written_metrics_match_reference(tmp_path, name):
    assert_loads_as_reference(write_files(tmp_path, FILES[name]))


def test_no_rows_pins_an_empty_feature_matrix(tmp_path):
    release, view = assert_loads_as_reference(write_files(tmp_path, FILES["no_rows"]))
    assert (release.artifact_ids, view.sizes.shape, view.X.shape) == ((), (0,), (0, 0))


def test_negative_zero_keeps_its_sign(tmp_path):
    _, view = assert_loads_as_reference(write_files(tmp_path, FILES["spellings"]))
    assert np.signbit(view.X[0, 3]) and view.X[0, 3] == 0.0
    assert view.sizes.tolist() == [7, 10, 5, 12, 0]


HUGE = "9" * 200_000

# (rows after the header, message, line); the header is line 1
BAD_FILES = {
    "bad_size": ("a1,1,1.0,2.0\na2,x1,1.0,2.0\n", "size must be an integer, got 'x1'", 3),
    "float_size": ("a1,1,1.0,2.0\na2,1.0,1.0,2.0\n", "size must be an integer, got '1.0'", 3),
    "negative_size": ("a1,1,1.0,2.0\na2,-4,1.0,2.0\n", "negative size -4", 3),
    "bad_feature": ("a1,1,1.0,2.0\na2,4,1.0,two\n", "malformed feature value", 3),
    "nan_feature": ("a1,1,1.0,2.0\na2,4,nan,2.0\n", "non-finite feature value", 3),
    "inf_feature": ("a1,1,1.0,2.0\na2,4,1.0,-inf\n", "non-finite feature value", 3),
    "overflowing_feature": ("a1,1,1.0,2.0\na2,4,1e999,2.0\n", "non-finite feature value", 3),
    "short_row": ("a1,1,1.0,2.0\na2,4,1.0\n", "expected 4 columns, got 3", 3),
    "long_row": ("a1,1,1.0,2.0\na2,4,1.0,2.0,3.0\n", "expected 4 columns, got 5", 3),
    "huge_field": ("a1,1,1.0,2.0\na2,4,1.0," + HUGE + "\n", "malformed CSV: field larger than field limit (131072)", 3),
    # a per-row loader let this one through, and its array conversion failed later
    "size_beyond_int64": ("a1,1,1.0,2.0\na2,9223372036854775808,1.0,2.0\n",
                          "size 9223372036854775808 exceeds int64", 3),
    # the first offending line wins, whatever its kind
    "feature_before_size": ("a1,1,1.0,x\na2,x,1.0,2.0\n", "malformed feature value", 2),
    "non_finite_before_short_row": ("a1,1,inf,2.0\na2,4\n", "non-finite feature value", 2),
    "size_before_huge_field": ("a1,-1,1.0,2.0\na2,4,1.0," + HUGE + "\n", "negative size -1", 2),
    "feature_before_huge_field": ("a1,1,1.0,2.0\na2,4,y,2.0\na3,1,1.0," + HUGE + "\n", "malformed feature value", 3),
    "short_row_before_bad_size": ("a1,1,1.0\na2,x,1.0,2.0\n", "expected 4 columns, got 3", 2),
    "duplicate_before_bad_size": ("a1,1,1.0,2.0\na1,2,1.0,2.0\na3,z,1.0,2.0\n", "size must be an integer, got 'z'", 4),
    # within one line: size, then sign, then feature spelling, then finiteness
    "bad_size_and_feature": ("a1,x,y,2.0\n", "size must be an integer, got 'x'", 2),
    "negative_size_and_bad_feature": ("a1,-2,y,2.0\n", "negative size -2", 2),
    "non_finite_then_bad_feature": ("a1,2,inf,y\n", "malformed feature value", 2),
    # blank lines and quoted line breaks count as the csv module counts records
    "after_blank_lines": ("a1,1,1.0,2.0\n\n\na2,x,1.0,2.0\n", "size must be an integer, got 'x'", 5),
    "after_quoted_line_break": ('"a\n1",1,1.0,2.0\na2,4,1.0,nan\n', "non-finite feature value", 3),
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_rejected_metrics_name_file_and_line(tmp_path, name):
    rows, message, line = BAD_FILES[name]
    directory = write_files(tmp_path, "artifact_id,size,f1,f2\n" + rows)
    with pytest.raises(DataError) as info:
        load_release_dir(directory)
    metrics = directory / "metrics.csv"
    assert (str(info.value), info.value.path, info.value.line) == (f"{message} [{metrics}:{line}]", metrics, line)


def test_duplicate_artifact_id_is_rejected(tmp_path):
    directory = write_files(tmp_path, "artifact_id,size,f1\na1,1,1.0\na2,2,1.0\na1,3,1.0\n")
    with pytest.raises(DataError) as info:
        load_release_dir(directory)
    metrics = directory / "metrics.csv"
    want = (f"duplicate artifact id 'a1' [{metrics}:4]", metrics, 4)
    assert (str(info.value), info.value.path, info.value.line) == want
