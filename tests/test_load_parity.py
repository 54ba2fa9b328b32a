"""The loader's C text reader against the csv reader it replaced: for every
``metrics.csv`` below, ``load_release_dir`` gives the ids, sizes and features
of ``conftest.read_metrics_reference`` bitwise, or its DataError with the same
message, path and line. The files cover the hazards of ``np.loadtxt``, where
it reads what the csv path rejects or reads otherwise, so each must be read
alike or left to the csv path."""

import csv

import numpy as np
import pytest
from conftest import read_metrics_reference
from test_load_mutations import mutate
from test_load_reference import BAD_FILES, FILES, HUGE, write_files

from defectcost import dataset
from defectcost.dataset import DataError, load_release_dir, write_release
from defectcost.synth import SynthSpec, generate_synthetic

HEADER = "artifact_id,size,f1,f2\n"

HAZARDS = {
    "trailing_comma": HEADER + "a1,1,1.0,2.0,\n",
    "trailing_comma_every_row": HEADER + "a1,1,1.0,2.0,\na2,2,1.0,2.0,\n",
    "finite_field_beyond_limit": HEADER + "a1,1,1.0,2.0\na2,4,1.0,0." + HUGE + "\n",
    "id_beyond_limit": HEADER + "a" * 200_000 + ",1,1.0,2.0\n",
    "hash_row": HEADER + "#a1,1,1.0,2.0\na2,2,1.0,2.0\n",
    "hash_field": HEADER + "a1,1,1.0,#2.0\n",
    "spaces_only_line": HEADER + "a1,1,1.0,2.0\n   \na2,2,1.0,2.0\n",
    "tab_only_line": HEADER + "a1,1,1.0,2.0\n\t\n",
    "cr_only": (HEADER + "a1,1,1.0,2.0\na2,2,3.0,4.0\n").replace("\n", "\r"),
    "cr_only_blank_line": (HEADER + "a1,1,1.0,2.0\n\na2,2,3.0,4.0\n").replace("\n", "\r"),
    "crlf": (HEADER + "a1,1,1.0,2.0\na2,2,3.0,4.0\n").replace("\n", "\r\n"),
    "crlf_blank_lines": (HEADER + "a1,1,1.0,2.0\n\n\na2,x,3.0,4.0\n").replace("\n", "\r\n"),
    "cr_in_a_field": HEADER + "a\r1,1,1.0,2.0\n",
    "cr_before_crlf": HEADER + "a1,1,1.0,2.0\r\r\na2,2,1.0,2.0\r\n",
    "mixed_line_ends": HEADER + "a1,1,1.0,2.0\r\na2,2,1.0,2.0\ra3,3,1.0,2.0\n",
    "empty_id": HEADER + ",1,1.0,2.0\n",
    "empty_size": HEADER + "a1,,1.0,2.0\n",
    "empty_feature": HEADER + "a1,1,,2.0\n",
    "quoted_numbers": HEADER + 'a1,"5","1.5"," 2.0 "\n',
    "quoted_empty_id": HEADER + '"",1,1.0,2.0\n',
    "doubled_quotes": HEADER + '"a""1",1,1.0,2.0\n"""",2,1.0,2.0\n"a,""b"",c",3,1.0,2.0\n',
    "quoted_line_break": HEADER + '"a\n1",1,1.0,2.0\na2,2,1.0,2.0\n',
    "quoted_crlf": HEADER + '"a\r\n1",1,1.0,2.0\r\n',
    "quoted_cr": HEADER + '"a\r1",1,1.0,2.0\n',
    "quote_inside_a_field": HEADER + 'a"1,1,1.0,2.0\n',
    "text_after_a_closing_quote": HEADER + '"a"b,1,1.0,2.0\n',
    "quote_after_a_space": HEADER + ' "a",1,1.0,2.0\n',
    "quotes_after_a_closing_quote": HEADER + '"a"b"c",1,1.0,2.0\n"a"  ,2,1.0,2.0\n',
    "number_after_a_closing_quote": HEADER + 'a1,"1"2,1.0,2.0\n',
    "unclosed_quote": HEADER + '"a,1,1.0,2.0\na2,2,1.0,2.0\n',
    "quoted_header": '"artifact_id",size,f1,f2\na1,1,1.0,2.0\n',
    "comma_in_a_quoted_header_field": 'artifact_id,size,"f,1"\na1,1,1.0,2.0\n',
    "bom": "\ufeff" + HEADER + "a1,1,1.0,2.0\n",
    "bom_on_a_row": HEADER + "\ufeffa1,1,1.0,2.0\n",
    "non_ascii_id": HEADER + "é…😀,1,1.0,2.0\n",
    "size_5.0": HEADER + "a1,5.0,1.0,2.0\n",
    "size_1e3": HEADER + "a1,1e3,1.0,2.0\n",
    "size_plus": HEADER + "a1,+5,1.0,2.0\n",
    "size_spaces": HEADER + "a1, 5 ,1.0,2.0\n",
    "size_underscore": HEADER + "a1,5_0,1.0,2.0\n",
    "size_2_63": HEADER + "a1,9223372036854775808,1.0,2.0\n",
    "size_2_63_minus_1": HEADER + "a1,9223372036854775807,1.0,2.0\n",
    "size_minus_zero": HEADER + "a1,-0,1.0,2.0\n",
    "size_arabic_digits": HEADER + "a1,١٢,1.0,2.0\n",
    "feature_underscore": HEADER + "a1,1,1_0,2.0\n",
    "feature_arabic_digits": HEADER + "a1,1,١٢,2.0\n",
    "feature_minus_zero": HEADER + "a1,1,-0.0,-0\n",
    "feature_subnormal": HEADER + "a1,1,4.9e-324,2.4703282292062328e-324\n",
    "feature_long_mantissa": HEADER + "a1,1,0." + "0" * 400 + "1,1." + "9" * 400 + "\n",
    "feature_nan": HEADER + "a1,1,nan,2.0\n",
    "feature_infinity": HEADER + "a1,1,Infinity,2.0\n",
    # numpy strips these from numbers as whitespace, int() and float() do not
    "separator_in_size": HEADER + "a1,\x1c5,1.0,2.0\n",
    "separator_in_feature": HEADER + "a1,5,1.0\x1f,2.0\n",
    "unicode_spaces_around_numbers": HEADER + "a1,\xa05\u3000,\x0c1.5\x0b, 2.0\n",
    "nul_in_id": HEADER + "a\x001,1,1.0,2.0\n",
    "nul_in_feature": HEADER + "a1,1,1.0\x00,2.0\n",
    "line_separators_in_id": HEADER + "a\x85 \x0b1,1,1.0,2.0\n",
    "header_only": HEADER,
    "header_only_without_newline": HEADER.rstrip("\n"),
    "one_row": HEADER + "a1,1,1.0,2.0\n",
    "no_final_newline": HEADER + "a1,1,1.0,2.0\na2,2,1.0,2.0",
    "no_features_one_row": "artifact_id,size\na1,3\n",
    "no_features_crlf": "artifact_id,size\r\na1,3\r\na2,4\r\n",
    "header_trailing_comma": "artifact_id,size,f1,\na1,1,1.0,\n",
    "duplicate_id": HEADER + "a1,1,1.0,2.0\na2,2,1.0,2.0\na1,3,1.0,2.0\n",
    "duplicate_id_after_blank_lines": HEADER + "a1,1,1.0,2.0\n\n\na1,3,1.0,2.0\n",
    "empty_file": "",
}


def assert_loads_like_reference(directory):
    metrics = directory / "metrics.csv"
    try:
        ids, sizes, X = read_metrics_reference(metrics)
    except DataError as want:
        with pytest.raises(DataError) as info:
            load_release_dir(directory)
        assert (str(info.value), info.value.path, info.value.line) == (str(want), want.path, want.line)
        return None
    release = load_release_dir(directory)
    assert release.artifact_ids == ids
    for got, want in ((release.sizes, sizes), (release.X, X)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    return release


def write_metrics(directory, data: bytes):
    """A release of ``data`` as its metrics.csv, with no defects."""
    write_files(directory, "")
    (directory / "metrics.csv").write_bytes(data)
    return directory


@pytest.fixture
def fast_path_count(monkeypatch):
    """How many loads the C reader answered, counted as calls of the csv path."""
    calls = {"csv": 0, "loads": 0}
    csv_metrics, load_release = dataset._csv_metrics, dataset.load_release

    def counting_csv(path):
        calls["csv"] += 1
        return csv_metrics(path)

    def counting_load(*files):
        calls["loads"] += 1
        return load_release(*files)

    monkeypatch.setattr(dataset, "_csv_metrics", counting_csv)
    monkeypatch.setattr(dataset, "load_release", counting_load)
    return lambda: calls["loads"] - calls["csv"]


@pytest.mark.parametrize("name", sorted(HAZARDS))
def test_hazard_loads_like_reference(tmp_path, name):
    assert_loads_like_reference(write_metrics(tmp_path, HAZARDS[name].encode("utf-8")))


@pytest.mark.parametrize("name", sorted(FILES))
def test_hand_written_file_loads_like_reference(tmp_path, name):
    assert_loads_like_reference(write_files(tmp_path, FILES[name]))


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_bad_file_loads_like_reference(tmp_path, name):
    assert_loads_like_reference(write_files(tmp_path, "artifact_id,size,f1,f2\n" + BAD_FILES[name][0]))


def test_text_that_is_not_utf8_loads_like_reference(tmp_path):
    data = (HEADER + "a1,1,1.0,2.0\n").encode() + b"a\xff2,2,1.0,2.0\n"
    assert_loads_like_reference(write_metrics(tmp_path, data))


def test_line_beyond_a_lowered_field_limit_loads_like_reference(tmp_path):
    """The limit is read at load time: a long line is left to the csv path,
    which names the field that is too large."""
    directory = write_metrics(tmp_path, (HEADER + "a1,1,1.0,2.0\na2,2,1.5,2.0\n").encode())
    before = csv.field_size_limit(3)
    try:
        assert_loads_like_reference(directory)
    finally:
        csv.field_size_limit(before)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synth_corpus_loads_like_reference_on_the_fast_path(tmp_path, seed, fast_path_count):
    spec = SynthSpec(n_projects=2, releases_per_project=2, artifacts_range=(20, 60), n_features=5)
    releases = generate_synthetic(spec, seed)
    for i, generated in enumerate(releases):
        assert assert_loads_like_reference(write_release(generated, tmp_path / str(i))) is not None
    assert fast_path_count() == len(releases)


def test_mutated_metrics_load_like_reference(tmp_path, fast_path_count):
    """256 seeds of one to three byte mutations each, of a synth release and
    of a file with quoted ids (which the csv path reads); both paths must
    answer some of them."""
    spec = SynthSpec(n_projects=1, releases_per_project=1, artifacts_range=(30, 30), n_features=3)
    synth = (write_release(generate_synthetic(spec, 5)[0], tmp_path / "synth") / "metrics.csv").read_bytes()
    quoted = (HEADER + '"x,1",3,1.0,2.0\n"y,""2""",4,1.5,2.5\nz3,5,1e3,-0.0\n"w",6,7,8\n').encode()
    rejected = 0
    for seed in range(256):
        rng = np.random.default_rng(seed)
        data = synth if seed % 2 else quoted
        for _ in range(int(rng.integers(1, 4))):
            data = mutate(data, rng)
        rejected += assert_loads_like_reference(write_metrics(tmp_path / str(seed), data)) is None
    assert 0 < rejected < 256 and fast_path_count() > 0


def test_plain_synth_release_takes_the_c_reader(tmp_path, monkeypatch):
    """Fails where numpy's loadtxt lacks what the fast path needs (a numpy
    floor, say), which would leave every load to the csv path."""
    spec = SynthSpec(n_projects=1, releases_per_project=1, artifacts_range=(50, 50), n_features=4)
    generated = generate_synthetic(spec, 1)[0]
    directory = write_release(generated, tmp_path)

    def refuse(path):
        raise AssertionError(f"the csv path read {path}")

    monkeypatch.setattr(dataset, "_csv_metrics", refuse)
    release = load_release_dir(directory)
    assert release.artifact_ids == generated.artifact_ids
    assert release.X.tobytes() == generated.X.tobytes()
