"""Rejection of malformed prediction CSVs, corpora and record files, with file
and line, and of out-of-range thresholds."""

import json
import math
import re
import shutil

import pytest

from defectcost.cli import EXIT_DATA, EXIT_USAGE, main
from defectcost.dataset import DataError, load_corpus, load_release_dir, write_release
from defectcost.experiments import (
    BootstrapConfig,
    EvalConfig,
    read_records,
    write_records_csv,
    write_records_jsonl,
)
from defectcost.synth import SynthSpec, generate_synthetic

from conftest import make_record, make_release


@pytest.fixture
def release_dir(tmp_path):
    return write_release(make_release(), tmp_path / "corpus" / "demo" / "r1")


def write_pred(path, rows):
    path.write_text("artifact_id,score\n" + "".join(f"{a},{s}\n" for a, s in rows))
    return path


@pytest.mark.parametrize(
    "bad_row, message",
    [
        (("a3", "nan"), "finite number in [0, 1], got 'nan'"),
        (("a3", "inf"), "finite number in [0, 1], got 'inf'"),
        (("a3", "7.5"), "finite number in [0, 1], got '7.5'"),
        (("a3", "-0.1"), "finite number in [0, 1], got '-0.1'"),
        (("a1", "0.1"), "duplicate artifact id 'a1'"),
    ],
)
def test_metrics_rejects_bad_scores(release_dir, tmp_path, capsys, bad_row, message):
    rows = [("a1", "0.9"), ("a2", "0.2"), bad_row, ("a3", "0.4"), ("a4", "0.3"), ("a5", "0.8"), ("a6", "0.1")]
    pred = write_pred(tmp_path / "pred.csv", rows)
    out = tmp_path / "out"
    assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "-o", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err
    assert f"[{pred}:4]" in err
    assert not out.exists()


def test_metrics_accepts_score_bounds(release_dir, tmp_path):
    pred = write_pred(tmp_path / "pred.csv", [("a1", "1.0"), ("a2", "0"), ("a3", "1"), ("a4", "0.0"),
                                              ("a5", "0.5"), ("a6", "1e-3")])
    assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "-o", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_loader_rejects_non_finite_feature(release_dir, value):
    metrics = release_dir / "metrics.csv"
    lines = metrics.read_text().splitlines()
    aid, size, _ = lines[2].split(",")
    lines[2] = f"{aid},{size},{value}"
    metrics.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="non-finite feature value") as info:
        load_release_dir(release_dir)
    assert (info.value.path, info.value.line) == (metrics, 3)


@pytest.mark.parametrize("name, replace, message, line", [
    ("metrics.csv", lambda row: row.replace(row.split(",")[2], "9" * 200_000),
     "malformed CSV: field larger than field limit", 3),
    ("metrics.csv", lambda row: row.replace(row.split(",")[0], "\udcff"), "not UTF-8 text: invalid start byte", None),
    ("meta.json", lambda row: row.replace('"', '"\udcff', 1), "not UTF-8 text: invalid start byte", None),
    ("defects.json", lambda row: row.replace('"', '"\udcff', 1), "not UTF-8 text: invalid start byte", None),
], ids=["huge_field", "not_utf8", "meta_not_utf8", "defects_not_utf8"])
def test_unreadable_metrics_csv_is_data_error(release_dir, capsys, name, replace, message, line):
    metrics = release_dir / name
    lines = metrics.read_text().splitlines()
    lines[2] = replace(lines[2])
    metrics.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(DataError, match=message) as info:
        load_release_dir(release_dir)
    assert (info.value.path, info.value.line) == (metrics, line)
    assert main(["validate", "--data", str(release_dir)]) == EXIT_DATA
    assert f"[{metrics}" in capsys.readouterr().err


@pytest.mark.parametrize("name, content, message", [
    ("meta.json", "5", "meta file must contain a JSON object"),
    ("meta.json", "null", "meta file must contain a JSON object"),
    ("meta.json", "true", "meta file must contain a JSON object"),
    ("meta.json", '["demo", "r1"]', "meta file must contain a JSON object"),
    ("defects.json", '[{"id": "d1", "artifacts": [["a1"]]}]', "artifact id ['a1'] in defect 'd1' must be a string"),
    ("defects.json", '[{"id": "d1", "artifacts": [7]}]', "artifact id 7 in defect 'd1' must be a string"),
    ("defects.json", '[{"id": "d1", "artifacts": ["a1", "zz", 7]}]',
     "unknown artifact id 'zz' in defect 'd1', not in metrics.csv"),
    ("defects.json", '[{"id": "d1", "artifacts": ["a1", 7, "zz"]}]', "artifact id 7 in defect 'd1' must be a string"),
    ("meta.json", '{"project": null, "release": "r1", "released_at": "2020-01-01T00:00:00+00:00"}',
     "meta field 'project' must be a string, got None"),
    ("meta.json", '{"project": "demo", "release": {"x": 1}, "released_at": "2020-01-01T00:00:00+00:00"}',
     "meta field 'release' must be a string, got {'x': 1}"),
    ("meta.json", '{"project": "demo", "release": 3, "released_at": "2020-01-01T00:00:00+00:00"}',
     "meta field 'release' must be a string, got 3"),
    ("meta.json", '{"release": "r1", "released_at": "2020-01-01T00:00:00+00:00"}',
     "meta field 'project' must be a string, got 'nothing'"),
    ("defects.json", '[{"id": ["d", 1], "artifacts": ["a1"]}]', "defect #0 must be an object with a string 'id'"),
    ("defects.json", '[{"id": "d1", "artifacts": ["a1"]}, {"id": 4, "artifacts": ["a1"]}]',
     "defect #1 must be an object with a string 'id'"),
    ("defects.json", '[{"id": "d1", "artifacts": ["a1"], "fixed_at": 20200101}]',
     "timestamp must be an ISO-8601 string, got 20200101"),
], ids=["meta_int", "meta_null", "meta_bool", "meta_list", "artifact_list", "artifact_int",
        "unknown_before_int", "int_before_unknown", "project_null",
        "release_object", "release_int", "project_missing", "defect_id_list", "defect_id_int",
        "fixed_at_number"])
def test_malformed_json_shape_is_data_error(release_dir, capsys, name, content, message):
    path = release_dir / name
    path.write_text(content)
    with pytest.raises(DataError, match=re.escape(message)) as info:
        load_release_dir(release_dir)
    assert info.value.path == path
    assert main(["validate", "--data", str(release_dir)]) == EXIT_DATA
    assert f"[{path}]" in capsys.readouterr().err


def test_corpus_rejects_duplicate_release(release_dir):
    root = release_dir.parent.parent
    copy = root / "demo-copy" / "r1"
    shutil.copytree(release_dir, copy)
    with pytest.raises(DataError, match="demo/r1 found in both") as info:
        load_corpus(root)
    assert str(release_dir) in str(info.value) and str(copy) in str(info.value)


def test_validate_command_reports_duplicate_release(release_dir, capsys):
    root = release_dir.parent.parent
    shutil.copytree(release_dir, root / "again")
    assert main(["validate", "--data", str(root)]) == EXIT_DATA
    assert "found in both" in capsys.readouterr().err


def test_metrics_rejects_rows_without_two_columns(release_dir, tmp_path, capsys):
    for bad_row, count in ((("a3", "0.4", "junk"), 3), (("a3",), 1)):
        pred = tmp_path / "pred.csv"
        pred.write_text("artifact_id,score\na1,0.9\n" + ",".join(bad_row) + "\n")
        assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"needs 2 columns, got {count}" in err and f"[{pred}:3]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [b"artifact_id,score\na1,0.9\xff\n", b"artifact_id,score\na1," + b"9" * 200_000],
                         ids=["not_utf8", "huge_field"])
def test_metrics_unreadable_prediction_is_data_error(release_dir, tmp_path, capsys, content):
    pred = tmp_path / "pred.csv"
    pred.write_bytes(content)
    assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "-o", str(tmp_path / "o")]) == 2
    assert "cannot read predictions" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ids, expected", [(["a1", "a2", "a3", "a4", "a5"], "missing=['a6']"),
                                           (["a1", "a2", "a3", "a4", "a5", "a6", "a7"], "extra=['a7']")])
def test_metrics_coverage_error_names_prediction_file(release_dir, tmp_path, capsys, ids, expected):
    pred = write_pred(tmp_path / "pred.csv", [(a, "0.5") for a in ids])
    assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert expected in err and f"[{pred}]" in err


THRESHOLD_COMMANDS = ("metrics", "bootstrap", "cross-version", "cross-project")


@pytest.mark.parametrize("command", THRESHOLD_COMMANDS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "7", "-0.1", "1.5", "x"])
def test_threshold_outside_unit_interval_is_usage_error(tmp_path, capsys, command, value):
    assert main([command, f"--threshold={value}", "-o", str(tmp_path / "o")]) == EXIT_USAGE
    assert "--threshold" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"threshold": value if value == "x" else float(value)}, allow_nan=True))
    assert main(["--config", str(config), command, "-o", str(tmp_path / "o")]) == EXIT_USAGE
    assert "--threshold" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 7, -0.1, 1.5])
def test_config_threshold_outside_unit_interval_is_rejected(value):
    with pytest.raises(ValueError, match="threshold must be in \\[0, 1\\]"):
        EvalConfig(threshold=value)
    with pytest.raises(ValueError, match="threshold must be in \\[0, 1\\]"):
        BootstrapConfig(n_samples=1, seed=0, threshold=value)
    assert EvalConfig(threshold=0).threshold == 0 and EvalConfig(threshold=1.0).threshold == 1.0


@pytest.mark.parametrize("field, value, message", [
    ("count_mode", "bogus", "unknown defect counting mode 'bogus'"),
    ("transfer", "bogus", "unknown transfer kind 'bogus'"),
    ("effort_mode", "bogus", "unknown effort counting mode 'bogus'"),
    ("min_instances", 0, "min_instances and min_defects must be >= 1"),
    ("min_defects", -1, "min_instances and min_defects must be >= 1"),
    ("seed", -1, "seed must be >= 0, got -1"),
], ids=["count_mode", "transfer", "effort_mode", "min_instances", "min_defects", "seed"])
def test_config_value_outside_its_domain_is_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        EvalConfig(**{field: value})
    if field in ("effort_mode", "seed"):
        with pytest.raises(ValueError, match=message):
            BootstrapConfig(n_samples=1, **{field: value})


COUNT_OPTIONS = [("bootstrap", "trees"), ("bootstrap", "samples"), ("bootstrap", "jobs"),
                 ("cross-version", "trees"), ("analyze", "trees"), ("sensitivity", "trees")] + [
    (command, option) for command in ("validate", "bootstrap", "cross-version", "cross-project")
    for option in ("min-instances", "min-defects")]


@pytest.mark.parametrize("command, option", COUNT_OPTIONS)
@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_count_option_below_one_is_usage_error(tmp_path, capsys, command, option, value):
    assert main([command, f"--{option}={value}", "-o", str(tmp_path / "o")]) == EXIT_USAGE
    assert f"--{option}" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({option: value if value == "x" else int(value)}))
    assert main(["--config", str(config), command, "-o", str(tmp_path / "o")]) == EXIT_USAGE
    assert f"--{option}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


NON_NEGATIVE_OPTIONS = [(command, "seed") for command in (
    "bootstrap", "cross-version", "cross-project", "analyze", "sensitivity", "synth")] + [("cross-project", "gap-days")]


@pytest.mark.parametrize("command, option", NON_NEGATIVE_OPTIONS)
@pytest.mark.parametrize("value", ["-1", "x"])
def test_non_negative_option_below_zero_is_usage_error(tmp_path, capsys, command, option, value):
    assert main([command, f"--{option}={value}", "-o", str(tmp_path / "o")]) == EXIT_USAGE
    assert f"--{option}" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({option: value if value == "x" else int(value)}))
    assert main(["--config", str(config), command, "-o", str(tmp_path / "o")]) == EXIT_USAGE
    assert f"--{option}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option, value", [
    ("signal", "nan"), ("signal", "inf"), ("signal", "-inf"), ("signal", "x"), ("size-mu", "nan"),
    ("size-mu", "inf"), ("size-mu", "-inf"), ("size-sigma", "nan"), ("size-sigma", "inf"), ("size-sigma", "-1")])
def test_synth_option_not_finite_is_usage_error(tmp_path, capsys, option, value):
    out = tmp_path / "o"
    assert main(["synth", f"--{option}={value}", "--projects", "2", "--releases", "2", "-o", str(out)]) == EXIT_USAGE
    assert f"--{option}" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({option: value, "projects": 2, "releases": 2}))
    assert main(["--config", str(config), "synth", "-o", str(out)]) == EXIT_USAGE
    assert f"--{option}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["size_log_mean", "size_log_sigma", "signal"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_synth_spec_value_not_finite_is_rejected(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        generate_synthetic(SynthSpec(n_projects=1, releases_per_project=1, **{field: value}), seed=0)


@pytest.mark.parametrize("value", ["1e6", "50"])
def test_synth_size_draw_overflow_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "o"
    assert main(["synth", "--size-mu", value, "--projects", "2", "--releases", "2", "-o", str(out)]) == EXIT_USAGE
    assert "overflows int64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bootstrap", "cross-version", "cross-project"])
@pytest.mark.parametrize("option, value", [("de-population", "3"), ("de-population", "x"),
                                           ("de-generations", "-1")])
def test_de_budget_out_of_range_is_usage_error(tmp_path, capsys, command, option, value):
    out = tmp_path / "o"
    assert main([command, "--tune", f"--{option}={value}", "--data", str(tmp_path), "-o", str(out)]) == EXIT_USAGE
    assert f"--{option}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "1"])
def test_threshold_bounds_accepted(release_dir, tmp_path, value):
    pred = write_pred(tmp_path / "pred.csv", [(a, "0.5") for a in ("a1", "a2", "a3", "a4", "a5", "a6")])
    assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "--threshold", value,
                 "-o", str(tmp_path / "o")]) == 0


def _edit_line(path, line, edit):
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")


def _json_edit(edit):
    """A line edit that applies ``edit`` to the JSON object of the line."""
    def apply(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return apply


CASE_LABELS = ("Medium", "NONE", "extra-large")  # potential labels in another case or spelling


# (suffix, line, edit of that line, message); line 1 of records.csv is the header
BAD_RECORD_LINES = {
    "csv_truncated": (".csv", 3, lambda t: t.rsplit(",", 5)[0], "row has 35 fields, the header 40"),
    "csv_extra_field": (".csv", 2, lambda t: t + ",1", "row has 41 fields, the header 40"),
    "csv_bad_number": (".csv", 3, lambda t: t.replace(",0.5,", ",zero,", 1), "malformed 'recall' value 'zero'"),
    "csv_empty_number": (".csv", 2, lambda t: t.replace(",0.5,", ",,", 1), "malformed 'recall' value ''"),
    "csv_bad_sample": (".csv", 2, lambda t: t.replace(",p,r,0,", ",p,r,x,", 1), "malformed 'sample' value 'x'"),
    "csv_huge_field": (".csv", 2, lambda t: t.replace("bootstrap", "x" * 200_000), "field larger than field limit"),
    "csv_unknown_label": (".csv", 3, lambda t: t.replace(",medium", ",huge"), "malformed 'potential' value 'huge'"),
    # a label is its level's name in lower case, exactly
    **{f"csv_unknown_label_{label}": (".csv", 3, lambda t, new=f",{label}": t.replace(",medium", new),
                                      f"malformed 'potential' value '{label}'") for label in CASE_LABELS},
    # int() and float() take underscores and surrounding whitespace; the writers write neither
    "csv_underscore_sample": (".csv", 3, lambda t: t.replace(",p,r,1,", ",p,r,1_0,", 1),
                              "malformed 'sample' value '1_0'"),
    "csv_padded_seed": (".csv", 2, lambda t: t.replace(",plain,0,", ",plain, 0,", 1), "malformed 'seed' value ' 0'"),
    "csv_padded_number": (".csv", 4, lambda t: t.replace(",0.5,", ", 0.5,", 1), "malformed 'recall' value ' 0.5'"),
    "csv_underscore_number": (".csv", 2, lambda t: t.replace(",600,", ",6_00,", 1), "malformed 'upper' value '6_00'"),
    "jsonl_array": (".jsonl", 2, lambda t: "[1, 2]", "must be a JSON object"),
    "jsonl_metrics_number": (".jsonl", 2, _json_edit(lambda o: o.update(metrics=5)), "must be a JSON object"),
    "jsonl_not_json": (".jsonl", 1, lambda t: t[:-5], "malformed JSON"),
    "jsonl_missing_metric": (".jsonl", 2, _json_edit(lambda o: o["metrics"].pop("recall")),
                             "record lacks 'recall'"),
    "jsonl_bad_number": (".jsonl", 1, _json_edit(lambda o: o["bounds"].update(upper="lots")),
                         "malformed 'upper' value 'lots'"),
    "jsonl_list_number": (".jsonl", 1, _json_edit(lambda o: o["bounds"].update(upper=[600])),
                          "malformed 'upper' value [600]"),
    "jsonl_unknown_label": (".jsonl", 2, lambda t: t.replace('"medium"', '"huge"'), "malformed 'potential' value 'huge'"),
    **{f"jsonl_unknown_label_{label}": (".jsonl", 2, lambda t, new=f'"{label}"': t.replace('"medium"', new),
                                        f"malformed 'potential' value '{label}'") for label in CASE_LABELS},
    "jsonl_float_sample": (".jsonl", 2, _json_edit(lambda o: o.update(sample=1.5)), "malformed 'sample' value 1.5"),
    "jsonl_bool_sample": (".jsonl", 1, _json_edit(lambda o: o.update(sample=True)), "malformed 'sample' value True"),
    "jsonl_float_seed": (".jsonl", 3, _json_edit(lambda o: o.update(seed=2.7)), "malformed 'seed' value 2.7"),
    "jsonl_null_project": (".jsonl", 2, _json_edit(lambda o: o.update(project=None)),
                           "malformed 'project' value None"),
    "jsonl_list_release": (".jsonl", 1, _json_edit(lambda o: o.update(release=["r", 1])),
                           "malformed 'release' value ['r', 1]"),
    "jsonl_bool_number": (".jsonl", 3, _json_edit(lambda o: o["metrics"].update(recall=True)),
                          "malformed 'recall' value True"),
    "jsonl_string_number": (".jsonl", 2, _json_edit(lambda o: o["metrics"].update(recall="0.25")),
                            "malformed 'recall' value '0.25'"),
    "jsonl_string_bound": (".jsonl", 1, _json_edit(lambda o: o["bounds"].update(lower="Infinity")),
                           "malformed 'lower' value 'Infinity'"),
    # json.dumps writes these non-JSON tokens for nan and the infinities; the writer never does
    "jsonl_nan_token": (".jsonl", 2, _json_edit(lambda o: o["metrics"].update(recall=math.nan)),
                        "malformed JSON: NaN is not JSON"),
    "jsonl_infinity_token": (".jsonl", 1, _json_edit(lambda o: o["bounds"].update(lower=math.inf)),
                             "malformed JSON: Infinity is not JSON"),
    "jsonl_minus_infinity_token": (".jsonl", 3, _json_edit(lambda o: o["confounders"].update(n_test=-math.inf)),
                                   "malformed JSON: -Infinity is not JSON"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORD_LINES))
def test_malformed_record_line_names_file_and_line(tmp_path, capsys, case):
    suffix, line, edit, message = BAD_RECORD_LINES[case]
    records = [make_record(sample=i, diff=500.0) for i in range(3)]
    path = tmp_path / f"records{suffix}"
    (write_records_csv if suffix == ".csv" else write_records_jsonl)(records, path)
    _edit_line(path, line, edit)
    with pytest.raises(DataError, match=re.escape(message)) as info:
        read_records(path)
    assert (info.value.path, info.value.line) == (path, line)
    assert main(["analyze", "--records", str(path), "-o", str(tmp_path / "r")]) == EXIT_DATA
    assert f"[{path}:{line}]" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("records, message", [
    ([make_record(sample=i, diff=500.0) for i in range(3)], "at least two potential levels"),
    ([make_record(sample=0, diff=0.0), make_record(sample=1, diff=500.0)], "at least three records"),
], ids=["one_level", "two_records"])
def test_analyze_rejects_records_it_cannot_model_before_writing(tmp_path, capsys, records, message):
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    out = tmp_path / "r"
    assert main(["analyze", "--records", str(path), "-o", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and f"[{path}]" in err
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_records_read_every_number_form_the_writers_write(tmp_path, suffix):
    """The strict cell syntax still reads each form of fmt_float and the JSON
    codecs: integers, repr floats with and without an exponent, and negatives."""
    values = (1e-05, 1.5e+16, 1e15, -0.25, 123456789.125, -7.0, 0.0, 5e-324)
    records = [make_record(sample=i - 1, seed=2**40 + i, recall=v) for i, v in enumerate(values)]
    path = tmp_path / f"records{suffix}"
    (write_records_csv if suffix == ".csv" else write_records_jsonl)(records, path)
    assert read_records(path) == records


def test_records_csv_header_repeating_a_column_is_data_error(tmp_path, capsys):
    path = tmp_path / "records.csv"
    write_records_csv([make_record(sample=i, diff=500.0, recall=0.1667) for i in range(3)], path)
    _edit_line(path, 1, lambda t: t + ",recall")
    for line in (2, 3, 4):
        _edit_line(path, line, lambda t: t + ",0.999")
    with pytest.raises(DataError, match=re.escape("names column 'recall' twice")) as info:
        read_records(path)
    assert (info.value.path, info.value.line) == (path, 1)
    assert main(["analyze", "--records", str(path), "-o", str(tmp_path / "r")]) == EXIT_DATA
    assert f"[{path}:1]" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, flag", [("analyze", "--records"), ("sensitivity", "--records"),
                                           ("sensitivity", "--eval-records")])
def test_missing_records_file_is_data_error(tmp_path, capsys, command, flag):
    present = tmp_path / "records.csv"
    write_records_csv([make_record(sample=i, diff=500.0) for i in range(3)], present)
    missing = tmp_path / "absent.csv"
    files = {"--records": present, flag: missing}
    args = [command] + [str(a) for f, p in files.items() for a in (f, p)] + ["-o", str(tmp_path / "r")]
    assert main(args) == EXIT_DATA
    assert f"cannot read records file: No such file or directory [{missing}]" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    with pytest.raises(DataError) as info:
        read_records(missing)
    assert info.value.path == missing


@pytest.mark.parametrize("value", ["nan", "-3", "1.5", "x"])
def test_corr_threshold_outside_unit_interval_is_usage_error(tmp_path, capsys, value):
    records = tmp_path / "records.csv"
    write_records_csv([make_record(sample=i, diff=500.0) for i in range(3)], records)
    out = tmp_path / "r"
    assert main(["analyze", "--records", str(records), f"--corr-threshold={value}", "-o", str(out)]) == EXIT_USAGE
    assert "--corr-threshold" in capsys.readouterr().err
    assert not out.exists()


def test_records_file_not_utf8_is_data_error(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_bytes(b"scenario,project\n\xff\xfe,p\n")
    assert main(["analyze", "--records", str(path), "-o", str(tmp_path / "r")]) == EXIT_DATA
    assert f"not UTF-8 text: invalid start byte [{path}]" in capsys.readouterr().err
