"""CLI behaviour of config files, scenario-only flags and infinite metric values."""

import csv
import json
import math
import shutil

import pytest

from defectcost.cli import main
from defectcost.experiments import read_records


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--seed", "3", "--projects", "1", "--releases", "2",
               "--artifacts", "100,110", "--features", "3", "-o", str(out)])
    assert rc == 0
    return out


def run_with_config(tmp_path, values, *argv):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    return main(["--config", str(config), *argv])


def test_metrics_on_release_without_defects_writes_infinite_error(corpus_dir, tmp_path):
    release_dir = tmp_path / "release"
    shutil.copytree(sorted(p.parent for p in corpus_dir.rglob("meta.json"))[0], release_dir)
    (release_dir / "defects.json").write_text("[]\n")
    ids = [row["artifact_id"] for row in csv.DictReader((release_dir / "metrics.csv").open())]
    pred = tmp_path / "pred.csv"
    pred.write_text("artifact_id,score\n" + "".join(f"{i},0.9\n" for i in ids))
    out = tmp_path / "out"
    assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "-o", str(out)]) == 0
    for name in ("records.csv", "records.jsonl"):
        (record,) = read_records(out / name)
        assert record.error_type1 == math.inf


def test_config_value_of_wrong_type_is_usage_error(corpus_dir, tmp_path, capsys):
    argv = ["bootstrap", "--data", str(corpus_dir), "-o", str(tmp_path / "o")]
    assert run_with_config(tmp_path, {"samples": "three"}, *argv) == 1
    assert "--samples" in capsys.readouterr().err
    assert run_with_config(tmp_path, {"tune": "yes"}, *argv) == 1
    assert "'tune'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_cannot_override_command(corpus_dir, tmp_path):
    out = tmp_path / "o"
    values = {"command": "validate", "samples": 1, "model": "gnb"}
    assert run_with_config(tmp_path, values, "bootstrap", "--data", str(corpus_dir), "-o", str(out)) == 0
    assert len(read_records(out / "records.csv")) == 2 * 2


def test_config_boundaries_list_and_flag_precedence(corpus_dir, tmp_path):
    common = ["--data", str(corpus_dir), "--samples", "1", "--model", "gnb"]
    values = {"boundaries": [1, 2], "threshold": 0.3}
    assert run_with_config(tmp_path, values, "bootstrap", *common, "-o", str(tmp_path / "cfg")) == 0
    assert main(["bootstrap", *common, "--boundaries", "1,2", "--threshold", "0.3",
                 "-o", str(tmp_path / "flags")]) == 0
    assert (tmp_path / "cfg/records.csv").read_bytes() == (tmp_path / "flags/records.csv").read_bytes()
    # a flag beats the config file's list; the config's other values still apply
    assert run_with_config(tmp_path, values, "bootstrap", *common, "--boundaries", "500,5000",
                           "-o", str(tmp_path / "flag_wins")) == 0
    assert main(["bootstrap", *common, "--boundaries", "500,5000", "--threshold", "0.3",
                 "-o", str(tmp_path / "flags_only")]) == 0
    assert (tmp_path / "flag_wins/records.csv").read_bytes() == (tmp_path / "flags_only/records.csv").read_bytes()
    assert (tmp_path / "flag_wins/records.csv").read_bytes() != (tmp_path / "cfg/records.csv").read_bytes()


def test_transfer_is_cross_scenario_only(corpus_dir, tmp_path):
    assert main(["bootstrap", "--data", str(corpus_dir), "--transfer", "watanabe",
                 "-o", str(tmp_path / "b")]) == 1
    assert main(["cross-version", "--data", str(corpus_dir), "--model", "gnb", "--transfer", "watanabe",
                 "--min-instances", "50", "-o", str(tmp_path / "cv")]) == 0
    assert (tmp_path / "cv/records.csv").exists()


def test_config_applies_with_abbreviated_top_level_flags(corpus_dir, tmp_path):
    common = ["bootstrap", "--data", str(corpus_dir), "--model", "gnb"]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"samples": 1, "verbose": True}))
    assert main(["--conf", str(config), *common, "-o", str(tmp_path / "abbrev")]) == 0
    assert main(["--verb", f"--config={config}", *common, "-o", str(tmp_path / "verb")]) == 0
    assert main([*common, "--samples", "1", "-o", str(tmp_path / "flags")]) == 0
    expected = (tmp_path / "flags/records.csv").read_bytes()
    assert (tmp_path / "abbrev/records.csv").read_bytes() == expected
    assert (tmp_path / "verb/records.csv").read_bytes() == expected


def test_config_verbose_key_is_type_checked(corpus_dir, tmp_path, capsys):
    argv = ["validate", "--data", str(corpus_dir)]
    assert run_with_config(tmp_path, {"verbose": "yes"}, *argv) == 1
    assert "'verbose'" in capsys.readouterr().err


def test_sensitivity_blames_the_record_set_without_usable_diff(corpus_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["bootstrap", "--data", str(corpus_dir), "--samples", "1", "--model", "gnb",
                 "-o", str(run_dir)]) == 0
    good = run_dir / "records.jsonl"
    nan_diff = tmp_path / "nan.jsonl"
    lines = [json.loads(line) for line in good.read_text().splitlines()]
    for line in lines:
        line["bounds"]["diff"] = "nan"
    nan_diff.write_text("".join(json.dumps(line) + "\n" for line in lines))
    argv = ["sensitivity", "--trees", "3", "-o", str(tmp_path / "s")]
    assert main([*argv, "--records", str(nan_diff), "--eval-records", str(good)]) == 2
    err = capsys.readouterr().err
    assert "no training records" in err and str(nan_diff) in err
    assert main([*argv, "--records", str(good), "--eval-records", str(nan_diff)]) == 2
    err = capsys.readouterr().err
    assert "no evaluation records" in err and str(nan_diff) in err
