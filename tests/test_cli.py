import csv
import json

import pytest

from defectcost.cli import main
from defectcost.dataset import load_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main([
        "synth", "--seed", "7", "--projects", "2", "--releases", "2",
        "--artifacts", "100,120", "--features", "4", "--signal", "1.5",
        "-o", str(out),
    ])
    assert rc == 0
    return out


def test_synth_writes_valid_corpus(corpus_dir):
    releases = load_corpus(corpus_dir)
    assert len(releases) == 4
    assert all(r.n_artifacts >= 100 for r in releases)


def test_validate(corpus_dir, capsys):
    assert main(["validate", "--data", str(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "total releases: 4" in out


def test_metrics_subcommand(corpus_dir, tmp_path, capsys):
    release_dir = sorted(p.parent for p in corpus_dir.rglob("meta.json"))[0]
    release = load_corpus(release_dir)[0]
    pred_path = tmp_path / "preds.csv"
    with pred_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["artifact_id", "score"])
        for aid in release.artifact_ids:
            writer.writerow([aid, 0.9 if aid in release.defective_ids else 0.1])
    out = tmp_path / "out"
    rc = main(["metrics", "--release", str(release_dir), "--pred", str(pred_path), "-o", str(out)])
    assert rc == 0
    rows = list(csv.DictReader((out / "records.csv").open()))
    assert len(rows) == 1
    assert rows[0]["scenario"] == "external"
    assert float(rows[0]["recall"]) == 1.0


def test_bootstrap_deterministic_output(corpus_dir, tmp_path):
    args = ["bootstrap", "--data", str(corpus_dir), "--samples", "2", "--seed", "1",
            "--model", "gnb"]
    assert main(args + ["-o", str(tmp_path / "a")]) == 0
    assert main(args + ["-o", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/records.csv").read_bytes() == (tmp_path / "b/records.csv").read_bytes()
    assert (tmp_path / "a/records.jsonl").read_bytes() == (tmp_path / "b/records.jsonl").read_bytes()
    rows = list(csv.DictReader((tmp_path / "a/records.csv").open()))
    assert len(rows) == 2 * 2 * 4


def test_analyze_bundle(corpus_dir, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["bootstrap", "--data", str(corpus_dir), "--samples", "3", "--seed", "5",
                 "--model", "gnb", "-o", str(run_dir)]) == 0
    report = tmp_path / "report"
    rc = main(["analyze", "--records", str(run_dir / "records.csv"), "--trees", "10",
               "-o", str(report)])
    assert rc == 0
    for name in ("records.csv", "correlations.csv", "distribution.json",
                 "sensitivity.json", "verdicts.json"):
        assert (report / name).exists()


def test_sensitivity_subcommand(corpus_dir, tmp_path):
    run_dir = tmp_path / "run"
    main(["bootstrap", "--data", str(corpus_dir), "--samples", "3", "--seed", "5",
          "--model", "gnb", "-o", str(run_dir)])
    out = tmp_path / "sens"
    rc = main(["sensitivity", "--records", str(run_dir / "records.csv"),
               "--eval-records", str(run_dir / "records.jsonl"),
               "--trees", "10", "-o", str(out)])
    assert rc == 0
    payload = json.loads((out / "sensitivity.json").read_text())
    assert "shifts" in payload and "regression" in payload


def test_cross_version_subcommand(corpus_dir, tmp_path):
    out = tmp_path / "cv"
    rc = main(["cross-version", "--data", str(corpus_dir), "--seed", "2",
               "--model", "gnb", "-o", str(out)])
    assert rc == 0
    assert (out / "records.csv").exists()


def test_reused_out_dir_drops_stale_notices(corpus_dir, tmp_path):
    out = tmp_path / "o"
    assert main(["cross-version", "--data", str(corpus_dir), "--model", "gnb", "-o", str(out)]) == 0
    assert len((out / "notices.txt").read_text().splitlines()) == 2
    assert main(["bootstrap", "--data", str(corpus_dir), "--samples", "1", "--model", "gnb", "-o", str(out)]) == 0
    assert len(list(csv.DictReader((out / "records.csv").open()))) == 8
    assert not (out / "notices.txt").exists()


def test_cross_project_subcommand(corpus_dir, tmp_path):
    out = tmp_path / "cp"
    rc = main(["cross-project", "--data", str(corpus_dir), "--seed", "2",
               "--model", "gnb", "-o", str(out)])
    assert rc == 0
    assert (out / "records.csv").exists()


def test_usage_error_exit_code(tmp_path):
    assert main(["bootstrap", "--bogus-flag"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["bootstrap", "--samples", "2", "-o", str(tmp_path)]) == 1  # missing --data


def test_data_error_exit_code(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["validate", "--data", str(empty)]) == 2
    assert main(["bootstrap", "--data", str(empty), "--samples", "1", "-o", str(tmp_path / "o")]) == 2


def test_incomplete_prediction_is_data_error(corpus_dir, tmp_path):
    release_dir = sorted(p.parent for p in corpus_dir.rglob("meta.json"))[0]
    pred_path = tmp_path / "partial.csv"
    pred_path.write_text("artifact_id,score\nf0000,0.9\n")
    rc = main(["metrics", "--release", str(release_dir), "--pred", str(pred_path),
               "-o", str(tmp_path / "out")])
    assert rc == 2


def test_malformed_records_is_data_error(tmp_path):
    bad = tmp_path / "records.csv"
    bad.write_text("scenario,project\nbootstrap,p\n")
    assert main(["analyze", "--records", str(bad), "-o", str(tmp_path / "r")]) == 2
    assert main(["sensitivity", "--records", str(bad), "-o", str(tmp_path / "s")]) == 2


def test_boundaries_flag(corpus_dir, tmp_path):
    rc = main(["bootstrap", "--data", str(corpus_dir), "--samples", "1", "--seed", "3",
               "--model", "gnb", "--boundaries", "500,5000", "-o", str(tmp_path / "b")])
    assert rc == 0
    assert main(["bootstrap", "--data", str(corpus_dir), "--samples", "1",
                 "--boundaries", "10,5", "-o", str(tmp_path / "c")]) == 1


def test_config_file_precedence(corpus_dir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"samples": 1, "model": "gnb", "seed": 4}))
    out = tmp_path / "cfgout"
    rc = main(["--config", str(config), "bootstrap", "--data", str(corpus_dir),
               "--seed", "9", "-o", str(out)])
    assert rc == 0
    rows = list(csv.DictReader((out / "records.csv").open()))
    assert len(rows) == 2 * 1 * 4  # samples=1 from config
    # --seed 9 on the command line beats seed=4 from the config
    out2 = tmp_path / "cfgout2"
    main(["bootstrap", "--data", str(corpus_dir), "--samples", "1", "--seed", "9",
          "--model", "gnb", "-o", str(out2)])
    assert (out / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
