"""Rejection of malformed prediction CSVs and corpora, with file and line."""

import shutil

import pytest

from defectcost.cli import EXIT_DATA, main
from defectcost.dataset import DataError, load_corpus, load_release_dir, write_release

from conftest import make_release


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
