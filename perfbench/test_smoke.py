"""Tests of the benchmark itself: every workload at smoke size, traced and untraced.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_smoke.py``.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
from workloads import CheckError, check_record_rows  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    info = json.loads(info_line.removeprefix("info "))
    assert len(info["records_sha256"]) == 64
    assert info["src_lines"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "report", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def write_rows(path: Path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lower", "upper", "diff", "potential"])
        writer.writerows(rows)


@pytest.mark.parametrize("row, ok", [
    (["10", "2010", "2000", "large"], True),
    (["inf", "inf", "nan", "none"], True),
    (["5", "inf", "inf", "extra_large"], True),
    (["10", "2010", "2001", "large"], False),  # diff is not upper - lower
    (["10", "2010", "2000", "medium"], False),  # potential does not match diff
])
def test_record_row_check(tmp_path, row, ok):
    path = tmp_path / "records.csv"
    write_rows(path, [row])
    if ok:
        assert check_record_rows(path) == 1
    else:
        with pytest.raises(CheckError):
            check_record_rows(path)
