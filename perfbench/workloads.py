"""Workloads of the defectcost benchmark and the checks on their outputs.

Each workload says which CLI commands build its inputs (setup), which
commands make up one timed operation, and how to check that operation's
outputs. The reasons for each workload, and which layers it stresses, are in
README.md next to this file.

All inputs are made by ``defectcost synth`` and the CLI itself, from the
benchmark's ``--seed``. Artifact counts and defect ratios are pinned where a
range would let the amount of work drift with the seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# ``analyze`` writes these 11 files; the 9 .json files must be strict JSON
REPORT_FILES = (
    "records.csv",
    "correlations.csv",
    "confusion_logit.json",
    "confusion_tree.json",
    "confusion_forest.json",
    "importances_logit.json",
    "importances_tree.json",
    "importances_forest.json",
    "verdicts.json",
    "distribution.json",
    "sensitivity.json",
)


class CheckError(Exception):
    """An output of the program is missing or wrong."""


def _strict_constant(token):
    raise CheckError(f"non-standard JSON constant {token}")


def read_strict_json(path: Path):
    try:
        return json.loads(path.read_text(), parse_constant=_strict_constant)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open() as fh:
        return sum(1 for line in fh if line.strip())


def check_record_rows(path: Path) -> int:
    """Rows of a records.csv; each must satisfy diff == upper - lower (on the
    extended reals) and potential == classify_potential(diff)."""
    # imported on use: run.py puts the checkout's src/ on the path first
    from defectcost.costmodel import classify_potential
    from defectcost.extmath import ext_sub

    rows = 0
    try:
        with path.open(newline="") as fh:
            for rows, row in enumerate(csv.DictReader(fh), start=1):
                lower, upper, diff = (float(row[key]) for key in ("lower", "upper", "diff"))
                want = ext_sub(upper, lower)
                if not (want == diff or (math.isnan(want) and math.isnan(diff))):
                    raise CheckError(f"{path.name} row {rows}: diff {diff!r} != upper - lower {want!r}")
                if row["potential"] != classify_potential(diff).label:
                    raise CheckError(f"{path.name} row {rows}: potential {row['potential']!r} "
                                     f"does not match diff {diff!r}")
    except (OSError, KeyError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc
    return rows


def check_records(directory: Path, expected: int) -> int:
    """records.csv and records.jsonl hold ``expected`` records each; returns the count."""
    rows = check_record_rows(directory / "records.csv")
    lines = count_lines(directory / "records.jsonl")
    if rows != lines:
        raise CheckError(f"records.csv holds {rows} records, records.jsonl {lines}")
    if rows != expected:
        raise CheckError(f"{rows} records written, {expected} expected")
    return rows


def _synth(seed: int, projects: int, releases: int, artifacts: str, ratio: str, out: Path) -> list[str]:
    return ["synth", "--seed", str(seed), "--projects", str(projects), "--releases", str(releases),
            "--artifacts", artifacts, "--defect-ratio", ratio, "-o", str(out)]


class BootstrapForest:
    """The paper's main experiment: forest plus SMOTE variant per bootstrap sample."""

    name = "bootstrap_forest"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        # 200 artifacts and a 10% defect ratio are the centres of the synth defaults
        self.projects, self.releases, self.artifacts, self.trees = (1, 1, 100, 5) if smoke else (2, 2, 200, 100)
        self.samples = 1

    def setup(self, inputs: Path) -> list[list[str]]:
        size = f"{self.artifacts},{self.artifacts}"
        return [_synth(self.seed, self.projects, self.releases, size, "0.1,0.1", inputs / "corpus")]

    def check_inputs(self, inputs: Path) -> None:
        pass

    def op(self, inputs: Path, out: Path) -> list[list[str]]:
        return [["bootstrap", "--data", str(inputs / "corpus"), "--seed", str(self.seed),
                 "--samples", str(self.samples), "--trees", str(self.trees), "--jobs", "1", "-o", str(out)]]

    def check(self, inputs: Path, out: Path) -> tuple[int, list[Path]]:
        drawn = self.projects * self.releases * self.samples - count_lines(out / "notices.txt")
        records = check_records(out, drawn * 2)  # plain and oversampled variant
        return records, [out / "records.csv", out / "records.jsonl"]


class CrossProjectGnb:
    """Strict cross-project prediction with GNB: dataset views dominate, no forest."""

    name = "cross_project_gnb"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.projects, self.releases, self.artifacts = (3, 2, "100,120") if smoke else (12, 8, "450,450")

    def setup(self, inputs: Path) -> list[list[str]]:
        return [_synth(self.seed, self.projects, self.releases, self.artifacts, "0.1,0.1", inputs / "corpus")]

    def check_inputs(self, inputs: Path) -> None:
        pass

    def op(self, inputs: Path, out: Path) -> list[list[str]]:
        return [["cross-project", "--data", str(inputs / "corpus"), "--model", "gnb",
                 "--transfer", "camargo_cruz", "--seed", str(self.seed), "-o", str(out)]]

    def check(self, inputs: Path, out: Path) -> tuple[int, list[Path]]:
        targets = self.projects * self.releases
        records = check_records(out, targets - count_lines(out / "notices.txt"))
        return records, [out / "records.csv", out / "records.jsonl"]


class Report:
    """Relationship models and sensitivity analysis over record files.

    The record files are made once from a fixed corpus seed: the logit grid's
    gradient-step count is erratic in the records (13k to 50k steps for the
    same record count, from one synth seed to the next), so records that
    changed with ``--seed`` would make the timing follow the seed rather than
    the code. ``--seed`` still seeds the relationship models' trees and forests.
    """

    name = "report"
    RECORDS_SEED = 0

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.projects, self.releases, self.samples, self.trees = (4, 2, 1, 5) if smoke else (8, 4, 1, 20)

    def setup(self, inputs: Path) -> list[list[str]]:
        corpus = inputs / "corpus"
        return [
            _synth(self.RECORDS_SEED, self.projects, self.releases, "150,250", "0.05,0.15", corpus),
            ["bootstrap", "--data", str(corpus), "--model", "gnb", "--samples", str(self.samples),
             "--jobs", "1", "--seed", str(self.RECORDS_SEED), "-o", str(inputs / "bootstrap")],
            ["cross-version", "--data", str(corpus), "--model", "gnb", "--seed", str(self.RECORDS_SEED),
             "-o", str(inputs / "cross_version")],
        ]

    def check_inputs(self, inputs: Path) -> None:
        releases = self.projects * self.releases
        boot = inputs / "bootstrap"
        check_records(boot, (releases * self.samples - count_lines(boot / "notices.txt")) * 2)
        cross = inputs / "cross_version"
        check_records(cross, releases - count_lines(cross / "notices.txt"))

    def op(self, inputs: Path, out: Path) -> list[list[str]]:
        records = str(inputs / "bootstrap" / "records.csv")
        common = ["--seed", str(self.seed), "--trees", str(self.trees)]
        return [
            ["analyze", "--records", records, *common, "-o", str(out / "bundle")],
            ["sensitivity", "--records", records, "--eval-records",
             str(inputs / "cross_version" / "records.csv"), *common, "-o", str(out / "sensitivity")],
        ]

    def check(self, inputs: Path, out: Path) -> tuple[int, list[Path]]:
        bundle = out / "bundle"
        missing = [name for name in REPORT_FILES if not (bundle / name).is_file()]
        if missing:
            raise CheckError(f"report bundle lacks {missing}")
        expected = count_lines(inputs / "bootstrap" / "records.jsonl")
        records = check_record_rows(bundle / "records.csv")
        if records != expected:
            raise CheckError(f"bundle records.csv holds {records} records, the input {expected}")
        payloads = {name: read_strict_json(bundle / name) for name in REPORT_FILES if name.endswith(".json")}
        sensitivity = read_strict_json(out / "sensitivity" / "sensitivity.json")
        matrices = [payloads[f"confusion_{m}.json"]["confusion"]["matrix"] for m in ("logit", "tree", "forest")]
        for payload in (payloads["sensitivity.json"], sensitivity):
            matrices += [shift["confusion"]["matrix"] for shift in payload["shifts"]]
        totals = {sum(map(sum, matrix)) for matrix in matrices}
        if totals != {records}:
            raise CheckError(f"confusion matrix totals {sorted(totals)} != {records} records")
        if sensitivity["regression"]["n_eval"] < 1:
            raise CheckError("sensitivity regression evaluated no records")
        files = [bundle / name for name in REPORT_FILES] + [out / "sensitivity" / "sensitivity.json"]
        return records, files


WORKLOADS = {w.name: w for w in (BootstrapForest, CrossProjectGnb, Report)}
