"""Seeded random byte mutations of record files and of a prediction CSV:
``read_records`` returns records or raises a DataError naming the file, and
the ``metrics`` command ends with exit 0 or 2; no other exception escapes."""

import math
from pathlib import Path

import numpy as np
import pytest

from defectcost.cli import main
from defectcost.dataset import DataError, write_release
from defectcost.experiments import read_records, write_records_csv, write_records_jsonl
from defectcost.synth import SynthSpec, generate_synthetic

from conftest import make_record
from test_load_mutations import mutate


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    spec = SynthSpec(n_projects=1, releases_per_project=1, artifacts_range=(30, 30), n_features=3)
    release = generate_synthetic(spec, 5)[0]
    write_release(release, root / "release")
    scores = np.round(np.random.default_rng(0).random(release.n_artifacts), 3)
    lines = ["artifact_id,score"] + [f"{aid},{score!r}" for aid, score in zip(release.artifact_ids, scores.tolist())]
    (root / "pred.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    records = [
        make_record(),
        make_record(diff=math.inf, lower=math.nan, upper=math.inf, sample=1, auc=math.nan),
        make_record(diff=-math.inf, lower=math.inf, upper=2.5, release="r'2", preprocessing="oversampled"),
    ]
    write_records_csv(records, root / "records.csv")
    write_records_jsonl(records, root / "records.jsonl")
    return root


def mutated(inputs: Path, name: str, tmp_path: Path, seed: int, count: int = 50):
    """``count`` copies of ``inputs / name``, each with one seeded byte mutation."""
    rng = np.random.default_rng(seed)
    data = (inputs / name).read_bytes()
    for i in range(count):
        path = tmp_path / str(i) / name
        path.parent.mkdir()
        path.write_bytes(mutate(data, rng))
        yield path


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", ["records.csv", "records.jsonl"])
def test_mutated_records_read_or_name_the_file(inputs, tmp_path, name, seed):
    outcomes = {"read": 0, "rejected": 0}
    for path in mutated(inputs, name, tmp_path, seed):
        try:
            read_records(path)
        except DataError as exc:
            assert Path(exc.path) == path, exc
            outcomes["rejected"] += 1
        else:
            outcomes["read"] += 1
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("seed", range(2))
def test_mutated_prediction_csv_ends_in_exit_0_or_2(inputs, tmp_path, capsys, seed):
    codes = []
    for path in mutated(inputs, "pred.csv", tmp_path, seed):
        argv = ["metrics", "--release", str(inputs / "release"), "--pred", str(path), "-o", str(path.parent / "out")]
        codes.append(main(argv))
    capsys.readouterr()
    assert set(codes) == {0, 2}, codes
