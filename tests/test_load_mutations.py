"""Seeded random byte mutations of one release's three files: each mutated
release either loads or raises a DataError whose message names the mutated
file; no other exception escapes the loader."""

import shutil

import numpy as np
import pytest

from defectcost.dataset import DataError, load_release_dir, write_release
from defectcost.synth import SynthSpec, generate_synthetic

from conftest import defective_ids

FILES = ("metrics.csv", "defects.json", "meta.json")


def mutate(data: bytes, rng) -> bytes:
    """Replace, insert or delete one byte at a random position. The new byte
    is random one time in four, else one of the file's own, so that digits,
    quotes and separators move as often as bytes that are not UTF-8."""
    pos = int(rng.integers(0, len(data) + 1))
    byte = bytes([int(rng.integers(0, 256)) if rng.random() < 0.25 else data[int(rng.integers(0, len(data)))]])
    op = rng.integers(0, 3)
    if op == 0 and pos < len(data):
        return data[:pos] + byte + data[pos + 1:]
    if op == 1 or pos == len(data):
        return data[:pos] + byte + data[pos:]
    return data[:pos] + data[pos + 1:]


@pytest.fixture(scope="module")
def fixture_release(tmp_path_factory):
    spec = SynthSpec(n_projects=1, releases_per_project=1, artifacts_range=(30, 30), n_features=3)
    return write_release(generate_synthetic(spec, 5)[0], tmp_path_factory.mktemp("fixture") / "release")


@pytest.mark.parametrize("seed", range(4))
def test_mutated_release_loads_or_names_the_file(fixture_release, tmp_path, seed):
    rng = np.random.default_rng(seed)
    outcomes = {"loaded": 0, "rejected": 0}
    for i in range(50):
        target = tmp_path / str(i)
        shutil.copytree(fixture_release, target)
        name = FILES[int(rng.integers(0, len(FILES)))]
        path = target / name
        path.write_bytes(mutate(path.read_bytes(), rng))
        try:
            load_release_dir(target)
        except DataError as exc:
            assert name in str(exc), f"mutation {i} of {name}: {exc}"
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_faults_between_files_name_the_edited_file(fixture_release, tmp_path):
    """Edits the random ones rarely hit: an id a defect needs renamed away,
    an id given to a second row, and a defect id given to a second defect."""
    release = load_release_dir(fixture_release)
    needed = min(release.defects[0].artifacts)
    other = next(aid for aid in release.artifact_ids if aid not in defective_ids(release))
    first, second = (d.id for d in release.defects[:2])
    edits = [
        ("metrics.csv", f"\n{needed},", "\nrenamed,", "unknown artifact id"),
        ("metrics.csv", f"\n{other},", f"\n{needed},", "duplicate artifact id"),
        ("defects.json", f'"id": "{second}"', f'"id": "{first}"', "duplicate defect id"),
    ]
    for i, (name, old, new, message) in enumerate(edits):
        target = shutil.copytree(fixture_release, tmp_path / str(i))
        text = (target / name).read_text()
        assert text.count(old) == 1
        (target / name).write_text(text.replace(old, new), newline="")
        with pytest.raises(DataError, match=message) as info:
            load_release_dir(target)
        assert name in str(info.value)
