"""Byte-identity pins for configurations that no other test or benchmark digests.

The first five sha256 values were recorded before the scenarios shared one
oversample -> fit -> record path, the next three (effort mode "files", a 0.3
threshold, the record files of ``defectcost metrics``) before metrics and cost
bounds were computed from arrays, and the last two (the output files of
``defectcost analyze`` and of ``defectcost sensitivity --eval-records``)
before records became flat rows, so any change to records, record files, RNG
streams or tuned parameters shows here. The ``analyze`` pin was recorded again
when the logit's stage 2 became a Newton fit with a separation rule; its
records are separated, so the bundle reports the winning stage-1 cell. Each
of these cases runs on a tiny seeded synth corpus with few trees and a small
DE budget. The node-table pins of two 100-tree forests at the bootstrap
benchmark's fit shape were recorded before the grower took its children's
class counts from the parent's cut and stopped partitioning splits whose
children both stop.
"""

import hashlib

import numpy as np
import pytest

from defectcost import (
    EvalConfig,
    ForestModel,
    GaussianNBModel,
    SynthSpec,
    filter_releases,
    generate_synthetic,
    run_bootstrap,
    run_cross_project,
    run_cross_version,
    write_records_csv,
    write_records_jsonl,
    write_release,
)
from defectcost.analysis import fit_relationship_models, records_matrix
from defectcost.cli import main
from defectcost.experiments import BootstrapConfig
from defectcost.learners import ForestParams, apply_smote, train_random_forest

SPEC = SynthSpec(n_projects=2, releases_per_project=3, artifacts_range=(30, 40),
                 defect_ratio_range=(0.15, 0.2), n_features=3, signal=1.5)
SMALL_FOREST = ForestModel(params=ForestParams(n_trees=5))
FILTER = dict(min_instances=25, min_defects=3)


@pytest.fixture(scope="module")
def releases():
    return generate_synthetic(SPEC, seed=5)


@pytest.fixture(scope="module")
def kept(releases):
    return filter_releases(releases, **FILTER)


def records_digest(records, tmp_path):
    h = hashlib.sha256()
    h.update(write_records_csv(records, tmp_path / "records.csv").read_bytes())
    h.update(write_records_jsonl(records, tmp_path / "records.jsonl").read_bytes())
    return len(records), h.hexdigest()


def tuned_digest(params, values):
    h = hashlib.sha256(repr(params).encode())
    h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_bootstrap_smote_tuned(kept, tmp_path):
    config = BootstrapConfig(n_samples=1, seed=3, model=SMALL_FOREST, oversample="smote_tuned")
    result = run_bootstrap(kept[:1], config=config)
    assert records_digest(result.records, tmp_path) == (
        2, "36d5fd87e0bf6a433cc40e2799ceeaeeed13a08740fa288421e8ca81cb6b15fe")


def test_cross_version_smote(releases, tmp_path):
    result = run_cross_version(releases, EvalConfig(model=SMALL_FOREST, seed=4, oversample="smote", **FILTER))
    assert records_digest(result.records, tmp_path) == (
        4, "436bb11fa032c64ebd1d00c05b209fb22334599130294d5a986d134f30f1171b")


def test_cross_project_watanabe_smote_tuned(releases, tmp_path):
    config = EvalConfig(model=GaussianNBModel(), seed=6, transfer="watanabe", oversample="smote_tuned", **FILTER)
    result = run_cross_project(releases, config)
    assert records_digest(result.records, tmp_path) == (
        3, "6e26a7325ea1461c745a340a155b77f2b3bf62497b025eb2da015481ac4af8bd")


def test_forest_model_tuned(kept):
    view = kept[0].view()
    model = ForestModel(params=ForestParams(n_trees=5), tune=True, tune_population=4, tune_generations=2)
    fitted = model.fit(view.X, view.y, seed=8)
    assert tuned_digest(fitted.params, fitted.predict_proba(kept[1].view().X)[:, 1]) == (
        "97a571daf21c75c14c569fe9c7549acfc246efa97c516943b4028de822c0be6f")


def test_relationship_forest_tuned(kept):
    config = BootstrapConfig(n_samples=2, seed=9, model=GaussianNBModel())
    records = run_bootstrap(kept, config=config).records
    fit = fit_relationship_models(records_matrix(records), seed=2, forest_params=ForestParams(n_trees=5),
                                  tune_forest=True, tune_population=4, tune_generations=2,
                                  lambda_grid=(1.0, 10.0), alpha_grid=(0.5,))
    importances = fit.importances["forest"]
    assert tuned_digest(fit.models["forest"].predictor.params, [importances[k] for k in sorted(importances)]) == (
        "3542547975bc75fd5e36b75fbbccbc2dd9a5a4f6f36222cc8e9ef67e4945019b")


def test_bootstrap_gnb_files_mode(kept, tmp_path):
    config = BootstrapConfig(n_samples=2, seed=12, model=GaussianNBModel(), effort_mode="files")
    result = run_bootstrap(kept, config=config)
    assert records_digest(result.records, tmp_path) == (
        24, "73b201c60bf27d5b7f74fb64a8fed936914973ba493307e78f32b56133355965")


def test_cross_version_threshold(releases, tmp_path):
    result = run_cross_version(releases, EvalConfig(model=SMALL_FOREST, seed=13, threshold=0.3, **FILTER))
    assert records_digest(result.records, tmp_path) == (
        4, "2a205df24c8396e93c25e3720339c5cc18f8b1b711c7dabc3f3a6de92ca9c0d2")


def test_metrics_command_records(releases, tmp_path):
    release = releases[0]
    release_dir = write_release(release, tmp_path / "release")
    rng = np.random.default_rng(14)
    pred = tmp_path / "pred.csv"
    pred.write_text("artifact_id,score\n" + "".join(
        f"{a},{float(s)!r}\n" for a, s in zip(release.artifact_ids, np.round(rng.random(release.n_artifacts), 2))))
    out = tmp_path / "out"
    assert main(["metrics", "--release", str(release_dir), "--pred", str(pred), "--threshold", "0.3",
                 "--effort-mode", "files", "-o", str(out)]) == 0
    digest = hashlib.sha256((out / "records.csv").read_bytes() + (out / "records.jsonl").read_bytes())
    assert digest.hexdigest() == "0ad4b6b2636c2f5b8cea93bea1d6085ca2557b6d1f3e717c986b071425253f20"


def files_digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def record_files(kept, tmp_path_factory):
    """A CSV training set and a JSONL evaluation set of bootstrap GNB records."""
    out = tmp_path_factory.mktemp("records")
    train = run_bootstrap(kept, config=BootstrapConfig(n_samples=3, seed=21, model=GaussianNBModel())).records
    held_out = BootstrapConfig(n_samples=2, seed=22, model=GaussianNBModel(), oversample="off")
    return (write_records_csv(train, out / "train.csv"),
            write_records_jsonl(run_bootstrap(kept, config=held_out).records, out / "eval.jsonl"))


def test_analyze_command_bundle(record_files, tmp_path):
    train, _ = record_files
    assert main(["analyze", "--records", str(train), "--trees", "5", "--seed", "1", "-o", str(tmp_path)]) == 0
    assert files_digest(tmp_path) == "9a8390797d2458b07d77d9e24dce3edf1a8edf02e7feaf855ee02b2916f4f31e"


def test_sensitivity_command_eval_records(record_files, tmp_path):
    train, held_out = record_files
    assert main(["sensitivity", "--records", str(train), "--eval-records", str(held_out), "--trees", "5",
                 "--seed", "1", "-o", str(tmp_path)]) == 0
    assert files_digest(tmp_path) == "2113828123d88a6747e0bccd5ce13568a94f5c67b808e4477dcd3b1518310f9a"


PINNED_TREES = {
    "plain": {"feature": "efcc07402728e6ce", "threshold": "3843773ffe1324fb", "left": "24de176b6efd79d7",
              "right": "275f4675d341a371", "value": "1c80c1254a1c290c", "n": "b1440b09ef25a280",
              "impurity": "5363a1eea769c3c6", "decrease": "75f1ae89a7129676", "roots": "a954427b88956ed5",
              "in_bag": "99cc9368a64aced6"},
    "smote": {"feature": "dda6e36d128d7f77", "threshold": "c235fd26e5eb9907", "left": "49a98d0b452aa710",
              "right": "c3867a157edecd68", "value": "293459d4f4d4fa8b", "n": "2a2d2afe29318ea3",
              "impurity": "c048f6eda24968fa", "decrease": "2c6fae71a1977420", "roots": "424db8957867667d",
              "in_bag": "8c7477e9c3cf64ac"},
}


def tree_digests(forest):
    """The first 16 hex digits of the sha256 of every column of a forest's node table, and of its bags."""
    columns = {name: getattr(forest.trees, name) for name in forest.trees.__dataclass_fields__}
    return {name: hashlib.sha256(np.ascontiguousarray(column).tobytes()).hexdigest()[:16]
            for name, column in {**columns, "in_bag": forest.in_bag}.items()}


@pytest.fixture(scope="module")
def benchmark_shaped_view():
    """One 200 × 8 release at a 10% defect ratio, the shape of the bootstrap benchmark's fits."""
    spec = SynthSpec(n_projects=1, releases_per_project=1, artifacts_range=(200, 200), defect_ratio_range=(0.1, 0.1))
    return generate_synthetic(spec, seed=702)[0].view()


@pytest.mark.parametrize("variant", ["plain", "smote"])
def test_forest_node_table_at_the_benchmark_shape(benchmark_shaped_view, variant):
    """Every column of a 100-tree forest on the benchmark's fit shape, plain and after SMOTE."""
    X, y = benchmark_shaped_view.X, benchmark_shaped_view.y
    if variant == "smote":
        X, y = apply_smote(X, y, seed=11)
    assert (len(X), y.mean()) == ((200, 0.1) if variant == "plain" else (360, 0.5))
    assert tree_digests(train_random_forest(X, y, ForestParams(), seed=31)) == PINNED_TREES[variant]
