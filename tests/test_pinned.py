"""Byte-identity pins for configurations that no other test or benchmark digests.

The sha256 values were recorded before the scenarios shared one
oversample -> fit -> record path, so any change to records, RNG streams or
tuned parameters shows here. Each case runs on a tiny seeded synth corpus with
few trees and a small DE budget.
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
)
from defectcost.analysis import fit_relationship_models
from defectcost.experiments import BootstrapConfig
from defectcost.learners import ForestParams

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
    result = run_bootstrap(kept[:1], 1, 3, config=config)
    assert records_digest(result.records, tmp_path) == (
        2, "36d5fd87e0bf6a433cc40e2799ceeaeeed13a08740fa288421e8ca81cb6b15fe")


def test_cross_version_smote(releases, tmp_path):
    result = run_cross_version(releases, SMALL_FOREST, 4, config=EvalConfig(oversample="smote", **FILTER))
    assert records_digest(result.records, tmp_path) == (
        4, "436bb11fa032c64ebd1d00c05b209fb22334599130294d5a986d134f30f1171b")


def test_cross_project_watanabe_smote_tuned(releases, tmp_path):
    config = EvalConfig(transfer="watanabe", oversample="smote_tuned", **FILTER)
    result = run_cross_project(releases, GaussianNBModel(), 6, config=config)
    assert records_digest(result.records, tmp_path) == (
        3, "6e26a7325ea1461c745a340a155b77f2b3bf62497b025eb2da015481ac4af8bd")


def test_forest_model_tuned(kept):
    view = kept[0].view()
    model = ForestModel(params=ForestParams(n_trees=5), tune=True, tune_population=4, tune_generations=2)
    fitted = model.fit(view.X, view.y, seed=8)
    assert tuned_digest(fitted.forest.params, fitted.predict_scores(kept[1].view().X)) == (
        "c40e7f4edf1c13726431d054bdff3138d0d496db3e2992b744edb9fbdbe3c99a")


def test_relationship_forest_tuned(kept):
    config = BootstrapConfig(n_samples=2, seed=9, model=GaussianNBModel())
    records = run_bootstrap(kept, 2, 9, config=config).records
    fit = fit_relationship_models(records, seed=2, forest_params=ForestParams(n_trees=5), tune_forest=True,
                                  tune_population=4, tune_generations=2,
                                  lambda_grid=(1.0, 10.0), alpha_grid=(0.5,))
    importances = fit.importances["forest"]
    assert tuned_digest(fit.models["forest"].forest.params, [importances[k] for k in sorted(importances)]) == (
        "25e1c0674d1cda70e28c175cd2d208c9155d010b950358dd88cfd9db7987a691")
