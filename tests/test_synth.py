import numpy as np
import pytest

from defectcost.learners import train_gaussian_nb
from defectcost.metrics import auc
from defectcost.synth import SynthSpec, generate_synthetic

from conftest import defective_ids, release_fields


def test_generator_contract():
    spec = SynthSpec(n_projects=10, releases_per_project=5, artifacts_range=(180, 220),
                     defect_ratio_range=(0.05, 0.15))
    releases = generate_synthetic(spec, seed=3)
    assert len(releases) == 50
    for r in releases:
        assert 180 <= r.n_artifacts <= 220
        assert r.n_defective >= 1
        # construction validates invariants; spot-check the derived partition
        assert defective_ids(r) <= set(r.artifact_ids)
        for d in r.defects:
            assert 1 <= len(d.artifacts) <= 3
            assert d.fixed_at is not None and d.fixed_at > r.released_at


def test_deterministic_per_seed():
    spec = SynthSpec(n_projects=2, releases_per_project=2, artifacts_range=(50, 80))
    def corpus(seed):
        return [release_fields(r) for r in generate_synthetic(spec, seed)]

    assert corpus(9) == corpus(9)
    assert corpus(9) != corpus(10)


def test_invalid_spec():
    with pytest.raises(ValueError):
        SynthSpec(defect_ratio_range=(0.5, 0.1)).validate()
    with pytest.raises(ValueError):
        SynthSpec(artifacts_range=(10, 5)).validate()
    with pytest.raises(ValueError):
        SynthSpec(n_projects=0).validate()


def test_zero_signal_gives_chance_auc():
    # statistical check over >=30 releases: a model trained on half of a
    # signal-free release scores chance-level AUC on the other half
    spec = SynthSpec(n_projects=6, releases_per_project=5, artifacts_range=(150, 200),
                     defect_ratio_range=(0.2, 0.3), signal=0.0, n_features=4)
    releases = generate_synthetic(spec, seed=11)
    assert len(releases) >= 30
    aucs = []
    for r in releases:
        view = r.view()
        half = view.n // 2
        if len(set(view.y[:half].tolist())) < 2 or len(set(view.y[half:].tolist())) < 2:
            continue
        model = train_gaussian_nb(view.X[:half], view.y[:half])
        scores = model.predict_proba(view.X[half:])[:, 1]
        aucs.append(auc(view.y[half:], scores))
    assert len(aucs) >= 30
    assert abs(np.mean(aucs) - 0.5) < 0.05


def test_strong_signal_gives_high_auc():
    spec = SynthSpec(n_projects=2, releases_per_project=3, artifacts_range=(150, 200),
                     defect_ratio_range=(0.2, 0.3), signal=3.0, n_features=4)
    aucs = []
    for r in generate_synthetic(spec, seed=12):
        view = r.view()
        half = view.n // 2
        model = train_gaussian_nb(view.X[:half], view.y[:half])
        aucs.append(auc(view.y[half:], model.predict_proba(view.X[half:])[:, 1]))
    assert np.mean(aucs) > 0.9


def test_lognormal_sizes_concentrate_volume():
    # top 1% of artifacts should hold a disproportionate share of total size
    spec = SynthSpec(n_projects=5, releases_per_project=2, artifacts_range=(200, 250),
                     size_log_mean=4.0, size_log_sigma=1.0)
    sizes = np.concatenate(
        [r.sizes.tolist() for r in generate_synthetic(spec, seed=2)]
    )
    top = np.sort(sizes)[::-1][: int(np.ceil(0.01 * len(sizes)))]
    assert top.sum() / sizes.sum() > 0.05
