"""The cross-version and cross-project runners against a plain per-target
rebuild: labels from the Defect objects, the pool from
``cross_project_training_views``, one ``transfer_transform`` on the stacked
raw features, then the model and the record. Seeded synth corpora are edited
so that some defects have no fix time, some are fixed exactly at a later
release's instant, and some feature columns hold negative values."""

from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

from defectcost.dataset import Defect
from defectcost.experiments import (
    TRANSFER_KINDS,
    EvalConfig,
    GaussianNBModel,
    _PoolWorkspace,
    _cross_seeds,
    _ordered_by_time,
    _ordered_targets,
    _record,
    cross_project_training_views,
    run_cross_project,
    run_cross_version,
    transfer_side,
    transfer_transform,
)
from defectcost.extmath import column_medians
from defectcost.learners import apply_smote
from defectcost.metrics import Prediction
from defectcost.synth import SynthSpec, generate_synthetic


def edge_corpus(seed):
    spec = SynthSpec(n_projects=3, releases_per_project=5, artifacts_range=(30, 60),
                     defect_ratio_range=(0.08, 0.25), n_features=3, signal=1.0,
                     release_gap_days=(60, 200))
    releases = generate_synthetic(spec, seed)
    rng = np.random.default_rng(seed)
    instants = sorted({r.released_at for r in releases})
    out = []
    for i, r in enumerate(releases):
        later = [t for t in instants if t > r.released_at]
        defects = []
        for d in r.defects:
            u = rng.random()
            if u < 0.2:
                fixed_at = None
            elif u < 0.5 and later:
                fixed_at = later[int(rng.integers(len(later)))]  # exactly a later release's instant
            else:
                fixed_at = d.fixed_at
            defects.append(Defect(d.id, d.artifacts, fixed_at))
        X = r.X
        if i % 3 == 0:  # a column with negative values
            X = [(x[0] - 3.5, *x[1:]) for x in r.X.tolist()]
        out.append(replace(r, X=X, defects=tuple(defects)))
    return out


def plain_training_set(release, as_of, config):
    """Features and leakage-cleaned labels of ``release`` from its Defect
    objects, or None when it fails the size/defect filter of ``config``."""
    kept = [d for d in release.defects if d.fixed_at is not None and d.fixed_at < as_of]
    defective = set().union(*(d.artifacts for d in kept))
    count = len(defective) if config.count_mode == "defective_files" else len(kept)
    if release.n_artifacts < config.min_instances or count < config.min_defects:
        return None
    X = np.array(release.X.tolist(), dtype=np.float64)
    y = np.array([aid in defective for aid in release.artifact_ids], dtype=np.int64)
    return X, y


def reference_record(config, scenario, seed, idx, target, train_X, train_y):
    model_seed, smote_seed, _ = (int(v) for v in _cross_seeds(seed, scenario, idx))
    test_view = target.view()
    X, y = transfer_transform(config.transfer, train_X, test_view.X), train_y
    test_X = transfer_side(config.transfer, test_view.X).X
    if config.oversample == "smote":
        X, y = apply_smote(X, y, seed=smote_seed)
    if y.min() == y.max():
        scores = np.full(test_view.n, float(y[0]))
    else:
        scores = config.model.fit(X, y, seed=model_seed).predict_proba(test_X)[:, 1]
    return _record(
        Prediction(test_view, scores, config.threshold), train_y, y,
        effort_mode=config.effort_mode, boundaries=config.boundaries,
        scenario=scenario, sample=0,
        preprocessing="plain" if config.oversample == "off" else "oversampled", seed=model_seed,
    )


def reference_cross_version(releases, config, seed):
    records, notices, idx = [], [], 0
    for project in sorted({r.project for r in releases}):
        ordered = _ordered_by_time([r for r in releases if r.project == project])
        for i, target in enumerate(ordered):
            idx += 1
            found = None
            for candidate in reversed(ordered[:i]):
                found = plain_training_set(candidate, target.released_at, config)
                if found is not None:
                    break
            if found is None:
                notices.append(f"cross_version: no eligible prior release for {target.key()}")
                continue
            records.append(reference_record(config, "cross_version", seed, idx, target, *found))
    return records, notices


def reference_cross_project(releases, config, seed):
    records, notices = [], []
    for idx, target in enumerate(sorted(releases, key=lambda r: (r.project, r.released_at, r.release_id))):
        pool = cross_project_training_views(releases, target, config)
        for release, view in pool:
            plain = plain_training_set(release, target.released_at, config)
            assert plain is not None and plain[1].tobytes() == view.y.tobytes()
        if not pool:
            notices.append(f"cross_project: empty training pool for {target.key()}")
            continue
        train_X = np.vstack([v.X for _, v in pool])
        train_y = np.concatenate([v.y for _, v in pool])
        records.append(reference_record(config, "cross_project", seed, idx, target, train_X, train_y))
    return records, notices


RUNNERS = {
    "cross_version": (run_cross_version, reference_cross_version),
    "cross_project": (run_cross_project, reference_cross_project),
}


def test_edge_corpus_has_the_edge_cases():
    releases = edge_corpus(0)
    instants = {r.released_at for r in releases}
    fixes = [d.fixed_at for r in releases for d in r.defects]
    assert any(f is None for f in fixes)
    assert any(f in instants for f in fixes)
    assert any(min(x) < 0 for r in releases for x in r.X.tolist())


@pytest.mark.parametrize("seed, min_instances", [(0, 40), (1, 40), (2, 35)])
def test_edge_corpus_pools_shrink_after_growing(seed, min_instances):
    """In the rebuild tests below, the runner's pool workspace is reused by a
    pool smaller than an earlier one, so it holds a stale tail, and some
    pools hold one release, whose side the runner shares across targets."""
    releases = edge_corpus(seed)
    config = EvalConfig(min_instances=min_instances, min_defects=3)
    sizes = [sum(v.n for _, v in cross_project_training_views(releases, t, config)) for t in _ordered_targets(releases)]
    sizes = [n for n in sizes if n]
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert any(len(cross_project_training_views(releases, t, config)) == 1 for t in releases)


@pytest.mark.parametrize("scenario", sorted(RUNNERS))
@pytest.mark.parametrize("transfer", TRANSFER_KINDS)
@pytest.mark.parametrize("count_mode", ["defective_files", "defects"])
@pytest.mark.parametrize("seed", [0, 1])
def test_runner_matches_plain_rebuild(scenario, transfer, count_mode, seed):
    releases = edge_corpus(seed)
    config = EvalConfig(model=GaussianNBModel(), transfer=transfer, min_instances=40,
                        min_defects=3, count_mode=count_mode)
    run, reference = RUNNERS[scenario]
    result = run(releases, replace(config, seed=seed + 5))
    records, notices = reference(releases, config, seed + 5)
    assert records, "the corpus should give records"
    assert result.notices == notices
    assert repr(result.records) == repr(records)


@pytest.mark.parametrize("scenario", sorted(RUNNERS))
def test_runner_matches_plain_rebuild_with_smote(scenario):
    releases = edge_corpus(2)
    config = EvalConfig(model=GaussianNBModel(), transfer="camargo_cruz", oversample="smote",
                        min_instances=35, min_defects=3)
    run, reference = RUNNERS[scenario]
    records, notices = reference(releases, config, 11)
    result = run(releases, replace(config, seed=11))
    assert records and result.notices == notices
    assert repr(result.records) == repr(records)


def test_a_fix_at_the_target_instant_is_not_training_knowledge():
    releases = edge_corpus(0)
    target = max(releases, key=lambda r: r.released_at)
    at_target = replace(releases[0], defects=tuple(
        Defect(d.id, d.artifacts, target.released_at) for d in releases[0].defects))
    just_before = replace(releases[0], defects=tuple(
        Defect(d.id, d.artifacts, target.released_at - timedelta(microseconds=1)) for d in releases[0].defects))
    assert not at_target.view(as_of=target.released_at).y.any()
    assert just_before.view(as_of=target.released_at).y.sum() == releases[0].n_defective


def test_column_medians_match_numpy_median():
    rng = np.random.default_rng(3)
    for n in [0, 1, 2, 3, 4, 7, 8, 450, 451, 1000, 1001]:
        for k in [0, 1, 3]:
            X = np.log1p(np.maximum(rng.normal(2.0, 1.5, size=(n, k)), 0.0))
            if n > 3:
                X[rng.integers(0, n, size=n // 2)] = X[0]  # ties
            for _ in range(2):
                want = np.median(X, axis=0) if n else np.full(k, np.nan)
                got = column_medians(X)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                if n and k:
                    X[int(rng.integers(n)), int(rng.integers(k))] = np.nan
    X = rng.normal(size=(9, 2))
    before = X.copy()
    column_medians(X)
    assert X.tobytes() == before.tobytes()


@pytest.mark.parametrize("transfer", TRANSFER_KINDS)
def test_cross_project_runs_share_no_state(transfer):
    releases = edge_corpus(1)
    config = EvalConfig(model=GaussianNBModel(), transfer=transfer, min_instances=40, min_defects=3, seed=4)
    first = run_cross_project(releases, config)
    assert first.records
    assert repr(run_cross_project(releases, config).records) == repr(first.records)


def test_pool_workspace_grows_only_for_a_larger_pool():
    rng = np.random.default_rng(0)
    sides = [transfer_side("camargo_cruz", rng.normal(size=(n, 3))) for n in (5, 7, 4)]
    labels = [rng.integers(0, 2, size=len(s.X)) for s in sides]
    workspace = _PoolWorkspace()
    big, big_columns, big_y = workspace.pool(sides[:2], labels[:2])
    assert big.X.tobytes() == np.vstack([s.X for s in sides[:2]]).tobytes()
    assert big_y.tobytes() == np.concatenate(labels[:2]).tobytes()
    assert big_columns.shape == (3, 12) and big_columns.flags.c_contiguous
    small, small_columns, small_y = workspace.pool(sides[2:], labels[2:])
    assert small.X.tobytes() == sides[2].X.tobytes() and small_y.tobytes() == labels[2].tobytes()
    assert small_columns.shape == (3, 4)
    for reused, earlier in ((small.X, big.X), (small_columns, big_columns), (small_y, big_y)):
        assert np.shares_memory(reused, earlier)


def test_pool_workspace_moves_a_one_release_pool_off_the_shared_side():
    side = transfer_side("camargo_cruz", np.random.default_rng(1).normal(2.0, 1.0, size=(9, 3)))
    target = transfer_side("camargo_cruz", np.random.default_rng(2).normal(5.0, 1.0, size=(6, 3)))
    before = side.X.copy()
    pool, columns, _ = _PoolWorkspace().pool([side], [np.zeros(9, dtype=np.int64)])
    moved = transfer_transform("camargo_cruz", pool, target, out=pool.X, scratch=columns)
    assert moved is pool.X and not np.shares_memory(pool.X, side.X)
    assert side.X.tobytes() == before.tobytes()
    assert moved.tobytes() == transfer_transform("camargo_cruz", side, target).tobytes()
