import math
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from defectcost.dataset import Defect, Release
from defectcost.experiments import (
    BootstrapConfig,
    CROSS_PROJECT_GAP_DAYS,
    EvalConfig,
    ForestModel,
    GaussianNBModel,
    cross_project_training_views,
    evaluate_external_prediction,
    read_records,
    run_bootstrap,
    run_cross_project,
    run_cross_version,
    transfer_side,
    transfer_transform,
    write_records_csv,
    write_records_jsonl,
)
from defectcost.learners import ForestParams
from defectcost.metrics import Prediction
from defectcost.synth import SynthSpec, generate_synthetic

from conftest import T1_SCORES, make_record, make_release, view_defects


def dt(text):
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


def dated_release(project, release_id, released_at, n_artifacts=120, n_defective=8,
                  fix_days_after=5, late_fix_ids=()):
    """Release whose defects are fixed shortly after its own release date.

    ``late_fix_ids`` name artifacts whose defect is fixed two years later,
    for leakage fixtures.
    """
    released = dt(released_at)
    ids = tuple(f"f{i:03d}" for i in range(n_artifacts))
    sizes = [20 + i for i in range(n_artifacts)]
    X = [(float(i % 7), float(i % 3)) for i in range(n_artifacts)]
    defects = []
    for i in range(n_defective):
        aid = f"f{i:03d}"
        late = aid in late_fix_ids
        defects.append(
            Defect(
                id=f"d{i}",
                artifacts=frozenset({aid}),
                fixed_at=released + timedelta(days=730 if late else fix_days_after),
            )
        )
    return Release(project, release_id, released, ids, sizes, X, tuple(defects))


# --- bootstrap ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    spec = SynthSpec(n_projects=2, releases_per_project=1, artifacts_range=(100, 120),
                     defect_ratio_range=(0.1, 0.2), n_features=4, signal=1.5)
    return generate_synthetic(spec, seed=21)


def test_bootstrap_record_arithmetic(small_corpus):
    cfg = BootstrapConfig(n_samples=3, seed=2, model=GaussianNBModel())
    result = run_bootstrap(small_corpus, config=cfg)
    assert len(result.records) == 2 * 3 * len(small_corpus)
    assert not result.notices
    plain = [r for r in result.records if r.preprocessing == "plain"]
    over = [r for r in result.records if r.preprocessing == "oversampled"]
    assert len(plain) == len(over)
    for rec in over:
        assert abs(rec.bias_train_prime - 0.5) < 0.02


def test_bootstrap_oversample_off(small_corpus):
    cfg = BootstrapConfig(n_samples=2, seed=2, model=GaussianNBModel(), oversample="off")
    result = run_bootstrap(small_corpus, config=cfg)
    assert len(result.records) == 2 * len(small_corpus)
    assert {r.preprocessing for r in result.records} == {"plain"}


def test_one_class_training_scores_every_artifact_with_its_class(tmp_path):
    """Training labels of one class fit no model: both models score every test
    artifact with that class, so an all-defective release gives recall 1."""
    release = dated_release("p", "r1", "2020-01-01", n_artifacts=30, n_defective=30)
    written = []
    for i, model in enumerate((ForestModel(params=ForestParams(n_trees=5)), GaussianNBModel())):
        cfg = BootstrapConfig(n_samples=3, seed=1, model=model, oversample="off")
        records = run_bootstrap([release], config=cfg).records
        assert len(records) == 3 and all(r.recall == 1.0 for r in records)
        written.append(write_records_csv(records, tmp_path / f"{i}.csv").read_bytes())
    assert written[0] == written[1]


def test_bootstrap_bit_identical_reruns(small_corpus, tmp_path):
    cfg = BootstrapConfig(n_samples=2, seed=9, model=GaussianNBModel())
    a = run_bootstrap(small_corpus, config=cfg)
    b = run_bootstrap(small_corpus, config=cfg)
    pa = write_records_csv(a.records, tmp_path / "a.csv")
    pb = write_records_csv(b.records, tmp_path / "b.csv")
    assert pa.read_bytes() == pb.read_bytes()


def test_records_roundtrip(small_corpus, tmp_path):
    cfg = BootstrapConfig(n_samples=1, seed=4, model=GaussianNBModel())
    records = run_bootstrap(small_corpus, config=cfg).records
    csv_path = write_records_csv(records, tmp_path / "r.csv")
    jsonl_path = write_records_jsonl(records, tmp_path / "r.jsonl")
    from_csv = read_records(csv_path)
    from_jsonl = read_records(jsonl_path)
    assert from_csv == records
    assert from_jsonl == records


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_negative_zero_round_trips(tmp_path, suffix):
    record = make_record(recall=-0.0, bias_test=-0.0, lower=-0.0, diff=-0.0)
    path = (write_records_csv if suffix == ".csv" else write_records_jsonl)([record], tmp_path / f"r{suffix}")
    [back] = read_records(path)
    assert back == record
    for name in ("recall", "bias_test", "lower", "diff"):
        assert math.copysign(1.0, getattr(back, name)) == -1.0, name


def test_bootstrap_split_failure_recorded():
    # a single defective artifact makes the redraw rule unsatisfiable
    bad = make_release(
        sizes={f"f{i}": 10 for i in range(20)},
        defects={"d0": {"f0"}},
        project="bad", release_id="r0",
    )
    cfg = BootstrapConfig(n_samples=1, seed=0, model=GaussianNBModel())
    result = run_bootstrap([bad], config=cfg)
    assert result.records == []
    assert any("bad/r0" in n for n in result.notices)


def test_signal_free_data_mostly_none():
    spec = SynthSpec(n_projects=2, releases_per_project=2, artifacts_range=(100, 130),
                     defect_ratio_range=(0.05, 0.12), n_features=4, signal=0.0)
    releases = generate_synthetic(spec, seed=31)
    cfg = BootstrapConfig(
        n_samples=4, seed=3, model=ForestModel(params=ForestParams(n_trees=15))
    )
    result = run_bootstrap(releases, config=cfg)
    none_share = np.mean([r.potential.label == "none" for r in result.records])
    assert none_share > 0.5


def test_bootstrap_jobs_parallel_matches_serial(small_corpus):
    # an unsplittable release between the others gives notices to keep in order
    bad = make_release(sizes={f"f{i}": 10 for i in range(20)}, defects={"d0": {"f0"}},
                       project="bad", release_id="r0")
    releases = [small_corpus[0], bad, *small_corpus[1:]]
    cfg = BootstrapConfig(n_samples=2, seed=6, model=GaussianNBModel())
    serial = run_bootstrap(releases, config=cfg, jobs=1)
    parallel = run_bootstrap(releases, config=cfg, jobs=2)
    assert len(serial.notices) == 2 and serial.records
    assert serial.records == parallel.records
    assert serial.notices == parallel.notices


# --- cross-version -----------------------------------------------------------


def test_cross_version_picks_first_eligible_prior():
    releases = [
        dated_release("p", "r1", "2020-01-01", n_artifacts=99),   # too small
        dated_release("p", "r2", "2020-06-01", n_artifacts=120),
        dated_release("p", "r3", "2021-01-01", n_artifacts=110),
    ]
    result = run_cross_version(releases, EvalConfig(model=GaussianNBModel(), seed=1))
    targets = {(r.project, r.release): r for r in result.records}
    assert set(targets) == {("p", "r3")}
    # trained on r2, the closest eligible prior release
    assert targets[("p", "r3")].n_train == 120
    assert any("p/r1" in n for n in result.notices)
    assert any("p/r2" in n for n in result.notices)


@pytest.mark.parametrize("oversample", ["smote", "smote_tuned"])
def test_oversampling_fits_a_minority_of_one_as_it_is(oversample):
    """SMOTE needs two rows of the minority class: a training release with one
    defective row is fitted as it is, and n_train_prime shows that no row was added."""
    releases = [dated_release("p", "r1", "2020-01-01", n_defective=1), dated_release("p", "r2", "2020-06-01")]
    config = EvalConfig(model=GaussianNBModel(), oversample=oversample, min_defects=1)
    (record,) = run_cross_version(releases, config).records
    assert record.preprocessing == "oversampled"
    assert record.n_train_prime == record.n_train == 120


def test_bootstrap_oversampling_of_an_all_defective_release():
    release = dated_release("p", "r1", "2020-01-01", n_artifacts=20, n_defective=20)
    result = run_bootstrap([release], BootstrapConfig(n_samples=2, model=GaussianNBModel()))
    assert [r.preprocessing for r in result.records] == ["plain", "oversampled"] * 2
    assert all(r.n_train_prime == r.n_train == 20 for r in result.records)


def test_cross_version_single_release_project():
    releases = [dated_release("solo", "r1", "2020-01-01")]
    result = run_cross_version(releases, EvalConfig(model=GaussianNBModel(), seed=1))
    assert result.records == []
    assert len(result.notices) == 1


def test_cross_version_skips_prior_with_late_fixes():
    # every defect of r1 is fixed long after r2's release: after cleaning,
    # r1 has no defective files left and is not an eligible training set
    releases = [
        dated_release("p", "r1", "2020-01-01", late_fix_ids=[f"f{i:03d}" for i in range(8)]),
        dated_release("p", "r2", "2020-06-01"),
    ]
    result = run_cross_version(releases, EvalConfig(model=GaussianNBModel(), seed=1))
    assert result.records == []


# --- cross-project -----------------------------------------------------------


def leakage_fixture():
    return [
        dated_release("A", "r0", "2019-06-01"),
        dated_release("A", "r1", "2021-01-01"),
        dated_release("B", "r0", "2020-05-01"),   # 245 days before A/r1
        dated_release("B", "r1", "2020-09-01"),   # 122 days before A/r1: too close
        dated_release("C", "r0", "2019-12-01"),
        dated_release("C", "r1", "2021-02-01"),   # after A/r1
    ]


def test_cross_project_pool_respects_gap():
    releases = leakage_fixture()
    target = next(r for r in releases if r.key() == "A/r1")
    pool = cross_project_training_views(releases, target)
    assert {r.key() for r, _ in pool} == {"B/r0", "C/r0"}


def test_cross_project_exhaustive_temporal_guard():
    releases = leakage_fixture()
    for target in releases:
        for release, view in cross_project_training_views(releases, target):
            assert release.project != target.project
            gap = (target.released_at - release.released_at).days
            assert gap >= CROSS_PROJECT_GAP_DAYS
            assert release.released_at < target.released_at
            for d in view_defects(view):
                assert d.fixed_at is not None
                assert d.fixed_at < target.released_at


def test_cross_project_negative_gap_is_rejected():
    releases = leakage_fixture()
    target = next(r for r in releases if r.key() == "A/r1")
    with pytest.raises(ValueError, match="gap_days must be >= 0"):
        cross_project_training_views(releases, target, gap_days=-4000)


def test_cross_project_late_fix_treated_clean():
    releases = [
        dated_release("A", "r1", "2021-01-01"),
        dated_release("B", "r0", "2020-05-01", late_fix_ids=["f000"]),
        dated_release("C", "r0", "2019-12-01"),
    ]
    target = next(r for r in releases if r.key() == "A/r1")
    views = dict(
        (rel.key(), view) for rel, view in cross_project_training_views(releases, target)
    )
    b_view = views["B/r0"]
    truth = dict(zip(b_view.ids, b_view.y))
    assert truth["f000"] == 0        # fixed after the target: clean in training
    assert truth["f001"] == 1


def test_cross_project_records_and_pool_size():
    releases = leakage_fixture()
    result = run_cross_project(releases, EvalConfig(model=GaussianNBModel(), seed=2))
    by_target = {(r.project, r.release): r for r in result.records}
    # A/r1 trains on B/r0 + C/r0 (120 artifacts each)
    assert by_target[("A", "r1")].n_train == 240
    # the earliest release of each project has an empty pool
    assert any("A/r0" in n for n in result.notices)


# --- transfer ----------------------------------------------------------------


def test_transfer_none_identity():
    train = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[5.0, 6.0]])
    res = transfer_transform("none", train, target)
    assert np.array_equal(res, train)
    assert np.array_equal(transfer_side("none", target).X, target)


def test_transfer_watanabe_scales_by_mean_ratio():
    train = np.array([[4.0, 1.0], [4.0, 3.0]])
    target = np.array([[2.0, 2.0], [2.0, 2.0]])
    res = transfer_transform("watanabe", train, target)
    assert np.allclose(res[:, 0], [2.0, 2.0])
    assert np.allclose(res[:, 1], [1.0, 3.0])


def test_transfer_watanabe_leaves_zero_mean_unscaled():
    train = np.array([[0.0, 1.0], [0.0, 3.0]])
    target = np.array([[2.0, 2.0]])
    res = transfer_transform("watanabe", train, target)
    assert np.allclose(res[:, 0], [0.0, 0.0])  # left unscaled


def test_transfer_camargo_cruz_constant_feature():
    train = np.full((3, 1), 5.0)
    target = np.full((4, 1), 5.0)
    res = transfer_transform("camargo_cruz", train, target)
    assert np.allclose(res, np.log1p(5.0))
    assert np.allclose(transfer_side("camargo_cruz", target).X, np.log1p(5.0))


def test_transfer_camargo_cruz_median_shift():
    train = np.array([[1.0], [2.0], [3.0]])
    target = np.array([[7.0], [8.0], [9.0]])
    res = transfer_transform("camargo_cruz", train, target)
    shift = np.log1p(8.0) - np.log1p(2.0)
    assert np.allclose(res, np.log1p(train) + shift)


def test_transfer_unknown_kind():
    with pytest.raises(ValueError):
        transfer_transform("bogus", np.zeros((1, 1)), np.zeros((1, 1)))


# --- external prediction -----------------------------------------------------


def test_external_record(t1_release):
    record = evaluate_external_prediction(t1_release, dict(T1_SCORES))
    assert record.scenario == "external"
    assert record.diff == 620.0
    assert record.potential.label == "medium"
    assert record.n_train == 0
    assert np.isnan(record.bias_train)


@pytest.mark.parametrize("threshold", [float("nan"), 7.0, -1.0])
def test_prediction_threshold_outside_unit_interval_is_rejected(t1_release, threshold):
    message = re.escape(f"threshold must be in [0, 1], got {threshold!r}")
    with pytest.raises(ValueError, match=message):
        evaluate_external_prediction(t1_release, dict(T1_SCORES), threshold=threshold)
    view = t1_release.view()
    with pytest.raises(ValueError, match=message):
        Prediction(view, np.full(view.n, 0.5), threshold)


@pytest.mark.parametrize("bad", [math.nan, 7.0, -3.0, math.inf, -0.01])
def test_prediction_score_outside_unit_interval_is_rejected(t1_release, bad):
    message = re.escape("scores for demo/r1 must be in [0, 1]")
    scores = dict(T1_SCORES, a2=bad)
    with pytest.raises(ValueError, match=message):
        evaluate_external_prediction(t1_release, scores)
    view = t1_release.view()
    with pytest.raises(ValueError, match=message):
        Prediction.from_ids(view, scores)
    with pytest.raises(ValueError, match=message):
        Prediction(view, [scores[a] for a in view.ids])
