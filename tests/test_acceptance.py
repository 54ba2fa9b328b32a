"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 10 needs a real corpus and is skipped unless the
DEFECTCOST_CORPUS environment variable points at one.
"""

import itertools
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from defectcost.analysis import (
    classify_strength,
    distribution_export,
    evaluate_confusion,
    fit_relationship_models,
    sensitivity_regression,
)
from defectcost.costmodel import Potential, classify_potential, cost_bounds
from defectcost.dataset import filter_releases, load_corpus
from defectcost.experiments import (
    BootstrapConfig,
    ForestModel,
    GaussianNBModel,
    run_bootstrap,
    write_records_csv,
)
from defectcost.learners import (
    ForestParams,
    differential_evolution,
    mcfadden_adjusted_r2,
    oob_mcc,
    params_from_vector,
    train_cart,
    train_random_forest,
)
from defectcost.learners.logit import one_hot
from defectcost.metrics import ConfusionCounts, Prediction, auc, confusion_metrics
from defectcost.synth import SynthSpec, generate_synthetic

from conftest import fit_penalized_softmax, size_by_id, softmax_nll_grad

NAN = math.nan
INF = math.inf


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# --- criterion 1: metric oracle equivalence ----------------------------------


def oracle_confusion_metrics(tp, fp, tn, fn):
    """Independently coded formulas; 0/0 yields NaN, x/0 a signed infinity."""

    def div(num, den):
        if den == 0:
            return NAN if num == 0 else math.copysign(INF, num)
        return num / den

    n = tp + fp + tn + fn
    recall = div(tp, tp + fn)
    precision = div(tp, tp + fp)
    pf = div(fp, tn + fp)
    out = {
        "recall": recall,
        "precision": precision,
        "fpr": pf,
        "f_measure": div(2 * recall * precision, recall + precision),
        "g_measure": div(2 * recall * (1 - pf), recall + (1 - pf)),
        "balance": (
            NAN
            if (isinstance(recall, float) and math.isnan(recall)) or math.isnan(pf)
            else 1 - math.sqrt((1 - recall) ** 2 + pf**2) / math.sqrt(2)
        ),
        "accuracy": div(tp + tn, n),
        "error": div(fp + fn, n),
        "error_type1": div(fp, tp + fn),
        "error_type2": div(fn, tn + fp),
        "mcc": div(tp * tn - fp * fn, math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))),
        "consistency": div(tp * n - (tp + fn) ** 2, (tp + fn) * (tn + fp)),
        "necm10": div(fp + 10 * fn, n),
        "necm25": div(fp + 25 * fn, n),
    }
    return out


def _same(a, b, tol=1e-12):
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def test_c01_metric_oracle_equivalence():
    start = time.time()
    checked = 0
    for tp, fp, tn, fn in itertools.product(range(6), repeat=4):
        got = confusion_metrics(ConfusionCounts(tp, fp, tn, fn))
        want = oracle_confusion_metrics(tp, fp, tn, fn)
        for name, value in want.items():
            assert _same(got[name], value), (tp, fp, tn, fn, name, got[name], value)
        checked += 1
    elapsed = time.time() - start
    assert checked == 1296
    assert elapsed < 5.0
    _report(1, f"14 confusion metrics match the brute-force oracle on 1296 matrices ({elapsed:.2f}s)")


# --- criterion 2: cost-bound oracle -------------------------------------------


def test_c02_cost_bound_oracle(t1_view):
    start = time.time()

    def oracle(positives):
        sizes = size_by_id(t1_view)
        predicted_size = sum(sizes[a] for a in t1_view.ids if a in positives)
        clean_size = sum(sizes[a] for a in t1_view.ids if a not in positives)
        d_pred = sum(1 for d in t1_view.defects if set(d.artifacts) <= positives)
        d_miss = len(t1_view.defects) - d_pred

        def div(num, den):
            return (NAN if num == 0 else INF) if den == 0 else num / den

        lower = div(predicted_size, d_pred)
        upper = div(clean_size, d_miss)
        if math.isnan(lower) or math.isnan(upper) or (math.isinf(lower) and math.isinf(upper)):
            diff = NAN
        elif math.isinf(upper):
            diff = INF
        elif math.isinf(lower):
            diff = -INF
        else:
            diff = upper - lower
        return lower, upper, diff

    corners = set()
    for bits in itertools.product((0, 1), repeat=6):
        positives = {a for a, b in zip(t1_view.ids, bits) if b}
        pred = Prediction({a: 1.0 if a in positives else 0.0 for a in t1_view.ids}, 0.5)
        bounds = cost_bounds(t1_view, pred)
        lower, upper, diff = oracle(positives)
        assert _same(bounds.lower, lower, 0.0)
        assert _same(bounds.upper, upper, 0.0)
        assert _same(bounds.diff, diff, 0.0)
        if math.isnan(lower):
            corners.add("lower_nan")
        if math.isnan(upper):
            corners.add("upper_nan")
        if lower == INF:
            corners.add("lower_inf")
        if upper == INF:
            corners.add("upper_inf")
    elapsed = time.time() - start
    assert corners == {"lower_nan", "upper_nan", "lower_inf", "upper_inf"}
    assert elapsed < 1.0
    _report(2, f"all 64 predictions match the set-enumeration oracle incl. corner cases ({elapsed:.3f}s)")


# --- criterion 3: potential binning -------------------------------------------


def test_c03_potential_binning():
    cases = [
        (-1e-12, Potential.NONE),
        (0.0, Potential.NONE),
        (1.0, Potential.MEDIUM),
        (1000.0, Potential.MEDIUM),
        (1000.0001, Potential.LARGE),
        (10000.0, Potential.LARGE),
        (10001.0, Potential.EXTRA_LARGE),
        (INF, Potential.EXTRA_LARGE),
        (NAN, Potential.NONE),
    ]
    for diff, expected in cases:
        assert classify_potential(diff) == expected, diff
    _report(3, "boundary values map exactly onto the four potential levels")


# --- criterion 4: AUC property suite ------------------------------------------


def test_c04_auc_properties():
    def brute(truth, scores):
        pos = [s for t, s in zip(truth, scores) if t == 1]
        neg = [s for t, s in zip(truth, scores) if t == 0]
        wins = sum(1 for a in pos for b in neg if a > b)
        ties = sum(1 for a in pos for b in neg if a == b)
        return (wins + 0.5 * ties) / (len(pos) * len(neg))

    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        truth = rng.integers(0, 2, size=n)
        if truth.sum() in (0, n):
            truth[0], truth[-1] = 0, 1
        scores = np.round(rng.random(n), 1)
        assert abs(auc(truth, scores) - brute(truth, scores)) <= 1e-12

        base = auc(truth, scores)
        assert abs(auc(truth, np.exp(2 * scores + 1)) - base) <= 1e-12
        assert abs(auc(truth, scores**3 + 4) - base) <= 1e-12

    assert auc([1, 0, 1, 0], [0.7, 0.7, 0.7, 0.7]) == 0.5
    _report(4, "Mann-Whitney AUC equals pairwise brute force, monotone-invariant, ties give 0.5")


# --- criterion 5: learner numerics --------------------------------------------


def test_c05_learner_numerics():
    rng = np.random.default_rng(7)

    # softmax gradient vs central differences
    for _ in range(20):
        n, k, c = int(rng.integers(5, 15)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
        X = rng.normal(size=(n, k))
        Y = one_hot(rng.integers(0, c, n), c)
        W = rng.normal(size=(k, c))
        b = rng.normal(size=c)
        _, gW, gb = softmax_nll_grad(W, b, X, Y)
        eps = 1e-6
        flat = [(i, j) for i in range(k) for j in range(c)]
        for i, j in flat:
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += eps
            Wm[i, j] -= eps
            fd = (softmax_nll_grad(Wp, b, X, Y)[0] - softmax_nll_grad(Wm, b, X, Y)[0]) / (2 * eps)
            assert abs(fd - gW[i, j]) / max(1.0, abs(fd)) < 1e-5

    # CART splits strictly decrease Gini
    for seed in range(5):
        r = np.random.default_rng(seed)
        X = r.normal(size=(80, 5))
        y = r.integers(0, 3, size=80)
        tree = train_cart(X, y)
        internal = 0
        for node in np.flatnonzero(tree.feature >= 0):
            internal += 1
            left, right = tree.left[node], tree.right[node]
            weighted = (
                tree.n[left] * tree.impurity[left]
                + tree.n[right] * tree.impurity[right]
            ) / tree.n[node]
            assert tree.impurity[node] - weighted > 0
        assert internal > 0

    # elastic-net L1 norm non-increasing along the lambda grid
    r = np.random.default_rng(3)
    X = np.vstack([r.normal(0, 1, (60, 5)), r.normal(1.5, 1, (60, 5))])
    X = (X - X.mean(0)) / X.std(0)
    y = np.array([0] * 60 + [1] * 60)
    for alpha in (0.0, 0.5, 1.0):
        prev = None
        warm = (None, None)
        for lam in (1e0, 1e1, 1e2, 1e3, 1e4, 1e5):
            W, b, _ = fit_penalized_softmax(X, y, 2, lam, alpha, W0=warm[0], b0=warm[1])
            warm = (W, b)
            l1 = float(np.abs(W).sum())
            if prev is not None:
                assert l1 <= prev + 1e-8
            prev = l1

    # McFadden exactness
    y = np.array([0] * 70 + [1] * 30)
    freqs = np.tile([0.7, 0.3], (100, 1))
    assert mcfadden_adjusted_r2(freqs, y, k=0) == 0.0
    assert mcfadden_adjusted_r2(one_hot(y, 2), y, k=0) == 1.0

    _report(5, "gradient check <1e-5, strict Gini decreases, monotone L1 path, exact McFadden 0/1")


# --- criterion 6: DE sanity ----------------------------------------------------


def test_c06_de_sanity():
    for seed in range(5):
        _, best = differential_evolution(
            lambda x: float(np.sum(x * x)), [(-5, 5)] * 3, generations=50, seed=seed
        )
        assert best < 1e-2

    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = np.vstack([rng.normal(0, 1.4, (70, 4)), rng.normal(1.8, 1.4, (30, 4))])
        y = np.array([0] * 70 + [1] * 30)
        base = ForestParams(n_trees=25)
        default_score = oob_mcc(train_random_forest(X, y, base, seed=seed), X, y)

        def objective(vec):
            params = params_from_vector(vec, base=base)
            score = oob_mcc(train_random_forest(X, y, params, seed=seed), X, y)
            return np.inf if math.isnan(score) else -score

        _, best_val = differential_evolution(
            objective, [(0.0, 1.0), (2, 20), (1, 20)],
            population=8, generations=4, integer_dims=(1, 2), seed=seed,
        )
        if -best_val >= default_score:
            wins += 1
    assert wins >= 8
    _report(6, f"sphere optimum <1e-2 on 5 seeds; tuned forest OOB MCC >= untuned on {wins}/10 seeds")


# --- criterion 7: pipeline arithmetic ------------------------------------------


def test_c07_pipeline_arithmetic(tmp_path):
    start = time.time()
    spec = SynthSpec(n_projects=5, releases_per_project=1, artifacts_range=(100, 140),
                     defect_ratio_range=(0.08, 0.15), n_features=6, signal=1.2)
    releases = generate_synthetic(spec, seed=77)
    releases = filter_releases(releases, 100, 5)
    assert len(releases) == 5

    config = BootstrapConfig(n_samples=10, seed=13, model=ForestModel())
    first = run_bootstrap(releases, config=config)
    assert len(first.records) == 2 * 5 * 10
    assert not first.notices

    second = run_bootstrap(releases, config=config)
    a = write_records_csv(first.records, tmp_path / "a.csv")
    b = write_records_csv(second.records, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.time() - start
    assert elapsed < 600
    _report(7, f"5 releases x 10 samples -> 100 records, bit-identical reruns ({elapsed:.0f}s)")


# --- criterion 8: qualitative reproduction at desk scale ------------------------


def test_c08_qualitative_reproduction():
    spec_a = SynthSpec(n_projects=4, releases_per_project=5, artifacts_range=(100, 160),
                       defect_ratio_range=(0.06, 0.15), n_features=6, signal=1.0)
    corpus = generate_synthetic(spec_a, seed=100)
    assert len(corpus) == 20
    records = run_bootstrap(
        corpus, config=BootstrapConfig(n_samples=8, seed=11, model=GaussianNBModel())
    ).records
    levels = Counter(r.potential.label for r in records)
    assert len(levels) >= 2

    fit = fit_relationship_models(records, seed=0, forest_params=ForestParams(n_trees=50),
                                  lambda_grid=(1.0, 1000.0), alpha_grid=(0.0, 0.5, 1.0))
    conf, _ = evaluate_confusion(fit.models["forest"], records)
    verdict = classify_strength(conf)
    assert verdict.verdict in ("weak_categorization", "strong_categorization")

    # records from an unrelated generator: different sizes, bias, and signal
    spec_b = SynthSpec(n_projects=3, releases_per_project=3, artifacts_range=(120, 180),
                       defect_ratio_range=(0.15, 0.3), n_features=6, signal=0.8,
                       size_log_mean=5.8, size_log_sigma=0.7)
    eval_records = run_bootstrap(
        generate_synthetic(spec_b, seed=999),
        config=BootstrapConfig(n_samples=6, seed=12, model=GaussianNBModel()),
    ).records

    wins = 0
    for seed in range(10):
        out = sensitivity_regression(records, eval_records, seed=seed,
                                     forest_params=ForestParams(n_trees=40))
        if out["train_r2"] >= 0.8 and out["eval_r2"] <= 0.3:
            wins += 1
    assert wins >= 8
    _report(8, f"relationship forest: {verdict.verdict} in-sample; diff regression memorizes "
               f"in-sample but fails on the disjoint generator ({wins}/10 seeds)")


# --- criterion 9: temporal-leakage guard ----------------------------------------


def test_c09_temporal_leakage_guard():
    from datetime import datetime, timedelta, timezone

    from defectcost.dataset import Defect, Release
    from defectcost.experiments import CROSS_PROJECT_GAP_DAYS, cross_project_training_views

    def release(project, rid, date, late=()):
        released = datetime.fromisoformat(date).replace(tzinfo=timezone.utc)
        ids = tuple(f"f{i:03d}" for i in range(110))
        sizes, X = [10 + i for i in range(110)], [(float(i),) for i in range(110)]
        defects = tuple(
            Defect(f"d{i}", frozenset({f"f{i:03d}"}),
                   released + timedelta(days=900 if f"f{i:03d}" in late else 4))
            for i in range(8)
        )
        return Release(project, rid, released, ids, sizes, X, defects)

    releases = [
        release("A", "r0", "2019-06-01"),
        release("A", "r1", "2021-01-01"),
        release("B", "r0", "2020-05-01", late=("f000",)),
        release("B", "r1", "2020-09-01"),   # 122 days before A/r1: excluded
        release("C", "r0", "2019-12-01"),
        release("C", "r1", "2021-02-01"),   # after A/r1: excluded
    ]
    checked = 0
    for target in releases:
        for rel, view in cross_project_training_views(releases, target):
            checked += 1
            assert rel.project != target.project
            assert rel.released_at < target.released_at
            assert (target.released_at - rel.released_at).days >= CROSS_PROJECT_GAP_DAYS
            for d in view.defects:
                assert d.fixed_at is not None and d.fixed_at < target.released_at
    assert checked > 0

    target = next(r for r in releases if r.key() == "A/r1")
    pool = {rel.key(): view for rel, view in cross_project_training_views(releases, target)}
    assert set(pool) == {"B/r0", "C/r0"}
    truth = dict(zip(pool["B/r0"].ids, pool["B/r0"].y))
    assert truth["f000"] == 0  # fix lands after the target release: clean in training
    assert truth["f001"] == 1
    _report(9, "no cross-project training instance postdates its target; 183-day gap enforced")


# --- criterion 10: optional full-corpus tier ------------------------------------


CORPUS_ENV = "DEFECTCOST_CORPUS"


@pytest.mark.skipif(CORPUS_ENV not in os.environ, reason="full corpus not available")
def test_c10_full_corpus_reproduction():
    releases = load_corpus(Path(os.environ[CORPUS_ENV]))
    assert len(releases) == 398
    kept = filter_releases(releases, 100, 5)
    assert len(kept) == 265

    assert 2 * 100 * 265 == 53000
    result = run_bootstrap(kept, config=BootstrapConfig(n_samples=100, seed=1))
    assert len(result.records) == 53000

    out = distribution_export(result.records)
    assert abs(out["lg_mean"] - 3.18) <= 0.25
    assert abs(out["lg_sd"] - 0.39) <= 0.15
    _report(10, "full corpus: 398 releases, 265 eligible, 53000 records, lg-diff distribution matches")
