import itertools
import math
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np
import pytest

from defectcost.dataset import Defect, Release
from defectcost.metrics import (
    ConfusionCounts,
    CoverageError,
    Prediction,
    auc,
    auc_alberg,
    auc_recall_pf,
    confusion_counts,
    confusion_metrics,
    effort_metrics,
    evaluate_metrics,
)

from conftest import T1_SCORES, assert_close, is_undefined, make_release, ranking_order, truth_by_id, view_defects

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy before 2.0 names it trapz


def all_one(view):
    return Prediction.from_ids(view, {a: 1.0 for a in view.ids}, 0.5)


def all_zero(view):
    return Prediction.from_ids(view, {a: 0.0 for a in view.ids}, 0.5)


def test_inspection_order_is_sorted_once_per_prediction(t1_prediction, monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
    evaluate_metrics(t1_prediction)
    evaluate_metrics(t1_prediction, effort_mode="files")
    assert len(calls) == 1
    assert t1_prediction.order is t1_prediction.order


def test_t1_confusion(t1_prediction):
    c = confusion_counts(t1_prediction)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 2, 1)


def test_trivial_predictions(t1_view):
    c = confusion_counts(all_one(t1_view))
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 3, 0, 0)
    c = confusion_counts(all_zero(t1_view))
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 3, 3)


def test_coverage_mismatch(t1_view):
    with pytest.raises(CoverageError):
        Prediction.from_ids(t1_view, {"a1": 1.0}, 0.5)
    with pytest.raises(ValueError, match="1 scores for the 6 rows"):
        Prediction(t1_view, [0.5], 0.5)


def test_checked_prediction_gives_the_same_metrics(t1_view, t1_prediction):
    in_rows = Prediction(t1_view, np.array([T1_SCORES[a] for a in t1_view.ids]), 0.5)
    assert repr(evaluate_metrics(in_rows)) == repr(evaluate_metrics(t1_prediction))


def test_threshold_is_strict(t1_view):
    pred = Prediction.from_ids(t1_view, {a: 0.5 for a in t1_view.ids}, 0.5)
    c = confusion_counts(pred)
    assert c.tp + c.fp == 0  # score == threshold is not a defect prediction


def test_t1_metric_values(t1_prediction):
    m = confusion_metrics(confusion_counts(t1_prediction))
    expected = {
        "recall": 2 / 3,
        "precision": 2 / 3,
        "fpr": 1 / 3,
        "f_measure": 2 / 3,
        "g_measure": 2 / 3,
        "accuracy": 2 / 3,
        "error": 1 / 3,
        "error_type1": 1 / 3,
        "error_type2": 1 / 3,
        "mcc": 1 / 3,
        "consistency": 1 / 3,
        "necm10": 11 / 6,
        "necm25": 26 / 6,
    }
    for name, value in expected.items():
        assert_close(m[name], value)


def test_perfect_prediction_metrics():
    m = confusion_metrics(ConfusionCounts(tp=3, fp=0, tn=3, fn=0))
    assert m["recall"] == m["precision"] == m["accuracy"] == 1.0
    assert m["fpr"] == m["error"] == 0.0
    assert m["mcc"] == 1.0


def test_undefined_precision_and_f():
    m = confusion_metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=3))
    assert is_undefined(m["precision"])
    assert is_undefined(m["f_measure"])


UNIT_RANGE = ("recall", "precision", "fpr", "accuracy", "error", "f_measure", "g_measure", "balance")


def test_confusion_metrics_ranges_undefined_values_and_error_complement_everywhere():
    for tp, fp, tn, fn in itertools.product(range(6), repeat=4):
        n = tp + fp + tn + fn
        m = confusion_metrics(ConfusionCounts(tp, fp, tn, fn))
        # (numerator, denominator): 0/0 is undefined and x/0 is +inf (extmath.safe_div);
        # mcc's denominator is the root of the product
        fractions = {
            "recall": (tp, tp + fn), "error_type1": (fp, tp + fn), "precision": (tp, tp + fp),
            "fpr": (fp, tn + fp), "error_type2": (fn, tn + fp), "accuracy": (tp + tn, n), "error": (fp + fn, n),
            "necm10": (fp + 10 * fn, n), "necm25": (fp + 25 * fn, n),
            "mcc": (tp * tn - fp * fn, (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)),
        }
        for name, (num, den) in fractions.items():
            if den:
                assert math.isfinite(m[name]), (name, tp, fp, tn, fn)
            else:
                assert is_undefined(m[name]) if num == 0 else m[name] == math.inf, (name, tp, fp, tn, fn)
        for name in UNIT_RANGE:
            assert is_undefined(m[name]) or 0.0 <= m[name] <= 1.0, (name, tp, fp, tn, fn)
        assert is_undefined(m["mcc"]) or -1.0 <= m["mcc"] <= 1.0, (tp, fp, tn, fn)
        if n:
            assert_close(m["error"], 1.0 - m["accuracy"])


def test_means_between_constituents():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tp, fp, tn, fn = rng.integers(0, 6, size=4)
        m = confusion_metrics(ConfusionCounts(int(tp), int(fp), int(tn), int(fn)))
        r, p = m["recall"], m["precision"]
        if not (is_undefined(r) or is_undefined(p) or is_undefined(m["f_measure"])):
            assert min(r, p) - 1e-12 <= m["f_measure"] <= max(r, p) + 1e-12
        inv_pf = 1 - m["fpr"]
        if not (is_undefined(r) or is_undefined(inv_pf) or is_undefined(m["g_measure"])):
            assert min(r, inv_pf) - 1e-12 <= m["g_measure"] <= max(r, inv_pf) + 1e-12


def test_mcc_symmetries():
    rng = np.random.default_rng(1)
    for _ in range(200):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 6, size=4))
        m = confusion_metrics(ConfusionCounts(tp, fp, tn, fn))["mcc"]
        swapped = confusion_metrics(ConfusionCounts(tn, fn, tp, fp))["mcc"]
        flipped = confusion_metrics(ConfusionCounts(fn, tn, fp, tp))["mcc"]
        if is_undefined(m):
            continue
        assert_close(m, swapped)
        assert_close(m, -flipped)


def brute_force_auc(truth, scores):
    wins = ties = 0
    pos = [s for t, s in zip(truth, scores) if t == 1]
    neg = [s for t, s in zip(truth, scores) if t == 0]
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1
            elif a == b:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_t1(t1_view):
    scores = [T1_SCORES[a] for a in t1_view.ids]
    assert_close(auc(t1_view.y, scores), 8 / 9)


def test_auc_against_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        truth = rng.integers(0, 2, size=n)
        if truth.sum() in (0, n):
            truth[0], truth[-1] = 0, 1
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        assert_close(auc(truth, scores), brute_force_auc(truth, scores))


def test_auc_edge_cases():
    assert auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0
    assert auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5
    assert is_undefined(auc([1, 1], [0.5, 0.4]))


def test_auc_monotone_invariance():
    rng = np.random.default_rng(8)
    truth = rng.integers(0, 2, size=40)
    truth[0], truth[1] = 0, 1
    scores = rng.random(40)
    base = auc(truth, scores)
    assert_close(base, auc(truth, np.exp(3 * scores + 1)))
    assert_close(base, auc(truth, scores**3 + 5))


def alberg_oracle(view, pred):
    order, truth = ranking_order(view, pred), truth_by_id(view)
    total = sum(truth[a] for a in order)
    n = len(order)
    xs, ys = [0.0], [0.0]
    found = 0
    for i, a in enumerate(order, start=1):
        found += truth[a]
        xs.append(i / n)
        ys.append(found / total)
    return float(trapezoid(ys, xs))


def test_auc_alberg(t1_view, t1_prediction):
    value = auc_alberg(t1_prediction)
    assert_close(value, alberg_oracle(t1_view, t1_prediction))
    assert_close(value, 25 / 36)


def test_auc_alberg_extremes(t1_view):
    truth = truth_by_id(t1_view)
    best = Prediction.from_ids(t1_view, {a: float(truth[a]) for a in t1_view.ids}, 0.5)
    worst = Prediction.from_ids(t1_view, {a: 1.0 - truth[a] for a in t1_view.ids}, 0.5)
    n, d = 6, 3
    # ranking all defective artifacts first is maximal for this class balance
    assert_close(auc_alberg(best), 1 - d / (2 * n))
    assert auc_alberg(worst) < auc_alberg(best)


def test_auc_alberg_no_defects():
    release = make_release(sizes={"x": 5, "y": 6}, defects={})
    view = release.view()
    assert is_undefined(auc_alberg(Prediction.from_ids(view, {"x": 0.9, "y": 0.1}, 0.5)))


def test_ties_break_by_python_string_order_of_ids():
    # numpy's fixed-width strings drop trailing NULs, which would tie b with b\x00
    release = Release("p", "r", datetime(2020, 1, 1, tzinfo=timezone.utc), ("b\x00", "b", "a"), [10, 10, 10],
                      [(0.0,)] * 3, (Defect("d", frozenset({"b"})),))
    view = release.view()
    pred = Prediction.from_ids(view, {a: 0.5 for a in view.ids}, 0.5)
    assert ranking_order(view, pred) == ["a", "b", "b\x00"]
    assert_close(auc_alberg(pred), 0.5)


def recall_pf_oracle(truth, scores, grid=200001):
    """Numeric integration of max(roc(x) - x, 0) over a fine pf grid."""
    from defectcost.metrics import _roc_points

    pts = _roc_points(np.asarray(truth), np.asarray(scores, dtype=float))
    xs = np.linspace(0.0, 1.0, grid)
    ys = np.empty_like(xs)
    # piecewise-linear interpolation over the ROC vertices (max y on verticals)
    px = np.array([p[0] for p in pts])
    py = np.array([p[1] for p in pts])
    ys = np.interp(xs, px, py)
    above = np.maximum(ys - xs, 0.0)
    return float(trapezoid(above, xs)) / 0.5


def test_auc_recall_pf(t1_view):
    scores = [T1_SCORES[a] for a in t1_view.ids]
    value = auc_recall_pf(t1_view.y, scores)
    assert_close(value, 7 / 9)
    assert abs(value - recall_pf_oracle(t1_view.y, scores)) < 1e-4


def test_auc_recall_pf_extremes():
    assert_close(auc_recall_pf([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]), 1.0)
    # constant scores walk straight along the diagonal
    assert_close(auc_recall_pf([1, 0, 1, 0], [0.5] * 4), 0.0)
    assert is_undefined(auc_recall_pf([1, 1], [0.3, 0.2]))


def test_auc_recall_pf_random_against_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 25))
        truth = rng.integers(0, 2, size=n)
        truth[0], truth[1] = 0, 1
        scores = np.round(rng.random(n), 1)
        got = auc_recall_pf(truth, scores)
        want = recall_pf_oracle(truth, scores)
        assert abs(got - want) < 1e-4


def test_effort_metrics_t1(t1_prediction):
    cost, nofb20, nofc80 = effort_metrics(t1_prediction)
    assert cost == 190            # 100 + 50 + 40
    assert nofb20 == 1            # budget 200 covers a1, a5, a2; only d1 complete
    assert nofc80 == 4            # need ceil(1.6)=2 bugs; d2 completes at the 4th visit


def test_effort_metrics_file_mode(t1_prediction):
    cost, nofb20, nofc80 = effort_metrics(t1_prediction, mode="files")
    assert cost == 190
    assert nofb20 == 2            # a1 and a5 are defective files inside the budget
    # need ceil(0.8 * 3) = 3 defective files: a1, a5, then a3 at the 4th visit
    assert nofc80 == 4
    with pytest.raises(ValueError):
        effort_metrics(t1_prediction, mode="bogus")


def test_effort_bounds_properties(t1_view):
    rng = np.random.default_rng(9)
    for _ in range(50):
        scores = {a: float(rng.random()) for a in t1_view.ids}
        pred = Prediction.from_ids(t1_view, scores, 0.5)
        _, nofb20, nofc80 = effort_metrics(pred)
        assert nofb20 <= len(view_defects(t1_view))
        if not is_undefined(nofc80):
            assert 1 <= nofc80 <= t1_view.n


def test_nofc80_undefined_when_unreachable():
    # the only defect spans both artifacts, but the budget walk can always
    # reach it; unreachable only without defects
    release = make_release(sizes={"x": 5, "y": 6}, defects={})
    view = release.view()
    _, _, nofc80 = effort_metrics(Prediction.from_ids(view, {"x": 0.9, "y": 0.1}, 0.5))
    assert is_undefined(nofc80)


def test_evaluate_metrics_serialization(t1_view, t1_prediction):
    vec = evaluate_metrics(t1_prediction)
    d = asdict(vec)
    assert set(d) == {
        "recall", "precision", "fpr", "f_measure", "g_measure", "balance",
        "accuracy", "error", "error_type1", "error_type2", "mcc", "consistency",
        "auc", "auc_alberg", "auc_recall_pf", "necm10", "necm25", "cost",
        "nofb20", "nofc80",
    }
    assert d["cost"] == 190.0
    all_clean = evaluate_metrics(Prediction.from_ids(t1_view, {a: 0.0 for a in t1_view.ids}, 0.5))
    assert is_undefined(all_clean.precision)
