"""Loop reference implementations of the evaluation functions.

Each reference below walks the artifacts one at a time through id-keyed dicts
and sets. The package computes the same quantities from arrays aligned with
``view.ids``; on seeded random n-to-m releases every value must agree bit for
bit (NaN equal to NaN), across score ties, both effort modes, two thresholds,
views without defects and views where every artifact is defective.
"""

import math
from collections import namedtuple
from dataclasses import asdict

import numpy as np
import pytest

from defectcost.costmodel import cost_bounds, defect_outcome, diff_simplified
from defectcost.extmath import UNDEFINED, ext_sub, safe_div
from defectcost.metrics import (
    Prediction,
    _roc_points,
    auc,
    auc_alberg,
    auc_recall_pf,
    average_ranks,
    confusion_counts,
    effort_metrics,
    evaluate_metrics,
)

from conftest import make_release, ranking_order, ref_view_defects, rows_of, size_by_id, truth_by_id

# The scores the references read, keyed by artifact id, kept beside the
# package's row-ordered Prediction of the same case.
IdScores = namedtuple("IdScores", "scores threshold")


def ref_label(pred, aid):
    return 1 if pred.scores[aid] > pred.threshold else 0


def ref_ranking_order(view, pred):
    sizes = size_by_id(view)
    return sorted(view.ids, key=lambda a: (-pred.scores[a], -sizes[a], a))


def ref_confusion(view, pred):
    tp = fp = tn = fn = 0
    for aid, truth in zip(view.ids, view.y):
        predicted = ref_label(pred, aid)
        if truth == 1 and predicted == 1:
            tp += 1
        elif truth == 1:
            fn += 1
        elif predicted == 1:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def ref_average_ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def ref_auc_alberg(view, pred):
    order, truth = ref_ranking_order(view, pred), truth_by_id(view)
    total_def = sum(truth[a] for a in order)
    if total_def == 0:
        return UNDEFINED
    n = len(order)
    area = 0.0
    found = 0
    prev_y = 0.0
    for aid in order:
        found += truth[aid]
        y = found / total_def
        area += (1.0 / n) * (prev_y + y) / 2.0
        prev_y = y
    return area


def ref_roc_points(truth, scores):
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        group = order[i : j + 1]
        tp += int(truth[group].sum())
        fp += len(group) - int(truth[group].sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j + 1
    return points


def ref_auc_recall_pf(truth, scores):
    truth = np.asarray(truth, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    if n_pos == 0 or n_pos == len(truth):
        return UNDEFINED
    points = ref_roc_points(truth, scores)
    area = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        dx = x2 - x1
        if dx == 0:
            continue
        g1 = y1 - x1
        g2 = y2 - x2
        if g1 >= 0 and g2 >= 0:
            area += (g1 + g2) / 2.0 * dx
        elif g1 <= 0 and g2 <= 0:
            continue
        else:
            t = g1 / (g1 - g2)
            if g1 > 0:
                area += g1 * (t * dx) / 2.0
            else:
                area += g2 * ((1 - t) * dx) / 2.0
    return area / 0.5


def ref_effort(view, pred, mode):
    sizes, truth = size_by_id(view), truth_by_id(view)
    cost = float(sum(sizes[a] for a in view.ids if ref_label(pred, a) == 1))
    order = ref_ranking_order(view, pred)
    budget = 0.2 * float(view.sizes.sum())
    inspected = set()
    used = 0.0
    for aid in order:
        size = sizes[aid]
        if used + size > budget:
            break
        inspected.add(aid)
        used += size

    if mode == "files":
        nofb20 = float(sum(1 for a in inspected if truth[a] == 1))
        total = int(view.y.sum())
        need = math.ceil(0.8 * total)
        if total == 0:
            return cost, nofb20, UNDEFINED
        found = 0
        for i, aid in enumerate(order, start=1):
            found += truth[aid]
            if found >= need:
                return cost, nofb20, float(i)
        return cost, nofb20, UNDEFINED

    defects = ref_view_defects(view)
    nofb20 = float(sum(1 for d in defects if d.artifacts <= inspected))
    total = len(defects)
    if total == 0:
        return cost, nofb20, UNDEFINED
    need = math.ceil(0.8 * total)
    remaining = {d.id: set(d.artifacts) for d in defects}
    by_artifact = {}
    for d in defects:
        for a in d.artifacts:
            by_artifact.setdefault(a, []).append(d.id)
    found = 0
    for i, aid in enumerate(order, start=1):
        for did in by_artifact.get(aid, ()):
            rem = remaining[did]
            rem.discard(aid)
            if not rem:
                found += 1
                del remaining[did]
        if found >= need:
            return cost, nofb20, float(i)
    return cost, nofb20, UNDEFINED


def ref_defect_outcome(view, pred):
    defects = ref_view_defects(view)
    predicted = frozenset(d.id for d in defects if all(ref_label(pred, a) == 1 for a in d.artifacts))
    return predicted, frozenset(d.id for d in defects) - predicted


def ref_cost_bounds(view, pred):
    predicted, missed = ref_defect_outcome(view, pred)
    sizes = size_by_id(view)
    size_predicted = float(sum(sizes[a] for a in view.ids if ref_label(pred, a) == 1))
    size_clean = float(sum(sizes[a] for a in view.ids if ref_label(pred, a) == 0))
    lower = safe_div(size_predicted, len(predicted))
    upper = safe_div(size_clean, len(missed))
    return lower, upper, ext_sub(upper, lower)


def ref_diff_simplified(view, pred):
    tp = fn = 0
    size_predicted = 0.0
    size_clean = 0.0
    sizes = size_by_id(view)
    for aid, truth in zip(view.ids, view.y):
        if ref_label(pred, aid) == 1:
            size_predicted += sizes[aid]
            tp += int(truth)
        else:
            size_clean += sizes[aid]
            fn += int(truth)
    return ext_sub(safe_div(size_clean, fn), safe_div(size_predicted, tp))


def same(a, b) -> bool:
    """Bitwise equality of float arrays or scalars, NaN equal to NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_release(rng, n, n_defects, all_defective=False):
    sizes = {f"a{i:02d}": int(s) for i, s in enumerate(rng.integers(0, 40, size=n))}
    ids = sorted(sizes)
    defects = {}
    for k in range(n_defects):
        foot = rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)), replace=False)
        defects[f"d{k:02d}"] = {ids[i] for i in foot}
    if all_defective:
        for i, aid in enumerate(ids):
            defects[f"e{i:02d}"] = {aid}
    return make_release(sizes=sizes, defects=defects)


def random_scores(rng, ids, kind):
    if kind == "random":
        values = rng.random(len(ids))
    elif kind == "tied":
        values = np.round(rng.random(len(ids)), 1)
    else:
        values = np.full(len(ids), float(rng.choice([0.0, 0.3, 0.5, 1.0])))
    return dict(zip(ids, (float(v) for v in values)))


def evaluation_cases():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        shape = trial % 4
        release = random_release(rng, n, 0 if shape == 1 else int(rng.integers(1, 8)), shape == 2)
        views = [release.view()]
        keep = [a for a in release.artifact_ids if rng.random() < 0.4]
        if keep:
            views.append(release.view(rows_of(release, keep)))
        for view in views:
            kind = ("random", "tied", "constant")[int(rng.integers(0, 3))]
            scores = random_scores(rng, view.ids, kind)
            for threshold in (0.5, 0.3):
                yield view, Prediction.from_ids(view, scores, threshold), IdScores(scores, threshold)


CASES = list(evaluation_cases())


def test_cases_cover_edges():
    assert any(not ref_view_defects(v) for v, _, _ in CASES)
    assert any(v.n and v.y.all() for v, _, _ in CASES)
    assert any(len(d.artifacts) > 1 for v, _, _ in CASES for d in ref_view_defects(v))
    assert any(v.sizes.min() == 0 for v, _, _ in CASES if v.n)


def test_ranking_and_confusion_match_reference():
    for view, pred, ref in CASES:
        assert ranking_order(view, pred) == ref_ranking_order(view, ref)
        c = confusion_counts(pred)
        assert (c.tp, c.fp, c.tn, c.fn) == ref_confusion(view, ref)


def test_ranking_metrics_match_reference():
    for view, pred, ref in CASES:
        scores = np.array([ref.scores[a] for a in view.ids], dtype=np.float64)
        assert same(auc_alberg(pred), ref_auc_alberg(view, ref))
        assert same(auc_recall_pf(view.y, scores), ref_auc_recall_pf(view.y, scores))
        if 0 < view.y.sum() < view.n:
            assert same(_roc_points(view.y, scores), ref_roc_points(view.y, scores))


@pytest.mark.parametrize("mode", ["defects", "files"])
def test_effort_metrics_match_reference(mode):
    for view, pred, ref in CASES:
        assert same(effort_metrics(pred, mode=mode), ref_effort(view, ref, mode))


def test_cost_model_matches_reference():
    for view, pred, ref in CASES:
        outcome = defect_outcome(pred)
        assert (outcome.predicted, outcome.missed) == ref_defect_outcome(view, ref)
        b = cost_bounds(pred)
        assert same((b.lower, b.upper, b.diff), ref_cost_bounds(view, ref))
        assert same(diff_simplified(pred), ref_diff_simplified(view, ref))


def test_evaluate_metrics_matches_reference():
    for view, pred, ref in CASES[::3]:
        for mode in ("defects", "files"):
            got = asdict(evaluate_metrics(pred, effort_mode=mode))
            scores = np.array([ref.scores[a] for a in view.ids], dtype=np.float64)
            assert same(got["auc"], auc(view.y, scores))
            assert same(got["auc_alberg"], ref_auc_alberg(view, ref))
            assert same(got["auc_recall_pf"], ref_auc_recall_pf(view.y, scores))
            assert same((got["cost"], got["nofb20"], got["nofc80"]), ref_effort(view, ref, mode))


def test_average_ranks_match_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        values = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        values[rng.random(n) < 0.1] = -0.0
        values[rng.random(n) < 0.05] = np.nan
        assert same(average_ranks(values), ref_average_ranks(values))

