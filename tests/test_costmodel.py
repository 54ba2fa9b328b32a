import itertools
import math

import pytest

from defectcost.costmodel import (
    Potential,
    classify_potential,
    cost_bounds,
    defect_outcome,
    diff_simplified,
)
from defectcost.extmath import ext_sub, safe_div
from defectcost.metrics import Prediction

from conftest import assert_close, is_undefined, make_release, ref_view_defects, size_by_id

INF = math.inf
NAN = math.nan


def predict(view, positives):
    return Prediction.from_ids(view, {a: 1.0 if a in positives else 0.0 for a in view.ids}, 0.5)


def enumeration_oracle(view, positives):
    """Independent set-enumeration of lower/upper/diff for one prediction."""
    ids, sizes = list(view.ids), size_by_id(view)
    predicted_size = sum(sizes[a] for a in ids if a in positives)
    clean_size = sum(sizes[a] for a in ids if a not in positives)
    d_pred = [d for d in ref_view_defects(view) if set(d.artifacts) <= set(positives)]
    d_miss = [d for d in ref_view_defects(view) if d not in d_pred]

    def div(num, den):
        if den == 0:
            return NAN if num == 0 else INF
        return num / den

    lower = div(predicted_size, len(d_pred))
    upper = div(clean_size, len(d_miss))
    if math.isnan(lower) or math.isnan(upper):
        diff = NAN
    elif math.isinf(upper) and math.isinf(lower):
        diff = NAN
    elif math.isinf(upper):
        diff = INF
    elif math.isinf(lower):
        diff = -INF
    else:
        diff = upper - lower
    return lower, upper, diff


def test_t1_outcome_and_bounds(t1_prediction):
    outcome = defect_outcome(t1_prediction)
    assert outcome.predicted == {"d1"}
    assert outcome.missed == {"d2"}
    bounds = cost_bounds(t1_prediction)
    assert (bounds.lower, bounds.upper, bounds.diff) == (190.0, 810.0, 620.0)


def test_outcome_trivial_cases(t1_view):
    everything = defect_outcome(predict(t1_view, set(t1_view.ids)))
    assert everything.predicted == {"d1", "d2"} and everything.missed == set()
    # a defect with one predicted and one unpredicted artifact is missed
    partial = defect_outcome(predict(t1_view, {"a5"}))
    assert "d2" in partial.missed


def test_corner_cases(t1_view):
    all_clean = cost_bounds(predict(t1_view, set()))
    assert is_undefined(all_clean.lower) and is_undefined(all_clean.diff)
    assert all_clean.upper == 1000.0 / 2

    all_def = cost_bounds(predict(t1_view, set(t1_view.ids)))
    assert is_undefined(all_def.upper) and is_undefined(all_def.diff)

    fp_only = cost_bounds(predict(t1_view, {"a2"}))
    assert fp_only.lower == INF and fp_only.diff == -INF

    full_cover = cost_bounds(predict(t1_view, {"a1", "a3", "a5"}))
    assert full_cover.upper == INF and full_cover.diff == INF


def test_enumeration_oracle_all_64(t1_view):
    ids = list(t1_view.ids)
    seen_corners = set()
    for bits in itertools.product((0, 1), repeat=6):
        positives = {a for a, b in zip(ids, bits) if b}
        bounds = cost_bounds(predict(t1_view, positives))
        lower, upper, diff = enumeration_oracle(t1_view, positives)
        assert_close(bounds.lower, lower)
        assert_close(bounds.upper, upper)
        assert_close(bounds.diff, diff)
        if is_undefined(lower):
            seen_corners.add("lower_undefined")
        if is_undefined(upper):
            seen_corners.add("upper_undefined")
        if lower == INF:
            seen_corners.add("lower_inf")
        if upper == INF:
            seen_corners.add("upper_inf")
    assert seen_corners == {"lower_undefined", "upper_undefined", "lower_inf", "upper_inf"}


def test_partition_property(t1_view):
    all_ids = {d.id for d in ref_view_defects(t1_view)}
    for bits in itertools.product((0, 1), repeat=6):
        positives = {a for a, b in zip(t1_view.ids, bits) if b}
        outcome = defect_outcome(predict(t1_view, positives))
        assert outcome.predicted | outcome.missed == all_ids
        assert not outcome.predicted & outcome.missed


def test_lower_monotone_in_predicted_size():
    base = {"a1": 100, "a2": 50, "a3": 200, "a4": 10, "a5": 40, "a6": 600}
    prev = None
    for grow in (100, 150, 400, 1000):
        sizes = dict(base, a1=grow)
        view = make_release(sizes=sizes).view()
        bounds = cost_bounds(predict(view, {"a1", "a2", "a5"}))
        if prev is not None:
            assert bounds.lower >= prev
        prev = bounds.lower


def test_upper_monotone_in_clean_size():
    base = {"a1": 100, "a2": 50, "a3": 200, "a4": 10, "a5": 40, "a6": 600}
    prev = None
    for grow in (600, 900, 5000):
        sizes = dict(base, a6=grow)
        view = make_release(sizes=sizes).view()
        bounds = cost_bounds(predict(view, {"a1", "a2", "a5"}))
        if prev is not None:
            assert bounds.upper >= prev
        prev = bounds.upper


def test_diff_simplified(t1_prediction):
    assert diff_simplified(t1_prediction) == 810.0 / 1 - 190.0 / 2


def test_diff_simplified_equals_diff_for_singleton_defects():
    release = make_release(
        sizes={"a1": 100, "a2": 50, "a3": 200},
        defects={"d1": {"a1"}, "d2": {"a3"}},
    )
    view = release.view()
    pred = predict(view, {"a1"})
    assert diff_simplified(pred) == cost_bounds(pred).diff


def test_diff_simplified_corner(t1_view):
    assert diff_simplified(predict(t1_view, {"a2"})) == -INF


def test_classify_potential_bins():
    assert classify_potential(-1e-12) == Potential.NONE
    assert classify_potential(0.0) == Potential.NONE
    assert classify_potential(NAN) == Potential.NONE
    assert classify_potential(-INF) == Potential.NONE
    assert classify_potential(1.0) == Potential.MEDIUM
    assert classify_potential(1000.0) == Potential.MEDIUM
    assert classify_potential(1000.0001) == Potential.LARGE
    assert classify_potential(10000.0) == Potential.LARGE
    assert classify_potential(10001.0) == Potential.EXTRA_LARGE
    assert classify_potential(INF) == Potential.EXTRA_LARGE


def test_classify_potential_custom_boundaries():
    assert classify_potential(620.0) == Potential.MEDIUM
    assert classify_potential(620.0, (900.0, 9000.0)) == Potential.MEDIUM
    assert classify_potential(950.0) == Potential.MEDIUM
    assert classify_potential(950.0, (900.0, 9000.0)) == Potential.LARGE
    with pytest.raises(ValueError):
        classify_potential(1.0, (10.0, 5.0))
    with pytest.raises(ValueError):
        classify_potential(1.0, (0.0, 5.0))


def test_classify_potential_monotone():
    values = [-INF, -5.0, 0.0, 0.5, 999.0, 1000.0, 1001.0, 9999.0, 10000.0, 10001.0, INF]
    levels = [classify_potential(v) for v in values]
    assert levels == sorted(levels)


def test_extended_arithmetic_table():
    assert is_undefined(ext_sub(INF, INF))
    assert is_undefined(ext_sub(-INF, -INF))
    assert ext_sub(INF, 5.0) == INF
    assert ext_sub(5.0, INF) == -INF
    assert ext_sub(5.0, -INF) == INF
    assert ext_sub(-INF, 5.0) == -INF
    assert ext_sub(INF, -INF) == INF
    assert ext_sub(-INF, INF) == -INF
    assert is_undefined(ext_sub(NAN, 1.0))
    assert is_undefined(ext_sub(1.0, NAN))
    assert ext_sub(7.0, 3.0) == 4.0
    # agrees with IEEE float semantics wherever both are defined
    for a in (INF, -INF, NAN, 2.0, -3.5):
        for b in (INF, -INF, NAN, 2.0, -3.5):
            ieee = a - b
            ours = ext_sub(a, b)
            assert (math.isnan(ieee) and math.isnan(ours)) or ieee == ours


def test_safe_div_table():
    assert is_undefined(safe_div(0, 0))
    assert safe_div(3, 0) == INF
    assert safe_div(-3, 0) == -INF
    assert safe_div(3, 2) == 1.5
