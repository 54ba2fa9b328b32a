import math

import pytest

from defectcost.confounders import compute_confounders, top_share
from defectcost.metrics import Prediction, confusion_counts

from conftest import assert_close, is_undefined, make_release


def test_bias_fractions(t1_view):
    vec = compute_confounders([0] * 8 + [1] * 2, [0] * 5 + [1] * 5, t1_view)
    assert vec.bias_train == 0.2
    assert vec.bias_train_prime == 0.5
    assert vec.bias_test == 0.5
    assert_close(vec.ratio_bias, 0.5 / 0.2)
    assert_close(vec.ratio_bias_prime, 0.5 / 0.5)
    assert vec.n_train == 10 and vec.n_train_prime == 10 and vec.n_test == 6


def test_ratio_undefined_for_zero_bias(t1_view):
    vec = compute_confounders([0, 0, 0], [0, 0, 0], t1_view)
    assert is_undefined(vec.ratio_bias)
    assert is_undefined(vec.ratio_bias_prime)


def test_top_share_example():
    # sizes {100, 200, 40}: ceil(0.03) = 1 largest -> 200/340
    assert_close(top_share([100, 200, 40]), 200 / 340)


def test_prop_from_view():
    release = make_release(
        sizes={"a1": 100, "a2": 50, "a3": 200, "a4": 10, "a5": 40, "a6": 600},
        defects={"d1": {"a1"}, "d2": {"a3", "a5"}},
    )
    view = release.view()
    vec = compute_confounders([0, 1, 1], [0, 1, 1], view)
    assert_close(vec.prop_def_1pct, 200 / 340)
    assert_close(vec.prop_clean_1pct, 600 / 660)


def test_uniform_sizes():
    n = 150
    release = make_release(
        sizes={f"f{i:03d}": 7 for i in range(n)},
        defects={f"d{i}": {f"f{i:03d}"} for i in range(n)},  # everything defective
    )
    vec = compute_confounders([1, 0], [1, 0], release.view())
    assert_close(vec.prop_def_1pct, math.ceil(0.01 * n) / n)
    assert is_undefined(vec.prop_clean_1pct)  # no clean artifacts


def test_prop_monotone_in_largest():
    shares = []
    for big in (200, 400, 800):
        release = make_release(
            sizes={"a1": 100, "a2": 50, "a3": big},
            defects={"d1": {"a1"}, "d2": {"a3"}},
        )
        shares.append(compute_confounders([1, 0], [1, 0], release.view()).prop_def_1pct)
    assert shares == sorted(shares)


def test_n_test_matches_confusion_total(t1_view):
    pred = Prediction.from_ids(t1_view, {a: 0.9 for a in t1_view.ids}, 0.5)
    counts = confusion_counts(pred)
    vec = compute_confounders([0, 1], [0, 1], t1_view)
    assert vec.n_test == counts.total


def test_empty_views_rejected(t1_view):
    with pytest.raises(ValueError):
        compute_confounders([], [0, 1], t1_view)
