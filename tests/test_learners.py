import math
import tracemalloc

import numpy as np
import pytest

from defectcost.extmath import is_undefined
from defectcost.learners import (
    ForestParams,
    apply_smote,
    count_leaves,
    differential_evolution,
    fit_multinomial_logit_elastic_net,
    fit_penalized_softmax,
    forest_importance,
    gini_importance,
    mcfadden_adjusted_r2,
    oob_accuracy,
    oob_mcc,
    params_from_vector,
    predict_proba_tree,
    smote_oversample,
    softmax,
    softmax_nll_grad,
    spearman,
    spearman_matrix,
    train_cart,
    train_random_forest,
    tree_depth,
    tune_smote,
)
from defectcost.learners.logit import one_hot

from conftest import assert_close


# --- CART ------------------------------------------------------------------


def test_single_class_is_leaf():
    tree = train_cart(np.array([[1.0], [2.0], [3.0]]), np.array([1, 1, 1]))
    assert tree.feature[0] < 0
    assert tree.impurity[0] == 0.0


def test_perfect_1d_split_matches_exhaustive_scan():
    rng = np.random.default_rng(0)
    x = np.sort(rng.random(20))
    y = (x > 0.5).astype(int)
    X = x[:, None]
    tree = train_cart(X, y)
    assert tree_depth(tree) == 1

    # exhaustive threshold scan oracle: best split lies between the classes
    lo = x[y == 0].max()
    hi = x[y == 1].min()
    assert lo < tree.threshold[0] <= (lo + hi) / 2


def test_splits_strictly_decrease_gini():
    rng = np.random.default_rng(4)
    for trial in range(5):
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        tree = train_cart(X, y)
        for node in np.flatnonzero(tree.feature >= 0):
            left, right = tree.left[node], tree.right[node]
            nl, nr = tree.n[left], tree.n[right]
            weighted = (nl * tree.impurity[left] + nr * tree.impurity[right]) / tree.n[node]
            assert tree.impurity[node] - weighted > 0
            assert tree.decrease[node] > 0


def test_pure_node_gini_zero():
    tree = train_cart(np.array([[0.0], [1.0]]), np.array([0, 1]))
    assert tree.impurity[tree.left[0]] == 0.0
    assert tree.impurity[tree.right[0]] == 0.0


def test_depth_limit_bounds_leaves():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 8))
    y = rng.integers(0, 2, size=500)
    tree = train_cart(X, y, depth_limit=5)
    assert tree_depth(tree) <= 5
    assert count_leaves(tree) <= 32


def test_min_leaf_respected():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(80, 3))
    y = rng.integers(0, 2, size=80)
    tree = train_cart(X, y, min_leaf=5)
    for node in np.flatnonzero(tree.feature < 0):
        assert tree.n[node] >= 5


def test_cart_input_validation():
    with pytest.raises(ValueError):
        train_cart(np.empty((0, 2)), np.array([]))
    with pytest.raises(ValueError):
        train_cart(np.zeros((3, 1)), np.array([0, 1, 0]), min_split=1)


# --- forest ------------------------------------------------------------------


def test_forest_params_ranges():
    with pytest.raises(ValueError):
        ForestParams(feature_ratio=0.0)
    with pytest.raises(ValueError):
        ForestParams(feature_ratio=1.5)
    with pytest.raises(ValueError):
        ForestParams(min_split=1)
    with pytest.raises(ValueError):
        ForestParams(min_leaf=21)
    p = params_from_vector([0.0, 25.7, 0.2])
    assert 0 < p.feature_ratio <= 1 and p.min_split == 20 and p.min_leaf == 1


def test_forest_separable_accuracy():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(0, 1, (60, 4)), rng.normal(4, 1, (60, 4))])
        y = np.array([0] * 60 + [1] * 60)
        forest = train_random_forest(X, y, ForestParams(n_trees=30), seed=seed)
        if (forest.predict(X) == y).mean() >= 0.95:
            hits += 1
    assert hits == 10


def test_record_sized_forest_fit_memory():
    """A fit the size of an evaluation record's (368 rows, 8 features, 100 trees)
    peaks near 3 MB of traced allocations, the forest included; the bound is
    twice that, so a working set that grows with the forest instead of with the
    chunk and group budgets fails here."""
    rng = np.random.default_rng(368)
    X = np.round(rng.lognormal(size=(368, 8)), 1)
    y = (X[:, 0] + X[:, 1] + rng.normal(0, 1.5, 368) > 3.5).astype(int)
    tracemalloc.start()
    try:
        train_random_forest(X, y, ForestParams(), seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_degenerate_forest_equals_cart():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 5))
    y = (X[:, 2] > 0).astype(int)
    forest = train_random_forest(
        X, y, ForestParams(feature_ratio=1.0, n_trees=1, bootstrap=False), seed=0
    )
    tree = train_cart(X, y)
    assert np.array_equal(
        forest.predict(X), np.argmax(predict_proba_tree(tree, X, 2), axis=1)
    )


def test_noise_oob_accuracy_near_prior():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 5))
    y = (rng.random(300) < 0.7).astype(int)  # labels independent of features
    forest = train_random_forest(X, y, ForestParams(n_trees=40), seed=1)
    acc = oob_accuracy(forest, X, y)
    prior = max(y.mean(), 1 - y.mean())
    assert abs(acc - prior) < 0.1


def test_forest_regression_within_training_range():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(120, 3))
    y = X[:, 0] * 2 + rng.normal(0, 0.1, 120)
    forest = train_random_forest(X, y, ForestParams(n_trees=20), seed=2, task="regress")
    pred = forest.predict(rng.normal(size=(50, 3)) * 3)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


def test_forest_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 4))
    y = (X[:, 0] > 0).astype(int)
    a = train_random_forest(X, y, ForestParams(n_trees=10), seed=42)
    b = train_random_forest(X, y, ForestParams(n_trees=10), seed=42)
    probe = rng.normal(size=(30, 4))
    assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))


# --- Gini importance ---------------------------------------------------------


def test_importance_single_leaf():
    tree = train_cart(np.array([[1.0], [2.0]]), np.array([0, 0]))
    assert np.all(gini_importance(tree, 1) == 0)


def test_importance_depth_one():
    X = np.array([[0.0, 5.0], [1.0, 5.0], [0.2, 5.0], [0.9, 5.0]])
    y = np.array([0, 1, 0, 1])
    tree = train_cart(X, y)
    imp = gini_importance(tree, 2)
    assert imp[0] == 1.0 and imp[1] == 0.0


def test_importance_informative_feature_dominates():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 6))
        y = (X[:, 3] > 0).astype(int)
        forest = train_random_forest(X, y, ForestParams(n_trees=20, feature_ratio=0.5), seed=seed)
        imp = forest_importance(forest, 6)
        if np.argmax(imp) == 3 and imp[3] > max(np.delete(imp, 3)):
            wins += 1
    assert wins == 10


def test_importance_sums_to_one():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    forest = train_random_forest(X, y, ForestParams(n_trees=15), seed=3)
    assert_close(float(forest_importance(forest, 4).sum()), 1.0, tol=1e-9)


# --- differential evolution --------------------------------------------------


def test_de_sphere():
    for seed in range(5):
        _, best = differential_evolution(
            lambda x: float(np.sum(x * x)), [(-5, 5)] * 3, generations=50, seed=seed
        )
        assert best < 1e-2


def test_de_population_too_small():
    with pytest.raises(ValueError, match="population"):
        differential_evolution(lambda x: 0.0, [(-1, 1)], population=1)


def test_de_negative_generations():
    with pytest.raises(ValueError, match="generations"):
        differential_evolution(lambda x: 0.0, [(-1, 1)], generations=-1)
    best, value = differential_evolution(lambda x: float(x[0] ** 2), [(-1, 1)], generations=0)
    assert value == best[0] ** 2  # the best of the initial population


def test_de_empty_bounds():
    with pytest.raises(ValueError):
        differential_evolution(lambda x: 0.0, [])


def test_de_integer_dims():
    best, _ = differential_evolution(
        lambda x: (x[0] - 3.2) ** 2 + (x[1] - 7.0) ** 2,
        [(0, 10), (0, 10)],
        generations=40,
        integer_dims=(1,),
        seed=0,
    )
    assert best[1] == round(best[1])
    assert abs(best[1] - 7.0) < 1e-9


def test_tuned_forest_not_worse_than_default():
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(0, 1.5, (70, 4)), rng.normal(2, 1.5, (30, 4))])
    y = np.array([0] * 70 + [1] * 30)
    default = train_random_forest(X, y, ForestParams(n_trees=25), seed=5)
    default_score = oob_mcc(default, X, y)

    def objective(vec):
        params = params_from_vector(vec, base=ForestParams(n_trees=25))
        score = oob_mcc(train_random_forest(X, y, params, seed=5), X, y)
        return np.inf if math.isnan(score) else -score

    best, best_val = differential_evolution(
        objective, [(0.0, 1.0), (2, 20), (1, 20)],
        population=8, generations=4, integer_dims=(1, 2), seed=5,
    )
    assert -best_val >= default_score


# --- SMOTE -------------------------------------------------------------------


def test_smote_segment():
    synth = smote_oversample(
        np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((10, 2)), k_neighbors=1, seed=0
    )
    assert len(synth) == 8  # parity: 10 majority vs 2 minority
    assert np.allclose(synth[:, 0], synth[:, 1])
    assert np.all(synth >= 0.0) and np.all(synth < 1.0)


def test_smote_parity_bias():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 3))
    y = np.array([1] * 10 + [0] * 90)
    X_aug, y_aug = apply_smote(X, y, target_ratio=0.5, seed=2)
    bias = y_aug.mean()
    assert abs(bias - 0.5) <= 1.0 / len(y_aug)  # 0.5 within one sample


def test_smote_bounding_box():
    rng = np.random.default_rng(2)
    for seed in range(10):
        X_min = rng.normal(size=(12, 4))
        synth = smote_oversample(X_min, np.zeros((40, 4)), k_neighbors=3, seed=seed)
        assert np.all(synth >= X_min.min(axis=0) - 1e-12)
        assert np.all(synth <= X_min.max(axis=0) + 1e-12)


def test_smote_needs_two_minority():
    with pytest.raises(ValueError, match="two minority"):
        smote_oversample(np.ones((1, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        smote_oversample(np.ones((3, 2)), np.zeros((5, 2)), target_ratio=1.5)


def test_tune_smote_returns_in_bounds():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(2, 1, (10, 3))])
    y = np.array([0] * 40 + [1] * 10)
    from defectcost.learners import SmoteTuning

    k, ratio = tune_smote(X, y, seed=1, tuning=SmoteTuning(population=4, generations=2, objective_trees=10))
    assert 1 <= k <= 10
    assert 0.3 <= ratio <= 0.7


# --- logit -------------------------------------------------------------------


def test_softmax_gradient_matches_central_differences():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n, k, c = 10, 3, 3
        X = rng.normal(size=(n, k))
        Y = one_hot(rng.integers(0, c, n), c)
        W = rng.normal(size=(k, c))
        b = rng.normal(size=c)
        _, gW, gb = softmax_nll_grad(W, b, X, Y)
        eps = 1e-6
        for i in range(k):
            for j in range(c):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += eps
                Wm[i, j] -= eps
                fd = (softmax_nll_grad(Wp, b, X, Y)[0] - softmax_nll_grad(Wm, b, X, Y)[0]) / (2 * eps)
                assert abs(fd - gW[i, j]) / max(1.0, abs(fd)) < 1e-5
        for j in range(c):
            bp, bm = b.copy(), b.copy()
            bp[j] += eps
            bm[j] -= eps
            fd = (softmax_nll_grad(W, bp, X, Y)[0] - softmax_nll_grad(W, bm, X, Y)[0]) / (2 * eps)
            assert abs(fd - gb[j]) / max(1.0, abs(fd)) < 1e-5


def test_full_shrinkage_predicts_majority():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 4))
    y = np.array([0] * 40 + [1] * 20)
    W, b, _ = fit_penalized_softmax((X - X.mean(0)) / X.std(0), y, 2, lam=1e9, alpha=1.0)
    assert np.all(W == 0.0)
    probs = softmax(X @ W + b)
    assert np.all(np.argmax(probs, axis=1) == 0)


def test_l1_norm_non_increasing_in_lambda():
    rng = np.random.default_rng(11)
    X = np.vstack([rng.normal(0, 1, (50, 4)), rng.normal(1.5, 1, (50, 4))])
    X = (X - X.mean(0)) / X.std(0)
    y = np.array([0] * 50 + [1] * 50)
    for alpha in (0.25, 0.5, 1.0):
        prev = None
        W_warm = b_warm = None
        for lam in (1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0):
            W, b, _ = fit_penalized_softmax(X, y, 2, lam, alpha, W0=W_warm, b0=b_warm)
            W_warm, b_warm = W, b
            l1 = float(np.abs(W).sum())
            if prev is not None:
                assert l1 <= prev + 1e-8
            prev = l1


def test_three_class_blobs():
    rng = np.random.default_rng(12)
    X = np.vstack([
        rng.normal([0, 0], 0.5, (40, 2)),
        rng.normal([4, 0], 0.5, (40, 2)),
        rng.normal([0, 4], 0.5, (40, 2)),
    ])
    y = np.array([0] * 40 + [1] * 40 + [2] * 40)
    model = fit_multinomial_logit_elastic_net(X, y)
    assert np.mean(np.array(model.predict(X)) == y) >= 0.9
    assert model.goodness.k == len(model.selected)


def test_logit_single_class_rejected():
    with pytest.raises(ValueError):
        fit_multinomial_logit_elastic_net(np.zeros((5, 2)), [1, 1, 1, 1, 1])


def test_mcfadden_null_and_perfect():
    y = np.array([0] * 60 + [1] * 40)
    freqs = np.tile([0.6, 0.4], (100, 1))
    assert mcfadden_adjusted_r2(freqs, y, k=0) == 0.0
    perfect = one_hot(y, 2)
    assert mcfadden_adjusted_r2(perfect, y, k=0) == 1.0


def test_mcfadden_closed_form():
    # balanced 2-class, uniform probabilities, k=2, n=100
    n = 100
    y = np.array([0, 1] * 50)
    probs = np.full((n, 2), 0.5)
    expected = 1 - (n * math.log(0.5) - 2) / (n * math.log(0.5))
    assert_close(mcfadden_adjusted_r2(probs, y, k=2), expected)


def test_logit_grid_contains_path():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    model = fit_multinomial_logit_elastic_net(X, y, lambda_grid=(1.0, 10.0), alpha_grid=(0.0, 1.0))
    assert len(model.grid) == 4
    assert {(c.lam, c.alpha) for c in model.grid} == {(1.0, 0.0), (1.0, 1.0), (10.0, 0.0), (10.0, 1.0)}


# --- spearman ----------------------------------------------------------------


def test_spearman_basics():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [30, 20, 10]) == -1.0


def test_spearman_tie_example():
    # independent two-step oracle: mid-ranks, then Pearson
    x = np.array([1.0, 2.0, 2.0, 4.0])
    y = np.array([1.0, 3.0, 2.0, 4.0])
    rx = np.array([1.0, 2.5, 2.5, 4.0])
    ry = np.array([1.0, 3.0, 2.0, 4.0])
    expected = float(np.corrcoef(rx, ry)[0, 1])
    assert_close(spearman(x, y), expected)


def test_spearman_monotone_invariance():
    rng = np.random.default_rng(14)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    base = spearman(x, y)
    assert_close(base, spearman(np.exp(x), y))
    assert_close(base, spearman(x, y**3))


def test_spearman_nan_handling():
    nan = float("nan")
    assert_close(spearman([1, 2, nan, 4], [1, 2, 3, 4]), 1.0)
    assert is_undefined(spearman([1, nan], [1, 2]))
    assert is_undefined(spearman([1, 1, 1], [1, 2, 3]))  # zero rank variance
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])


def test_spearman_matrix_shape():
    rng = np.random.default_rng(15)
    cols = rng.normal(size=(30, 4))
    m = spearman_matrix(cols)
    assert m.shape == (4, 4)
    assert np.all(np.diag(m) == 1.0)
    assert np.allclose(m, m.T, equal_nan=True)
