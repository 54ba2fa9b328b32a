"""Recursive reference implementation of the CART learner.

The reference below grows a tree of node objects breadth first, from a FIFO
queue, sorting each candidate feature of each node on its own, and predicts by
walking one row at a time. With feature subsampling, each splitting node draws
its candidates as ``rng.random(k).argsort()[:max_features]`` when it leaves the
queue, so a tree's draws follow breadth-first order: depth by depth, left to
right. On seeded fixtures (two, three and four classes, regression, integer
features with many ties, bootstrap duplicates, raised ``min_leaf``/``min_split``,
a depth limit, feature subsampling with the same RNG stream) the package must
give the same nodes in preorder (feature, threshold, sample count, impurity,
value, decrease) and bitwise-equal predictions and Gini importances, for single
trees and for forests (predict, predict_proba, out-of-bag votes, importances).
Training sets with duplicated rows and conflicting labels, SMOTE-shaped sets
and heavily repeated bags check that a classification tree grown on the
distinct rows of its bag, weighted by their counts, is the tree of the
repeated rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from defectcost.learners import (
    Forest,
    ForestParams,
    apply_smote,
    forest_importance,
    gini_importance,
    train_cart,
    train_random_forest,
)
from defectcost.learners.tree import grow_trees

_MIN_DECREASE = 1e-12


@dataclass
class RefNode:
    n_samples: int
    impurity: float
    value: np.ndarray | float
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["RefNode"] = None
    right: Optional["RefNode"] = None
    decrease: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def ref_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def ref_split_classification(x, y_onehot, min_leaf):
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = len(xs)
    left = np.cumsum(y_onehot[order], axis=0)
    total = left[-1]
    cuts = np.arange(min_leaf, n - min_leaf + 1)
    if cuts.size == 0:
        return None
    cuts = cuts[xs[cuts - 1] < xs[cuts]]
    if cuts.size == 0:
        return None
    nl = cuts.astype(np.float64)
    nr = n - nl
    cl = left[cuts - 1]
    cr = total - cl
    gini_l = 1.0 - np.sum((cl / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((cr / nr[:, None]) ** 2, axis=1)
    weighted = (nl * gini_l + nr * gini_r) / n
    j = int(np.argmin(weighted))
    i = int(cuts[j])
    lo, hi = xs[i - 1], xs[i]
    thr = (lo + hi) / 2.0
    if thr >= hi:
        thr = lo
    return float(weighted[j]), float(thr)


def ref_split_regression(x, y, min_leaf):
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = len(xs)
    s1 = np.cumsum(ys)
    s2 = np.cumsum(ys * ys)
    cuts = np.arange(min_leaf, n - min_leaf + 1)
    if cuts.size == 0:
        return None
    cuts = cuts[xs[cuts - 1] < xs[cuts]]
    if cuts.size == 0:
        return None
    nl = cuts.astype(np.float64)
    nr = n - nl
    sl1, sl2 = s1[cuts - 1], s2[cuts - 1]
    sr1, sr2 = s1[-1] - sl1, s2[-1] - sl2
    var_l = np.maximum(sl2 / nl - (sl1 / nl) ** 2, 0.0)
    var_r = np.maximum(sr2 / nr - (sr1 / nr) ** 2, 0.0)
    weighted = (nl * var_l + nr * var_r) / n
    j = int(np.argmin(weighted))
    i = int(cuts[j])
    lo, hi = xs[i - 1], xs[i]
    thr = (lo + hi) / 2.0
    if thr >= hi:
        thr = lo
    return float(weighted[j]), float(thr)


def ref_train_cart(X, y, *, task="classify", n_classes=None, min_split=2, min_leaf=1,
                   depth_limit=None, max_features=None, rng=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if task == "classify":
        y = y.astype(np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        y_onehot = np.eye(n_classes, dtype=np.float64)[y]
    else:
        y = y.astype(np.float64)
        y_onehot = None
    k = X.shape[1]
    if max_features is None or max_features > k:
        max_features = k
    if rng is None:
        rng = np.random.default_rng(0)

    def node_stats(idx):
        if task == "classify":
            counts = y_onehot[idx].sum(axis=0)
            return ref_gini(counts), counts
        vals = y[idx]
        return float(np.maximum(vals.var(), 0.0)), float(vals.mean())

    def make(idx):
        impurity, value = node_stats(idx)
        return RefNode(n_samples=len(idx), impurity=impurity, value=value)

    root = make(np.arange(X.shape[0]))
    queue = deque([(root, np.arange(X.shape[0]), 0)])
    while queue:
        node, idx, depth = queue.popleft()
        if (
            len(idx) < min_split
            or len(idx) < 2 * min_leaf
            or node.impurity <= 0.0
            or (depth_limit is not None and depth >= depth_limit)
        ):
            continue
        if max_features < k:
            features = rng.random(k).argsort()[:max_features]
        else:
            features = np.arange(k)
        best = None
        for f in features:
            x = X[idx, f]
            if task == "classify":
                res = ref_split_classification(x, y_onehot[idx], min_leaf)
            else:
                res = ref_split_regression(x, y[idx], min_leaf)
            if res is None:
                continue
            weighted, thr = res
            if best is None or weighted < best[0]:
                best = (weighted, int(f), thr)
        if best is None:
            continue
        weighted, f, thr = best
        decrease = node.impurity - weighted
        if decrease <= _MIN_DECREASE:
            continue
        mask = X[idx, f] <= thr
        node.feature = f
        node.threshold = thr
        node.decrease = len(idx) * decrease
        node.left, node.right = make(idx[mask]), make(idx[~mask])
        queue.append((node.left, idx[mask], depth + 1))
        queue.append((node.right, idx[~mask], depth + 1))
    return root


def ref_walk(node):
    yield node
    if not node.is_leaf:
        yield from ref_walk(node.left)
        yield from ref_walk(node.right)


def ref_apply(root, X):
    out = []
    for row in np.asarray(X, dtype=np.float64):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node)
    return out


def ref_predict_proba(root, X, n_classes):
    leaves = ref_apply(root, X)
    out = np.zeros((len(leaves), n_classes))
    for i, leaf in enumerate(leaves):
        out[i, : len(leaf.value)] = leaf.value / leaf.value.sum()
    return out


def ref_predict_regression(root, X):
    return np.array([leaf.value for leaf in ref_apply(root, X)], dtype=np.float64)


def ref_importance(root, n_features):
    raw = np.zeros(n_features)
    for node in ref_walk(root):
        if not node.is_leaf:
            raw[node.feature] += node.decrease
    total = raw.sum()
    return raw / total if total > 0 else raw


def ref_nodes(root):
    """Preorder node table of a reference tree; leaves have feature -1."""
    nodes = list(ref_walk(root))
    ids = {id(node): i for i, node in enumerate(nodes)}
    internal = [not node.is_leaf for node in nodes]
    return {
        "feature": np.array([-1 if node.is_leaf else node.feature for node in nodes]),
        "threshold": np.array([node.threshold for node, s in zip(nodes, internal) if s], dtype=float),
        "left": np.array([-1 if node.is_leaf else ids[id(node.left)] for node in nodes]),
        "right": np.array([-1 if node.is_leaf else ids[id(node.right)] for node in nodes]),
        "n": np.array([node.n_samples for node in nodes]),
        "impurity": np.array([node.impurity for node in nodes]),
        "value": np.array([node.value for node in nodes], dtype=float),
        "decrease": np.array([node.decrease for node in nodes]),
    }


def package_nodes(tree, t=0):
    """The same node table read from tree t of a node table of the package,
    with child ids counted from the tree's root."""
    root, end = np.append(tree.roots, len(tree.feature))[[t, t + 1]]
    nodes = slice(root, end)
    internal = tree.feature[nodes] >= 0
    return {"feature": tree.feature[nodes], "threshold": tree.threshold[nodes][internal],
            "left": np.where(internal, tree.left[nodes] - root, -1),
            "right": np.where(internal, tree.right[nodes] - root, -1), "n": tree.n[nodes],
            "impurity": tree.impurity[nodes], "value": tree.value[nodes], "decrease": tree.decrease[nodes]}


def one_tree_forest(tree, task, n_classes):
    """A tree of the package as the only, unbagged tree of a forest, to predict with."""
    return Forest(task=task, params=ForestParams(n_trees=1, bootstrap=False), trees=tree,
                  in_bag=np.arange(tree.n[0])[None], n_classes=n_classes)


def assert_same(a, b):
    """Equal shape, equal dtype and equal values bit for bit (NaN equal to NaN,
    signed zeros told apart)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _classify(rng, n, k, classes):
    X = rng.normal(size=(n, k))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.7, n) > 0).astype(int)
    if classes > 2:
        y = np.clip(np.floor((X[:, 0] + rng.normal(0, 0.8, n)) * classes / 3 + classes / 2), 0, classes - 1)
    return X, y.astype(int)


def _repeated_row_sets():
    """(name, X, y, n_classes) of classification sets at 2 and 4 classes shaped
    like the forests' inputs: rows drawn with repeats from a small pool, so that
    equal rows carry conflicting labels, as in a bootstrap sample; and SMOTE-shaped
    sets of many continuous rows with balanced classes (at 2 classes the output of
    ``apply_smote`` on imbalanced rounded data)."""
    rng = np.random.default_rng(52)
    sets = []
    for classes in (2, 4):
        pool = np.round(rng.normal(size=(30, 5)), 1)
        X = pool[rng.integers(0, len(pool), size=180)]
        y = (X[:, 0] > 0).astype(int) * (classes // 2) + rng.integers(0, classes // 2 + 1, size=180)
        sets.append((f"duplicated_rows_{classes}", X, np.minimum(y, classes - 1), classes))
    X = np.round(np.exp(rng.normal(size=(300, 6))), 2)
    y = (X[:, 0] + X[:, 3] + rng.normal(0, 1, 300) > 4.5).astype(int)
    assert 0.1 < y.mean() < 0.4
    X, y = apply_smote(X, y, seed=3)
    sets.append(("smote_shaped_2", X, y, 2))
    X = rng.normal(size=(400, 6))
    signal = X[:, 0] - 0.7 * X[:, 2] + rng.normal(0, 0.6, 400)
    sets.append(("smote_shaped_4", X, np.searchsorted(np.quantile(signal, [0.25, 0.5, 0.75]), signal), 4))
    return sets


REPEATED_ROW_SETS = _repeated_row_sets()
SET_PARAMS = ({"min_leaf": 3, "min_split": 5}, {"max_features": 2})


def _fixtures():
    """(name, X, y, task, train_cart keyword arguments without rng) per case."""
    rng = np.random.default_rng(20)
    cases = [(f"{name}_{'min_leaf' if 'min_leaf' in kwargs else 'max_features'}", X, y, "classify",
              {"n_classes": classes, **kwargs})
             for name, X, y, classes in REPEATED_ROW_SETS for kwargs in SET_PARAMS]
    X, y = _classify(rng, 60, 5, 2)
    cases.append(("two_class", X, y, "classify", {}))
    X, y = _classify(rng, 150, 6, 4)
    cases.append(("four_class", X, y, "classify", {"n_classes": 4}))
    X = rng.normal(size=(120, 4))
    cases.append(("regression", X, 2 * X[:, 0] - X[:, 2] ** 2 + rng.normal(0, 0.3, 120), "regress", {}))
    Xi = rng.integers(0, 4, size=(200, 5)).astype(float)
    yi = ((Xi[:, 0] + Xi[:, 3] + rng.integers(0, 3, 200)) % 3).astype(int)
    cases.append(("integer_ties", Xi, yi, "classify", {}))
    cases.append(("integer_ties_regression", Xi, Xi[:, 1] * 0.5 + rng.integers(0, 5, 200) * 0.1, "regress", {}))
    bag = rng.integers(0, 200, size=200)
    cases.append(("bootstrap_duplicates", Xi[bag], yi[bag], "classify", {}))
    X, y = _classify(rng, 160, 5, 3)
    cases.append(("min_leaf_min_split", X, y, "classify", {"min_leaf": 4, "min_split": 11}))
    X = rng.normal(size=(140, 3))
    cases.append(("min_leaf_regression", X, X[:, 1] + rng.normal(0, 0.5, 140), "regress",
                  {"min_leaf": 7, "min_split": 20}))
    X, y = _classify(rng, 300, 6, 4)
    cases.append(("depth_limit", X, y, "classify", {"depth_limit": 3, "n_classes": 5}))
    X, y = _classify(rng, 180, 8, 2)
    cases.append(("max_features", X, y, "classify", {"max_features": 3}))
    cases.append(("max_features_ties", Xi, yi, "classify", {"max_features": 2, "min_leaf": 2}))
    X = rng.normal(size=(100, 6))
    cases.append(("max_features_regression", X, X[:, 4] - X[:, 0] + rng.normal(0, 0.2, 100), "regress",
                  {"max_features": 2, "depth_limit": 6}))
    cases.append(("constant_features", np.ones((10, 3)), np.arange(10) % 2, "classify", {}))
    cases.append(("single_row", np.array([[1.0, 2.0]]), np.array([1]), "classify", {"n_classes": 2}))
    cases.append(("pure", rng.normal(size=(20, 2)), np.zeros(20, dtype=int), "classify", {}))
    cases += [(name, X, y, "classify", kwargs) for name, X, y, kwargs in STOPPING_SETS]
    return cases


def _rare_positives(rng, n, k):
    """n rows of k features with 10% positives, the defect ratio of the benchmark's releases."""
    X = np.round(rng.normal(size=(n, k)), 2)
    signal = X[:, 0] + 0.6 * X[:, 1] + rng.normal(0, 0.8, n)
    return X, (signal >= np.sort(signal)[-n // 10]).astype(int)


def _stopping_sets():
    """(name, X, y, train_cart keyword arguments) of rare-positive sets on which
    most splits have two children that stop: pure, below ``min_split`` or
    ``2 * min_leaf``, or at the depth limit."""
    rng = np.random.default_rng(70)
    X, y = _rare_positives(rng, 200, 8)
    Xs, ys = apply_smote(X, y, seed=4)
    return [("rare_positives", X, y, {}),
            ("rare_positives_min_leaf_min_split", X, y, {"min_leaf": 6, "min_split": 14}),
            ("rare_positives_depth_limit", X, y, {"depth_limit": 2}),
            ("rare_positives_smote_min_leaf", Xs, ys, {"min_leaf": 9, "max_features": 3}),
            ("rare_positives_smote_depth_limit", Xs, ys, {"depth_limit": 3, "min_split": 20})]


STOPPING_SETS = _stopping_sets()


def _both_children_stop(root):
    """Share of a reference tree's splits whose two children are leaves."""
    splits = [node for node in ref_walk(root) if not node.is_leaf]
    return sum(node.left.is_leaf and node.right.is_leaf for node in splits) / len(splits)


FIXTURES = _fixtures()


@pytest.mark.parametrize("case", FIXTURES, ids=[c[0] for c in FIXTURES])
def test_tree_matches_reference(case):
    name, X, y, task, kwargs = case
    seed = sum(map(ord, name))
    ref = ref_train_cart(X, y, task=task, rng=np.random.default_rng(seed), **kwargs)
    tree = train_cart(X, y, task=task, rng=np.random.default_rng(seed), **kwargs)
    want, got = ref_nodes(ref), package_nodes(tree)
    assert len(want["feature"]) > 1 or name in ("constant_features", "single_row", "pure")
    for field in want:
        assert_same(got[field], want[field])

    probe = np.vstack([X, np.random.default_rng(seed + 1).normal(size=(40, X.shape[1])) * 3])
    if task == "classify":
        n_classes = want["value"].shape[1]
        got = one_tree_forest(tree, task, n_classes).predict_proba(probe)
        assert_same(got, ref_predict_proba(ref, probe, n_classes))
    else:
        assert_same(one_tree_forest(tree, task, 0).predict(probe), ref_predict_regression(ref, probe))
    assert_same(gini_importance(tree, X.shape[1]), ref_importance(ref, X.shape[1])[None])


def _bags(rng, n, kind):
    """Three bags of n row ids: bootstrap draws, or heavily repeated draws from a
    few rows (about 1 in 10, with skewed counts)."""
    if kind == "bootstrap":
        return rng.integers(0, n, size=(3, n))
    few = rng.choice(n, size=max(2, n // 10), replace=False)
    return few[np.minimum(rng.geometric(0.15, size=(3, n)) - 1, len(few) - 1)]


@pytest.mark.parametrize("kind", ["bootstrap", "repeated"])
@pytest.mark.parametrize("kwargs", SET_PARAMS, ids=["min_leaf", "max_features"])
@pytest.mark.parametrize("data", REPEATED_ROW_SETS, ids=[d[0] for d in REPEATED_ROW_SETS])
def test_grown_trees_match_reference_on_repeated_rows(data, kwargs, kind):
    """Each tree of ``grow_trees`` is the reference tree of its bag's rows,
    repeats included, for classification and for regression on the same rows."""
    name, X, y, classes = data
    seed = sum(map(ord, name + kind))
    bags = _bags(np.random.default_rng(seed), len(X), kind)
    assert len(np.unique(bags[0])) < 0.7 * len(X)
    for task, target, n_classes in (("classify", y, classes), ("regress", X[:, 1] - y, None)):
        trees = grow_trees(X, target, bags, [np.random.default_rng([seed, t]) for t in range(len(bags))],
                           task=task, n_classes=n_classes, **kwargs)
        for t, bag in enumerate(bags):
            ref = ref_train_cart(X[bag], target[bag], task=task, n_classes=n_classes,
                                 rng=np.random.default_rng([seed, t]), **kwargs)
            want, got = ref_nodes(ref), package_nodes(trees, t)
            assert len(want["feature"]) > 1
            for field in want:
                assert_same(got[field], want[field])


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_tree_columns_have_their_dtypes(task):
    """Sample counts and node ids are integers, values and impurities float64,
    also for trees grown on weighted distinct rows."""
    rng = np.random.default_rng(61)
    X = np.round(rng.normal(size=(80, 4)), 1)
    y = (X[:, 0] > 0).astype(int) if task == "classify" else X[:, 0] + X[:, 1]
    trees = grow_trees(X, y, rng.integers(0, 80, size=(4, 80)), [np.random.default_rng(t) for t in range(4)],
                       task=task, max_features=2)
    assert len(trees.feature) > 4
    for column in ("feature", "left", "right", "n", "roots"):
        assert np.issubdtype(getattr(trees, column).dtype, np.integer), column
    for column in ("threshold", "value", "impurity", "decrease"):
        assert getattr(trees, column).dtype == np.float64, column


def ref_forest_trees(X, y, params, seed, task, n_classes):
    trees, bags = [], []
    n = len(X)
    for t in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        bag = rng.integers(0, n, size=n)
        trees.append(ref_train_cart(X[bag], y[bag], task=task, n_classes=n_classes,
                                    min_split=params.min_split, min_leaf=params.min_leaf,
                                    depth_limit=params.depth_limit,
                                    max_features=params.max_features(X.shape[1]), rng=rng))
        bags.append(bag)
    return trees, bags


def ref_forest_votes(trees, bags, X, task, n_classes, oob=False):
    """(mask of rows with a vote, mean of the votes) of reference trees, added
    tree by tree; with ``oob`` only the trees whose bag misses a row vote on it."""
    acc = np.zeros((len(X), n_classes) if task == "classify" else len(X))
    votes = np.zeros(len(X))
    for ref, bag in zip(trees, bags):
        rows = np.ones(len(X), dtype=bool)
        if oob:
            rows[bag] = False
        if rows.any():
            acc[rows] += (ref_predict_proba(ref, X[rows], n_classes) if task == "classify"
                          else ref_predict_regression(ref, X[rows]))
            votes[rows] += 1
    has = votes > 0
    mean = np.zeros_like(acc)
    mean[has] = acc[has] / (votes[has, None] if task == "classify" else votes[has])
    return has, mean


@pytest.mark.parametrize("params", [
    ForestParams(n_trees=12),
    ForestParams(n_trees=9, feature_ratio=0.4, min_split=6, min_leaf=3),
])
def test_forest_matches_reference(params):
    rng = np.random.default_rng(33)
    X, y = _classify(rng, 130, 6, 3)
    _assert_forest_matches_reference((X, y, "classify", 3, params, 5))
    _assert_forest_matches_reference((X, X[:, 0] * 3 + rng.normal(0, 0.5, len(X)), "regress", None, params, 6))


def test_one_tree_unbagged_forest_matches_depth_limited_cart():
    """The depth-5 relationship tree: a CART grown on all rows is the only tree
    of an unbagged one-tree forest that draws every feature at each split, with
    the same predictions and importances, on inputs with many ties."""
    rng = np.random.default_rng(41)
    for _ in range(30):
        n, k = int(rng.integers(20, 200)), int(rng.integers(1, 31))
        X = np.round(rng.normal(size=(n, k)), int(rng.integers(0, 2)))
        y = ((X[:, 0] > 0).astype(int) + (X[:, -1] > 0.5) + rng.integers(0, 2, n)) % 4
        seed = int(rng.integers(2**31))
        tree = train_cart(X, y, n_classes=4, depth_limit=5, rng=np.random.default_rng(seed))
        forest = train_random_forest(X, y, ForestParams(n_trees=1, depth_limit=5, bootstrap=False),
                                     seed=seed, n_classes=4)
        want, got = package_nodes(tree), package_nodes(forest.trees)
        for field in want:
            assert_same(got[field], want[field])
        probe = np.vstack([X, rng.normal(size=(30, k))])
        assert_same(forest.predict(probe), one_tree_forest(tree, "classify", 4).predict(probe))
        assert_same(forest_importance(forest, k), gini_importance(tree, k)[0])


def _forest_sweep():
    """(X, y, task, n_classes, params, seed) of seeded forests: 1-200 rows, 1-30
    rounded features (ties), 2-5 classes or regression, subsampled features,
    raised minimums and depth limits; the first cases are tiny or nearly pure, so
    some of their bags hold a single class."""
    rng = np.random.default_rng(808)
    sizes = [(1, 1), (2, 3), (5, 1), (7, 30), (200, 30)]
    cases = []
    for i in range(30):
        n, k = sizes[i] if i < len(sizes) else (int(rng.integers(1, 201)), int(rng.integers(1, 31)))
        X = np.round(rng.normal(size=(n, k)), int(rng.integers(0, 3)))
        if i % 6 == 5:
            task, n_classes = "regress", None
            y = np.round(X[:, 0] * 2 + X[:, -1] + rng.normal(0, 0.5, n), int(rng.integers(0, 2)))
        else:
            task, n_classes = "classify", int(rng.integers(2, 6))
            if i < len(sizes) or i % 6 == 1:
                y = (np.arange(n) == 0).astype(int)
            else:
                signal = X[:, 0] + 0.5 * X[:, -1] + rng.normal(0, 0.8, n)
                y = np.clip(np.floor(signal * n_classes / 3 + n_classes / 2), 0, n_classes - 1).astype(int)
        params = ForestParams(
            n_trees=int(rng.integers(2, 5)),
            feature_ratio=float(rng.choice([1.0, 0.5, rng.uniform(0.05, 1.0)])),
            min_split=int(rng.integers(2, 13)),
            min_leaf=int(rng.integers(1, 7)),
            depth_limit=None if i % 3 else int(rng.integers(1, 9)),
        )
        cases.append((X, y, task, n_classes, params, int(rng.integers(2**31))))
    return cases


def _assert_forest_matches_reference(case):
    X, y, task, n_classes, params, seed = case
    forest = train_random_forest(X, y, params, seed=seed, task=task, n_classes=n_classes)
    trees, bags = ref_forest_trees(X, y, params, seed, task, n_classes)
    assert len(forest.trees.roots) == len(trees)
    assert_same(forest.in_bag, np.array(bags))
    for t, ref in enumerate(trees):
        want, have = ref_nodes(ref), package_nodes(forest.trees, t)
        for field in want:
            assert_same(have[field], want[field])

    probe = np.vstack([X, np.random.default_rng(seed).normal(size=(20, X.shape[1])) * 2])
    _, want = ref_forest_votes(trees, bags, probe, task, n_classes)
    if task == "classify":
        assert_same(forest.predict_proba(probe), want)
        assert_same(forest.predict(probe), np.argmax(want, axis=1))
        for got, expected in zip(forest.oob_proba(X), ref_forest_votes(trees, bags, X, task, n_classes, oob=True)):
            assert_same(got, expected)
    else:
        assert_same(forest.predict(probe), want)
    importance = np.zeros(X.shape[1])
    for ref in trees:
        importance += ref_importance(ref, X.shape[1])
    assert_same(forest_importance(forest, X.shape[1]), importance / len(trees))


def test_forest_sweep_matches_reference():
    cases = _forest_sweep()
    assert {c[2] for c in cases} == {"classify", "regress"}
    assert {c[3] for c in cases} >= {2, 3, 4, 5}
    assert any(c[4].feature_ratio < 1 for c in cases) and any(c[4].depth_limit for c in cases)
    for case in cases:
        _assert_forest_matches_reference(case)


def test_forest_sweep_with_one_segment_per_chunk(monkeypatch):
    """The grower scores and partitions its segments in chunks of bounded size,
    and grows large forests in groups of trees; a forest predicts in blocks of
    rows. The smallest budgets make every segment its own chunk, every tree its
    own group and every row its own block, and give the same trees and votes."""
    from defectcost.learners import tree as tree_module

    monkeypatch.setattr(tree_module, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(tree_module, "_GROUP_ELEMENTS", 1)
    for case in _forest_sweep()[::3]:
        _assert_forest_matches_reference(case)
    # a one-row block of a regressor holds one vote per tree, which numpy sums
    # pairwise from 8 terms on
    X = np.round(np.random.default_rng(34).normal(size=(60, 4)), 1)
    _assert_forest_matches_reference((X, X[:, 0] - X[:, 3], "regress", None, ForestParams(n_trees=12), 7))


@pytest.mark.parametrize("data", STOPPING_SETS, ids=[d[0] for d in STOPPING_SETS])
def test_grown_trees_match_reference_where_most_children_stop(data, monkeypatch):
    """Bagged trees on rare-positive sets, where the grower leaves unpartitioned
    the splits whose children both stop, are the reference trees of their bags,
    also with every segment its own chunk."""
    from defectcost.learners import tree as tree_module

    name, X, y, kwargs = data
    seed = sum(map(ord, name))
    bags = _bags(np.random.default_rng(seed), len(X), "bootstrap")
    refs = [ref_train_cart(X[bag], y[bag], rng=np.random.default_rng([seed, t]), **kwargs)
            for t, bag in enumerate(bags)]
    assert np.mean([_both_children_stop(ref) for ref in refs]) > 0.35
    for chunk in (tree_module._CHUNK_ELEMENTS, 1):
        monkeypatch.setattr(tree_module, "_CHUNK_ELEMENTS", chunk)
        trees = grow_trees(X, y, bags, [np.random.default_rng([seed, t]) for t in range(len(bags))], **kwargs)
        for t, ref in enumerate(refs):
            want, got = ref_nodes(ref), package_nodes(trees, t)
            for field in want:
                assert_same(got[field], want[field])
