"""Recursive reference implementation of the CART learner.

The reference below grows a tree of node objects, sorting each candidate
feature of each node on its own, and predicts by walking one row at a time.
On seeded fixtures (two, three and four classes, regression, integer features
with many ties, bootstrap duplicates, raised ``min_leaf``/``min_split``, a
depth limit, feature subsampling with the same RNG stream) the package must give
the same nodes in preorder (feature, threshold, sample count, impurity, value,
decrease) and bitwise-equal predictions and Gini importances, for single trees
and for forests (predict, predict_proba, out-of-bag votes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from defectcost.learners import (
    ForestParams,
    forest_importance,
    gini_importance,
    predict_proba_tree,
    predict_tree_regression,
    train_cart,
    train_random_forest,
)

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

    def build(idx, depth):
        impurity, value = node_stats(idx)
        node = RefNode(n_samples=len(idx), impurity=impurity, value=value)
        if (
            len(idx) < min_split
            or len(idx) < 2 * min_leaf
            or impurity <= 0.0
            or (depth_limit is not None and depth >= depth_limit)
        ):
            return node
        if max_features < k:
            features = rng.choice(k, size=max_features, replace=False)
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
            return node
        weighted, f, thr = best
        decrease = impurity - weighted
        if decrease <= _MIN_DECREASE:
            return node
        mask = X[idx, f] <= thr
        node.feature = f
        node.threshold = thr
        node.decrease = len(idx) * decrease
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


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


def package_nodes(tree):
    """The same node table read from a tree of the package."""
    internal = tree.feature >= 0
    return {"feature": tree.feature, "threshold": tree.threshold[internal], "left": tree.left,
            "right": tree.right, "n": tree.n, "impurity": tree.impurity, "value": tree.value,
            "decrease": tree.decrease}


def assert_same(a, b):
    """Equal shape and equal values bit for bit (NaN equal to NaN, signed zeros told apart)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _classify(rng, n, k, classes):
    X = rng.normal(size=(n, k))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.7, n) > 0).astype(int)
    if classes > 2:
        y = np.clip(np.floor((X[:, 0] + rng.normal(0, 0.8, n)) * classes / 3 + classes / 2), 0, classes - 1)
    return X, y.astype(int)


def _fixtures():
    """(name, X, y, task, train_cart keyword arguments without rng) per case."""
    rng = np.random.default_rng(20)
    cases = []
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
    return cases


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
        for n_classes in {want["value"].shape[1], want["value"].shape[1] + 2}:
            assert_same(predict_proba_tree(tree, probe, n_classes), ref_predict_proba(ref, probe, n_classes))
    else:
        assert_same(predict_tree_regression(tree, probe), ref_predict_regression(ref, probe))
    assert_same(gini_importance(tree, X.shape[1]), ref_importance(ref, X.shape[1]))


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


@pytest.mark.parametrize("params", [
    ForestParams(n_trees=12),
    ForestParams(n_trees=9, feature_ratio=0.4, min_split=6, min_leaf=3),
])
def test_forest_matches_reference(params):
    rng = np.random.default_rng(33)
    X, y = _classify(rng, 130, 6, 3)
    probe = rng.normal(size=(70, 6))
    forest = train_random_forest(X, y, params, seed=5)
    trees, bags = ref_forest_trees(X, y, params, 5, "classify", 3)
    for got, ref in zip(forest.trees, trees):
        want, have = ref_nodes(ref), package_nodes(got)
        for field in want:
            assert_same(have[field], want[field])

    acc = np.zeros((len(probe), 3))
    for ref in trees:
        acc += ref_predict_proba(ref, probe, 3)
    assert_same(forest.predict_proba(probe), acc / len(trees))
    assert_same(forest.predict(probe), np.argmax(acc / len(trees), axis=1))

    acc = np.zeros((len(X), 3))
    votes = np.zeros(len(X))
    for ref, bag in zip(trees, bags):
        oob = np.ones(len(X), dtype=bool)
        oob[bag] = False
        acc[oob] += ref_predict_proba(ref, X[oob], 3)
        votes[oob] += 1
    mask, probs = forest.oob_proba(X)
    want = np.zeros_like(acc)
    want[votes > 0] = acc[votes > 0] / votes[votes > 0, None]
    assert_same(mask, votes > 0)
    assert_same(probs, want)

    yr = X[:, 0] * 3 + rng.normal(0, 0.5, len(X))
    regressor = train_random_forest(X, yr, params, seed=6, task="regress")
    trees, _ = ref_forest_trees(X, yr, params, 6, "regress", None)
    acc = np.zeros(len(probe))
    for ref in trees:
        acc += ref_predict_regression(ref, probe)
    assert_same(regressor.predict(probe), acc / len(trees))


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
        want, got = package_nodes(tree), package_nodes(forest.trees[0])
        for field in want:
            assert_same(got[field], want[field])
        probe = np.vstack([X, rng.normal(size=(30, k))])
        assert_same(forest.predict(probe), np.argmax(predict_proba_tree(tree, probe, 4), axis=1))
        assert_same(forest_importance(forest, k), gini_importance(tree, k))


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
    assert len(forest.trees) == len(trees)
    for got, ref, bag, in_bag in zip(forest.trees, trees, bags, forest.in_bag):
        assert_same(in_bag, bag)
        want, have = ref_nodes(ref), package_nodes(got)
        for field in want:
            assert_same(have[field], want[field])


def test_forest_sweep_matches_reference():
    cases = _forest_sweep()
    assert {c[2] for c in cases} == {"classify", "regress"}
    assert {c[3] for c in cases} >= {2, 3, 4, 5}
    assert any(c[4].feature_ratio < 1 for c in cases) and any(c[4].depth_limit for c in cases)
    for case in cases:
        _assert_forest_matches_reference(case)


def test_forest_sweep_with_one_segment_per_chunk(monkeypatch):
    """The grower scores and partitions its segments in chunks of bounded size,
    and grows large forests in groups of trees; the smallest budgets make every
    segment its own chunk and every tree its own group, and grow the same trees."""
    from defectcost.learners import tree as tree_module

    monkeypatch.setattr(tree_module, "_CHUNK_ELEMENTS", 1, raising=False)
    monkeypatch.setattr(tree_module, "_GROUP_TREES", 1, raising=False)
    for case in _forest_sweep()[::3]:
        _assert_forest_matches_reference(case)
