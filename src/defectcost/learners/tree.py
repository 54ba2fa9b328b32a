"""CART trees: greedy impurity-decrease splits for classification and regression.

Classification uses Gini impurity, regression variance. Splits are only taken
when they strictly decrease the weighted impurity. Candidate features can be
subsampled per split (random-forest mode); tie-breaks are deterministic given
the input order and the RNG stream, so a fixed seed gives a fixed tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_MIN_DECREASE = 1e-12


@dataclass
class TreeNode:
    n_samples: int
    impurity: float
    value: np.ndarray | float  # class counts (classification) or mean (regression)
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    decrease: float = 0.0  # n-weighted impurity decrease of this split

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _best_split_classification(x, y_onehot, min_leaf):
    """Best threshold on one feature; returns (weighted_impurity, threshold) or None."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = len(xs)
    left = np.cumsum(y_onehot[order], axis=0)  # class counts left of each cut
    total = left[-1]
    cuts = np.arange(min_leaf, n - min_leaf + 1)
    if cuts.size == 0:
        return None
    cuts = cuts[xs[cuts - 1] < xs[cuts]]  # only between distinct values
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
    if thr >= hi:  # adjacent floats: keep the partition exactly at the sorted prefix
        thr = lo
    return float(weighted[j]), float(thr)


def _best_split_regression(x, y, min_leaf):
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


def train_cart(
    X: np.ndarray,
    y: np.ndarray,
    *,
    task: str = "classify",
    n_classes: int | None = None,
    min_split: int = 2,
    min_leaf: int = 1,
    depth_limit: int | None = None,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> TreeNode:
    """Grow a CART tree. ``max_features`` activates per-split feature subsampling."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a non-empty 2-d array")
    if X.shape[0] != len(y):
        raise ValueError("X and y row counts differ")
    if task not in ("classify", "regress"):
        raise ValueError(f"unknown task {task!r}")
    if min_split < 2 or min_leaf < 1:
        raise ValueError("min_split must be >= 2 and min_leaf >= 1")
    if task == "classify":
        y = y.astype(np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1 if len(y) else 1
        y_onehot = np.eye(n_classes, dtype=np.float64)[y]
    else:
        y = y.astype(np.float64)
        y_onehot = None
    k = X.shape[1]
    if max_features is None or max_features > k:
        max_features = k
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    def node_stats(idx):
        if task == "classify":
            counts = y_onehot[idx].sum(axis=0)
            return _gini(counts), counts
        vals = y[idx]
        mean = float(vals.mean())
        return float(np.maximum(vals.var(), 0.0)), mean

    def build(idx, depth):
        impurity, value = node_stats(idx)
        node = TreeNode(n_samples=len(idx), impurity=impurity, value=value)
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
                res = _best_split_classification(x, y_onehot[idx], min_leaf)
            else:
                res = _best_split_regression(x, y[idx], min_leaf)
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
        left_idx, right_idx = idx[mask], idx[~mask]
        node.feature = f
        node.threshold = thr
        node.decrease = len(idx) * decrease
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


def _walk(node):
    yield node
    if not node.is_leaf:
        yield from _walk(node.left)
        yield from _walk(node.right)


def tree_depth(root: TreeNode) -> int:
    if root.is_leaf:
        return 0
    return 1 + max(tree_depth(root.left), tree_depth(root.right))


def count_leaves(root: TreeNode) -> int:
    return sum(1 for n in _walk(root) if n.is_leaf)


def apply_tree(root: TreeNode, X: np.ndarray) -> list[TreeNode]:
    X = np.asarray(X, dtype=np.float64)
    out = []
    for row in X:
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node)
    return out


def predict_proba_tree(root: TreeNode, X: np.ndarray, n_classes: int) -> np.ndarray:
    leaves = apply_tree(root, X)
    out = np.zeros((len(leaves), n_classes))
    for i, leaf in enumerate(leaves):
        counts = leaf.value
        out[i, : len(counts)] = counts / counts.sum()
    return out


def predict_tree_regression(root: TreeNode, X: np.ndarray) -> np.ndarray:
    return np.array([leaf.value for leaf in apply_tree(root, X)], dtype=np.float64)


def gini_importance(root: TreeNode, n_features: int) -> np.ndarray:
    """Sample-weighted impurity decrease per feature, normalized to sum 1."""
    raw = np.zeros(n_features)
    for node in _walk(root):
        if not node.is_leaf:
            raw[node.feature] += node.decrease
    total = raw.sum()
    return raw / total if total > 0 else raw
