"""CART trees: greedy impurity-decrease splits for classification and regression.

Classification uses Gini impurity, regression variance. Splits are only taken
when they strictly decrease the weighted impurity. Candidate features can be
subsampled per split (random-forest mode); tie-breaks are deterministic given
the input order and the RNG stream, so a fixed seed gives a fixed tree.

Each feature is sorted once per tree. A node owns a segment of that sorted
index array, and a split partitions the segment stably in place, so every node
sees its rows in the order a stable sort of the node alone would give. A tree
is a set of flat arrays indexed by node id, in depth-first preorder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_DECREASE = 1e-12


@dataclass(frozen=True, eq=False)
class Tree:
    """Nodes in preorder; node 0 is the root, and a leaf has feature -1 and
    children -1. ``value`` holds class counts (classification, shape (nodes,
    classes)) or the mean target (regression); ``decrease`` is the n-weighted
    impurity decrease of a split, 0 at a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    impurity: np.ndarray
    decrease: np.ndarray


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _split_scores(xs, ys, m, min_leaf):
    """Weighted child impurity of every cut of every candidate feature.

    ``xs`` holds the node's values of each candidate feature, one row per
    feature in that feature's sorted order; ``ys`` the targets in the same
    order, (F, m) regression values or (C, F, m) one-hot classes. Entry
    (f, c - 1) scores the cut with c rows on the left; a cut inside a run of
    equal values or leaving fewer than ``min_leaf`` rows on a side is inf.
    """
    nl = np.arange(1.0, m)
    nr = m - nl
    if ys.ndim == 3:
        left = ys.cumsum(axis=2)  # class counts left of each cut
        cl = left[..., :-1]
        cr = left[..., -1:] - cl
        # summed over classes in class order, as numpy sums fewer than 8 terms
        gini_l = 1.0 - ((cl / nl) ** 2).sum(axis=0)
        gini_r = 1.0 - ((cr / nr) ** 2).sum(axis=0)
        weighted = (nl * gini_l + nr * gini_r) / m
    else:
        s1 = ys.cumsum(axis=1)
        s2 = (ys * ys).cumsum(axis=1)
        sl1, sl2 = s1[:, :-1], s2[:, :-1]
        sr1, sr2 = s1[:, -1:] - sl1, s2[:, -1:] - sl2
        var_l = np.maximum(sl2 / nl - (sl1 / nl) ** 2, 0.0)
        var_r = np.maximum(sr2 / nr - (sr1 / nr) ** 2, 0.0)
        weighted = (nl * var_l + nr * var_r) / m
    valid = (xs[:, :-1] < xs[:, 1:]) & (np.minimum(nl, nr) >= min_leaf)
    return np.where(valid, weighted, np.inf)


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
) -> Tree:
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
        targets = np.eye(n_classes, dtype=np.float64)[:, y]  # one-hot, one row per class
    else:
        targets = y.astype(np.float64)
    n, k = X.shape
    if max_features is None or max_features > k:
        max_features = k
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    XT = X.T.copy()
    # Row f < k lists the rows sorted by feature f (ties in row order); row k
    # lists them in row order. Each node owns the columns [start, end).
    order = np.vstack([np.argsort(X, axis=0, kind="stable").T, np.arange(n)])
    feature, threshold, left, right, value, count, impurity, decrease = ([] for _ in range(8))
    stack = [(0, n, 0, -1)]  # (start, end, depth, parent of a right child or -1)
    while stack:
        start, end, depth, parent = stack.pop()
        node = len(count)
        if parent >= 0:
            right[parent] = node
        rows = order[k, start:end]
        m = end - start
        if task == "classify":
            node_value = targets[:, rows].sum(axis=1)
            node_impurity = _gini(node_value)
        else:
            node_value = float(targets[rows].mean())
            node_impurity = float(np.maximum(targets[rows].var(), 0.0))
        f, thr, gain = -1, np.nan, 0.0
        if not (m < min_split or m < 2 * min_leaf or node_impurity <= 0.0
                or (depth_limit is not None and depth >= depth_limit)):
            if max_features < k:
                features = rng.choice(k, size=max_features, replace=False)
            else:
                features = np.arange(k)
            sorted_rows = order[features, start:end]
            xs = XT[features[:, None], sorted_rows]
            scores = _split_scores(xs, targets[..., sorted_rows], m, min_leaf)
            cut = scores.argmin(axis=1)  # first best cut of each feature
            best = scores[np.arange(len(features)), cut]
            b = int(best.argmin())  # first best feature in draw order
            gain = node_impurity - float(best[b])  # -inf when no feature has a valid cut
            if gain > _MIN_DECREASE:
                f, i = int(features[b]), int(cut[b]) + 1
                lo, hi = xs[b, i - 1], xs[b, i]
                thr = (lo + hi) / 2.0
                if thr >= hi:  # adjacent floats: keep the partition exactly at the sorted prefix
                    thr = lo
                thr = float(thr)
        feature.append(f)
        threshold.append(thr)
        value.append(node_value)
        count.append(m)
        impurity.append(node_impurity)
        right.append(-1)
        if f < 0:
            left.append(-1)
            decrease.append(0.0)
            continue
        left.append(node + 1)
        decrease.append(m * gain)
        block = order[:, start:end]
        goes_left = XT[f, block] <= thr  # the first i rows of feature f's order, in every row
        order[:, start:end] = np.concatenate([block[goes_left].reshape(-1, i),
                                              block[~goes_left].reshape(-1, m - i)], axis=1)
        stack.append((start + i, end, depth + 1, node))
        stack.append((start, start + i, depth + 1, -1))

    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        n=np.array(count, dtype=np.int64),
        impurity=np.array(impurity, dtype=np.float64),
        decrease=np.array(decrease, dtype=np.float64),
    )


def tree_depth(tree: Tree) -> int:
    depth, level = 0, np.zeros(1, dtype=np.intp)
    while True:
        level = level[tree.feature[level] >= 0]
        if not level.size:
            return depth
        level = np.concatenate([tree.left[level], tree.right[level]])
        depth += 1


def count_leaves(tree: Tree) -> int:
    return int(np.sum(tree.feature < 0))


def apply_tree(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf id of every row: all rows still at an internal node move down one level per step."""
    X = np.asarray(X, dtype=np.float64)
    node = np.zeros(X.shape[0], dtype=np.intp)
    active = np.flatnonzero(tree.feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = X[active, tree.feature[at]] <= tree.threshold[at]
        at = np.where(goes_left, tree.left[at], tree.right[at])
        node[active] = at
        active = active[tree.feature[at] >= 0]
    return node


def predict_proba_tree(tree: Tree, X: np.ndarray, n_classes: int) -> np.ndarray:
    leaves = apply_tree(tree, X)
    counts = tree.value[leaves]
    out = np.zeros((len(leaves), n_classes))
    out[:, : counts.shape[1]] = counts / tree.n[leaves, None]  # counts sum to n exactly
    return out


def predict_tree_regression(tree: Tree, X: np.ndarray) -> np.ndarray:
    return tree.value[apply_tree(tree, X)]


def gini_importance(tree: Tree, n_features: int) -> np.ndarray:
    """Sample-weighted impurity decrease per feature, normalized to sum 1."""
    split = tree.feature >= 0
    # bincount adds the decreases one by one in preorder
    raw = np.bincount(tree.feature[split], weights=tree.decrease[split], minlength=n_features)
    total = raw.sum()
    return raw / total if total > 0 else raw
