"""CART trees: greedy impurity-decrease splits for classification and regression.

Classification uses Gini impurity, regression variance. Splits are only taken
when they strictly decrease the weighted impurity. Candidate features can be
subsampled per split (random-forest mode); tie-breaks are deterministic given
the input order and the RNG stream, so a fixed seed gives a fixed tree.

Each feature is sorted once per tree. A node owns a segment of that sorted
index array, and a split partitions the segment stably in place, so every node
sees its rows in the order a stable sort of the node alone would give. A tree
is a set of flat arrays indexed by node id, in depth-first preorder.

The trees of a forest grow in lockstep, each with its own preorder stack and
RNG stream: a step pops the top node of every stack and handles them all in
flat numpy passes over chunks of segments. ``train_cart`` is the one-tree case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_DECREASE = 1e-12
_CHUNK_ELEMENTS = 8192  # row ids per flat pass: bounds the working set of a step
_GROUP_ELEMENTS = 1 << 20  # presorted row ids held at once (4 MB): larger forests grow in groups of trees
_GROUP_TREES = 50  # trees per group: beyond it a step's fixed cost is small, and more trees only add memory


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


def _ragged(base, lengths):
    """Positions base[s], ..., base[s] + lengths[s] - 1 of every segment s, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(base - ends + lengths, lengths) + np.arange(ends[-1])


def _chunks(lengths, padded=False):
    """Runs [s0, s1) of consecutive segments whose flat size, or padded size
    (count times the longest), fits ``_CHUNK_ELEMENTS``; at least one segment each."""
    s0 = 0
    while s0 < len(lengths):
        rest = lengths[s0:]
        size = np.maximum.accumulate(rest) * np.arange(1, len(rest) + 1) if padded else np.cumsum(rest)
        s1 = s0 + max(1, int(np.searchsorted(size, _CHUNK_ELEMENTS, side="right")))
        yield s0, s1
        s0 = s1


def _classify_cuts(xs, labels, lengths, n_classes, min_leaf):
    """(weighted child Gini, index) of the first best cut of every segment.

    Each segment, back to back in ``xs`` and ``labels``, holds one node's rows
    in the sorted order of one candidate feature; element j scores the cut with
    j + 1 rows on the left. A cut inside a run of equal values or leaving fewer
    than ``min_leaf`` rows on a side is inf. Class counts are integer cumsums
    less the count before each segment, so they are exact.
    """
    first = np.cumsum(lengths) - lengths
    m = np.repeat(lengths, lengths).astype(np.float64)
    nl = np.arange(1.0, len(xs) + 1) - np.repeat(first, lengths)
    nr = m - nl
    sum_l, sum_r = np.zeros(len(xs)), np.zeros(len(xs))
    with np.errstate(divide="ignore", invalid="ignore"):  # nr is 0 at the end of a segment
        for c in range(n_classes):  # summed in class order, as numpy sums fewer than 8 terms
            hot = labels == c
            left = hot.cumsum(dtype=np.int32)
            before = left[first] - hot[first]
            cl = left - np.repeat(before, lengths)
            cr = np.repeat(left[first + lengths - 1] - before, lengths) - cl
            sum_l += (cl / nl) ** 2
            sum_r += (cr / nr) ** 2
        weighted = (nl * (1.0 - sum_l) + nr * (1.0 - sum_r)) / m
    valid = np.minimum(nl, nr) >= min_leaf
    valid[:-1] &= xs[:-1] < xs[1:]
    scores = np.where(valid, weighted, np.inf)
    best = np.minimum.reduceat(scores, first)
    hits = np.flatnonzero(scores == np.repeat(best, lengths))
    return best, hits[np.searchsorted(hits, first)] - first


def _regress_cuts(xs, ys, lengths, min_leaf):
    """The same for variance, through a zero-padded (segments, longest) block:
    a cumsum along a row adds the segment's targets in order, as on the segment alone."""
    segs, width = np.arange(len(lengths)), int(lengths.max())
    at = (np.repeat(segs, lengths), np.arange(len(xs)) - np.repeat(np.cumsum(lengths) - lengths, lengths))
    xb, yb = np.zeros((len(lengths), width)), np.zeros((len(lengths), width))
    xb[at], yb[at] = xs, ys
    s1, s2 = yb.cumsum(axis=1), (yb * yb).cumsum(axis=1)
    m, nl = lengths[:, None].astype(np.float64), np.arange(1.0, width)
    nr = m - nl
    sl1, sl2 = s1[:, :-1], s2[:, :-1]
    sr1, sr2 = s1[:, -1:] - sl1, s2[:, -1:] - sl2  # the padding adds zeros to each total
    with np.errstate(divide="ignore", invalid="ignore"):  # nr is 0 or less in the padding
        var_l = np.maximum(sl2 / nl - (sl1 / nl) ** 2, 0.0)
        var_r = np.maximum(sr2 / nr - (sr1 / nr) ** 2, 0.0)
        weighted = (nl * var_l + nr * var_r) / m
    valid = (xb[:, :-1] < xb[:, 1:]) & (np.minimum(nl, nr) >= min_leaf)
    scores = np.where(valid, weighted, np.inf)
    cut = scores.argmin(axis=1)
    return scores[segs, cut], cut


def _grow_group(X, XT, y, bags, rngs, task, n_classes, min_split, min_leaf, depth_limit, max_features):
    (n, k), (n_trees, b) = X.shape, bags.shape
    # Tree t's row f < k lists its bag's rows sorted by feature f (ties in bag
    # order); row k lists them in bag order. Each node owns the columns
    # [start, end) of its tree's rows; ``order`` is the flat (tree, row, column) array.
    order = np.empty((n_trees, k + 1, b), dtype=np.int32)
    for t, bag in enumerate(bags):
        order[t, :k] = bag[np.argsort(X[bag], axis=0, kind="stable").T]
        order[t, k] = bag
    order = order.ravel()
    stacks = [[(0, b, 0, -1)] for _ in range(n_trees)]  # (start, end, depth, parent of a right child or -1)
    count = np.zeros(n_trees, dtype=np.intp)
    steps = []
    while live := [t for t in range(n_trees) if stacks[t]]:
        tree = np.array(live)
        start, end, depth, parent = np.array([stacks[t].pop() for t in live]).T
        m = end - start
        node = count[tree]
        count[tree] += 1
        # node statistics from each node's rows in bag order
        value = np.empty((len(live), n_classes) if task == "classify" else len(live))
        impurity = np.empty(len(live))
        base = (tree * (k + 1) + k) * b + start
        for s0, s1 in _chunks(m):
            ys = y[order[_ragged(base[s0:s1], m[s0:s1])]]
            if task == "classify":
                seg = np.repeat(np.arange(s1 - s0) * n_classes, m[s0:s1])
                value[s0:s1] = np.bincount(seg + ys, minlength=(s1 - s0) * n_classes).reshape(-1, n_classes)
            else:
                for i, node_ys in enumerate(np.split(ys, np.cumsum(m[s0:s1])[:-1]), s0):
                    value[i], impurity[i] = node_ys.mean(), np.maximum(node_ys.var(), 0.0)
        if task == "classify":
            p = value / m[:, None]
            impurity = 1.0 - (p * p).sum(axis=1)
        feature, threshold, decrease = np.full(len(live), -1), np.full(len(live), np.nan), np.zeros(len(live))
        stop = (m < min_split) | (m < 2 * min_leaf) | (impurity <= 0.0)
        if depth_limit is not None:
            stop |= depth >= depth_limit
        split = np.flatnonzero(~stop)
        if split.size:
            if max_features < k:
                drawn = np.array([rngs[live[i]].choice(k, size=max_features, replace=False) for i in split])
            else:
                drawn = np.tile(np.arange(k), (split.size, 1))
            # one segment per (node, candidate feature), features in draw order
            seg_node, seg_feature = np.repeat(split, max_features), drawn.ravel()
            seg_len = m[seg_node]
            seg_base = (tree[seg_node] * (k + 1) + seg_feature) * b + start[seg_node]
            best, cut = np.empty(len(seg_node)), np.empty(len(seg_node), dtype=np.intp)
            # padded blocks waste least on segments of similar length
            by_len = np.arange(len(seg_node)) if task == "classify" else np.argsort(seg_len, kind="stable")
            for s0, s1 in _chunks(seg_len[by_len], padded=task != "classify"):
                s = by_len[s0:s1]
                rows = order[_ragged(seg_base[s], seg_len[s])]
                xs = XT[np.repeat(seg_feature[s] * n, seg_len[s]) + rows]
                if task == "classify":
                    best[s], cut[s] = _classify_cuts(xs, y[rows], seg_len[s], n_classes, min_leaf)
                else:
                    best[s], cut[s] = _regress_cuts(xs, y[rows], seg_len[s], min_leaf)
            pick = np.arange(split.size) * max_features + best.reshape(split.size, max_features).argmin(axis=1)
            gain = impurity[split] - best[pick]  # -inf when no feature has a valid cut
            keep = gain > _MIN_DECREASE
            split, pick, gain = split[keep], pick[keep], gain[keep]
            f, at = seg_feature[pick], seg_base[pick] + cut[pick]
            lo, hi = XT[f * n + order[at]], XT[f * n + order[at + 1]]
            thr = (lo + hi) / 2.0
            thr = np.where(thr >= hi, lo, thr)  # adjacent floats: keep the partition exactly at the sorted prefix
            feature[split], threshold[split], decrease[split] = f, thr, m[split] * gain
            n_left = cut[pick] + 1

            # partition every row of every splitting node: the first n_left rows of
            # feature f's order go left, in every row; one stable sort by (segment,
            # side) keeps each side in order
            part_len = np.repeat(m[split], k + 1)
            part_base = ((tree[split, None] * (k + 1) + np.arange(k + 1)) * b + start[split, None]).ravel()
            part_f, part_thr = np.repeat(f * n, k + 1), np.repeat(thr, k + 1)
            for s0, s1 in _chunks(part_len):
                lengths = part_len[s0:s1]
                at = _ragged(part_base[s0:s1], lengths)
                rows = order[at]
                goes_left = XT[np.repeat(part_f[s0:s1], lengths) + rows] <= np.repeat(part_thr[s0:s1], lengths)
                side = np.repeat(np.arange(0, 2 * (s1 - s0), 2), lengths) + ~goes_left
                order[at] = rows[np.argsort(side, kind="stable")]
            for t, s, e, d, i, c in zip(tree[split].tolist(), start[split].tolist(), end[split].tolist(),
                                        depth[split].tolist(), node[split].tolist(), n_left.tolist()):
                stacks[t].append((s + c, e, d + 1, i))
                stacks[t].append((s, s + c, d + 1, -1))
        steps.append((tree, node, parent, feature, threshold, value, m, impurity, decrease))

    # each tree's nodes in preorder: its steps in order
    by_tree = np.argsort(np.concatenate([s[0] for s in steps]), kind="stable")
    tree, node, parent, feature, threshold, value, m, impurity, decrease = (
        np.concatenate(column)[by_tree] for column in zip(*steps))
    right = np.full(len(node), -1, dtype=np.intp)
    offset = np.cumsum(count) - count
    has = parent >= 0
    right[offset[tree[has]] + parent[has]] = node[has]
    left = np.where(feature >= 0, node + 1, -1)
    columns = (feature, threshold, left, right, value, m, impurity, decrease)
    bounds = np.cumsum(count)[:-1]
    return [Tree(*parts) for parts in zip(*(np.split(c, bounds) for c in columns))]


def grow_trees(X: np.ndarray, y: np.ndarray, bags, rngs, *, task: str = "classify", n_classes: int | None = None,
               min_split: int = 2, min_leaf: int = 1, depth_limit: int | None = None,
               max_features: int | None = None) -> list[Tree]:
    """Grow one CART tree per bag of row indices (repeats allowed), in lockstep;
    tree t draws its candidate features from ``rngs[t]``. ``max_features``
    activates per-split feature subsampling; ``n_classes`` is ignored for regression."""
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
            n_classes = int(y.max()) + 1
        if y.min() < 0 or y.max() >= n_classes:
            raise ValueError(f"class labels must lie in [0, {n_classes})")
    else:
        y = y.astype(np.float64)
    k = X.shape[1]
    if max_features is None or max_features > k:
        max_features = k
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    XT, bags = X.T.ravel(), np.asarray(bags, dtype=np.int32)
    groups = max(-(-bags.size * (k + 1) // _GROUP_ELEMENTS), -(-len(bags) // _GROUP_TREES))  # fewest equal groups
    group = -(-len(bags) // groups)
    return [tree for g in range(0, len(bags), group)
            for tree in _grow_group(X, XT, y, bags[g:g + group], rngs[g:g + group], task,
                                    n_classes, min_split, min_leaf, depth_limit, max_features)]


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
    """Grow a CART tree on all rows: the one-tree case of ``grow_trees``."""
    if rng is None:
        rng = np.random.default_rng(0)
    return grow_trees(X, y, [np.arange(len(X))], [rng], task=task, n_classes=n_classes, min_split=min_split,
                      min_leaf=min_leaf, depth_limit=depth_limit, max_features=max_features)[0]


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
