"""CART trees: greedy impurity-decrease splits for classification and regression.

Classification uses Gini impurity, regression variance. Splits are only taken
when they strictly decrease the weighted impurity. Candidate features can be
subsampled per split (random-forest mode); tie-breaks are deterministic given
the input order and the RNG stream, so a fixed seed gives a fixed tree.

Each feature is sorted once per tree. A node owns a segment of that sorted
index array, and a split partitions the segment stably in place, so every node
sees its rows in the order a stable sort of the node alone would give.

A forest is one node table: flat arrays indexed by node id, tree after tree,
each tree in depth-first preorder from its root. The trees grow level by level,
each with its own RNG stream: a step handles one depth of every tree in flat
numpy passes over chunks of segments, and then each tree is put in preorder.
``train_cart`` is the one-tree case. Prediction walks every (tree, row) pair
down one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MIN_DECREASE = 1e-12
_CHUNK_ELEMENTS = 8192  # row ids per flat pass: bounds the working set of a step
_GROUP_ELEMENTS = 1 << 20  # presorted row ids held at once (4 MB): larger forests grow in groups of trees


@dataclass(frozen=True, eq=False)
class Tree:
    """The nodes of one or more trees; tree t's nodes follow in preorder from
    node ``roots[t]``. A leaf has feature -1 and children -1, and ``left`` and
    ``right`` are node ids of the whole table. ``value`` holds class counts
    (classification, shape (nodes, classes)) or the mean target (regression);
    ``decrease`` is the n-weighted impurity decrease of a split, 0 at a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    impurity: np.ndarray
    decrease: np.ndarray
    roots: np.ndarray


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
    # Tree t's row f < k lists its bag's rows sorted by feature f (ties in bag order), row k lists
    # them in bag order; ``order`` is the flat (tree, row, column) array. A node owns the m columns
    # from flat position start + f * b of each row f of its tree.
    order = np.empty((n_trees, k + 1, b), dtype=np.int32)
    for t, bag in enumerate(bags):
        order[t, :k] = bag[np.argsort(X[bag], axis=0, kind="stable").T]
        order[t, k] = bag
    order = order.ravel()
    # The frontier holds the open nodes of one depth, tree by tree and left to right
    # within a tree; the j-th splitting node's children are entries 2j and 2j + 1 of the next.
    start, m, levels = np.arange(n_trees) * (k + 1) * b, np.full(n_trees, b), []
    while m.size:
        # node statistics from each node's rows in bag order
        value = np.empty((len(m), n_classes) if task == "classify" else len(m))
        impurity = np.empty(len(m))
        base = start + k * b
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
        feature, threshold, decrease = np.full(len(m), -1), np.full(len(m), np.nan), np.zeros(len(m))
        stop = (m < min_split) | (m < 2 * min_leaf) | (impurity <= 0.0)
        if depth_limit is not None:
            stop |= len(levels) >= depth_limit
        split = np.flatnonzero(~stop)
        drawn = np.tile(np.arange(k), (split.size, 1))
        if max_features < k:  # each tree draws for its splitting nodes in one call, a row per node
            nodes = np.bincount(start[split] // ((k + 1) * b), minlength=n_trees).tolist()
            drawn = np.concatenate([r.random((c, k)).argsort(axis=1)[:, :max_features] for r, c in zip(rngs, nodes)])
        # one segment per (node, candidate feature), features in draw order
        seg_node, seg_feature = np.repeat(split, max_features), drawn.ravel()
        seg_len = m[seg_node]
        seg_base = start[seg_node] + seg_feature * b
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
        part_base = (start[split, None] + np.arange(k + 1) * b).ravel()
        part_f, part_thr = np.repeat(f * n, k + 1), np.repeat(thr, k + 1)
        for s0, s1 in _chunks(part_len):
            lengths = part_len[s0:s1]
            at = _ragged(part_base[s0:s1], lengths)
            rows = order[at]
            goes_left = XT[np.repeat(part_f[s0:s1], lengths) + rows] <= np.repeat(part_thr[s0:s1], lengths)
            side = np.repeat(np.arange(0, 2 * (s1 - s0), 2), lengths) + ~goes_left
            order[at] = rows[np.argsort(side, kind="stable")]
        levels.append((split, feature, threshold, value, m, impurity, decrease))
        start = np.stack([start[split], start[split] + n_left], axis=1).ravel()
        m = np.stack([n_left, m[split] - n_left], axis=1).ravel()

    # Renumber each tree into preorder: a left child follows its parent, and a right
    # child follows the left subtree, whose size is ``skip`` - 1 (subtree sizes go bottom up).
    skips, size = [], np.zeros(0, dtype=np.intp)  # size: of each subtree at the depth below
    for split, feature, *_ in reversed(levels):
        skip, above = np.zeros(len(feature), dtype=np.intp), np.ones(len(feature), dtype=np.intp)
        skip[split] = 1 + size[0::2]
        above[split] += size[0::2] + size[1::2]
        skips.insert(0, skip)
        size = above
    at = [np.cumsum(size) - size]  # one root per tree
    for (split, *_), skip in zip(levels[:-1], skips):
        at.append(np.stack([at[-1][split] + 1, at[-1][split] + skip[split]], axis=1).ravel())
    by_pre = np.argsort(np.concatenate(at))
    return (size,) + tuple(np.concatenate(column)[by_pre] for column in list(zip(*levels))[1:] + [skips])


def grow_trees(X: np.ndarray, y: np.ndarray, bags, rngs, *, task: str = "classify", n_classes: int | None = None,
               min_split: int = 2, min_leaf: int = 1, depth_limit: int | None = None,
               max_features: int | None = None) -> Tree:
    """Grow one CART tree per bag of row indices (repeats allowed), level by
    level, into one node table; tree t draws its candidate features from ``rngs[t]``. ``max_features``
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
    groups = -(-bags.size * (k + 1) // _GROUP_ELEMENTS)  # fewest equal groups
    group = -(-len(bags) // groups)
    groups = [_grow_group(X, XT, y, bags[g:g + group], rngs[g:g + group], task, n_classes, min_split, min_leaf,
                          depth_limit, max_features) for g in range(0, len(bags), group)]
    count, feature, threshold, value, m, impurity, decrease, skip = map(np.concatenate, zip(*groups))
    at = np.arange(len(feature))
    left, right = np.where(feature >= 0, at + 1, -1), np.where(feature >= 0, at + skip, -1)
    return Tree(feature, threshold, left, right, value, m, impurity, decrease, np.cumsum(count) - count)


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
                      min_leaf=min_leaf, depth_limit=depth_limit, max_features=max_features)


def tree_depth(tree: Tree) -> int:
    """Depth of the deepest tree."""
    depth, level = 0, tree.roots
    while True:
        level = level[tree.feature[level] >= 0]
        if not level.size:
            return depth
        level = np.concatenate([tree.left[level], tree.right[level]])
        depth += 1


def count_leaves(tree: Tree) -> int:
    return int(np.sum(tree.feature < 0))


def apply_tree(tree: Tree, X: np.ndarray, voters: np.ndarray | None = None) -> np.ndarray:
    """(trees, rows) leaf ids: every (tree, row) pair still at an internal node
    moves down one level per step. A pair outside the optional (trees, rows)
    mask ``voters`` is never walked and gets -1."""
    X = np.asarray(X, dtype=np.float64)
    (n, k), flat = X.shape, X.ravel()
    node = np.repeat(tree.roots, n)
    if voters is not None:
        node[~voters.ravel()] = -1
    active = np.flatnonzero((node >= 0) & (tree.feature[node] >= 0))
    while active.size:
        at = node[active]
        goes_left = flat[active % n * k + tree.feature[at]] <= tree.threshold[at]
        at = np.where(goes_left, tree.left[at], tree.right[at])
        node[active] = at
        active = active[tree.feature[at] >= 0]
    return node.reshape(len(tree.roots), n)


def gini_importance(tree: Tree, n_features: int) -> np.ndarray:
    """(trees, features): each tree's sample-weighted impurity decrease per
    feature, normalized to sum 1."""
    split = np.flatnonzero(tree.feature >= 0)
    owner = np.searchsorted(tree.roots, split, side="right") - 1
    # bincount adds the decreases one by one in preorder
    raw = np.bincount(owner * n_features + tree.feature[split], weights=tree.decrease[split],
                      minlength=len(tree.roots) * n_features).reshape(-1, n_features)
    total = raw.sum(axis=1, keepdims=True)
    return raw / np.where(total > 0, total, 1.0)
