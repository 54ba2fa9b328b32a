"""CART trees: greedy impurity-decrease splits for classification and regression.

Classification uses Gini impurity, regression variance. Splits are only taken
when they strictly decrease the weighted impurity. Candidate features can be
subsampled per split (random-forest mode); tie-breaks are deterministic given
the input order and the RNG stream, so a fixed seed gives a fixed tree.

Classification sorts each feature once per fit, and a tree holds the distinct
rows of its bag in that order (rows equal in every feature and the label are one
row), weighted by their counts in the bag: a cut between distinct values has the
integer class counts of the repeated rows.
Regression sorts each feature of each bag, ties in bag order, and keeps a row
in bag order, as its float sums depend on that order. A node owns a segment of
each sorted row, which a split partitions stably in place in one linear pass.

A forest is one node table: flat arrays indexed by node id, tree after tree,
each tree in depth-first preorder from its root. The trees grow level by level,
each with its own RNG stream: a step handles one depth of every tree in flat
numpy passes over chunks of segments, and then each tree is put in preorder.
``train_cart`` is the one-tree case. Prediction walks every (tree, row) pair
down one level per step, with int32 node and pair ids.
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


def _classify_cuts(xs, labels, weights, lengths, counts, min_leaf):
    """(weighted child Gini, index, left weight) of the first best cut of every segment.

    Each segment, back to back in ``xs``, ``labels`` and ``weights`` (used up),
    holds one node's distinct rows in the sorted order of one candidate feature,
    weighted by their counts in the bag; ``counts`` holds each segment's class
    counts. Element j scores the cut with elements 0..j on the left. A cut inside
    a run of equal values or leaving less than ``min_leaf`` weight on a side is
    inf. Counts are sums of integers, so they are exact, also for the last class,
    which has what the other classes leave.
    """
    first = np.cumsum(lengths) - lengths

    def left(w, total):  # w's cumsum within each segment, in place: each first element less the total before
        w[first[1:]] -= total[:-1]
        return w.cumsum()

    cl = [left(weights * (labels == c), counts[:, c]) for c in range(counts.shape[1] - 1)]
    nl = left(weights, counts.sum(axis=1))
    nr = np.repeat(counts.sum(axis=1), lengths) - nl
    cr = [np.repeat(counts[:, c], lengths) - left_c for c, left_c in enumerate(cl)]
    cl, cr = cl + [nl - sum(cl)], cr + [nr - sum(cr)]
    with np.errstate(divide="ignore", invalid="ignore"):  # nr is 0 at the end of a segment
        # summed from 0 in class order, as numpy sums fewer than 8 terms
        sum_l, sum_r = sum((c / nl) ** 2 for c in cl), sum((c / nr) ** 2 for c in cr)
        weighted = (nl * (1.0 - sum_l) + nr * (1.0 - sum_r)) / (nl + nr)
    valid = np.minimum(nl, nr) >= min_leaf
    valid[:-1] &= xs[:-1] < xs[1:]
    scores = np.where(valid, weighted, np.inf)
    best = np.minimum.reduceat(scores, first)
    hits = np.flatnonzero(scores == np.repeat(best, lengths))
    cut = hits[np.searchsorted(hits, first)] - first
    return best, cut, nl[first + cut]


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


def _grow_group(X, XT, y, presort, bags, rngs, task, n_classes, min_split, min_leaf, depth_limit, max_features):
    (n, k), (n_trees, b) = X.shape, bags.shape
    classify = task == "classify"
    if classify:  # row f: the bag's distinct rows by feature f; row i of tree t weighs weight[t * n + i]
        weight = np.bincount((bags + np.arange(n_trees)[:, None] * n).ravel(), minlength=n_trees * n)
        held = (weight.reshape(n_trees, n) > 0)[:, presort]
        order, width, rows = np.broadcast_to(presort, held.shape)[held], held[:, 0].sum(axis=1), k
        weight = weight.astype(np.float64)
    else:  # row f < k: the bag's rows by feature f, ties in bag order; row k: the bag
        order = np.empty((n_trees, k + 1, b), dtype=np.int32)
        for t, bag in enumerate(bags):
            order[t, :k] = bag[np.argsort(X[bag], axis=0, kind="stable").T]
            order[t, k] = bag
        order, width, rows = order.ravel(), np.full(n_trees, b), k + 1
    # ``order`` holds each tree's rows back to back, each ``width[t]`` ids long; a node of tree t owns
    # the m ids from start + f * width[t] of each row f and weighs w. The frontier holds the open nodes
    # of one depth, tree by tree and left to right; the j-th split's children are entries 2j, 2j + 1.
    tree, start = np.arange(n_trees), np.cumsum(rows * width) - rows * width
    m, w, levels = width, np.full(n_trees, b), []
    while m.size:
        stride = width[tree]
        # node statistics from each node's rows: its first row, or for regression its rows in bag order
        value = np.empty((len(m), n_classes) if classify else len(m))
        impurity = np.empty(len(m))
        base = start if classify else start + k * stride
        for s0, s1 in _chunks(m):
            ids = order.take(_ragged(base[s0:s1], m[s0:s1]))
            if classify:
                seg = np.repeat(np.arange(s1 - s0) * n_classes, m[s0:s1])
                weights = weight.take(np.repeat(tree[s0:s1] * n, m[s0:s1]) + ids)
                value[s0:s1] = np.bincount(seg + y.take(ids), weights, (s1 - s0) * n_classes).reshape(-1, n_classes)
            else:
                for i, node_ys in enumerate(np.split(y.take(ids), np.cumsum(m[s0:s1])[:-1]), s0):
                    value[i], impurity[i] = node_ys.mean(), np.maximum(node_ys.var(), 0.0)
        if classify:
            p = value / w[:, None]
            impurity = 1.0 - (p * p).sum(axis=1)
        feature, threshold, decrease = np.full(len(m), -1), np.full(len(m), np.nan), np.zeros(len(m))
        stop = (w < min_split) | (w < 2 * min_leaf) | (impurity <= 0.0)
        if depth_limit is not None:
            stop |= len(levels) >= depth_limit
        split = np.flatnonzero(~stop)
        drawn = np.tile(np.arange(k), (split.size, 1))
        if max_features < k:  # each tree draws for its splitting nodes in one call, a row per node
            nodes = np.bincount(tree[split], minlength=n_trees).tolist()
            drawn = np.concatenate([r.random((c, k)).argsort(axis=1)[:, :max_features] for r, c in zip(rngs, nodes)])
        # one segment per (node, candidate feature), features in draw order
        seg_node, seg_feature = np.repeat(split, max_features), drawn.ravel()
        seg_len = m[seg_node]
        seg_base = start[seg_node] + seg_feature * stride[seg_node]
        best, cut, w_left = np.empty(len(seg_node)), np.empty(len(seg_node), dtype=np.intp), np.empty(len(seg_node))
        # padded blocks waste least on segments of similar length
        by_len = np.arange(len(seg_node)) if classify else np.argsort(seg_len, kind="stable")
        for s0, s1 in _chunks(seg_len[by_len], padded=not classify):
            s = by_len[s0:s1]
            ids = order.take(_ragged(seg_base[s], seg_len[s]))
            xs = XT.take(np.repeat(seg_feature[s] * n, seg_len[s]) + ids)
            if classify:
                weights = weight.take(np.repeat(tree[seg_node[s]] * n, seg_len[s]) + ids)
                best[s], cut[s], w_left[s] = _classify_cuts(xs, y.take(ids), weights, seg_len[s], value[seg_node[s]],
                                                            min_leaf)
            else:
                best[s], cut[s] = _regress_cuts(xs, y.take(ids), seg_len[s], min_leaf)
        pick = np.arange(split.size) * max_features + best.reshape(split.size, max_features).argmin(axis=1)
        gain = impurity[split] - best[pick]  # -inf when no feature has a valid cut
        keep = gain > _MIN_DECREASE
        split, pick, gain = split[keep], pick[keep], gain[keep]
        f, at = seg_feature[pick], seg_base[pick] + cut[pick]
        lo, hi = XT[f * n + order[at]], XT[f * n + order[at + 1]]
        thr = (lo + hi) / 2.0
        thr = np.where(thr >= hi, lo, thr)  # adjacent floats: keep the partition exactly at the sorted prefix
        feature[split], threshold[split], decrease[split] = f, thr, w[split] * gain
        n_left = cut[pick] + 1
        w_left = w_left[pick].astype(np.int64) if classify else n_left

        # partition every row of every splitting node: the first n_left ids of feature f's
        # row go left, in every row; a left id moves to its rank among the lefts, a right
        # one to n_left plus its rank among the rights, so each side keeps its order
        part_len, part_left = np.repeat(m[split], rows), np.repeat(n_left, rows)
        part_base = (start[split, None] + np.arange(rows) * stride[split, None]).ravel()
        part_f, part_thr = np.repeat(f * n, rows), np.repeat(thr, rows)
        for s0, s1 in _chunks(part_len):
            lengths = part_len[s0:s1]
            at = _ragged(part_base[s0:s1], lengths)
            ids = order.take(at)
            goes_left = XT.take(np.repeat(part_f[s0:s1], lengths) + ids) <= np.repeat(part_thr[s0:s1], lengths)
            lefts, first = goes_left.cumsum(), np.cumsum(lengths) - lengths
            lefts -= np.repeat(lefts[first] - goes_left[first], lengths)
            order[np.where(goes_left, np.repeat(part_base[s0:s1] - 1, lengths) + lefts,
                           at + np.repeat(part_left[s0:s1], lengths) - lefts)] = ids
        levels.append((split, feature, threshold, value, w, impurity, decrease))
        tree, start = np.repeat(tree[split], 2), np.stack([start[split], start[split] + n_left], axis=1).ravel()
        m = np.stack([n_left, m[split] - n_left], axis=1).ravel()
        w = np.stack([w_left, w[split] - w_left], axis=1).ravel()

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
    y = y.astype(np.int64 if task == "classify" else np.float64)
    if task == "classify":
        n_classes = int(y.max()) + 1 if n_classes is None else n_classes
        if y.min() < 0 or y.max() >= n_classes:
            raise ValueError(f"class labels must lie in [0, {n_classes})")
    k = X.shape[1]
    max_features = k if max_features is None else min(max_features, k)
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    bags, presort = np.asarray(bags, dtype=np.int32), None
    if task == "classify":  # rows equal in every feature and the label are one row, weighted in each bag
        _, first, same = np.unique(np.column_stack([X, y]), axis=0, return_index=True, return_inverse=True)
        X, y, bags = X[first], y[first], same.reshape(-1).astype(np.int32)[bags]
        presort = np.argsort(X, axis=0, kind="stable").T.astype(np.int32, order="C")
    XT = X.T.ravel()
    groups = -(-bags.size * (k + 1) // _GROUP_ELEMENTS)  # fewest equal groups
    group = -(-len(bags) // groups)
    groups = [_grow_group(X, XT, y, presort, bags[g:g + group], rngs[g:g + group], task, n_classes, min_split, min_leaf,
                          depth_limit, max_features) for g in range(0, len(bags), group)]
    count, feature, threshold, value, m, impurity, decrease, skip = map(np.concatenate, zip(*groups))
    at = np.arange(len(feature))
    left, right = np.where(feature >= 0, at + 1, -1), np.where(feature >= 0, at + skip, -1)
    return Tree(feature, threshold, left, right, value, m, impurity, decrease, np.cumsum(count) - count)


def train_cart(X: np.ndarray, y: np.ndarray, *, rng: np.random.Generator | None = None, **params) -> Tree:
    """Grow a CART tree on all rows: the one-tree case of ``grow_trees``, with its keyword parameters."""
    return grow_trees(X, y, [np.arange(len(X))], [np.random.default_rng(0) if rng is None else rng], **params)


def apply_tree(tree: Tree, X: np.ndarray, voters: np.ndarray | None = None) -> np.ndarray:
    """(trees, rows) leaf ids: every (tree, row) pair still at an internal node
    moves down one level per step. A pair outside the optional (trees, rows)
    mask ``voters`` is never walked and gets -1. Node and pair ids are int32,
    so X and the pairs of one call stay below 2^31 elements; gathers use
    ``take``, nearly as fast with them as with intp ids, unlike indexing."""
    X = np.asarray(X, dtype=np.float64)
    (n, k), flat = X.shape, X.ravel()
    feature, right = tree.feature.astype(np.int32), tree.right.astype(np.int32)
    node = np.repeat(tree.roots.astype(np.int32), n)
    if voters is not None:
        node[~voters.ravel()] = -1
    active = np.arange(node.size, dtype=np.int32)[(node >= 0) & (feature.take(node) >= 0)]
    while active.size:
        at = node.take(active)
        goes_left = flat.take(active % n * k + feature.take(at)) <= tree.threshold.take(at)
        at = np.where(goes_left, at + 1, right.take(at))  # a left child follows its parent
        node[active] = at
        active = active[feature.take(at) >= 0]
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
