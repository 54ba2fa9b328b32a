"""CART trees: greedy impurity-decrease splits for classification and regression.

Classification uses Gini impurity, regression variance. Splits are only taken
when they strictly decrease the weighted impurity. Candidate features can be
subsampled per split (random-forest mode); tie-breaks are deterministic given
the input order and the RNG stream, so a fixed seed gives a fixed tree.

Classification sorts each feature once per fit, and a tree holds the distinct
rows of its bag in that order (rows equal in every feature and the label are one
row), weighted by their counts in the bag: a cut between distinct values has the
integer class counts of the repeated rows. These counts are exact, so a child
takes its class counts from its parent's cut and never reads its own rows.
Regression sorts each feature of each bag, ties in bag order, and keeps a row
in bag order, as its float sums depend on that order; a node's mean and
variance come from that row, all nodes of one size in one block. A node owns a
segment of each sorted row, which a split partitions stably in place in one
linear pass. A split whose children both stop (pure, too light or at the depth
limit) is not partitioned, bar regression's bag row.

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


def _classify_cuts(xs, sums, lengths, counts, min_leaf):
    """(weighted child Gini, index, left sums) of the first best cut of every segment.

    Each segment, back to back in ``xs`` and in the rows of ``sums``, holds one
    node's distinct rows in the sorted order of one candidate feature; row c < C - 1
    of ``sums`` holds their weights in class c, the last row their weights (their
    counts in the bag). ``counts`` holds each segment's class counts. Element j
    scores the cut with elements 0..j on the left. A cut inside a run of equal
    values or leaving less than ``min_leaf`` weight on a side is inf (the divisions
    by a right weight of 0 at a segment's end are the caller's to silence). The left sums
    are the columns of ``sums`` at the cuts, after ``sums`` is turned in place into
    its cumsums within each segment. Counts are sums of integers, so they are
    exact, also for the last class, which has what the other classes leave.
    """
    first = np.cumsum(lengths) - lengths
    totals = counts.sum(axis=1)
    # each segment's cumsum, in place: each first element less the total before
    sums[:-1, first[1:]] -= counts[:-1, :-1].T
    sums[-1, first[1:]] -= totals[:-1]
    np.cumsum(sums, axis=1, out=sums)
    cl, nl = sums[:-1], sums[-1]
    node = np.repeat(totals, lengths)
    nr = node - nl
    cr = np.repeat(counts[:, :-1].T, lengths, axis=1)
    cr -= cl
    cl_last, cr_last = nl - cl[0], nr - cr[0]  # two classes at least: a node of one is pure
    for c in range(1, len(cl)):
        cl_last -= cl[c]
        cr_last -= cr[c]
    barred = np.empty(len(xs), dtype=bool)  # cuts in a run of equal values or at a segment's end
    np.greater_equal(xs[:-1], xs[1:], out=barred[:-1])
    barred[first + lengths - 1] = True
    if min_leaf > 1:  # every element weighs at least 1
        barred |= np.minimum(nl, nr) < min_leaf
    # squared shares summed in class order, as numpy sums fewer than 8 terms
    scores, right = _gini(cl, cl_last, nl, None), _gini(cr, cr_last, nr, cr)
    right *= nr
    scores *= nl
    scores += right
    scores /= node
    np.copyto(scores, np.inf, where=barred)
    best = np.minimum.reduceat(scores, first)
    hits = np.flatnonzero(scores == np.repeat(best, lengths))
    cut = hits[np.searchsorted(hits, first)] - first
    return best, cut, sums[:, first + cut].T


def _gini(counts, last, n, out):
    """1 - the sum of the squared shares out of ``n`` of the counts in the rows
    of ``counts`` and in ``last`` (the last class), in ``last``; the shares go to ``out``."""
    shares = np.divide(counts, n, out=out)
    shares *= shares
    last /= n
    last *= last
    for row in shares[1:]:
        shares[0] += row
    last += shares[0]  # a + b is b + a bit for bit
    return np.subtract(1.0, last, out=last)


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
    var_l = np.maximum(sl2 / nl - (sl1 / nl) ** 2, 0.0)
    var_r = np.maximum(sr2 / nr - (sr1 / nr) ** 2, 0.0)  # nr is 0 or less in the padding
    weighted = (nl * var_l + nr * var_r) / m
    valid = (xb[:, :-1] < xb[:, 1:]) & (np.minimum(nl, nr) >= min_leaf)
    scores = np.where(valid, weighted, np.inf)
    cut = scores.argmin(axis=1)
    return scores[segs, cut], cut


def _moments(ys, lengths):
    """(mean, variance) of each segment of ``ys``, back to back. The segments of
    one length L are the rows of one C-contiguous (count, L) block, each summed
    like L values alone, so these are numpy's ``mean()`` and ``var()`` of each."""
    mean, var = np.empty(len(lengths)), np.empty(len(lengths))
    first, by_len = np.cumsum(lengths) - lengths, np.argsort(lengths, kind="stable")
    for at in np.split(by_len, np.flatnonzero(np.diff(lengths[by_len])) + 1):
        length = lengths[at[0]]
        block = ys.take(first[at, None] + np.arange(length))
        mean[at] = block.sum(axis=1) / length
        block -= mean[at, None]
        block *= block
        var[at] = block.sum(axis=1) / length
    return mean, var


def _held_ids(presort, held):
    """Ids t * n + i of the rows i that tree t holds (``held[t, i]``), in the
    sorted order of each feature (a row of ``presort``), tree after tree. Eight
    trees at a time: a (trees, k, n) block of all ids would outweigh the result."""
    k, n = presort.shape
    ids, at = np.empty(k * int(held.sum()), dtype=np.int32), 0
    for t in range(0, len(held), 8):
        trees = held[t:t + 8]
        keep = trees.take(presort, axis=1).ravel()
        size = int(keep.sum())
        np.compress(keep, presort + np.arange(t * n, (t + len(trees)) * n, n, dtype=np.int32)[:, None, None],
                    out=ids[at:at + size])
        at += size
    return ids


def _grow_group(X, XT, y, presort, bags, rngs, task, n_classes, min_split, min_leaf, depth_limit, max_features):
    (n, k), (n_trees, b) = X.shape, bags.shape
    classify = task == "classify"
    if classify:  # row f: the ids of the bag's distinct rows by feature f; id j weighs weight[j]
        weight = np.bincount((bags + np.arange(n_trees)[:, None] * n).ravel(), minlength=n_trees * n)
        held = (weight > 0).reshape(n_trees, n)
        order, width, rows = _held_ids(presort, held), held.sum(axis=1), k
        # row c < C - 1: the weights in class c; row C - 1: the weights
        weight = weight.reshape(n_trees, n)
        sums = np.stack([weight * (y == c) for c in range(n_classes - 1)] + [weight]).astype(np.float64)
        value = np.ascontiguousarray(sums.sum(axis=2).T)  # sums of integers: exact
        value[:, -1] -= value[:, :-1].sum(axis=1)
        sums = sums.reshape(n_classes, n_trees * n)
    else:  # row f < k: the ids of the bag's rows by feature f, ties in bag order; row k: the bag
        order = np.empty((n_trees, k + 1, b), dtype=np.int32)
        for t, bag in enumerate(bags):
            order[t, :k] = bag[np.argsort(X[bag], axis=0, kind="stable").T] + t * n
            order[t, k] = bag + t * n
        order, width, rows, y = order.ravel(), np.full(n_trees, b), k + 1, np.tile(y, n_trees)
    # ``order`` holds each tree's rows back to back, each ``width[t]`` ids long, where id t * n + i is
    # row i of tree t (its weights and goes_left's marks are at the id); a node of tree t owns
    # the m ids from start + f * width[t] of each row f and weighs w. The frontier holds the open nodes
    # of one depth, tree by tree and left to right; the j-th split's children are entries 2j, 2j + 1.
    tree, start = np.arange(n_trees), np.cumsum(rows * width) - rows * width
    m, w, levels = width, np.full(n_trees, b), []
    goes_left = np.zeros(n_trees * n, dtype=bool)  # by id: goes left in the split at hand

    def gini(value, w):
        p = value / w[:, None]
        return 1.0 - (p * p).sum(axis=1)

    def stops(w, impurity, depth):
        """Nodes that become leaves: by weight and depth, and by impurity where it is known."""
        stop = (w < min_split) | (w < 2 * min_leaf)
        if impurity is not None:
            stop |= impurity <= 0.0
        if depth_limit is not None:
            stop |= depth >= depth_limit
        return stop

    if classify:  # later nodes take their class counts from their parent's cut
        impurity = gini(value, w)
    while m.size:
        stride = width[tree]
        if not classify:  # node statistics from each node's rows in bag order
            value, impurity = np.empty(len(m)), np.empty(len(m))
            base = start + k * stride
            for s0, s1 in _chunks(m):
                value[s0:s1], impurity[s0:s1] = _moments(y.take(order.take(_ragged(base[s0:s1], m[s0:s1]))),
                                                         m[s0:s1])
        feature, threshold, decrease = np.full(len(m), -1), np.full(len(m), np.nan), np.zeros(len(m))
        split = np.flatnonzero(~stops(w, impurity, len(levels)))
        drawn = np.tile(np.arange(k), (split.size, 1))
        if max_features < k:  # each tree draws for its splitting nodes in one call, a row per node
            nodes = np.bincount(tree[split], minlength=n_trees).tolist()
            drawn = np.concatenate([r.random((c, k)).argsort(axis=1)[:, :max_features] for r, c in zip(rngs, nodes)])
        # one segment per (node, candidate feature), features in draw order
        seg_node, seg_feature = np.repeat(split, max_features), drawn.ravel()
        seg_len = m[seg_node]
        seg_base = start[seg_node] + seg_feature * stride[seg_node]
        best, cut = np.empty(len(seg_node)), np.empty(len(seg_node), dtype=np.intp)
        at_cut = np.empty((len(seg_node), n_classes)) if classify else None
        # padded blocks waste least on segments of similar length
        by_len = np.arange(len(seg_node)) if classify else np.argsort(seg_len, kind="stable")
        for s0, s1 in _chunks(seg_len[by_len], padded=not classify):
            s = by_len[s0:s1]
            ids = order.take(_ragged(seg_base[s], seg_len[s]))
            xs = XT.take(np.repeat((seg_feature[s] - tree[seg_node[s]]) * n, seg_len[s]) + ids)
            if classify:
                best[s], cut[s], at_cut[s] = _classify_cuts(xs, sums.take(ids, axis=1), seg_len[s], value[seg_node[s]],
                                                            min_leaf)
            else:
                best[s], cut[s] = _regress_cuts(xs, y.take(ids), seg_len[s], min_leaf)
        pick = np.arange(split.size) * max_features + best.reshape(split.size, max_features).argmin(axis=1)
        gain = impurity[split] - best[pick]  # -inf when no feature has a valid cut
        keep = gain > _MIN_DECREASE
        split, pick, gain = split[keep], pick[keep], gain[keep]
        f, at = seg_feature[pick], seg_base[pick] + cut[pick]
        column = (f - tree[split]) * n  # XT[column + id] is feature f of the id's row
        lo, hi = XT[column + order[at]], XT[column + order[at + 1]]
        thr = (lo + hi) / 2.0
        thr = np.where(thr >= hi, lo, thr)  # adjacent floats: keep the partition exactly at the sorted prefix
        feature[split], threshold[split], decrease[split] = f, thr, w[split] * gain
        levels.append((split, feature, threshold, value, w, impurity, decrease))
        n_left = cut[pick] + 1
        if classify:  # the children's class counts and weights: the left sums at the cut, and the rest
            left = at_cut[pick]
            w_left = left[:, -1].astype(np.int64)
            left[:, -1] -= left[:, :-1].sum(axis=1)
            value = np.stack([left, value[split] - left], axis=1).reshape(-1, n_classes)
        else:
            w_left = n_left
        tree, start = np.repeat(tree[split], 2), np.stack([start[split], start[split] + n_left], axis=1).ravel()
        m_split, m = m[split], np.stack([n_left, m[split] - n_left], axis=1).ravel()
        w = np.stack([w_left, w[split] - w_left], axis=1).ravel()
        if classify:
            impurity = gini(value, w)
        ends = stops(w, impurity if classify else None, len(levels))

        # partition the rows of every split: the ids among the first n_left of feature f's row,
        # which is in place, go left in every other row, each side in its order. Where both
        # children stop, no later step reads their rows, bar the bag order of regression's node
        # statistics.
        both = ends[0::2] & ends[1::2]
        count = np.where(both, 0 if classify else 1, rows - 1)
        row = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        row += row >= np.repeat(f, count)
        row[np.repeat(both, count)] = k
        part = np.repeat(np.arange(len(split)), count)
        part_len, part_left = m_split[part], n_left[part]
        part_base = start[2 * part] + row * stride[split][part]
        moved = count > 0
        marks = order[_ragged(seg_base[pick][moved], n_left[moved])] if moved.any() else []
        goes_left[marks] = True
        for s0, s1 in _chunks(part_len):
            lengths, lefts, base = part_len[s0:s1], part_left[s0:s1], part_base[s0:s1]
            ids = order.take(_ragged(base, lengths))
            to_left = goes_left.take(ids)
            order[_ragged(base, lefts)] = ids.compress(to_left)  # faster than a mask index on mixed masks
            order[_ragged(base + lefts, lengths - lefts)] = ids.compress(~to_left)
        goes_left[marks] = False

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
    with np.errstate(divide="ignore", invalid="ignore"):  # the cut scores divide by a right weight of 0
        groups = [_grow_group(X, XT, y, presort, bags[g:g + group], rngs[g:g + group], task, n_classes, min_split,
                              min_leaf, depth_limit, max_features) for g in range(0, len(bags), group)]
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
