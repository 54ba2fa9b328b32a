"""Random forests over the CART trees, with out-of-bag scoring.

The three tunable parameters follow the defect-prediction setup: the ratio of
features drawn per split, the minimal instances for a decision, and the
minimal instances per leaf. Tree depth is not limited for prediction forests;
n_trees is fixed (100 by default) and not part of the tuning space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..extmath import UNDEFINED
from ..metrics import mcc_from_counts
from .de import differential_evolution
from .tree import (
    Tree,
    gini_importance,
    grow_trees,
    predict_proba_tree,
    predict_tree_regression,
)

FEATURE_RATIO_BOUNDS = (0.0, 1.0)
MIN_SPLIT_BOUNDS = (2, 20)
MIN_LEAF_BOUNDS = (1, 20)


@dataclass(frozen=True)
class ForestParams:
    feature_ratio: float = 1.0
    min_split: int = 2
    min_leaf: int = 1
    n_trees: int = 100
    depth_limit: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        if not (0.0 < self.feature_ratio <= 1.0):
            raise ValueError(f"feature_ratio must be in (0, 1], got {self.feature_ratio}")
        if not (MIN_SPLIT_BOUNDS[0] <= self.min_split <= MIN_SPLIT_BOUNDS[1]):
            raise ValueError(f"min_split must be in {MIN_SPLIT_BOUNDS}, got {self.min_split}")
        if not (MIN_LEAF_BOUNDS[0] <= self.min_leaf <= MIN_LEAF_BOUNDS[1]):
            raise ValueError(f"min_leaf must be in {MIN_LEAF_BOUNDS}, got {self.min_leaf}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")

    def max_features(self, n_features: int) -> int:
        return max(1, min(n_features, math.ceil(self.feature_ratio * n_features)))


@dataclass(frozen=True, eq=False)
class Forest:
    task: str
    params: ForestParams
    trees: tuple[Tree, ...]
    in_bag: tuple[np.ndarray, ...]  # in-bag row indices per tree
    n_train: int
    n_classes: int = 2

    def predict_proba(self, X) -> np.ndarray:
        if self.task != "classify":
            raise ValueError("predict_proba is only defined for classifiers")
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            acc += predict_proba_tree(tree, X, self.n_classes)
        return acc / len(self.trees)

    def predict(self, X) -> np.ndarray:
        if self.task == "classify":
            return np.argmax(self.predict_proba(X), axis=1)
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += predict_tree_regression(tree, X)
        return acc / len(self.trees)

    def oob_proba(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(mask of rows with any out-of-bag vote, averaged probabilities)."""
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        acc = np.zeros((n, self.n_classes))
        votes = np.zeros(n)
        for tree, bag in zip(self.trees, self.in_bag):
            oob = np.ones(n, dtype=bool)
            oob[bag] = False
            if not oob.any():
                continue
            acc[oob] += predict_proba_tree(tree, X[oob], self.n_classes)
            votes[oob] += 1
        mask = votes > 0
        probs = np.zeros_like(acc)
        probs[mask] = acc[mask] / votes[mask, None]
        return mask, probs


def train_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    seed: int,
    task: str = "classify",
    n_classes: int | None = None,
) -> Forest:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) == 0 or len(X) != len(y):
        raise ValueError("invalid training data")
    if task == "classify":
        if n_classes is None:
            n_classes = int(np.max(y)) + 1
    else:
        n_classes = 0
    n = len(X)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, t])) for t in range(params.n_trees)]
    # each tree's generator draws its bag first, then its per-split candidate features
    bags = [rng.integers(0, n, size=n) if params.bootstrap else np.arange(n) for rng in rngs]
    trees = grow_trees(X, y, bags, rngs, task=task, n_classes=n_classes, min_split=params.min_split,
                       min_leaf=params.min_leaf, depth_limit=params.depth_limit,
                       max_features=params.max_features(X.shape[1]))
    return Forest(
        task=task,
        params=params,
        trees=tuple(trees),
        in_bag=tuple(bags),
        n_train=n,
        n_classes=n_classes,
    )


def forest_importance(forest: Forest, n_features: int) -> np.ndarray:
    """Mean of the per-tree normalized Gini importances."""
    acc = np.zeros(n_features)
    for tree in forest.trees:
        acc += gini_importance(tree, n_features)
    return acc / len(forest.trees)


def _oob_labels(forest: Forest, X, y, scored=None) -> tuple[np.ndarray, np.ndarray]:
    """(true, predicted) labels of the ``scored`` rows (default all) that have
    an out-of-bag vote."""
    mask, probs = forest.oob_proba(X)
    if scored is not None:
        mask = mask & scored
    return np.asarray(y)[mask], np.argmax(probs[mask], axis=1)


def oob_mcc(forest: Forest, X, y, scored=None) -> float:
    """Matthews correlation of out-of-bag predictions (binary labels).

    ``scored`` masks the training rows that enter the score (default all).
    """
    truth, pred = _oob_labels(forest, X, y, scored)
    if not len(truth):
        return UNDEFINED
    tp = int(np.sum((truth == 1) & (pred == 1)))
    fp = int(np.sum((truth == 0) & (pred == 1)))
    tn = int(np.sum((truth == 0) & (pred == 0)))
    fn = int(np.sum((truth == 1) & (pred == 0)))
    return mcc_from_counts(tp, fp, tn, fn)


def oob_accuracy(forest: Forest, X, y) -> float:
    truth, pred = _oob_labels(forest, X, y)
    if not len(truth):
        return UNDEFINED
    return float(np.mean(pred == truth))


def params_from_vector(vec, base: ForestParams = ForestParams()) -> ForestParams:
    """Map a (feature_ratio, min_split, min_leaf) tuning vector onto ForestParams.

    feature_ratio 0 is lifted to the smallest usable value since at least one
    feature is always drawn per split.
    """
    ratio = min(max(float(vec[0]), 1e-9), 1.0)
    min_split = int(round(float(vec[1])))
    min_leaf = int(round(float(vec[2])))
    min_split = min(max(min_split, MIN_SPLIT_BOUNDS[0]), MIN_SPLIT_BOUNDS[1])
    min_leaf = min(max(min_leaf, MIN_LEAF_BOUNDS[0]), MIN_LEAF_BOUNDS[1])
    return replace(base, feature_ratio=ratio, min_split=min_split, min_leaf=min_leaf)


def tune_forest_params(
    X,
    y,
    seed: int,
    score,
    n_classes: int,
    base: ForestParams = ForestParams(),
    population: int = 20,
    generations: int = 30,
) -> ForestParams:
    """Differential-evolution search over (feature_ratio, min_split, min_leaf).

    Maximizes ``score(forest, X, y)``, an out-of-bag score such as
    ``oob_mcc``; candidates with an undefined score lose. Every other setting
    comes from ``base``.
    """

    def objective(vec):
        forest = train_random_forest(X, y, params_from_vector(vec, base=base), seed=seed, n_classes=n_classes)
        value = score(forest, X, y)
        return np.inf if math.isnan(value) else -value

    best, _ = differential_evolution(
        objective,
        bounds=[FEATURE_RATIO_BOUNDS, MIN_SPLIT_BOUNDS, MIN_LEAF_BOUNDS],
        population=population,
        generations=generations,
        integer_dims=(1, 2),
        seed=seed,
    )
    return params_from_vector(best, base=base)
