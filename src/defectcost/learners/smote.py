"""SMOTE oversampling plus a DE-tuned variant of its two parameters.

Synthetic minority points are convex combinations x + u * (nn - x) with
u ~ U[0, 1) between a minority point and one of its k nearest minority
neighbors, so synthetics never leave the minority bounding box.
"""

from __future__ import annotations

import math

import numpy as np

from .de import differential_evolution
from .forest import ForestParams, oob_mcc, train_random_forest


def _n_synthetic(n_minority: int, n_majority: int, target_ratio: float) -> int:
    """Smallest count lifting the minority fraction to at least target_ratio."""
    if not (0.0 < target_ratio < 1.0):
        raise ValueError(f"target_ratio must be in (0, 1), got {target_ratio}")
    need = (target_ratio * n_majority - (1 - target_ratio) * n_minority) / (1 - target_ratio)
    return max(0, math.ceil(need))


def smote_oversample(
    X_minority: np.ndarray,
    X_majority: np.ndarray,
    k_neighbors: int = 5,
    target_ratio: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic minority samples; returns an array of shape (n_synthetic, k).

    Requires at least two minority samples. ``k_neighbors`` is capped at
    |minority| - 1.
    """
    X_minority = np.asarray(X_minority, dtype=np.float64)
    X_majority = np.asarray(X_majority, dtype=np.float64)
    n_min = len(X_minority)
    if n_min < 2:
        raise ValueError("SMOTE needs at least two minority samples")
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    k = min(k_neighbors, n_min - 1)
    n_syn = _n_synthetic(n_min, len(X_majority), target_ratio)
    if n_syn == 0:
        return np.empty((0, X_minority.shape[1]))

    # k nearest minority neighbors per minority point (excluding itself)
    d2 = np.sum((X_minority[:, None, :] - X_minority[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]

    rng = np.random.default_rng(seed)
    base = rng.integers(0, n_min, size=n_syn)
    pick = rng.integers(0, k, size=n_syn)
    u = rng.random(n_syn)
    origin = X_minority[base]
    target = X_minority[neighbors[base, pick]]
    return origin + u[:, None] * (target - origin)


def apply_smote(
    X: np.ndarray,
    y: np.ndarray,
    k_neighbors: int = 5,
    target_ratio: float = 0.5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Oversample the minority class of a labeled training set.

    Synthetic rows are appended after the originals; returns (X', y').
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_pos = int(y.sum())
    minority = 1 if n_pos * 2 <= len(y) else 0
    X_min = X[y == minority]
    X_maj = X[y != minority]
    if len(X_min) < 2:
        raise ValueError("SMOTE needs at least two minority samples")
    synth = smote_oversample(X_min, X_maj, k_neighbors, target_ratio, seed)
    X_aug = np.vstack([X, synth])
    y_aug = np.concatenate([y, np.full(len(synth), minority, dtype=np.int64)])
    return X_aug, y_aug


# the search box of the tuned-SMOTE approximation: k_neighbors and target_ratio
SMOTE_K_BOUNDS = (1, 10)
SMOTE_RATIO_BOUNDS = (0.3, 0.7)
# its DE budget, and the trees of each objective's forest
TUNE_POPULATION = 8
TUNE_GENERATIONS = 5
TUNE_OBJECTIVE_TREES = 25


def tune_smote(X: np.ndarray, y: np.ndarray, seed: int) -> tuple[int, float]:
    """Pick (k_neighbors, target_ratio) maximizing forest OOB MCC on real rows.

    OOB predictions of synthetic rows are not scored; only the original
    samples enter the objective.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    params = ForestParams(n_trees=TUNE_OBJECTIVE_TREES)

    def objective(vec):
        k = int(vec[0])
        ratio = float(vec[1])
        try:
            X_aug, y_aug = apply_smote(X, y, k_neighbors=k, target_ratio=ratio, seed=seed)
        except ValueError:
            return np.inf
        forest = train_random_forest(X_aug, y_aug, params, seed=seed)
        mcc = oob_mcc(forest, X_aug, y_aug, scored=np.arange(len(y_aug)) < len(y))
        return np.inf if math.isnan(mcc) else -mcc

    best, _ = differential_evolution(
        objective,
        bounds=[SMOTE_K_BOUNDS, SMOTE_RATIO_BOUNDS],
        population=TUNE_POPULATION,
        generations=TUNE_GENERATIONS,
        integer_dims=(0,),
        seed=seed,
    )
    return int(best[0]), float(best[1])
