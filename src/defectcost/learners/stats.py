"""Spearman rank correlation with average-rank ties and pairwise NaN handling."""

from __future__ import annotations

import numpy as np

from ..extmath import UNDEFINED
from ..metrics import average_ranks


def _centred_ranks(x: np.ndarray):
    """Mid-ranks less their mean, and their sum of squares."""
    r = average_ranks(x)
    r = r - r.mean()
    return r, np.sum(r * r)


def _rho(rx, sxx, ry, syy) -> float:
    den = np.sqrt(sxx * syy)
    return UNDEFINED if den == 0 else float(np.sum(rx * ry) / den)


def spearman(x, y) -> float:
    """Pearson correlation of mid-ranks; undefined-marker entries are dropped
    pairwise and fewer than two surviving pairs yield the undefined marker."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("inputs must have the same length")
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    if len(x) < 2:
        return UNDEFINED
    return _rho(*_centred_ranks(x), *_centred_ranks(y))


def spearman_matrix(columns: np.ndarray) -> np.ndarray:
    """Pairwise Spearman matrix over the columns of a (n, k) array.

    A column without NaN is ranked once for all its pairs; a pair with a NaN
    column goes through ``spearman``, which drops that pair's NaN rows."""
    columns = np.asarray(columns, dtype=np.float64)
    ranked = [_centred_ranks(c) if len(c) >= 2 and not np.isnan(c).any() else None for c in columns.T]
    out = np.full((len(ranked), len(ranked)), UNDEFINED)
    np.fill_diagonal(out, 1.0)
    for i in range(len(ranked)):
        for j in range(i + 1, len(ranked)):
            rho = _rho(*ranked[i], *ranked[j]) if ranked[i] and ranked[j] else spearman(columns[:, i], columns[:, j])
            out[i, j] = out[j, i] = rho
    return out
