"""Gaussian naive-bayes-style classifier used by the transfer pipelines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class GaussianNB:
    classes: np.ndarray
    priors: np.ndarray
    means: np.ndarray  # (C, k)
    variances: np.ndarray  # (C, k)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        log_post = np.log(self.priors)[None, :] + np.zeros((X.shape[0], len(self.classes)))
        for c in range(len(self.classes)):
            var = self.variances[c]
            log_post[:, c] += -0.5 * np.sum(
                np.log(2 * np.pi * var) + (X - self.means[c]) ** 2 / var, axis=1
            )
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)


def train_gaussian_nb(X, y) -> GaussianNB:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes, counts = np.unique(y, return_counts=True)  # with counts, np.unique skips its numpy.ma import
    eps = 1e-9 * max(float(X.var(axis=0).max()), 1.0)
    means, variances = [], []
    for c in classes:
        rows = X[y == c]
        means.append(rows.mean(axis=0))
        d = rows - means[-1]  # the steps of rows.var(axis=0) without its second mean: the same bits
        d *= d
        variances.append(d.sum(axis=0) / len(rows) + eps)
    return GaussianNB(
        classes=classes,
        priors=counts / len(y),
        means=np.array(means),
        variances=np.array(variances),
    )
