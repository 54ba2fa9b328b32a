"""Gaussian naive-bayes-style classifier used by the transfer pipelines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..extmath import column_sums


@dataclass(frozen=True, eq=False)
class GaussianNB:
    """A fitted Gaussian naive Bayes: per class its prior and its feature means and variances."""

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
    """Class priors, and per class the feature means and variances plus
    ``1e-9 * max(largest feature variance, 1)``. The moments are those of
    numpy's ``mean`` and ``var`` bit for bit; the deviations of the whole pool
    and then each class's rows go through one scratch array."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes, counts = np.unique(y, return_counts=True)  # with counts, np.unique skips its numpy.ma import
    n, k = X.shape
    scratch = np.empty_like(X)  # laid out as X - mean is, so that its sums add in X.var's order
    dev = np.subtract(X, column_sums(X) / n, out=scratch)
    eps = 1e-9 * max(float((column_sums(np.multiply(dev, dev, out=dev)) / n).max()), 1.0)
    flat = scratch.ravel(order="K")  # a view, and C-ordered blocks of it are laid out as X[mask] is
    means, variances = [], []
    for c, count in zip(classes, counts):
        rows = np.compress(y == c, X, axis=0, out=flat[: count * k].reshape(count, k))
        means.append(column_sums(rows) / count)
        d = np.subtract(rows, means[-1], out=rows)
        variances.append(column_sums(np.multiply(d, d, out=d)) / count + eps)
    return GaussianNB(
        classes=classes,
        priors=counts / len(y),
        means=np.array(means),
        variances=np.array(variances),
    )
