"""Multinomial (softmax) logistic regression with elastic-net regularization.

Two-stage fit: stage 1 z-scores the features and runs proximal gradient
descent with the penalty lam * (alpha * ||W||_1 + (1 - alpha) / 2 * ||W||^2)
for every cell of a (lambda, alpha) grid, selecting the cell with the best
McFadden adjusted R^2. Stage 2 refits without penalty and without
normalization on the features that survived stage 1 (any non-zero
coefficient), so stage-2 coefficients are interpretable on the raw scales.
Intercepts are never penalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12
DEFAULT_LAMBDA_GRID = tuple(10.0**i for i in range(0, 6))
DEFAULT_ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(0, 11))


def one_hot(y_idx: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[np.asarray(y_idx, dtype=np.int64)]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_nll_grad(W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """Summed negative log-likelihood and its gradients w.r.t. W and b.

    Y is one-hot (n, C); W is (k, C); b is (C,).
    """
    probs = softmax(X @ W + b)
    ll_terms = np.log(np.clip(probs, PROB_FLOOR, 1.0))
    nll = -float(np.sum(Y * ll_terms))
    diff = probs - Y
    return nll, X.T @ diff, diff.sum(axis=0)


def _soft_threshold(W: np.ndarray, t: float) -> np.ndarray:
    return np.sign(W) * np.maximum(np.abs(W) - t, 0.0)


def fit_penalized_softmax(
    X: np.ndarray,
    y_idx: np.ndarray,
    n_classes: int,
    lam: float,
    alpha: float,
    *,
    W0: np.ndarray | None = None,
    b0: np.ndarray | None = None,
    tol: float = 1e-6,
    max_iter: int = 5000,
):
    """Proximal gradient descent with backtracking line search.

    Returns (W, b, objective). The L1 part of the penalty is handled by the
    proximal (soft-threshold) step, the ridge part by the smooth gradient.
    """
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape
    Y = one_hot(y_idx, n_classes)
    W = np.zeros((k, n_classes)) if W0 is None else W0.copy()
    if b0 is None:
        freq = np.clip(Y.mean(axis=0), PROB_FLOOR, 1.0)
        b = np.log(freq)
    else:
        b = b0.copy()

    ridge = lam * (1.0 - alpha)
    l1 = lam * alpha

    def smooth(Wc, bc):
        probs = softmax(X @ Wc + bc)
        nll = -float(np.sum(Y * np.log(np.clip(probs, PROB_FLOOR, 1.0))))
        return nll + 0.5 * ridge * float(np.sum(Wc * Wc))

    step = 1.0
    obj_prev = smooth(W, b) + l1 * float(np.abs(W).sum())
    for _ in range(max_iter):
        nll, gW, gb = softmax_nll_grad(W, b, X, Y)
        gW = gW + ridge * W
        g_here = nll + 0.5 * ridge * float(np.sum(W * W))
        while True:
            W_new = _soft_threshold(W - step * gW, step * l1)
            b_new = b - step * gb
            dW = W_new - W
            db = b_new - b
            g_new = smooth(W_new, b_new)
            quad = (
                g_here
                + float(np.sum(gW * dW))
                + float(np.sum(gb * db))
                + (float(np.sum(dW * dW)) + float(np.sum(db * db))) / (2.0 * step)
            )
            if g_new <= quad + 1e-12 or step < 1e-12:
                break
            step *= 0.5
        W, b = W_new, b_new
        obj = g_new + l1 * float(np.abs(W).sum())
        if abs(obj_prev - obj) <= tol * max(1.0, abs(obj_prev)):
            obj_prev = obj
            break
        obj_prev = obj
    return W, b, obj_prev


def log_likelihood(probs: np.ndarray, y_idx: np.ndarray) -> float:
    """Sum of one-hot log probabilities, clipped to [PROB_FLOOR, 1]."""
    probs = np.clip(np.asarray(probs, dtype=np.float64), PROB_FLOOR, 1.0)
    y_idx = np.asarray(y_idx, dtype=np.int64)
    return float(np.sum(np.log(probs[np.arange(len(y_idx)), y_idx])))


def null_log_likelihood(y_idx: np.ndarray, n_classes: int) -> float:
    """Log-likelihood of the intercept-only model (class frequencies)."""
    y_idx = np.asarray(y_idx, dtype=np.int64)
    freq = np.bincount(y_idx, minlength=n_classes) / len(y_idx)
    freq = np.clip(freq, PROB_FLOOR, 1.0)
    return float(np.sum(np.log(freq[y_idx])))


def mcfadden_adjusted_r2(probs: np.ndarray, y_idx: np.ndarray, k: int) -> float:
    """1 - (LL - k) / LL_null with one-hot expected outcomes.

    Exactly 0 for the null model (class-frequency probabilities, k=0) and
    exactly 1 for perfect probabilities with k=0.
    """
    probs = np.asarray(probs, dtype=np.float64)
    ll = log_likelihood(probs, y_idx)
    ll_null = null_log_likelihood(y_idx, probs.shape[1])
    if ll_null == 0.0:
        return math.nan
    return 1.0 - (ll - k) / ll_null


@dataclass(frozen=True)
class GoodnessOfFit:
    log_likelihood: float
    log_likelihood_null: float
    k: int
    r2_adjusted: float


@dataclass(frozen=True)
class GridCell:
    lam: float
    alpha: float
    r2_adjusted: float
    l1_norm: float
    n_selected: int


@dataclass(frozen=True, eq=False)
class LogitModel:
    """Two-stage elastic-net multinomial logit."""

    classes: tuple
    lam: float
    alpha: float
    selected: tuple[int, ...]
    stage2_W: np.ndarray  # (len(selected), C), raw feature scale
    stage2_b: np.ndarray
    goodness: GoodnessOfFit
    grid: tuple[GridCell, ...] = field(default_factory=tuple)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.selected:
            logits = X[:, list(self.selected)] @ self.stage2_W + self.stage2_b
        else:
            logits = np.tile(self.stage2_b, (X.shape[0], 1))
        return softmax(logits)

    def predict(self, X) -> np.ndarray:
        return np.asarray(self.classes)[np.argmax(self.predict_proba(X), axis=1)]

    def coefficients(self) -> dict[int, np.ndarray]:
        """Stage-2 coefficient vector per selected feature index."""
        return {f: self.stage2_W[i] for i, f in enumerate(self.selected)}


def fit_multinomial_logit_elastic_net(
    X: np.ndarray,
    y_levels,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    alpha_grid=DEFAULT_ALPHA_GRID,
    *,
    tol: float = 1e-6,
    max_iter: int = 5000,
) -> LogitModel:
    """Grid-searched elastic-net softmax fit with unregularized refit.

    The grid cell maximizing McFadden's adjusted R^2 wins (first cell on
    ties, iterating alpha outer and lambda ascending with warm starts).
    """
    X = np.asarray(X, dtype=np.float64)
    y_levels = list(y_levels)
    classes = tuple(sorted(set(y_levels)))
    if len(classes) < 2:
        raise ValueError("need at least two classes to fit a multinomial logit")
    index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([index[v] for v in y_levels], dtype=np.int64)
    n_classes = len(classes)

    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma == 0, 1.0, sigma)
    Xn = (X - mu) / sigma

    best = None
    cells = []
    for alpha in alpha_grid:
        W_warm, b_warm = None, None
        for lam in lambda_grid:
            W, b, _ = fit_penalized_softmax(
                Xn, y_idx, n_classes, lam, alpha, W0=W_warm, b0=b_warm, tol=tol, max_iter=max_iter
            )
            W_warm, b_warm = W, b
            selected = np.flatnonzero(np.any(W != 0.0, axis=1))
            probs = softmax(Xn @ W + b)
            r2 = mcfadden_adjusted_r2(probs, y_idx, k=len(selected))
            cells.append(
                GridCell(
                    lam=float(lam),
                    alpha=float(alpha),
                    r2_adjusted=r2,
                    l1_norm=float(np.abs(W).sum()),
                    n_selected=len(selected),
                )
            )
            if best is None or r2 > best[0]:
                best = (r2, float(lam), float(alpha), tuple(int(i) for i in selected))

    _, lam, alpha, selected = best

    # stage 2: unpenalized, unnormalized refit on the surviving features
    X2 = X[:, list(selected)] if selected else np.zeros((len(y_idx), 0))
    W2, b2, _ = fit_penalized_softmax(
        X2, y_idx, n_classes, lam=0.0, alpha=0.0, tol=tol, max_iter=max_iter
    )

    probs2 = softmax(X2 @ W2 + b2)
    ll = log_likelihood(probs2, y_idx)
    ll_null = null_log_likelihood(y_idx, n_classes)
    goodness = GoodnessOfFit(
        log_likelihood=ll,
        log_likelihood_null=ll_null,
        k=len(selected),
        r2_adjusted=mcfadden_adjusted_r2(probs2, y_idx, k=len(selected)),
    )
    return LogitModel(
        classes=classes,
        lam=lam,
        alpha=alpha,
        selected=selected,
        stage2_W=W2,
        stage2_b=b2,
        goodness=goodness,
        grid=tuple(cells),
    )
