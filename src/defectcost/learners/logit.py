"""Multinomial (softmax) logistic regression with elastic-net regularization.

Two-stage fit: stage 1 z-scores the features and runs proximal gradient
descent with the penalty lam * (alpha * ||W||_1 + (1 - alpha) / 2 * ||W||^2)
for every cell of a (lambda, alpha) grid, selecting the cell with the best
McFadden adjusted R^2. Each alpha is one lambda path with warm starts, and
all paths step in lockstep on stacked coefficients. Stage 2 refits without
penalty on the features that survived stage 1 (any non-zero coefficient), by
Newton's method, and reports raw-scale coefficients. Where those features
separate the classes, no maximum-likelihood estimate exists (Albert &
Anderson, Biometrika 71:1-10, 1984); stage 2 then reports the winning stage-1
cell. Intercepts are never penalized.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..extmath import column_sums

PROB_FLOOR = 1e-12
DEFAULT_LAMBDA_GRID = tuple(10.0**i for i in range(0, 6))
DEFAULT_ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(0, 11))
NEWTON_TOL = 1e-12  # stop when every NLL gradient entry is at most this times the row count
NEWTON_MAX_ITER = 50
SEPARATED_PROB = 1.0 - 1e-10  # an own-class probability above this at the stop means separation,
SETTLED_STEP = 1e-3  # unless the last step moved no z-scored coefficient by more than this

log = logging.getLogger(__name__)


def one_hot(y_idx: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[np.asarray(y_idx, dtype=np.int64)]


def row_reduce(ufunc: np.ufunc, z: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(z, axis=-1, keepdims=True)`` for np.maximum or np.add,
    bitwise. From 256 rows and for 0 < C < 8, C - 1 column passes beat numpy's
    per-row loop; there numpy adds a row left to right onto +0.0."""
    C = z.shape[-1]
    if not (0 < C < 8 and z.size >= 256 * C):
        return ufunc.reduce(z, axis=-1, keepdims=True)
    out = z[..., :1] + 0.0 if ufunc is np.add else z[..., :1].copy()
    for j in range(1, C):
        ufunc(out, z[..., j:j + 1], out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.subtract(logits, row_reduce(np.maximum, logits), dtype=np.float64)
    np.exp(z, out=z)  # in place: the grid's stacked arrays are (paths, n, C)
    return np.divide(z, row_reduce(np.add, z), out=z)


def _probs_nll(X: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray):
    """Probabilities and summed NLL of coefficients W (..., k, C), b (..., C)."""
    probs = softmax(X @ W + b[..., None, :])
    terms = np.maximum(probs, PROB_FLOOR)  # as clip(probs, PROB_FLOOR, 1): softmax gives at most 1
    return probs, -np.multiply(np.log(terms, out=terms), Y, out=terms).sum(axis=(-2, -1))


def _grad(X: np.ndarray, Y: np.ndarray, probs: np.ndarray):
    """NLL gradients w.r.t. W and b at the given probabilities."""
    diff = probs - Y
    return X.T @ diff, column_sums(diff)


def _smooth_and_objective(nll, W, ridge, l1):
    """NLL plus ridge, and that plus L1, per path."""
    g = nll + 0.5 * ridge * (W * W).sum(axis=(1, 2))
    return g, g + l1 * np.abs(W).sum(axis=(1, 2))


def _fit_paths(X, Y, lambda_grid, alpha_grid, tol, max_iter, W0=None, b0=None):
    """Proximal gradient descent with backtracking line search along one
    warm-started lambda path per alpha; yields (a, l, (W, b, objective, probs))
    as the cell of alpha a and lambda l finishes. Paths start from (W0, b0), by
    default zero coefficients and class frequencies, and each later lambda from
    the previous solution with step 1. A round makes one trial for every open
    path on stacked (paths, k, C) coefficients; the accepted trial's
    probabilities give the next gradient.
    """
    lams = np.asarray(lambda_grid, dtype=np.float64)
    alphas = np.asarray(alpha_grid, dtype=np.float64)
    W0 = np.zeros((X.shape[1], Y.shape[1])) if W0 is None else W0
    b0 = np.log(np.clip(Y.mean(axis=0), PROB_FLOOR, 1.0)) if b0 is None else b0
    W = np.repeat(W0[None], len(alphas), axis=0)
    b = np.repeat(b0[None], len(alphas), axis=0)
    probs, nll = _probs_nll(X, Y, W, b)
    path = np.arange(len(alphas))  # alpha index of each stacked row
    lam_i = iters = np.zeros(len(alphas), dtype=np.int64)
    step = np.ones(len(alphas))
    while len(path):
        ridge, l1 = lams[lam_i] * (1.0 - alphas[path]), lams[lam_i] * alphas[path]
        g, obj = _smooth_and_objective(nll, W, ridge, l1)
        done, two_step, tiny = iters >= max_iter, 2.0 * step, step < 1e-12
        while not np.count_nonzero(done):  # cheaper than any() and all() on a few paths
            gW, gb = _grad(X, Y, probs)
            gW = gW + ridge[:, None, None] * W
            V = W - step[:, None, None] * gW  # the proximal step soft-thresholds V
            W_new = np.sign(V) * np.maximum(np.abs(V) - (step * l1)[:, None, None], 0.0)
            b_new = b - step[:, None] * gb
            dW, db = W_new - W, b_new - b
            probs_new, nll_new = _probs_nll(X, Y, W_new, b_new)
            g_new, obj_new = _smooth_and_objective(nll_new, W_new, ridge, l1)
            quad = g + (gW * dW).sum(axis=(1, 2)) + (gb * db).sum(axis=1) + (
                (dW * dW).sum(axis=(1, 2)) + (db * db).sum(axis=1)) / two_step
            ok = (g_new <= quad + 1e-12) | tiny
            iters = iters + ok
            done = (np.abs(obj - obj_new) <= tol * np.fmax(1.0, np.abs(obj))) | (iters >= max_iter)
            if np.count_nonzero(ok) == len(ok):  # every trial accepted: no merge, same step
                W, b, probs, nll, g, obj = W_new, b_new, probs_new, nll_new, g_new, obj_new
                continue
            done &= ok
            step = np.where(ok, step, step * 0.5)
            two_step, tiny = 2.0 * step, step < 1e-12
            W, probs = np.where(ok[:, None, None], W_new, W), np.where(ok[:, None, None], probs_new, probs)
            b = np.where(ok[:, None], b_new, b)
            nll, g, obj = np.where(ok, nll_new, nll), np.where(ok, g_new, g), np.where(ok, obj_new, obj)
        # hand out the finished cells; their paths go on to the next lambda with step 1
        for r in np.flatnonzero(done):
            yield int(path[r]), int(lam_i[r]), (W[r], b[r], float(obj[r]), probs[r])
        lam_i, step, iters = lam_i + done, np.where(done, 1.0, step), np.where(done, 0, iters)
        keep = lam_i < len(lams)
        path, lam_i, W, b, probs, nll, step, iters = (
            a[keep] for a in (path, lam_i, W, b, probs, nll, step, iters))


def _newton_mle(Z: np.ndarray, Y: np.ndarray):
    """Softmax maximum likelihood by Newton's method with step halving, from
    the class frequencies, with the last class as reference: (W, b) with a zero
    last class, or None where the classes look separated. Under separation the
    NLL falls towards 0 and can meet the gradient stop, but the steps stay long;
    at an estimate they shrink quadratically."""
    n, C = Y.shape
    Z1 = np.column_stack([Z, np.ones(n)])  # the last row of theta holds the intercepts
    p, m = Z1.shape[1], C - 1
    theta = np.zeros((p, m))
    log_freq = np.log(Y.mean(axis=0))
    theta[-1] = log_freq[:m] - log_freq[m]

    def nll_probs(theta):
        logits = np.column_stack([Z1 @ theta, np.zeros(n)])
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        total = e.sum(axis=1, keepdims=True)
        return float(np.log(total).sum() - (logits * Y).sum()), e / total

    (nll, probs), moved = nll_probs(theta), 0.0
    for i in range(NEWTON_MAX_ITER + 1):
        G = Z1.T @ (probs - Y)
        if np.abs(G).max() <= NEWTON_TOL * n:
            break
        if i == NEWTON_MAX_ITER:
            return None
        H = np.empty((m, p, m, p))  # Hessian blocks Z1' diag(p_j (delta_jl - p_l)) Z1
        for j in range(m):
            for l in range(j, m):
                H[j, :, l] = H[l, :, j] = Z1.T @ ((probs[:, j] * (float(j == l) - probs[:, l]))[:, None] * Z1)
        H = H.reshape(m * p, m * p)
        H[np.diag_indices(m * p)] += 1e-13 * H.diagonal().max()  # collinear columns leave H singular
        try:
            d = np.linalg.solve(H, G[:, :m].T.ravel()).reshape(m, p).T
        except np.linalg.LinAlgError:
            return None
        step, bound = 1.0, nll + 1e-12 * nll  # near the optimum the NLL's rounding hides its fall
        while step >= 2.0**-50:  # a non-finite trial never passes
            trial_nll, trial_probs = nll_probs(theta - step * d)
            if trial_nll <= bound:
                break
            step *= 0.5
        else:
            return None
        theta, nll, probs, moved = theta - step * d, trial_nll, trial_probs, step * np.abs(d).max()
    if (probs * Y).sum(axis=1).max() > SEPARATED_PROB and moved > SETTLED_STEP:
        return None
    W = np.column_stack([theta, np.zeros(p)])
    return W[:-1], W[-1]


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
    """Log-likelihoods of a fit and of the intercept-only model, its column count and McFadden's adjusted R²."""

    log_likelihood: float
    log_likelihood_null: float
    k: int
    r2_adjusted: float


@dataclass(frozen=True)
class GridCell:
    """One (lambda, alpha) cell of the stage-1 grid: its adjusted R², L1 norm and selected column count."""

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
    stage2: str  # "mle", or "separated": no estimate exists, and stage 2 is the winning stage-1 cell
    grid: tuple[GridCell, ...] = field(default_factory=tuple)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return softmax(X[:, list(self.selected)] @ self.stage2_W + self.stage2_b)

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
    ``tol`` and ``max_iter`` bound each grid cell; the refit is Newton's.
    """
    X = np.asarray(X, dtype=np.float64)
    y_levels = list(y_levels)
    classes = tuple(sorted(set(y_levels)))
    if len(classes) < 2:
        raise ValueError("need at least two classes to fit a multinomial logit")
    if len(lambda_grid) == 0 or len(alpha_grid) == 0:
        raise ValueError("the lambda and alpha grids must not be empty")
    index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([index[v] for v in y_levels], dtype=np.int64)
    n_classes = len(classes)

    mu, sigma = X.mean(axis=0), X.std(axis=0)
    sigma = np.where(sigma == 0, 1.0, sigma)
    Xn = (X - mu) / sigma

    # score each cell as it finishes, so that only open paths hold probabilities
    Y = one_hot(y_idx, n_classes)
    scores = {}
    for a, l, (W, b, _, probs) in _fit_paths(Xn, Y, lambda_grid, alpha_grid, tol, max_iter):
        selected = np.flatnonzero(np.any(W != 0.0, axis=1))
        scores[a, l] = (mcfadden_adjusted_r2(probs, y_idx, k=len(selected)), float(np.abs(W).sum()), selected, W, b)
    best = None
    cells = []
    for (a, l), (r2, l1_norm, selected, W, b) in sorted(scores.items()):
        lam, alpha = float(lambda_grid[l]), float(alpha_grid[a])
        cells.append(GridCell(lam=lam, alpha=alpha, r2_adjusted=r2, l1_norm=l1_norm, n_selected=len(selected)))
        if best is None or r2 > best[0]:
            best = (r2, lam, alpha, tuple(int(i) for i in selected), W, b)

    _, lam, alpha, selected, W, b = best
    sel = list(selected)

    # stage 2: the unpenalized estimate on the surviving columns, or the winning cell where none exists
    mle = _newton_mle(Xn[:, sel], Y)
    if mle is None:
        log.warning("the %d columns selected by stage 1 separate the classes: no maximum-likelihood estimate "
                    "exists, so stage 2 reports the stage-1 cell lambda=%g, alpha=%g", len(sel), lam, alpha)
    Wn, bn = (W[sel], b) if mle is None else mle
    W2 = Wn / sigma[sel][:, None]  # back to the raw scales
    b2 = bn - mu[sel] @ W2
    if mle is not None:
        W2, b2 = W2 - W2.mean(axis=1, keepdims=True), b2 - b2.mean()

    probs2 = softmax(X[:, sel] @ W2 + b2)
    goodness = GoodnessOfFit(log_likelihood=log_likelihood(probs2, y_idx),
                             log_likelihood_null=null_log_likelihood(y_idx, n_classes),
                             k=len(sel), r2_adjusted=mcfadden_adjusted_r2(probs2, y_idx, k=len(sel)))
    return LogitModel(classes=classes, lam=lam, alpha=alpha, selected=selected, stage2_W=W2, stage2_b=b2,
                      goodness=goodness, grid=tuple(cells), stage2="separated" if mle is None else "mle")
