"""Scalar reference implementation of the elastic-net multinomial logit.

The reference below fits one (lambda, alpha) cell at a time with proximal
gradient descent and a backtracking line search, evaluating the softmax twice
per step, and walks the grid alpha-outer, lambda-ascending with warm starts.
On a seeded sweep (8-120 rows, 1-30 features with a constant column, 2-5
classes and, on both sides of the softmax's 8-class switch, 6-9 classes with an
all-zero column, grids from 1 x 1 to the default 11 x 6, iteration caps of 0,
1, 50, 500 and 5000, warm-started single fits, zero-penalty fits started at
-0.0 on the zero column, a grid that selects no feature) and
on the default grid over bootstrap records, the package must give
bitwise-equal coefficients, intercepts and objectives, every grid cell and the
selected features.

Stage 2 is referenced by a record-by-record Newton fit with the same stop and
separation rule. Where it finds the maximum-likelihood estimate, the package's
coefficients, probabilities and goodness of fit must agree with it to within
rounding; where it finds the classes separated, the package must report the
winning stage-1 cell on raw scales and its goodness of fit bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from defectcost import GaussianNBModel, SynthSpec, filter_releases, generate_synthetic, run_bootstrap
from defectcost.analysis import fit_imputer, records_matrix
from defectcost.experiments import BootstrapConfig
from defectcost.learners import fit_multinomial_logit_elastic_net
from defectcost.learners.logit import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_LAMBDA_GRID,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    PROB_FLOOR,
    SEPARATED_PROB,
    SETTLED_STEP,
    GoodnessOfFit,
    GridCell,
    log_likelihood,
    mcfadden_adjusted_r2,
    null_log_likelihood,
    one_hot,
)

from conftest import fit_penalized_softmax


def ref_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_softmax_nll_grad(W, b, X, Y):
    probs = ref_softmax(X @ W + b)
    ll_terms = np.log(np.clip(probs, PROB_FLOOR, 1.0))
    nll = -float(np.sum(Y * ll_terms))
    diff = probs - Y
    return nll, X.T @ diff, diff.sum(axis=0)


def ref_soft_threshold(W, t):
    return np.sign(W) * np.maximum(np.abs(W) - t, 0.0)


def ref_fit_penalized_softmax(X, y_idx, n_classes, lam, alpha, *, W0=None, b0=None, tol=1e-6, max_iter=5000):
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
        probs = ref_softmax(X @ Wc + bc)
        nll = -float(np.sum(Y * np.log(np.clip(probs, PROB_FLOOR, 1.0))))
        return nll + 0.5 * ridge * float(np.sum(Wc * Wc))

    step = 1.0
    obj_prev = smooth(W, b) + l1 * float(np.abs(W).sum())
    for _ in range(max_iter):
        nll, gW, gb = ref_softmax_nll_grad(W, b, X, Y)
        gW = gW + ridge * W
        g_here = nll + 0.5 * ridge * float(np.sum(W * W))
        while True:
            W_new = ref_soft_threshold(W - step * gW, step * l1)
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


def ref_newton(Z, y_idx, n_classes):
    """Newton's method with step halving on the softmax NLL, the last class as
    reference, accumulating the gradient and Hessian record by record. Returns
    (W, b) with a zero last class, or None where the classes look separated."""
    n, k = Z.shape
    m = n_classes - 1
    freq = np.bincount(y_idx, minlength=n_classes) / n
    theta = np.zeros((m, k + 1))  # per free class: the column weights, then the intercept
    theta[:, k] = np.log(freq[:m]) - np.log(freq[m])

    def record(theta, i):
        z = np.append(Z[i], 1.0)
        logits = np.append(theta @ z, 0.0)
        top = logits.max()
        p = np.exp(logits - top) / np.exp(logits - top).sum()
        return z, p, top + np.log(np.exp(logits - top).sum()) - logits[y_idx[i]]

    def nll(theta):
        return sum(record(theta, i)[2] for i in range(n))

    moved = 0.0
    for it in range(NEWTON_MAX_ITER + 1):
        grad = np.zeros((n_classes, k + 1))
        hess = np.zeros((m * (k + 1), m * (k + 1)))
        own = []
        for i in range(n):
            z, p, _ = record(theta, i)
            grad += np.outer(p - np.eye(n_classes)[y_idx[i]], z)
            hess += np.kron(np.diag(p[:m]) - np.outer(p[:m], p[:m]), np.outer(z, z))
            own.append(p[y_idx[i]])
        if np.abs(grad).max() <= NEWTON_TOL * n:
            return None if max(own) > SEPARATED_PROB and moved > SETTLED_STEP else (
                np.vstack([theta, np.zeros(k + 1)]).T[:k], np.append(theta[:, k], 0.0))
        if it == NEWTON_MAX_ITER:
            return None
        try:
            d = np.linalg.lstsq(hess, grad[:m].ravel(), rcond=None)[0].reshape(m, k + 1)
        except np.linalg.LinAlgError:
            return None
        here, step = nll(theta) * (1.0 + 1e-12), 1.0
        while step >= 2.0**-50 and not nll(theta - step * d) <= here:
            step /= 2
        if step < 2.0**-50:
            return None
        theta, moved = theta - step * d, np.abs(step * d).max()


def ref_stage2(X, y_idx, n_classes, selected, W_cell, b_cell):
    """Stage 2 on raw scales: the centred estimate, or the stage-1 cell."""
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma == 0, 1.0, sigma)
    sel = list(selected)
    mle = ref_newton(((X - mu) / sigma)[:, sel], y_idx, n_classes)
    Wn, bn = (W_cell[sel], b_cell) if mle is None else mle
    W2 = Wn / sigma[sel][:, None]
    b2 = bn - mu[sel] @ W2
    if mle is not None:
        W2, b2 = W2 - W2.mean(axis=1, keepdims=True), b2 - b2.mean()
    return W2, b2, "separated" if mle is None else "mle"


def ref_fit_grid(X, y_levels, lambda_grid, alpha_grid, *, tol=1e-6, max_iter=5000):
    """The grid walk and stage-2 refit; returns the fields of the model."""
    X = np.asarray(X, dtype=np.float64)
    y_levels = list(y_levels)
    classes = tuple(sorted(set(y_levels)))
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
            W, b, _ = ref_fit_penalized_softmax(
                Xn, y_idx, n_classes, lam, alpha, W0=W_warm, b0=b_warm, tol=tol, max_iter=max_iter
            )
            W_warm, b_warm = W, b
            selected = np.flatnonzero(np.any(W != 0.0, axis=1))
            probs = ref_softmax(Xn @ W + b)
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
                best = (r2, float(lam), float(alpha), tuple(int(i) for i in selected), W, b)

    _, lam, alpha, selected, W, b = best

    X2 = X[:, list(selected)]
    W2, b2, stage2 = ref_stage2(X, y_idx, n_classes, selected, W, b)

    probs2 = ref_softmax(X2 @ W2 + b2)
    ll = log_likelihood(probs2, y_idx)
    ll_null = null_log_likelihood(y_idx, n_classes)
    goodness = GoodnessOfFit(
        log_likelihood=ll,
        log_likelihood_null=ll_null,
        k=len(selected),
        r2_adjusted=mcfadden_adjusted_r2(probs2, y_idx, k=len(selected)),
    )
    return dict(classes=classes, lam=lam, alpha=alpha, selected=selected, stage2_W=W2, stage2_b=b2,
                stage2=stage2, X2=X2, probs=probs2, goodness=goodness, grid=tuple(cells))


def same_bits(a, b) -> bool:
    """Equal shape and bytes: NaN equals NaN, -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_model_matches(model, expected):
    assert model.classes == expected["classes"]
    assert len(model.grid) == len(expected["grid"])
    for got, want in zip(model.grid, expected["grid"]):
        assert (got.lam, got.alpha, got.n_selected) == (want.lam, want.alpha, want.n_selected)
        assert same_bits(got.r2_adjusted, want.r2_adjusted)
        assert same_bits(got.l1_norm, want.l1_norm)
    assert (model.lam, model.alpha, model.selected) == (expected["lam"], expected["alpha"], expected["selected"])
    assert_stage2_matches(model, expected)


def assert_stage2_matches(model, expected):
    """Bitwise for the stage-1 cell of separated classes; for the estimate,
    equal to within what rounding moves in a converged Newton fit."""
    assert model.stage2 == expected["stage2"]
    got, want = model.goodness, expected["goodness"]
    assert got.k == want.k and same_bits(got.log_likelihood_null, want.log_likelihood_null)
    if model.stage2 == "separated":
        assert same_bits(model.stage2_W, expected["stage2_W"])
        assert same_bits(model.stage2_b, expected["stage2_b"])
        for name in ("log_likelihood", "r2_adjusted"):
            assert same_bits(getattr(got, name), getattr(want, name))
        return
    probs = ref_softmax(expected["X2"] @ model.stage2_W + model.stage2_b)
    np.testing.assert_allclose(probs, expected["probs"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.stage2_W, expected["stage2_W"], rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(model.stage2_b, expected["stage2_b"], rtol=1e-6, atol=1e-9)
    for name in ("log_likelihood", "r2_adjusted"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9, abs=1e-12)


def sweep_data(case: int):
    """A seeded classification problem: class-shifted, rounded features with
    varied scales, sometimes a constant column. From case 40 on there are 6-9
    classes and always a constant column, of zeros."""
    rng = np.random.default_rng([6007, case])
    n = int(rng.integers(8, 121))
    k = int(rng.integers(1, 31))
    n_classes = int(rng.integers(2, 6) if case < 40 else rng.integers(6, 10))
    y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)])
    rng.shuffle(y)
    shift = rng.normal(0.0, float(rng.choice([0.0, 0.5, 2.0])), size=(n_classes, k))
    X = (rng.normal(size=(n, k)) + shift[y]) * rng.choice([0.01, 1.0, 100.0], size=k)
    X = np.round(X, int(rng.integers(0, 3)))
    if case % 3 == 0 or case >= 40:
        X[:, int(rng.integers(k))] = 7.0 if case < 40 else 0.0
    return X, y, n_classes


# (case, n_lambdas, n_alphas, max_iter); grids take the first entries of the defaults
GRID_CASES = [
    (0, 1, 1, 5000), (1, 2, 3, 5000), (2, 6, 11, 50), (3, 3, 2, 0), (4, 1, 4, 1),
    (5, 4, 5, 500), (6, 6, 2, 50), (7, 2, 6, 500), (8, 5, 3, 1), (9, 3, 7, 50),
    (10, 6, 1, 500), (11, 1, 11, 50), (12, 2, 2, 0), (13, 4, 3, 500), (14, 6, 4, 1),
    (15, 3, 3, 50), (16, 5, 2, 500), (17, 2, 9, 50), (18, 6, 11, 5000), (19, 4, 4, 0),
    (40, 6, 11, 50), (41, 3, 11, 500), (42, 2, 5, 5000), (43, 4, 7, 50), (44, 6, 3, 500),
    (45, 1, 11, 1), (46, 5, 9, 50), (55, 3, 6, 500),
]


@pytest.mark.parametrize("case, n_lambdas, n_alphas, max_iter", GRID_CASES)
def test_grid_matches_reference(case, n_lambdas, n_alphas, max_iter):
    X, y, _ = sweep_data(case)
    lambdas, alphas = DEFAULT_LAMBDA_GRID[:n_lambdas], DEFAULT_ALPHA_GRID[:n_alphas]
    model = fit_multinomial_logit_elastic_net(X, y, lambdas, alphas, max_iter=max_iter)
    assert_model_matches(model, ref_fit_grid(X, y, lambdas, alphas, max_iter=max_iter))


@pytest.mark.parametrize("case", [*range(20, 30), *range(40, 44)])
def test_warm_started_fits_match_reference(case):
    X, y, n_classes = sweep_data(case)
    rng = np.random.default_rng(case)
    Xn = (X - X.mean(axis=0)) / np.where(X.std(axis=0) == 0, 1.0, X.std(axis=0))
    max_iter = (0, 1, 50, 5000)[case % 4]
    alpha = float(rng.choice([0.0, 0.3, 1.0]))
    warm = warm_ref = (None, None)
    for lam in (0.0, 0.5, 3.0, 40.0):
        W, b, obj = fit_penalized_softmax(Xn, y, n_classes, lam, alpha, W0=warm[0], b0=warm[1], max_iter=max_iter)
        W_ref, b_ref, obj_ref = ref_fit_penalized_softmax(
            Xn, y, n_classes, lam, alpha, W0=warm_ref[0], b0=warm_ref[1], max_iter=max_iter)
        assert same_bits(W, W_ref) and same_bits(b, b_ref) and same_bits(obj, obj_ref)
        warm, warm_ref = (W, b), (W_ref, b_ref)
    # an arbitrary start, as a caller may pass one; from case 40 on a zero-penalty
    # fit whose all-zero column starts at -0.0
    W0, b0, lam = rng.normal(size=W.shape), rng.normal(size=n_classes), 1.0
    if case >= 40:
        W0[~Xn.any(axis=0)], lam = -0.0, 0.0
    got = fit_penalized_softmax(Xn, y, n_classes, lam, alpha, W0=W0, b0=b0, max_iter=max_iter)
    want = ref_fit_penalized_softmax(Xn, y, n_classes, lam, alpha, W0=W0, b0=b0, max_iter=max_iter)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_grid_selecting_no_feature_refits_intercepts_only():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, 40)
    lambdas, alphas = (1e4, 1e5), (0.5, 1.0)
    model = fit_multinomial_logit_elastic_net(X, y, lambdas, alphas)
    expected = ref_fit_grid(X, y, lambdas, alphas)
    assert expected["selected"] == () and model.stage2_W.shape == (0, 3)
    assert_model_matches(model, expected)


@pytest.fixture(scope="module")
def record_matrix():
    """Imputed records matrix and potential levels of bootstrap GNB records."""
    spec = SynthSpec(n_projects=2, releases_per_project=3, artifacts_range=(30, 40),
                     defect_ratio_range=(0.15, 0.2), n_features=3, signal=1.5)
    kept = filter_releases(generate_synthetic(spec, seed=5), min_instances=25, min_defects=3)
    records = run_bootstrap(kept, config=BootstrapConfig(n_samples=3, seed=21, model=GaussianNBModel())).records
    X, y = records_matrix(records)
    return fit_imputer(X).transform(X), y.tolist()


def test_default_grid_on_records_matches_reference(record_matrix):
    X, y = record_matrix
    model = fit_multinomial_logit_elastic_net(X, y)
    assert len(model.grid) == len(DEFAULT_LAMBDA_GRID) * len(DEFAULT_ALPHA_GRID)
    assert_model_matches(model, ref_fit_grid(X, y, DEFAULT_LAMBDA_GRID, DEFAULT_ALPHA_GRID))
