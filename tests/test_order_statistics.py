"""The report's order statistics against numpy's, bit for bit: the imputer's
column medians against ``np.nanmedian`` and the Q-Q sample quantiles against
``np.quantile``, which both import numpy.ma on first use."""

import numpy as np
import pytest

from defectcost.analysis import fit_imputer, sorted_quantiles
from defectcost.experiments import VARIABLE_NAMES

K = len(VARIABLE_NAMES)
VALUES = np.array([-0.0, 0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, 1e308, -1e308, 5e-324, np.nan])

# columns padded with NaN to one length: odd and even counts of known values,
# one known value, +-inf, signed zeros and overflow of the middle values' sum
COLUMNS = [
    [1.0, np.nan, 3.0], [1.0, 2.0, 4.0], [np.nan, 5.0, np.nan], [np.nan, np.nan, -0.0],
    [-0.0, -0.0], [-0.0, np.nan, 0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, -0.0], [-0.0, 1.0, -0.0, -1.0],
    [np.inf, -np.inf], [np.inf, 1.0, 2.0], [np.inf, np.inf, np.nan], [-np.inf, np.nan, -np.inf, 3.0],
    [1e308, 1e308], [-1e308, 1e308, 5e-324], [np.nan] * 4,
]


def assert_medians_are_nanmedian(X):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf or overflow in the middle values, in both
        got = fit_imputer(X).medians
        for j in range(K):
            col = X[:, j]
            want = np.nanmedian(col) if not np.isnan(col).all() else 0.0
            assert np.float64(got[j]).tobytes() == np.float64(want).tobytes(), (col, got[j], want)


def test_imputer_medians_of_hand_picked_columns():
    rows = max(map(len, COLUMNS))
    X = np.full((rows, K), np.nan)
    for j, col in enumerate((COLUMNS + [col[::-1] for col in COLUMNS])[:K]):  # reversed: another order
        X[:len(col), j] = col
    assert_medians_are_nanmedian(X)


@pytest.mark.parametrize("seed", range(20))
def test_imputer_medians_of_random_columns(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 90))
    X = np.empty((n, K))
    for j in range(K):
        weights = rng.random(len(VALUES))
        X[:, j] = rng.choice(VALUES, size=n, p=weights / weights.sum())
        noisy = rng.random(n) < rng.random()
        X[noisy, j] += rng.normal(size=int(noisy.sum()))
    assert_medians_are_nanmedian(X)


@pytest.mark.parametrize("seed", range(20))
def test_sorted_quantiles_match_numpy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 600))
    a = np.sort(rng.choice([rng.normal(size=n) * 10.0 ** rng.integers(-5, 5), rng.integers(-3, 3, size=n) * 1.0]))
    for points in {1, 2, 3, min(n, 256), int(rng.integers(1, n + 1))}:
        probs = (np.arange(points) + 0.5) / points
        assert sorted_quantiles(a, probs).tobytes() == np.quantile(a, probs).tobytes()
    probs = np.concatenate([[0.0], rng.random(50)])
    assert sorted_quantiles(a, probs).tobytes() == np.quantile(a, probs).tobytes()
